import importlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from quadgauss.counter import count_ptf_gaussian
from quadgauss.hardness import SubsetSumInstance, gen_deg2_cube_instance
from quadgauss.quadform import (
    ConstantPolynomialError,
    DecoupledConstraint,
    QuadraticForm,
    RoundingConfig,
    decouple,
    evaluate,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    normalize,
    round_coefficients,
    save_instance,
    sign_at,
)

import oracles


def random_form(gen, n):
    m = gen.normal(size=(n, n))
    return QuadraticForm(A=0.5 * (m + m.T), b=gen.normal(size=n), c=float(gen.normal()))


class TestEvaluate:
    def test_constant(self):
        q = QuadraticForm(A=np.zeros((2, 2)), b=np.zeros(2), c=5.0)
        assert evaluate(q, np.array([3.0, -1.0])) == 5.0

    def test_sphere(self):
        q = QuadraticForm(A=np.eye(2), b=np.zeros(2), c=-2.0)
        assert evaluate(q, np.array([1.0, 1.0])) == 0.0

    def test_subset_sum_solution_is_zero(self):
        inst = SubsetSumInstance(w0=8, w=(3, 5), variant="cube01")
        p, _ = gen_deg2_cube_instance(inst, 4.0)
        assert evaluate(p, np.array([1.0, 1.0])) == 0.0

    def test_batch_matches_scalar(self):
        gen = np.random.default_rng(0)
        q = random_form(gen, 3)
        xs = gen.normal(size=(50, 3))
        batch = evaluate(q, xs)
        for i in range(50):
            assert batch[i] == pytest.approx(evaluate(q, xs[i]), rel=1e-14)

    def test_dimension_mismatch(self):
        q = QuadraticForm(A=np.eye(2), b=np.zeros(2), c=0.0)
        with pytest.raises(ValueError):
            evaluate(q, np.zeros(3))

    @pytest.mark.parametrize("shape", [(4,), (7, 4), (3, 5, 4)])
    def test_matches_explicit_sum(self, shape):
        gen = np.random.default_rng(1)
        q = random_form(gen, 4)
        xs = gen.normal(size=shape)
        got = evaluate(q, xs)
        pts = xs.reshape(-1, 4)
        want = [
            math.fsum(
                [x[i] * q.A[i, j] * x[j] for i in range(4) for j in range(4)]
                + [q.b[i] * x[i] for i in range(4)]
                + [q.c]
            )
            for x in pts
        ]
        assert np.shape(got) == shape[:-1]
        np.testing.assert_allclose(np.reshape(got, -1), want, rtol=1e-12)
        if len(shape) == 1:
            assert type(got) is float


class TestSignAt:
    def test_zero_is_positive(self):
        q = QuadraticForm(A=np.zeros((1, 1)), b=np.zeros(1), c=0.0)
        assert sign_at(q, np.zeros(1)) == 1

    def test_negative(self):
        q = QuadraticForm(A=np.zeros((1, 1)), b=np.zeros(1), c=-0.3)
        assert sign_at(q, np.zeros(1)) == -1

    def test_positive(self):
        q = QuadraticForm(A=np.zeros((1, 1)), b=np.zeros(1), c=2.0)
        assert sign_at(q, np.zeros(1)) == 1

    def test_is_constant_only_when_A_and_b_vanish(self):
        z = np.zeros((2, 2))
        assert QuadraticForm(A=z, b=np.zeros(2), c=-3.0).is_constant
        assert QuadraticForm(A=-z, b=-np.zeros(2), c=0.0).is_constant  # -0.0 is zero
        assert not QuadraticForm(A=z, b=np.array([0.0, 1e-300]), c=0.0).is_constant
        off = np.array([[0.0, 1e-300], [1e-300, 0.0]])
        assert not QuadraticForm(A=off, b=np.zeros(2), c=0.0).is_constant


class TestDecouple:
    def test_already_diagonal(self):
        q = QuadraticForm(A=-np.eye(2), b=np.zeros(2), c=2.0)
        dc = decouple(q)
        assert np.allclose(dc.lam, [1.0, 1.0])
        assert np.allclose(dc.mu, 0.0)
        assert dc.theta == 2.0

    def test_cross_term(self):
        # -2 x1 x2 + 1: eigenvalues +-1, rotation by 45 degrees
        q = QuadraticForm(A=np.array([[0.0, -1.0], [-1.0, 0.0]]), b=np.zeros(2), c=1.0)
        dc = decouple(q)
        assert sorted(dc.lam.tolist()) == pytest.approx([-1.0, 1.0], abs=1e-12)
        assert dc.theta == 1.0
        assert np.allclose(np.abs(dc.rotation), np.full((2, 2), 1 / math.sqrt(2)), atol=1e-12)

    def test_pure_linear(self):
        q = QuadraticForm(A=np.zeros((1, 1)), b=np.array([1.0]), c=0.0)
        dc = decouple(q)
        assert dc.lam[0] == 0.0
        assert dc.mu[0] == -1.0
        assert dc.theta == 0.0

    def test_roundtrip_identity(self):
        gen = np.random.default_rng(1)
        for n in (1, 2, 3, 5):
            for _ in range(20):
                q = random_form(gen, n)
                dc = decouple(q)
                x = gen.normal(size=n)
                y = dc.rotation.T @ x
                lhs = evaluate(q, x)
                rhs = -(dc.value(y) - dc.theta)
                assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)

    def test_acceptance_region_preserved(self):
        gen = np.random.default_rng(2)
        q = random_form(gen, 3)
        dc = decouple(q)
        for _ in range(200):
            y = gen.normal(size=3)
            x = dc.rotation @ y
            assert (evaluate(q, x) >= 0.0) == bool(dc.accepts(y))


def bench_instance(monkeypatch, seed, n):
    """The instance of ``bench/workloads.py``, imported as ``bench/test_smoke.py``
    imports it."""
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "bench"))
    return importlib.import_module("workloads").bench_instance(seed, n)


def eigenpairs(a):
    """(lam, R) of decouple on x^T a x: lam are the eigenvalues of -a."""
    dc = decouple(QuadraticForm(A=a, b=np.zeros(a.shape[0]), c=0.0))
    return dc.lam, dc.rotation


class TestDecoupleEigenpairs:
    """decouple's eigenpairs: A = R diag(-lam) R^T, lam ascending."""

    def test_identity(self):
        lam, r = eigenpairs(np.eye(2))
        assert np.allclose(lam, [-1.0, -1.0])
        assert np.allclose(r.T @ r, np.eye(2), atol=1e-12)

    def test_diagonal(self):
        lam, r = eigenpairs(np.diag([3.0, 2.0]))
        assert np.allclose(lam, [-3.0, -2.0])
        assert np.allclose(np.abs(r), np.eye(2), atol=1e-12)

    def test_offdiagonal_closed_form(self):
        lam, r = eigenpairs(np.array([[0.0, 1.0], [1.0, 0.0]]))
        (w1, w2), (v1, v2) = oracles.eig2_closed(0.0, 1.0, 0.0)
        assert np.allclose(lam, [-w1, -w2], atol=1e-14)
        for col, v in ((r[:, 0], v1), (r[:, 1], v2)):
            assert min(np.linalg.norm(col - v), np.linalg.norm(col + v)) < 1e-12

    def test_random_closed_form_2x2(self):
        gen = np.random.default_rng(11)
        for _ in range(50):
            a11, a12, a22 = gen.normal(size=3) * 3.0
            lam, _ = eigenpairs(np.array([[a11, a12], [a12, a22]]))
            (w1, w2), _ = oracles.eig2_closed(a11, a12, a22)
            assert np.allclose(lam, [-w1, -w2], rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_scale_equivariant(self, scale):
        # the eigenvalues scale with A, and the snap tolerance with them
        gen = np.random.default_rng(13)
        m = gen.normal(size=(4, 4))
        a = 0.5 * (m + m.T)
        lam, r = eigenpairs(a)
        lams, rs = eigenpairs(a * scale)
        np.testing.assert_allclose(lams / scale, lam, rtol=1e-12)
        np.testing.assert_allclose(np.abs(rs), np.abs(r), atol=1e-10)

    def test_reconstruction_and_orthonormality(self, monkeypatch):
        gen = np.random.default_rng(12)
        mats = [bench_instance(monkeypatch, 1, 32).A]
        for n in range(1, 9):
            for _ in range(10):
                m = gen.normal(size=(n, n))
                mats.append(0.5 * (m + m.T))
        for a in mats:
            lam, r = eigenpairs(a)
            n = a.shape[0]
            scale = max(np.linalg.norm(a), 1e-30)
            assert np.linalg.norm(a - r @ np.diag(-lam) @ r.T) <= 1e-10 * scale
            assert np.linalg.norm(r.T @ r - np.eye(n)) <= 1e-10
            assert np.all(np.diff(lam) >= 0.0)

    @pytest.mark.parametrize(
        "a",
        [[[1e308, 0.0], [0.0, -1e308]], [[0.0, 1e308], [1e308, 0.0]]],
        ids=["diagonal", "offdiagonal"],
    )
    def test_norm_beyond_float_range(self, a):
        # ||A||_F overflows while every eigenvalue is finite: no coefficient
        # snaps to 0, and nothing warns (a RuntimeWarning fails the suite)
        lam, r = eigenpairs(np.array(a))
        assert lam.tolist() == pytest.approx([-1e308, 1e308], rel=1e-15)
        assert np.allclose(r.T @ r, np.eye(2), atol=1e-12)


class TestDecoupleOverflow:
    def test_huge_finite_eigenvalues_are_kept(self):
        # -1e308 |x|^2 + 1 >= 0 is the ball |x|^2 <= 1e-308, of mass about 0
        # (an overflowing snap tolerance once read it as the constant 1)
        q = QuadraticForm(A=-1e308 * np.eye(4), b=np.zeros(4), c=1.0)
        assert decouple(q).lam.tolist() == [1e308] * 4
        res = count_ptf_gaussian(q)
        assert res.below_floor and res.estimate < 1e-10

    def test_huge_finite_linear_terms_are_kept(self):
        # the half-plane x1 + x2 >= 0, of mass 1/2
        q = QuadraticForm(A=np.zeros((2, 2)), b=np.array([1.5e308, 1.5e308]), c=0.0)
        assert np.all(decouple(q).mu == -q.b)
        res = count_ptf_gaussian(q)
        assert res.estimate == pytest.approx(0.5, rel=res.eps)
        smaller = QuadraticForm(A=q.A, b=q.b / 1.5e8, c=0.0)
        assert res.estimate == pytest.approx(count_ptf_gaussian(smaller).estimate, rel=1e-9)

    @pytest.mark.parametrize(
        "a, b",
        [
            ([[-1.5e308, -1.5e308], [-1.5e308, -1.5e308]], [0.0, 0.0]),
            ([[0.0, 1e-300], [1e-300, 0.0]], [1.5e308, 1.5e308]),
        ],
        ids=["eigenvalue", "linear-term"],
    )
    def test_overflowing_coefficient_raises(self, a, b):
        q = QuadraticForm(A=np.array(a), b=np.array(b), c=1.0)
        with pytest.raises(ValueError, match="overflows the float range"):
            decouple(q)


def haar(seed, n):
    z, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    return z * np.sign(np.diag(r))


def rotated_null_form():
    """A = Q diag(-1, -1, 0) Q^T, b = Q (0.3, 0.3, 0), c = 2: one null
    direction, given in a rotated basis."""
    q = haar(0, 3)
    a = q @ np.diag([-1.0, -1.0, 0.0]) @ q.T
    return QuadraticForm(A=0.5 * (a + a.T), b=q @ np.array([0.3, 0.3, 0.0]), c=2.0)


class TestDecoupleRoundoff:
    """Eigenvalues and linear terms within the solver's tolerance of 0 are
    exactly 0."""

    @pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
    def test_null_coordinate_is_exactly_zero(self, scale):
        # the tolerance scales with A and b, whose squares would overflow or
        # underflow at 1e+-200
        q = rotated_null_form()
        dc = decouple(QuadraticForm(A=scale * q.A, b=scale * q.b, c=scale * q.c))
        null = int(np.argmin(np.abs(dc.lam)))
        assert dc.lam[null] == 0.0 and dc.mu[null] == 0.0
        assert np.sort(dc.lam) / scale == pytest.approx([0.0, 1.0, 1.0], abs=1e-14)
        assert np.count_nonzero(dc.mu) == 2

    def test_rotated_rank_one_has_exact_zeros_off_its_axis(self):
        # -(u.x)^2 + 1 >= 0 is the slab |u.x| <= 1: one lam of 1 along u
        gen = np.random.default_rng(5)
        for _ in range(20):
            u = gen.normal(size=3)
            dc = decouple(QuadraticForm(A=-np.outer(u, u) / (u @ u), b=np.zeros(3), c=1.0))
            axis = int(np.argmax(dc.lam))
            assert np.array_equal(np.delete(dc.lam, axis), [0.0, 0.0])
            assert dc.lam[axis] == pytest.approx(1.0, rel=1e-12)

    def test_genuine_small_terms_are_kept(self):
        # 1e-12 relative to ||A|| lies far above the tolerance
        q = QuadraticForm(A=np.diag([-1.0, -1e-12]), b=np.array([0.0, 1e-12]), c=1.0)
        dc = decouple(q)
        assert sorted(dc.lam.tolist()) == pytest.approx([1e-12, 1.0], rel=1e-12)
        assert np.count_nonzero(dc.mu) == 1


class TestNormalize:
    def test_scales_to_unit(self):
        dc = DecoupledConstraint(
            lam=np.array([3.0, 0.0]), mu=np.array([4.0, 0.0]), theta=10.0, rotation=np.eye(2)
        )
        nz = normalize(dc)
        assert np.allclose(nz.lam, [0.6, 0.0])
        assert np.allclose(nz.mu, [0.8, 0.0])
        assert nz.theta == pytest.approx(2.0)
        assert float(np.sum(nz.lam**2 + nz.mu**2)) == pytest.approx(1.0, abs=1e-15)

    def test_already_normalized_unchanged(self):
        dc = DecoupledConstraint(
            lam=np.array([0.6]), mu=np.array([0.8]), theta=0.5, rotation=np.eye(1)
        )
        nz = normalize(dc)
        assert np.allclose(nz.lam, dc.lam) and np.allclose(nz.mu, dc.mu)

    @pytest.mark.parametrize("k", [-1000, -700, -300, 300, 700, 1020])
    def test_power_of_two_scale_is_bit_identical(self, k):
        # squares of these coefficients overflow or underflow to 0 at most
        # of these scales; the result must not see the scale at all
        gen = np.random.default_rng(11)
        lam, mu = gen.normal(size=4), gen.normal(size=4)
        want = normalize(DecoupledConstraint(lam=lam, mu=mu, theta=0.3, rotation=np.eye(4)))
        s = 2.0**k
        got = normalize(DecoupledConstraint(lam=lam * s, mu=mu * s, theta=0.3 * s, rotation=np.eye(4)))
        for a, b in ((got.lam, want.lam), (got.mu, want.mu), (got.theta, want.theta)):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "lam, theta, mass", [(1e-200, 1e300, 1.0), (-1e-200, -1e300, 0.0), (1e-100, -1e300, 0.0)]
    )
    def test_theta_beyond_float_range_answers_from_its_sign(self, lam, theta, mass):
        # the region is y^2 <= 1e500 (all of R), y^2 >= 1e500 or y^2 <= -1e400
        # (empty): theta / |lam| is beyond the float range
        dc = DecoupledConstraint(lam=np.array([lam]), mu=np.zeros(1), theta=theta, rotation=np.eye(1))
        with pytest.raises(ConstantPolynomialError) as err:
            normalize(dc)
        assert err.value.mass == mass

    def test_constant_raises_with_answer(self):
        dc = DecoupledConstraint(lam=np.zeros(2), mu=np.zeros(2), theta=-1.0, rotation=np.eye(2))
        with pytest.raises(ConstantPolynomialError) as err:
            normalize(dc)
        assert err.value.mass == 0.0
        dc2 = DecoupledConstraint(lam=np.zeros(2), mu=np.zeros(2), theta=0.0, rotation=np.eye(2))
        with pytest.raises(ConstantPolynomialError) as err2:
            normalize(dc2)
        assert err2.value.mass == 1.0  # boundary accepts, by the sign convention


class TestRoundCoefficients:
    def test_exact_multiples_unchanged(self):
        cfg = RoundingConfig(gamma=2.0**-10, tau=2.0**-8)
        # unit-norm coefficients that already sit on the gamma lattice
        dc = normalize(
            DecoupledConstraint(
                lam=np.array([0.5, 0.5]),
                mu=np.array([0.5, 0.5]),
                theta=0.3,
                rotation=np.eye(2),
            )
        )
        out = round_coefficients(dc, cfg)
        assert np.array_equal(out.lam, dc.lam)
        assert np.array_equal(out.mu, dc.mu)

    def test_quarter_step_example(self):
        cfg = RoundingConfig(gamma=0.25, tau=0.5)
        dc = DecoupledConstraint(
            lam=np.array([0.6, 0.0]),
            mu=np.array([0.8, 0.0]),
            theta=0.0,
            rotation=np.eye(2),
        )
        out = round_coefficients(dc, cfg)
        assert np.allclose(out.lam, [0.5, 0.0])
        assert np.allclose(out.mu, [0.75, 0.0])
        total = float(np.sum(out.lam**2 + out.mu**2))
        assert 0.5 <= total <= 1.5

    def test_lattice_exactness_and_perturbation(self):
        gen = np.random.default_rng(3)
        cfg = RoundingConfig(gamma=2.0**-20, tau=2.0**-8)
        for n in (1, 2, 5, 9):
            dc = normalize(
                DecoupledConstraint(
                    lam=gen.normal(size=n), mu=gen.normal(size=n), theta=0.1, rotation=np.eye(n)
                )
            )
            out = round_coefficients(dc, cfg)
            for arr in (out.lam, out.mu):
                ratio = arr / cfg.gamma
                assert np.array_equal(ratio, np.rint(ratio))
            pert = float(np.sum((dc.lam - out.lam) ** 2 + (dc.mu - out.mu) ** 2))
            assert pert <= n * cfg.gamma**2 / 2.0
            total = float(np.sum(out.lam**2 + out.mu**2))
            assert 0.5 <= total <= 1.5

    def test_requires_normalized(self):
        dc = DecoupledConstraint(lam=np.array([2.0]), mu=np.array([0.0]), theta=0.0, rotation=np.eye(1))
        with pytest.raises(ValueError):
            round_coefficients(dc, RoundingConfig(gamma=2.0**-20, tau=2.0**-8))

    def test_precondition_on_gamma(self):
        dc = DecoupledConstraint(
            lam=np.full(8, math.sqrt(1 / 16.0)),
            mu=np.full(8, math.sqrt(1 / 16.0)),
            theta=0.0,
            rotation=np.eye(8),
        )
        with pytest.raises(ValueError):
            round_coefficients(dc, RoundingConfig(gamma=0.5, tau=0.5))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RoundingConfig(gamma=0.3, tau=0.5)
        with pytest.raises(ValueError):
            RoundingConfig(gamma=0.5, tau=1.5)

    def test_smallest_normal_gamma_rounds_without_overflow(self):
        # gamma = 2^-1022 still rounds a unit-norm constraint exactly; one
        # step below, lam / gamma could overflow, so the config refuses it
        dc = normalize(
            DecoupledConstraint(lam=np.array([0.6]), mu=np.array([0.8]), theta=0.0, rotation=np.eye(1))
        )
        out = round_coefficients(dc, RoundingConfig(gamma=2.0**-1022, tau=0.5))
        assert np.array_equal(out.lam, dc.lam) and np.array_equal(out.mu, dc.mu)
        with pytest.raises(ValueError, match=r"^gamma must be at least 2\^-1022"):
            RoundingConfig(gamma=2.0**-1023, tau=0.5)


class TestSignStability:
    def test_round_preserves_signs_away_from_boundary(self):
        # MC surrogate for the rounding perturbation property at modest size
        gen = np.random.default_rng(5)
        cfg = RoundingConfig(gamma=2.0**-20, tau=2.0**-8)
        for n in (2, 4):
            q = random_form(gen, n)
            dc = normalize(decouple(q))
            rd = round_coefficients(dc, cfg)
            y = gen.normal(size=(100_000, n))
            before = dc.value(y) <= dc.theta
            after = rd.value(y) <= rd.theta
            assert np.mean(before != after) <= 1e-3


class TestInstanceIO:
    def test_quadratic_roundtrip(self, tmp_path):
        gen = np.random.default_rng(6)
        q = random_form(gen, 3)
        doc = instance_to_dict(q)
        assert set(doc) == {"n", "A", "b", "c"}
        q2 = instance_from_dict(json.loads(json.dumps(doc)))
        assert np.allclose(q2.A, q.A) and np.allclose(q2.b, q.b) and q2.c == q.c

    def test_decoupled_form(self, tmp_path):
        doc = {"decoupled": {"lambda": [1.0, 0.5], "mu": [0.0, -0.25], "theta": 2.0}}
        dc = instance_from_dict(doc)
        assert isinstance(dc, DecoupledConstraint)
        assert np.allclose(dc.rotation, np.eye(2))
        path = str(tmp_path / "dec.json")
        save_instance(dc, path)
        assert instance_to_dict(load_instance(path)) == doc

    def test_empty_decoupled_rejected(self):
        # as an empty A is: with no coordinate there is nothing to count
        with pytest.raises(ValueError, match="^lambda, mu and rotation must be nonempty$"):
            instance_from_dict({"decoupled": {"lambda": [], "mu": [], "theta": 1.0}})

    @pytest.mark.parametrize(
        "doc, field",
        [
            ({"n": 2.5, "A": [[-1, 0], [0, -1]], "b": [0, 0], "c": 1}, "n"),
            ({"n": 2.0, "A": [[-1, 0], [0, -1]], "b": [0, 0], "c": 1}, "n"),
            ({"n": "2", "A": [[-1, 0], [0, -1]], "b": [0, 0], "c": 1}, "n"),
            ({"n": True, "A": [[-1]], "b": [0], "c": 1}, "n"),
            ({"n": 0, "A": [], "b": [], "c": 1}, "n"),
            ({"n": 2, "A": [[-1, 0], [0, -1]], "b": [0, 0], "c": True}, "c"),
            ({"n": 2, "A": [[-1, 0], [0, -1]], "b": [0, 0], "c": "1"}, "c"),
            ({"n": 2, "A": [["-1", 0], [0, -1]], "b": [0, 0], "c": 1}, "A"),
            ({"n": 2, "A": [[-1, 0], [0]], "b": [0, 0], "c": 1}, "A"),
            ({"n": 2, "A": [-1, 0], "b": [0, 0], "c": 1}, "A"),
            ({"n": 3, "A": [[-1, 0], [0, -1]], "b": [0, 0, 0], "c": 1}, "A"),
            ({"n": 2, "A": [[-1, 0], [0, -1]], "b": [0, False], "c": 1}, "b"),
            ({"n": 2, "A": [[-1, 0], [0, -1]], "b": "00", "c": 1}, "b"),
            ({"decoupled": {"lambda": [1, "x"], "mu": [0, 0], "theta": 1}}, "lambda"),
            ({"decoupled": {"lambda": [1], "mu": [None], "theta": 1}}, "mu"),
            ({"decoupled": {"lambda": [1], "mu": [0], "theta": [1]}}, "theta"),
        ],
    )
    def test_wrongly_typed_field_rejected(self, doc, field):
        # JSON integers for n, JSON numbers elsewhere: no float, string or
        # boolean is read as one
        with pytest.raises(ValueError, match=f"^field '{field}' (must be|has shape) "):
            instance_from_dict(doc)

    @pytest.mark.parametrize(
        "doc, field",
        [
            ({"n": 1, "A": [[-1]], "b": [0], "c": 10**400}, "c"),
            ({"n": 1, "A": [[-(10**400)]], "b": [0], "c": 1}, "A"),
        ],
    )
    def test_integer_beyond_float_range_named(self, doc, field):
        with pytest.raises(ValueError, match=f"^field '{field}' holds an integer beyond the float range$"):
            instance_from_dict(doc)

    @pytest.mark.parametrize("field", ["n", "A", "b", "c", "lambda", "mu", "theta"])
    def test_missing_field_named(self, field):
        if field in ("lambda", "mu", "theta"):
            doc = {"decoupled": {"lambda": [1.0], "mu": [0.0], "theta": 1.0}}
            del doc["decoupled"][field]
        else:
            doc = {"n": 1, "A": [[-1.0]], "b": [0.0], "c": 1.0}
            del doc[field]
        with pytest.raises(ValueError, match=f"^missing field '{field}'$"):
            instance_from_dict(doc)

    @pytest.mark.parametrize("doc", [[1, 2], "instance", 3, None, {"decoupled": [1, 0]}])
    def test_top_level_must_be_an_object(self, doc):
        with pytest.raises(ValueError, match="^(the instance|field 'decoupled') must be a JSON object$"):
            instance_from_dict(doc)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            instance_from_dict({"n": 2, "A": [[0, 1], [0, 0]], "b": [0, 0], "c": 0})

    @pytest.mark.parametrize(
        "doc",
        [
            {"n": 2, "A": [[-1, math.nan], [math.nan, -1]], "b": [0, 0], "c": 1},
            {"n": 1, "A": [[-1]], "b": [math.inf], "c": 1},
            {"n": 1, "A": [[-1]], "b": [0], "c": -math.inf},
            {"decoupled": {"lambda": [1.0, math.nan], "mu": [0.0, 0.0], "theta": 2.0}},
            {"decoupled": {"lambda": [1.0], "mu": [0.0], "theta": math.inf}},
        ],
    )
    def test_non_finite_rejected(self, doc):
        with pytest.raises(ValueError, match="finite"):
            instance_from_dict(doc)
