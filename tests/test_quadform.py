import json
import math

import numpy as np
import pytest

from quadgauss.hardness import SubsetSumInstance, gen_deg2_cube_instance
from quadgauss.numerics import Rng
from quadgauss.quadform import (
    ConstantPolynomialError,
    DecoupledConstraint,
    QuadraticForm,
    RoundingConfig,
    coordinate_box,
    decouple,
    evaluate,
    gaussian_variance,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    normalize,
    round_coefficients,
    save_instance,
    sign_at,
)


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


class TestNormalize:
    def test_scales_to_unit(self):
        dc = DecoupledConstraint(
            lam=np.array([3.0, 0.0]), mu=np.array([4.0, 0.0]), theta=10.0, rotation=np.eye(2)
        )
        nz = normalize(dc)
        assert np.allclose(nz.lam, [0.6, 0.0])
        assert np.allclose(nz.mu, [0.8, 0.0])
        assert nz.theta == pytest.approx(2.0)
        assert nz.normalized

    def test_already_normalized_unchanged(self):
        dc = DecoupledConstraint(
            lam=np.array([0.6]), mu=np.array([0.8]), theta=0.5, rotation=np.eye(1)
        )
        nz = normalize(dc)
        assert np.allclose(nz.lam, dc.lam) and np.allclose(nz.mu, dc.mu)

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
            normalized=True,
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
            normalized=True,
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


class TestGaussianVariance:
    def test_pure_square(self):
        dc = DecoupledConstraint(lam=np.array([1.0]), mu=np.array([0.0]), theta=0.0, rotation=np.eye(1))
        assert gaussian_variance(dc) == 2.0  # Var(chi2_1)

    def test_pure_linear(self):
        dc = DecoupledConstraint(lam=np.array([0.0]), mu=np.array([1.0]), theta=0.0, rotation=np.eye(1))
        assert gaussian_variance(dc) == 1.0

    def test_mixed(self):
        dc = DecoupledConstraint(lam=np.array([1.0]), mu=np.array([1.0]), theta=0.0, rotation=np.eye(1))
        assert gaussian_variance(dc) == 3.0

    def test_monte_carlo_cross_check(self):
        dc = DecoupledConstraint(
            lam=np.array([0.7, -0.3]), mu=np.array([0.2, 0.9]), theta=0.0, rotation=np.eye(2)
        )
        g = Rng(8).normal((400_000, 2))
        vals = dc.value(g)
        mc = float(np.var(vals))
        assert mc == pytest.approx(gaussian_variance(dc), rel=0.02)


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


def _random_constraint(gen, n):
    """A nonempty decoupled region whose coefficients mix the cases the box
    treats apart: lam > 0, lam = 0, lam < 0, lam = 1e-17, and mu = 0."""
    kind = gen.choice([1.0, 0.0, 1e-17, -1.0], p=[0.5, 0.2, 0.2, 0.1], size=n)
    lam = kind * gen.uniform(0.2, 3.0, size=n)
    mu = gen.normal(size=n) * (gen.random(n) < 0.7)
    up = lam > 0.1  # a 1e-17 y^2 term acts as its linear part near the origin
    floor = float(np.sum(-mu[up] ** 2 / (4.0 * lam[up])))
    theta = floor + float(gen.uniform(0.5, 5.0))
    return DecoupledConstraint(lam=lam, mu=mu, theta=theta, rotation=np.eye(n))


class TestCoordinateBox:
    def test_c7_boxes(self):
        pad = 1e-8
        disc = decouple(QuadraticForm(A=-np.eye(2), b=np.zeros(2), c=0.2107))
        lo, hi = coordinate_box(disc)
        assert np.allclose(hi, math.sqrt(0.2107), rtol=pad) and np.allclose(lo, -hi)
        half = decouple(QuadraticForm(A=np.zeros((2, 2)), b=np.array([1.0, 0.0]), c=-1.0))
        assert coordinate_box(half)[0][0] == pytest.approx(1.0, rel=pad)
        assert np.isinf(coordinate_box(half)[0][1]) and np.isinf(coordinate_box(half)[1]).all()
        band = decouple(QuadraticForm(A=np.diag([-1.0, 0.0]), b=np.zeros(2), c=0.5))
        lo, hi = coordinate_box(band)
        axis = int(np.argmax(band.lam))  # the lam = 1 axis
        assert band.lam[axis] == 1.0
        assert hi[axis] == pytest.approx(math.sqrt(0.5), rel=pad)
        assert lo[axis] == pytest.approx(-hi[axis], rel=1e-14)
        assert np.isinf(lo[1 - axis]) and np.isinf(hi[1 - axis])
        shell = decouple(QuadraticForm(A=np.eye(2), b=np.zeros(2), c=-9.2))
        assert np.isinf(np.concatenate(coordinate_box(shell))).all()
        thin3 = decouple(QuadraticForm(A=np.zeros((3, 3)), b=np.array([1.0, 0.0, 0.0]), c=-3.0))
        lo, hi = coordinate_box(thin3)
        assert lo[0] == pytest.approx(3.0, rel=pad) and lo[0] <= 3.0
        assert np.isinf(lo[1:]).all() and np.isinf(hi).all()

    def test_small_lambda_root_without_cancellation(self):
        # 1e-17 y^2 - y <= 3 holds on [-3, ~1e17]; the textbook root formula
        # loses the -3 end to cancellation and would cut y = -2.5 out
        dc = DecoupledConstraint(
            lam=np.array([1e-17, 0.0]), mu=np.array([-1.0, 0.0]), theta=3.0, rotation=np.eye(2)
        )
        lo, hi = coordinate_box(dc)
        assert dc.accepts(np.array([-2.5, 0.0]))
        assert lo[0] == pytest.approx(-3.0, rel=1e-8) and lo[0] <= -3.0
        assert hi[0] == pytest.approx(1e17, rel=1e-8)
        assert np.isinf(lo[1]) and np.isinf(hi[1])

    @pytest.mark.parametrize("seed", range(24))
    def test_contains_rejection_draws(self, seed):
        gen = np.random.default_rng(seed)
        dc = _random_constraint(gen, int(gen.integers(1, 5)))
        lo, hi = coordinate_box(dc)
        y = gen.normal(size=(40_000, dc.n))
        y = y[dc.accepts(y)]
        assert y.shape[0] > 100
        assert np.all((y >= lo) & (y <= hi))

    def test_contains_rank_deficient_rejection_draws(self):
        # jacobi_eigen leaves rounding-size eigenvalues on the null space
        gen = np.random.default_rng(7)
        v = np.linalg.qr(gen.normal(size=(4, 4)))[0]
        A = -(v[:, :2] * [1.0, 2.5]) @ v[:, :2].T
        q = QuadraticForm(A=0.5 * (A + A.T), b=v[:, 0] * 0.4, c=1.5)
        dc = decouple(q)
        lo, hi = coordinate_box(dc)
        x = gen.normal(size=(40_000, 4))
        x = x[np.asarray(sign_at(q, x)) == 1]
        y = x @ dc.rotation
        assert x.shape[0] > 100
        assert np.all((y >= lo) & (y <= hi))

    def test_ends_are_tight(self):
        # with every other coordinate at its minimiser, the region reaches
        # each end of the box to within the padding
        dc = DecoupledConstraint(
            lam=np.array([1.0, 2.0, 0.5]), mu=np.array([0.3, 0.0, -1.0]), theta=2.0,
            rotation=np.eye(3),
        )
        lo, hi = coordinate_box(dc)
        centre = -dc.mu / (2.0 * dc.lam)
        for i in range(3):
            for end, inward in ((lo[i], 1.0), (hi[i], -1.0)):
                y = centre.copy()
                y[i] = end + inward * 1e-6
                assert dc.accepts(y)
                y[i] = end - inward * 1e-6
                assert not dc.accepts(y)

    @pytest.mark.parametrize("theta", [-1.0, 0.0])
    def test_empty_region_raises(self, theta):
        # y1^2 + y2^2 <= theta is empty (theta < 0) or the origin (theta = 0)
        dc = DecoupledConstraint(lam=np.ones(2), mu=np.zeros(2), theta=theta, rotation=np.eye(2))
        with pytest.raises(ValueError, match="mass 0"):
            coordinate_box(dc)
