import itertools
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from quadgauss.hardness import (
    Classification,
    QuarticForm,
    RegionSamplingError,
    SubsetSumInstance,
    alpha_beta_deg2,
    classify_point_deg2,
    classify_point_deg4,
    gen_deg2_cube_instance,
    gen_deg4_gauss_instance,
    instance_to_dict,
    region_mass_mc,
    sample_region_gauss_deg4,
    sample_region_uniform_deg2,
)
from quadgauss.numerics import Rng, _wilson_half_width
from quadgauss.quadform import QuadraticForm, evaluate, sign_at

W_35 = SubsetSumInstance(w0=8, w=(3, 5), variant="cube01")


class TestSubsetSumInstance:
    def test_solutions_simple(self):
        assert W_35.solutions() == [(1, 1)]

    def test_unsatisfiable(self):
        assert SubsetSumInstance(w0=1, w=(2, 2)).solutions() == []

    def test_pm1_parity_unsatisfiable(self):
        inst = SubsetSumInstance(w0=1, w=(2, 4, 6), variant="pm1")
        assert inst.solutions() == []

    def test_pm1_solutions(self):
        inst = SubsetSumInstance(w0=2, w=(1, 1, 2), variant="pm1")
        sols = inst.solutions()
        assert sols == [(-1, 1, 1), (1, -1, 1)]
        assert all(inst.is_solution(z) for z in sols)

    def test_meet_in_middle_matches_bruteforce(self):
        gen = np.random.default_rng(0)
        for variant in ("cube01", "pm1"):
            for _ in range(5):
                n = 12
                w = tuple(int(v) for v in gen.integers(0, 50, size=n))
                w0 = int(gen.integers(0, sum(w) + 1))
                inst = SubsetSumInstance(w0=w0, w=w, variant=variant)
                dom = (0, 1) if variant == "cube01" else (-1, 1)
                brute = sorted(
                    z
                    for z in itertools.product(dom, repeat=n)
                    if sum(wi * zi for wi, zi in zip(w, z)) == w0
                )
                assert inst.solutions() == brute

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            SubsetSumInstance(w0=1, w=(-1, 2))

    @pytest.mark.parametrize("w0", [0, 1])
    def test_rejects_empty_weights(self, w0):
        with pytest.raises(ValueError, match="^need at least one weight$"):
            SubsetSumInstance(w0=w0, w=())

    def test_near_solution_is_not_solution(self):
        # (0.6, 1, 0) rounds to the solution (1, 1, 0) but is not one
        inst = SubsetSumInstance(w0=8, w=(3, 5, 7))
        assert inst.is_solution((1, 1, 0))
        assert inst.is_solution(np.array([1.0, 1.0, 0.0]))
        assert not inst.is_solution((0.6, 1, 0))

    def test_serialization_roundtrip(self):
        doc = instance_to_dict(W_35, 4.0)
        assert doc == {"variant": "cube01", "w0": 8, "w": [3, 5], "c": 4.0}
        inst = SubsetSumInstance(w0=doc["w0"], w=tuple(doc["w"]), variant=doc["variant"])
        assert inst == W_35


class TestDeg2Construction:
    def test_solution_is_minimum(self):
        p, f = gen_deg2_cube_instance(W_35, 4.0)
        assert evaluate(p, np.array([1.0, 1.0])) == 0.0
        assert sign_at(f, np.array([1.0, 1.0])) == 1

    def test_center_rejected(self):
        _, f = gen_deg2_cube_instance(W_35, 4.0)
        assert sign_at(f, np.array([0.5, 0.5])) == -1
        # s_W at the center is (4-8)^2 = 16 > 1/2 on its own
        p, _ = gen_deg2_cube_instance(W_35, 4.0)
        assert evaluate(p, np.array([0.5, 0.5])) > 16.0 - 1e-9

    def test_unsatisfiable_all_negative(self):
        inst = SubsetSumInstance(w0=1, w=(2, 2))
        _, f = gen_deg2_cube_instance(inst, 4.0)
        for z in itertools.product((0.0, 1.0), repeat=2):
            assert sign_at(f, np.asarray(z)) == -1

    def test_penalty_vanishes_on_vertices(self):
        p, _ = gen_deg2_cube_instance(W_35, 4.0)
        for z in itertools.product((0.0, 1.0), repeat=2):
            s = (3 * z[0] + 5 * z[1] - 8) ** 2
            assert evaluate(p, np.asarray(z)) == pytest.approx(s, abs=1e-9)

    def test_boolean_correspondence_exhaustive(self):
        gen = np.random.default_rng(1)
        for n in (4, 8, 12):
            w = tuple(int(v) for v in gen.integers(0, 2**20, size=n))
            w0 = int(sum(v for v in w[: n // 2]))
            inst = SubsetSumInstance(w0=w0, w=w)
            _, f = gen_deg2_cube_instance(inst, 4.0)
            sols = set(inst.solutions())
            for z in itertools.product((0, 1), repeat=n):
                surface = sign_at(f, np.asarray(z, dtype=float)) == 1
                assert surface == (z in sols)


class TestRadiiDeg2:
    def test_alpha_defining_equation(self):
        alpha, _ = alpha_beta_deg2(W_35, 4.0)
        lam = 4.0 * 2 * W_35.w_norm
        assert abs(alpha * (1.0 - alpha) - 1.0 / (2.0 * lam)) <= 1e-12

    def test_beta_defining_equation(self):
        _, beta = alpha_beta_deg2(W_35, 4.0)
        m_factor = 8.0
        x = beta * W_35.w_norm
        assert abs(x * x + m_factor * x - 0.5) <= 1e-12

    def test_asymptotic_alpha(self):
        inst = SubsetSumInstance(w0=500, w=(300, 400))
        alpha, _ = alpha_beta_deg2(inst, 16.0)
        lam = 16.0 * 2 * inst.w_norm
        assert alpha == pytest.approx(1.0 / (2.0 * lam), rel=2.0 / lam)

    def test_ordering(self):
        gen = np.random.default_rng(2)
        for _ in range(20):
            n = int(gen.integers(2, 8))
            w = tuple(int(v) for v in gen.integers(1, 2**20, size=n))
            inst = SubsetSumInstance(w0=int(gen.integers(0, sum(w))), w=w)
            alpha, beta = alpha_beta_deg2(inst, 4.0)
            assert beta < alpha < 0.5
            assert beta < 1.0 / (4.0 * inst.w_norm)

    def test_small_penalty_rejected(self):
        inst = SubsetSumInstance(w0=1, w=(1,))
        with pytest.raises(ValueError):
            alpha_beta_deg2(inst, 0.5)

    @pytest.mark.parametrize("inst", [W_35, SubsetSumInstance(w0=3, w=(1, 2, 4))])
    @pytest.mark.parametrize("c", [4.0, 1e3, 1e6, 1e9])
    def test_radii_match_extended_precision(self, inst, c):
        # the small roots of both defining equations, in 80 digits from the
        # same float M and lam; the textbook forms lost 1.8e-10 at c = 1e3
        alpha, beta = alpha_beta_deg2(inst, c)
        m_factor = c * inst.n
        with localcontext() as ctx:
            ctx.prec = 80
            m, lam, wn = Decimal(m_factor), Decimal(m_factor * inst.w_norm), Decimal(inst.w_norm)
            want_alpha = (1 - (1 - 2 / lam).sqrt()) / 2
            want_beta = ((m * m + 2).sqrt() - m) / (2 * wn)
            assert abs(Decimal(alpha) / want_alpha - 1) <= Decimal("1e-15")
            assert abs(Decimal(beta) / want_beta - 1) <= Decimal("1e-15")
        assert beta < alpha


@pytest.mark.parametrize(
    "generate, inst",
    [
        (alpha_beta_deg2, W_35),
        (gen_deg2_cube_instance, W_35),
        (gen_deg4_gauss_instance, SubsetSumInstance(w0=2, w=(1, 1, 2), variant="pm1")),
    ],
)
def test_overflowing_c_rejected(generate, inst):
    with pytest.raises(ValueError, match=r"^c = 1e\+308 overflows the penalty"):
        generate(inst, 1e308)


class TestClassifyDeg2:
    def test_solution_itself(self):
        cl = classify_point_deg2(np.array([1.0, 1.0]), W_35, 4.0)
        assert cl.kind == "near_solution" and cl.predicted == 1

    def test_far_construction(self):
        alpha, _ = alpha_beta_deg2(W_35, 4.0)
        d = (alpha + 0.01) / 2.0
        x = np.array([1.0 - d, 1.0 - d])
        cl = classify_point_deg2(x, W_35, 4.0)
        assert cl.kind == "far_from_all" and cl.predicted == -1
        _, f = gen_deg2_cube_instance(W_35, 4.0)
        assert sign_at(f, x) == -1

    def test_near_non_solution(self):
        x = np.array([0.0001, 0.0001])
        cl = classify_point_deg2(x, W_35, 4.0)
        assert cl.kind == "near_non_solution" and cl.predicted == -1

    def test_out_of_cube_rejected(self):
        with pytest.raises(ValueError):
            classify_point_deg2(np.array([1.2, 0.0]), W_35, 4.0)

    def test_no_counterexamples_sweep(self):
        gen = np.random.default_rng(3)
        rng = Rng(3)
        for _ in range(5):
            n = int(gen.integers(2, 7))
            w = tuple(int(v) for v in gen.integers(1, 200, size=n))
            inst = SubsetSumInstance(w0=int(gen.integers(0, sum(w) + 1)), w=w)
            _, f = gen_deg2_cube_instance(inst, 4.0)
            alpha, _ = alpha_beta_deg2(inst, 4.0)
            pts = [gen.uniform(size=n) for _ in range(1000)]
            # near-vertex proposals stress the boundary cases
            for _ in range(1000):
                z = gen.integers(0, 2, size=n).astype(float)
                d = gen.uniform(0.0, 2.0 * alpha, size=n) / n
                x = np.clip(z + np.where(z == 0, d, -d), 0.0, 1.0)
                pts.append(x)
            for x in pts:
                cl = classify_point_deg2(x, inst, 4.0)
                if cl.predicted is not None:
                    assert cl.predicted == sign_at(f, x)


class TestRegionSamplingDeg2:
    def test_postconditions(self):
        rng = Rng(4)
        alpha, _ = alpha_beta_deg2(W_35, 4.0)
        _, f = gen_deg2_cube_instance(W_35, 4.0)
        for _ in range(50):
            x = sample_region_uniform_deg2((1, 1), W_35, 4.0, rng)
            assert sign_at(f, x) == 1
            assert np.sum(np.abs(x - 1.0)) <= alpha + 1e-12
            assert np.all((x >= 0.0) & (x <= 1.0))

    def test_rejects_non_solution(self):
        with pytest.raises(ValueError):
            sample_region_uniform_deg2((0, 1), W_35, 4.0, Rng(0))

    def test_rejects_near_solution(self):
        inst = SubsetSumInstance(w0=8, w=(3, 5, 7))
        with pytest.raises(ValueError, match="^z is not a solution"):
            sample_region_uniform_deg2((0.6, 1, 0), inst, 4.0, rng=Rng(0))

    def test_acceptance_rate(self):
        # proposals on the full L1 ball; accepted fraction should clear the
        # inner-ball-to-cube heuristic (beta/alpha)^n / 4
        inst = SubsetSumInstance(w0=3, w=(1, 1, 1, 1, 1, 1), variant="cube01")
        alpha, beta = alpha_beta_deg2(inst, 4.0)
        _, f = gen_deg2_cube_instance(inst, 4.0)
        z = np.array(inst.solutions()[0], dtype=float)
        rng = Rng(5)
        n = inst.n
        trials = 40_000
        e = rng.exponential((trials, n + 1))
        d = alpha * e[:, :n] / e.sum(axis=1, keepdims=True)
        signs = np.where(rng.uniform((trials, n)) < 0.5, -1.0, 1.0)
        x = z + signs * d
        ok = np.all((x >= 0) & (x <= 1), axis=1) & (np.asarray(sign_at(f, x)) == 1)
        rate = ok.mean()
        floor = (beta / alpha) ** n / 4.0 / 2.0**n
        assert rate >= floor


@pytest.mark.parametrize("c", [math.nan, math.inf])
@pytest.mark.parametrize(
    "generate, inst",
    [
        (gen_deg2_cube_instance, W_35),
        (alpha_beta_deg2, W_35),
        (gen_deg4_gauss_instance, SubsetSumInstance(w0=2, w=(1, 1, 2), variant="pm1")),
    ],
)
def test_non_finite_c_rejected(generate, inst, c):
    with pytest.raises(ValueError, match="^c must be finite"):
        generate(inst, c)


class TestDeg4Construction:
    INST = SubsetSumInstance(w0=2, w=(1, 1, 2), variant="pm1")

    def test_solution_at_zero(self):
        quartic, _, _ = gen_deg4_gauss_instance(self.INST, 4.0)
        for z in self.INST.solutions():
            x = np.asarray(z, dtype=float)
            assert quartic.evaluate(x) == 0.0
            assert quartic.ptf_sign(x) == 1

    def test_minimum_is_zero(self):
        quartic, _, _ = gen_deg4_gauss_instance(self.INST, 4.0)
        gen = np.random.default_rng(6)
        vals = quartic.evaluate(gen.normal(size=(20_000, 3)))
        assert np.min(vals) >= 0.0

    def test_alpha_defining_equation(self):
        quartic, alpha, _ = gen_deg4_gauss_instance(self.INST, 4.0)
        assert abs(4.0 * (1 - alpha) ** 2 * alpha**2 - 1.0 / (2.0 * quartic.lam)) <= 1e-12

    def test_beta_defining_equation(self):
        quartic, _, beta = gen_deg4_gauss_instance(self.INST, 4.0)
        wn2 = quartic.w_norm**2
        assert abs((wn2 + quartic.lam * (2 + beta) ** 2) * beta**2 - 0.5) <= 1e-12

    def test_lambda_formula(self):
        quartic, _, _ = gen_deg4_gauss_instance(self.INST, 4.0)
        assert quartic.lam == 4.0 * 3 * max(self.INST.w_norm**2, 3.0)

    @pytest.mark.parametrize("c", [4.0, 1e3, 1e6, 1e9])
    def test_alpha_matches_extended_precision(self, c):
        # beta: the root of g(X) = (||w||^2 + lam (2+X)^2) X^2 - 1/2, bisected
        # in 80 digits from the same float lam
        quartic, alpha, beta = gen_deg4_gauss_instance(self.INST, c)
        with localcontext() as ctx:
            ctx.prec = 80
            lam, wn2 = Decimal(quartic.lam), Decimal(quartic.w_norm**2)
            want = (1 - (1 - (2 / lam).sqrt()).sqrt()) / 2
            assert abs(Decimal(alpha) / want - 1) <= Decimal("1e-15")
            lo, hi = Decimal(0), Decimal(1)
            for _ in range(300):
                mid = (lo + hi) / 2
                if (wn2 + lam * (2 + mid) ** 2) * mid * mid < Decimal("0.5"):
                    lo = mid
                else:
                    hi = mid
            assert abs(Decimal(beta) / hi - 1) <= Decimal("1e-15")
        assert beta < alpha

    @pytest.mark.parametrize("c", [4.0, 1e3, 1e6, 1e9])
    def test_beta_brackets_float_sign_change(self, c):
        # beta is the double just above the last sign change of g in floats
        quartic, _, beta = gen_deg4_gauss_instance(self.INST, c)
        wn2, lam = quartic.w_norm**2, quartic.lam

        def g(x):
            return (wn2 + lam * (2.0 + x) ** 2) * x * x - 0.5

        assert g(math.nextafter(beta, 0.0)) < 0.0 <= g(beta)

    def test_beta_pinned(self):
        # the bisection's root, bit for bit: a rewrite of the solve must not
        # move it
        _, _, beta = gen_deg4_gauss_instance(self.INST, 4.0)
        assert beta.hex() == "0x1.4b450ff2661f3p-5"

    def test_merged_radii_refused(self):
        # above c ~ 1e29 at w = (1, 2, 4) the exact radii are under an ulp
        # apart; rounding still leaves them an ulp apart at some c, such as
        # the first value here, and those must be refused too
        inst = SubsetSumInstance(w0=3, w=(1, 2, 4), variant="pm1")
        for c in [2.9226465274858423e29, *np.logspace(29, 200, 400)]:
            with pytest.raises(ValueError, match=r"use a smaller c$"):
                gen_deg4_gauss_instance(inst, float(c))

    def test_no_counterexamples_sweep(self):
        gen = np.random.default_rng(7)
        for _ in range(3):
            n = int(gen.integers(2, 6))
            w = tuple(int(v) for v in gen.integers(1, 40, size=n))
            inst = SubsetSumInstance(
                w0=int(abs(gen.integers(0, sum(w) + 1))), w=w, variant="pm1"
            )
            quartic, alpha, _ = gen_deg4_gauss_instance(inst, 4.0)
            pts = [gen.normal(size=n) for _ in range(1000)]
            for _ in range(1000):
                z = np.where(gen.uniform(size=n) < 0.5, -1.0, 1.0)
                x = z + gen.normal(size=n) * (2.0 * alpha / math.sqrt(n))
                pts.append(x)
            for x in pts:
                cl = classify_point_deg4(x, quartic)
                if cl.predicted is not None:
                    assert cl.predicted == quartic.ptf_sign(x)


class TestRegionSamplingDeg4:
    INST = SubsetSumInstance(w0=2, w=(1, 1, 2), variant="pm1")

    def test_rejects_near_solution(self):
        # (0.9, -1, 1) rounds to the solution (1, -1, 1) but is not one
        quartic, _, _ = gen_deg4_gauss_instance(self.INST, 4.0)
        with pytest.raises(ValueError, match="^z is not a solution"):
            sample_region_gauss_deg4((0.9, -1, 1), quartic, Rng(0))

    def test_postconditions(self):
        quartic, alpha, _ = gen_deg4_gauss_instance(self.INST, 4.0)
        z = self.INST.solutions()[0]
        rng = Rng(8)
        for _ in range(50):
            x = sample_region_gauss_deg4(z, quartic, rng)
            assert quartic.ptf_sign(x) == 1
            assert np.linalg.norm(x - np.asarray(z, float)) <= alpha + 1e-12

    def test_density_ratio_bound_finite(self):
        quartic, alpha, _ = gen_deg4_gauss_instance(self.INST, 4.0)
        z = np.asarray(self.INST.solutions()[0], dtype=float)
        r_min = max(0.0, np.linalg.norm(z) - alpha)
        r_max = np.linalg.norm(z) + alpha
        ratio = math.exp(0.5 * (r_max**2 - r_min**2))
        assert 1.0 <= ratio <= math.exp(2 * alpha * math.sqrt(3) + alpha**2)

    def test_two_estimator_consistency(self):
        # single-solution instance: acceptance-rate x proposal mass should
        # agree with the direct importance estimate of the cluster mass
        inst = SubsetSumInstance(w0=4, w=(1, 1, 2), variant="pm1")
        sols = inst.solutions()
        assert len(sols) == 1
        quartic, alpha, _ = gen_deg4_gauss_instance(inst, 4.0)
        z = np.asarray(sols[0], dtype=float)
        est, ci = region_mass_mc(quartic, z, alpha, "gaussian", 200_000, Rng(9))
        # second estimator: thinned-acceptance rate times ball volume scale
        rng = Rng(10)
        n = 3
        trials = 200_000
        v = rng.normal((trials, n))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        r = alpha * rng.uniform(trials) ** (1.0 / n)
        x = z + v * r[:, None]
        ok = np.asarray(quartic.ptf_sign(x)) == 1
        dens = np.exp(-0.5 * np.sum(x * x, axis=1)) / (2 * math.pi) ** (n / 2)
        vol = math.pi ** (n / 2) * alpha**n / math.gamma(n / 2 + 1)
        est2 = float(np.mean(np.where(ok, dens, 0.0))) * vol
        assert est == pytest.approx(est2, rel=0.05)
        assert ci < est


class TestRegionMassMc:
    def test_unsatisfiable_estimates_zero(self):
        inst = SubsetSumInstance(w0=1, w=(2, 2))
        _, f = gen_deg2_cube_instance(inst, 4.0)
        alpha, _ = alpha_beta_deg2(inst, 4.0)
        est, _ = region_mass_mc(f, np.array([0.0, 1.0]), alpha, "cube-uniform", 5000, Rng(11))
        assert est == 0.0

    def test_symmetric_regions_within_factor_two(self):
        inst = SubsetSumInstance(w0=2, w=(1, 1, 1, 1), variant="cube01")
        _, f = gen_deg2_cube_instance(inst, 4.0)
        alpha, _ = alpha_beta_deg2(inst, 4.0)
        rng = Rng(12)
        estimates = []
        for k, z in enumerate(inst.solutions()):
            est, ci = region_mass_mc(
                f, np.asarray(z, float), alpha, "cube-uniform", 20_000, rng.derive(k)
            )
            estimates.append((est, ci))
        for (e1, c1), (e2, c2) in itertools.combinations(estimates, 2):
            hi1, lo1 = e1 + c1, max(e1 - c1, 1e-300)
            hi2, lo2 = e2 + c2, max(e2 - c2, 1e-300)
            assert hi1 / lo2 >= 0.5 and lo1 / hi2 <= 2.0

    def test_scaling_with_alpha_power(self):
        # cluster mass tracks alpha^n / n! within an order of magnitude
        rng = Rng(13)
        for n in (2, 3, 4):
            w = tuple([1] * n)
            inst = SubsetSumInstance(w0=n // 2, w=w)
            _, f = gen_deg2_cube_instance(inst, 4.0)
            alpha, _ = alpha_beta_deg2(inst, 4.0)
            z = np.asarray(inst.solutions()[0], dtype=float)
            est, _ = region_mass_mc(f, z, alpha, "cube-uniform", 40_000, rng.derive(n))
            ref = alpha**n / math.factorial(n)
            assert ref / 10.0 <= est <= ref * 10.0

    def test_region_disjointness(self):
        inst = SubsetSumInstance(w0=2, w=(1, 1, 1, 1), variant="cube01")
        _, beta = alpha_beta_deg2(inst, 4.0)
        rng = Rng(14)
        sols = inst.solutions()
        for k, z in enumerate(sols):
            x = sample_region_uniform_deg2(z, inst, 4.0, rng.derive(k))
            for other in sols:
                if other != z:
                    assert np.sum(np.abs(x - np.asarray(other, float))) > beta

    def test_all_hits_keep_a_half_width(self):
        # every point of the inner L1 ball of radius beta at (1, 1) satisfies
        # f, so all 4096 proposals hit; the Wald half-width read 0 there
        _, f = gen_deg2_cube_instance(W_35)
        _, beta = alpha_beta_deg2(W_35)
        est, ci = region_mass_mc(f, (1, 1), beta, "cube-uniform", 4096, Rng(0))
        vol = beta * beta / 2.0
        assert est == pytest.approx(vol, rel=1e-12)
        assert ci == pytest.approx(vol * _wilson_half_width(1.0, 4096), rel=1e-12)
        assert ci > 0.0

    def test_gaussian_no_hits_keep_a_half_width(self):
        # -|x|^2 - 1 is never satisfied; every weight is at most the disc's
        # area times the density at its point nearest 0, (0, 0.5)
        never = QuadraticForm(A=-np.eye(2), b=np.zeros(2), c=-1.0)
        est, ci = region_mass_mc(never, (0, 1), 0.5, "gaussian", 4096, Rng(0))
        top = math.pi * 0.25 * math.exp(-0.125) / (2.0 * math.pi)
        assert est == 0.0
        assert ci == pytest.approx(top * _wilson_half_width(0.0, 4096), rel=1e-12)
        assert ci > 0.0

    @pytest.mark.parametrize("measure", ["cube-uniform", "gaussian"])
    def test_form_of_another_type_rejected(self, measure):
        def disc(x):
            return np.where(np.sum(x * x, axis=-1) <= 1.0, 1, -1)

        with pytest.raises(ValueError, match="QuadraticForm or a QuarticForm, not function"):
            region_mass_mc(disc, np.array([0.0, 1.0]), 0.5, measure, 64, Rng(15))

    @pytest.mark.parametrize("measure", ["cube-uniform", "gaussian"])
    @pytest.mark.parametrize("n_samples", [2.5, 1e4, -1, 0])
    def test_bad_sample_count_rejected(self, measure, n_samples):
        disc = QuadraticForm(A=-np.eye(2), b=np.zeros(2), c=1.0)
        with pytest.raises(ValueError, match="^n_samples must be"):
            region_mass_mc(disc, np.array([0.0, 1.0]), 0.5, measure, n_samples, Rng(15))
