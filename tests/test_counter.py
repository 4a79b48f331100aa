import json
import math

import numpy as np
import pytest

from quadgauss.counter import (
    CountResult,
    EngineTooLargeError,
    compressed_tail_cdf,
    count,
    count_ptf_gaussian,
    default_trunc_radius,
    exact_tail_bruteforce,
    mc_count,
)
from quadgauss.grid import GridSpec, support_and_log_pmf
from quadgauss.numerics import LOG_ZERO, Rng
from quadgauss.quadform import DecoupledConstraint, QuadraticForm

import oracles


def lattice_constraint(gen, n, step=2.0**-4):
    lam = np.rint(gen.normal(size=n) / step) * step
    mu = np.rint(gen.normal(size=n) / step) * step
    theta = float(gen.normal() * n)
    return DecoupledConstraint(lam=lam, mu=mu, theta=theta, rotation=np.eye(n))


class TestExactTailBruteforce:
    def test_single_square_example(self):
        spec = GridSpec(tau=0.5, B=1.0, n=1)
        dc = DecoupledConstraint(
            lam=np.array([1.0]), mu=np.array([0.0]), theta=0.5, rotation=np.eye(1)
        )
        got = exact_tail_bruteforce(dc, spec)
        want = oracles.phi_series(1.0) - oracles.phi_series(-0.5)
        assert got == pytest.approx(want, rel=1e-12)

    def test_theta_below_min(self):
        spec = GridSpec(tau=0.5, B=1.0, n=2)
        dc = DecoupledConstraint(
            lam=np.array([1.0, 1.0]), mu=np.zeros(2), theta=-0.5, rotation=np.eye(2)
        )
        assert exact_tail_bruteforce(dc, spec) == 0.0

    def test_theta_above_max(self):
        spec = GridSpec(tau=0.5, B=1.0, n=2)
        dc = DecoupledConstraint(
            lam=np.array([1.0, 1.0]), mu=np.zeros(2), theta=10.0, rotation=np.eye(2)
        )
        assert exact_tail_bruteforce(dc, spec) == pytest.approx(1.0, abs=1e-13)

    def test_matches_direct_enumeration(self):
        gen = np.random.default_rng(1)
        spec = GridSpec(tau=0.25, B=1.0, n=2)
        for _ in range(10):
            dc = lattice_constraint(gen, 2)
            got = exact_tail_bruteforce(dc, spec)
            want = oracles.discrete_tail(
                dc.lam.tolist(), dc.mu.tolist(), dc.theta, 0.25, 1.0
            )
            assert got == pytest.approx(want, rel=1e-11, abs=1e-13)

    def test_size_guard(self):
        spec = GridSpec(tau=2.0**-10, B=8.0, n=4)
        dc = DecoupledConstraint(
            lam=np.ones(4), mu=np.zeros(4), theta=0.0, rotation=np.eye(4)
        )
        with pytest.raises(EngineTooLargeError):
            exact_tail_bruteforce(dc, spec)


class TestCount:
    def test_oracle_equivalence_randomized(self):
        gen = np.random.default_rng(2)
        for trial in range(40):
            n = 1 + trial % 3
            spec = GridSpec(
                tau=2.0 ** -int(gen.integers(2, 5)), B=float(gen.integers(1, 4)), n=n
            )
            dc = lattice_constraint(gen, n)
            exact = exact_tail_bruteforce(dc, spec)
            for eps in (0.3, 0.1, 0.05):
                est = count(dc, spec, eps)
                if exact == 0.0:
                    assert est == 0.0
                else:
                    assert 1.0 / (1.0 + eps) - 1e-9 <= est / exact <= 1.0 + eps + 1e-9

    def test_small_n_fast_path_matches_bruteforce(self):
        gen = np.random.default_rng(3)
        for n in (1, 2):
            spec = GridSpec(tau=2.0**-4, B=2.0, n=n)
            for _ in range(10):
                dc = lattice_constraint(gen, n)
                fast = count(dc, spec, 0.05)
                exact = exact_tail_bruteforce(dc, spec)
                assert fast == pytest.approx(exact, rel=1e-11, abs=1e-14)

    def test_determinism(self):
        gen = np.random.default_rng(4)
        spec = GridSpec(tau=2.0**-3, B=2.0, n=3)
        dc = lattice_constraint(gen, 3)
        a = count(dc, spec, 0.1)
        b = count(dc, spec, 0.1)
        assert a == b  # bit identical

    def test_monotone_in_theta(self):
        gen = np.random.default_rng(5)
        spec = GridSpec(tau=2.0**-3, B=2.0, n=3)
        base = lattice_constraint(gen, 3)
        prev = -1.0
        for theta in np.linspace(-4.0, 4.0, 60):
            dc = DecoupledConstraint(
                lam=base.lam, mu=base.mu, theta=float(theta), rotation=base.rotation
            )
            cur = count(dc, spec, 0.1)
            assert cur >= prev - 1e-12
            prev = cur

    def test_chi2_decoupled_direct(self):
        # the canonical decoupled instance fed straight to the counter
        spec = GridSpec(tau=2.0**-8, B=6.0, n=2)
        dc = DecoupledConstraint(
            lam=np.ones(2), mu=np.zeros(2), theta=2.0, rotation=np.eye(2)
        )
        est = count(dc, spec, 0.02)
        assert est == pytest.approx(oracles.chi2_cdf(2.0, 2), rel=0.03)

    def test_compression_brackets_running_cdf(self):
        # instrumented: every intermediate compressed CDF must lower-bound
        # the exact running CDF and stay within its error budget
        gen = np.random.default_rng(7)
        spec = GridSpec(tau=2.0**-3, B=2.0, n=3)
        dc = lattice_constraint(gen, 3)
        pmfs = [
            support_and_log_pmf(float(dc.lam[j]), float(dc.mu[j]), spec)
            for j in range(3)
        ]
        collected: list = []
        compressed_tail_cdf(pmfs, 0.25, collect=collected)
        # exact running convolutions in linear space
        running_v, running_p = None, None
        for k, (v, lp) in enumerate(pmfs):
            p = np.exp(lp)
            if running_v is None:
                running_v, running_p = v, p
            else:
                vv = np.add.outer(running_v, v).ravel()
                pp = np.multiply.outer(running_p, p).ravel()
                order = np.argsort(vv, kind="stable")
                vv, pp = vv[order], pp[order]
                starts = np.flatnonzero(
                    np.concatenate(([True], vv[1:] != vv[:-1]))
                )
                running_v = vv[starts]
                running_p = np.add.reduceat(pp, starts)
            cdf = collected[k]
            exact_cum = np.cumsum(running_p)
            for t in np.linspace(running_v[0] - 0.1, running_v[-1] + 0.1, 97):
                idx = int(np.searchsorted(running_v, t, side="right"))
                exact = exact_cum[idx - 1] if idx else 0.0
                approx = cdf.query(t)
                assert approx <= exact + 1e-12
                assert exact <= cdf.err_budget * approx + 1e-12

    def test_rejects_bad_eps(self):
        spec = GridSpec(tau=0.5, B=1.0, n=1)
        dc = DecoupledConstraint(
            lam=np.array([1.0]), mu=np.zeros(1), theta=0.0, rotation=np.eye(1)
        )
        with pytest.raises(ValueError):
            count(dc, spec, 0.0)


class TestCountPtfGaussian:
    def test_constant_positive(self):
        q = QuadraticForm(A=np.zeros((2, 2)), b=np.zeros(2), c=1.0)
        res = count_ptf_gaussian(q, 0.05)
        assert res.estimate == 1.0 and not res.below_floor

    def test_constant_negative(self):
        q = QuadraticForm(A=np.zeros((2, 2)), b=np.zeros(2), c=-1.0)
        res = count_ptf_gaussian(q, 0.05)
        assert res.estimate == 0.0 and res.below_floor

    def test_chi2_two_dims(self):
        q = QuadraticForm(A=-np.eye(2), b=np.zeros(2), c=2.0)
        res = count_ptf_gaussian(q, 0.02, tau=2.0**-8, trunc_B=6.0)
        assert res.estimate == pytest.approx(oracles.chi2_cdf(2.0, 2), rel=0.03)

    def test_one_dim_square(self):
        q = QuadraticForm(A=np.eye(1), b=np.zeros(1), c=-1.0)
        res = count_ptf_gaussian(q, 0.02, tau=2.0**-8, trunc_B=6.0)
        want = 1.0 - oracles.chi2_cdf(1.0, 1)
        assert res.estimate == pytest.approx(want, rel=0.03)

    def test_chi2_three_dims_closed_form(self):
        # n = 3 always runs the engine; closed-form chi^2_3 CDF as oracle
        q = QuadraticForm(A=-np.eye(3), b=np.zeros(3), c=2.0)
        res = count_ptf_gaussian(q, 0.05, tau=2.0**-6, trunc_B=4.0)
        assert res.estimate == pytest.approx(oracles.chi2_cdf(2.0, 3), rel=0.06)

    def test_below_floor_flagged(self):
        q = QuadraticForm(A=np.zeros((1, 1)), b=np.array([1.0]), c=-8.0)
        res = count_ptf_gaussian(q, 0.1, trunc_B=10.0)
        assert res.below_floor
        assert 0.0 < res.estimate < 1e-10

    def test_result_schema(self):
        q = QuadraticForm(A=-np.eye(2), b=np.zeros(2), c=2.0)
        doc = count_ptf_gaussian(q, 0.05).to_dict()
        assert set(doc) == {"estimate", "log_estimate", "eps", "slack", "below_floor"}
        assert set(doc["slack"]) == {"rounding", "discretization", "truncation"}
        json.dumps(doc)  # serializable

    def test_slack_fields_bounded(self):
        q = QuadraticForm(A=-np.eye(2), b=np.zeros(2), c=2.0)
        res = count_ptf_gaussian(q, 0.05)
        for v in (res.slack_rounding, res.slack_discretization, res.slack_truncation):
            assert 0.0 <= v <= 1.0

    def test_default_radius(self):
        assert default_trunc_radius(2, 0.05) >= 2
        assert default_trunc_radius(8, 0.05) == 8


class TestMcCount:
    def test_constant_positive(self):
        q = QuadraticForm(A=np.zeros((1, 1)), b=np.zeros(1), c=1.0)
        est, ci = mc_count(q, 1000, Rng(0))
        assert est == 1.0 and ci == 0.0

    def test_halfspace_half(self):
        q = QuadraticForm(A=np.zeros((1, 1)), b=np.array([1.0]), c=0.0)
        est, ci = mc_count(q, 1 << 16, Rng(1))
        assert abs(est - 0.5) <= max(3 * ci, 0.01)

    def test_chi2_region(self):
        q = QuadraticForm(A=-np.eye(2), b=np.zeros(2), c=2.0)
        est, ci = mc_count(q, 1 << 17, Rng(2))
        assert abs(est - (1.0 - math.exp(-1.0))) <= 4 * ci

    def test_block_structure_reproducible(self):
        q = QuadraticForm(A=-np.eye(2), b=np.zeros(2), c=2.0)
        a = mc_count(q, 30_000, Rng(3))
        b = mc_count(q, 30_000, Rng(3))
        assert a == b

    def test_chunking_invariance(self):
        q = QuadraticForm(A=-np.eye(2), b=np.zeros(2), c=2.0)
        a = mc_count(q, 10_000, Rng(4), chunk=1 << 16)
        b = mc_count(q, 10_000, Rng(4), chunk=1 << 16)
        assert a == b
