import json
import math
import tracemalloc

import numpy as np
import pytest

from quadgauss import counter
from quadgauss.counter import (
    CountResult,
    EngineTooLargeError,
    PrefixCDFTable,
    _convolve_sparsify,
    _pair_windows,
    _sparsify,
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

    def test_oracle_equivalence_four_coordinates(self):
        # n = 4 makes two convolutions, each of a sparsified factor
        gen = np.random.default_rng(9)
        spec = GridSpec(tau=2.0**-2, B=2.0, n=4)
        for _ in range(8):
            dc = lattice_constraint(gen, 4)
            exact = exact_tail_bruteforce(dc, spec)
            for eps in (0.3, 0.1, 0.05):
                est = count(dc, spec, eps)
                if exact == 0.0:
                    assert est == 0.0
                else:
                    assert 1.0 / (1.0 + eps) - 1e-9 <= est / exact <= 1.0 + eps + 1e-9

    def test_rejects_bad_eps(self):
        spec = GridSpec(tau=0.5, B=1.0, n=1)
        dc = DecoupledConstraint(
            lam=np.array([1.0]), mu=np.zeros(1), theta=0.0, rotation=np.eye(1)
        )
        with pytest.raises(ValueError):
            count(dc, spec, 0.0)


def random_lattice_pmf(gen, size, step=2.0**-6):
    values = np.unique(gen.integers(-400, 400, size=size)) * step
    return values, gen.normal(size=values.size) * 3.0 - 4.0


class TestKernels:
    """The linear-space kernels against the log-space reference in oracles."""

    @pytest.mark.parametrize("step", [2.0**-6, 0.1])
    def test_pair_windows_partition_the_convolution(self, monkeypatch, step):
        # small windows: every pair lands in exactly one, in value order; at
        # step 0.1 pair sums round, and equal sums must share a window
        monkeypatch.setattr(counter, "_PAIR_BLOCK", 97)
        monkeypatch.setattr(counter, "_SAMPLE_STRIDE", 1)
        gen = np.random.default_rng(11)
        for _ in range(20):
            a = random_lattice_pmf(gen, int(gen.integers(1, 300)), step)
            b = random_lattice_pmf(gen, int(gen.integers(1, 300)), step)
            chunks = [
                (v, np.logaddexp.reduceat(log_terms(np.arange(p.size)), starts))
                for v, p, starts, log_terms in _pair_windows(a[0], a[1], b[0], b[1])
            ]
            assert len(chunks) > 1 or a[0].size * b[0].size <= 97
            got_v = np.concatenate([v for v, _ in chunks])
            got_lp = np.concatenate([lp for _, lp in chunks])
            want_v, want_lp = oracles.convolve_log(*a, *b)
            assert np.array_equal(got_v, want_v)
            np.testing.assert_allclose(got_lp, want_lp, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("block, stride", [(97, 1), (1 << 16, 32)])
    def test_convolve_matches_log_space_reference(self, monkeypatch, block, stride):
        monkeypatch.setattr(counter, "_PAIR_BLOCK", block)
        monkeypatch.setattr(counter, "_SAMPLE_STRIDE", stride)
        gen = np.random.default_rng(11)
        for _ in range(20):
            a = random_lattice_pmf(gen, int(gen.integers(1, 300)))
            b = random_lattice_pmf(gen, int(gen.integers(1, 300)))
            exact = oracles.convolve_log(*a, *b)
            for eps_step in (1e-3, 1e-2, 0.3):
                got_v, got_lp = _convolve_sparsify(*a, *b, eps_step)
                want_v, want_lp = oracles.sparsify_log(*exact, eps_step)
                assert np.array_equal(got_v, want_v)
                np.testing.assert_allclose(got_lp, want_lp, rtol=0.0, atol=1e-12)

    def test_convolution_memory_does_not_grow_with_pairs(self):
        # 4M distinct pair values: holding every pair at once took 133 MB,
        # one window at a time takes under 10 MB
        gen = np.random.default_rng(13)
        a, b = ((np.sort(gen.uniform(size=2000)), gen.normal(size=2000)) for _ in range(2))
        tracemalloc.start()
        try:
            _convolve_sparsify(*a, *b, 1e-3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32e6
    def test_sparsify_matches_log_space_reference(self):
        gen = np.random.default_rng(12)
        for _ in range(20):
            v, lp = oracles.convolve_log(
                *random_lattice_pmf(gen, 200), *random_lattice_pmf(gen, 200)
            )
            for eps_step in (1e-3, 1e-2, 0.3):
                got_v, got_lp = _sparsify(v, lp, eps_step)
                want_v, want_lp = oracles.sparsify_log(v, lp, eps_step)
                assert np.array_equal(got_v, want_v)
                np.testing.assert_allclose(got_lp, want_lp, rtol=0.0, atol=1e-12)

    def test_sparsify_merges_after_tiny_leading_atom(self):
        # the log-range is dominated by the first atom, yet the 1000 equal
        # atoms after it are far closer than the step and must merge
        values = np.arange(1001.0)
        logp = np.concatenate(([math.log(1e-100)], np.full(1000, math.log(1e-3))))
        got_v, got_lp = _sparsify(values, logp, 0.1)
        assert got_v.size < 100
        # the merged CDF lower-bounds the exact one within the step
        exact = np.cumsum(np.exp(logp))
        merged = np.cumsum(np.exp(got_lp))
        idx = np.searchsorted(got_v, values, side="right")
        approx = np.where(idx > 0, merged[idx - 1], 0.0)
        assert np.all(approx <= exact * (1.0 + 1e-12))
        assert np.all(exact <= 1.1 * approx * (1.0 + 1e-12))

    def test_sparsify_leaves_log_head_at_the_step(self):
        # relative to the top atom: e^-693.2 lies below the 2^-1000 linear
        # floor, adding e^-696 lifts the cumulative just above it but by
        # less than the step, so that atom merges into the next one
        values = np.arange(5.0)
        logp = np.array([-693.2, -696.0, 0.0, 0.0, 0.0])
        got_v, got_lp = _sparsify(values, logp, 0.1)
        want_v, want_lp = oracles.sparsify_log(values, logp, 0.1)
        assert np.array_equal(want_v, [0.0, 2.0, 3.0, 4.0])
        assert np.array_equal(got_v, want_v)
        np.testing.assert_allclose(got_lp, want_lp, rtol=0.0, atol=1e-12)

    def test_no_atom_lost_beyond_linear_range(self, monkeypatch):
        # tails at B = 40 weigh ~e^-785 per factor: the sum of two spans more
        # than the ~745 nats a scaled double can hold
        spec = GridSpec(tau=0.5, B=40.0, n=3)
        dc = DecoupledConstraint(
            lam=np.array([-0.5, -0.25, 0.5]),
            mu=np.array([0.25, 0.0, 0.0]),
            theta=0.0,
            rotation=np.eye(3),
        )
        f1, f2 = (
            support_and_log_pmf(float(dc.lam[j]), float(dc.mu[j]), spec) for j in range(2)
        )
        exact = oracles.convolve_log(*f1, *f2)
        assert exact[1].max() - exact[1].min() > 1000.0
        want_v, want_lp = oracles.sparsify_log(*exact, 1e-3)
        got_v, got_lp = _sparsify(*exact, 1e-3)
        assert np.array_equal(got_v, want_v)
        np.testing.assert_allclose(got_lp, want_lp, rtol=1e-13)
        # in small windows the log-space head and runs carry across windows
        for block, stride in ((1 << 16, 32), (61, 1)):
            monkeypatch.setattr(counter, "_PAIR_BLOCK", block)
            monkeypatch.setattr(counter, "_SAMPLE_STRIDE", stride)
            got_v, got_lp = _convolve_sparsify(*f1, *f2, 1e-3)
            assert np.array_equal(got_v, want_v)
            np.testing.assert_allclose(got_lp, want_lp, rtol=1e-13)
        # the table keeps the leftmost pair, of mass e^(l1 + l2)
        table = PrefixCDFTable.for_count(dc, spec, 0.05)
        assert table.cdfs[2].values[0] == f1[0][0] + f2[0][0]
        assert table.cdfs[2].log_cum[0] == pytest.approx(f1[1][0] + f2[1][0], rel=1e-13)

    def test_size_guard_fires_before_any_convolution(self, monkeypatch):
        def no_convolution(*args):
            raise AssertionError("a convolution ran before the size guard fired")

        monkeypatch.setattr(counter, "_convolve_sparsify", no_convolution)
        gen = np.random.default_rng(16)
        big = gen.standard_normal((16, 16))
        q = QuadraticForm(
            A=-np.eye(16) + 0.15 * (big + big.T), b=0.3 * gen.standard_normal(16), c=16.0
        )
        with pytest.raises(EngineTooLargeError, match="size guard"):
            count_ptf_gaussian(q)

    def test_size_guard_admits_coarse_grid_at_n32(self, monkeypatch):
        # tau 2^-5, B 4, n = 32: the largest step forms ~70M pairs (bound
        # ~80M), within the guard; the pair bound is checked up front, so a
        # stub that stops at the first convolution shows the guard passed
        class GuardPassed(Exception):
            pass

        def stop(*args):
            raise GuardPassed

        monkeypatch.setattr(counter, "_convolve_sparsify", stop)
        gen = np.random.default_rng(32)
        big = gen.standard_normal((32, 32))
        q = QuadraticForm(
            A=-np.eye(32) + 0.15 * (big + big.T), b=0.3 * gen.standard_normal(32), c=32.0
        )
        with pytest.raises(GuardPassed):
            count_ptf_gaussian(q, tau=2.0**-5, trunc_B=4.0)


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

    def test_pinned_values(self):
        # recorded with serial block draws; threaded block draws must agree
        chi2 = QuadraticForm(A=-np.eye(2), b=np.zeros(2), c=2.0)
        assert mc_count(chi2, 70_001, Rng(3), chunk=1 << 12) == (
            0.6338623733946658,
            0.0046901272370572745,
        )
        thin3 = QuadraticForm(A=np.zeros((3, 3)), b=np.array([1.0, 0.0, 0.0]), c=-3.0)
        assert mc_count(thin3, 100_000, Rng(7)) == (0.00148, 0.00031313118484105855)
