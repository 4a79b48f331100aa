import json
import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from quadgauss import counter, hardness
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
from quadgauss.numerics import LOG_ZERO, Rng, _wilson_half_width, normal_blocks
from quadgauss.quadform import DecoupledConstraint, QuadraticForm, sign_at
from quadgauss.sampler import PtfSampler

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
        # a sampling table has no floor: it keeps the leftmost pair, of mass
        # e^(l1 + l2)
        table = PrefixCDFTable.for_sampling(dc, spec, 0.05)
        assert table.cdfs[2].values[0] == f1[0][0] + f2[0][0]
        assert table.cdfs[2].log_cum[0] == pytest.approx(f1[1][0] + f2[1][0], rel=1e-13)
        # a count table merges that pair into its first kept atom, which holds
        # the exact cumulative mass of the (floored) factors it convolved
        calls = []
        real = counter._convolve_sparsify

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(counter, "_convolve_sparsify", spy)
        table = PrefixCDFTable.for_count(dc, spec, 0.05)
        *factors, _, log_floor = calls[-1]
        first = table.cdfs[2]
        assert log_floor > LOG_ZERO
        # both factors were floored too: each first atom holds more than it
        assert factors[1][0] > log_floor and factors[3][0] > log_floor
        assert first.values[0] > f1[0][0] + f2[0][0]
        conv_v, conv_lp = oracles.convolve_log(*factors)
        want = np.logaddexp.reduce(conv_lp[conv_v <= first.values[0]])
        assert first.log_cum[0] == pytest.approx(want, rel=1e-13)
        assert first.log_cum[0] > log_floor

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


def floors_between_cumulatives(gen, logp, k):
    """k log floors halfway between consecutive log cumulative masses that
    differ by more than rounding, plus one below and one above them all."""
    cum = np.logaddexp.accumulate(logp)
    gaps = np.flatnonzero(np.diff(cum) > 1e-6)
    picks = gen.choice(gaps, size=min(k, gaps.size), replace=False)
    return [cum[0] - 50.0, *(0.5 * (cum[picks] + cum[picks + 1])), cum[-1] + 1.0]


def bench_style(n):
    gen = np.random.default_rng(n)
    big = gen.standard_normal((n, n))
    return QuadraticForm(
        A=-np.eye(n) + 0.3 * (big + big.T) / 2.0, b=0.3 * gen.standard_normal(n), c=float(n)
    )


def cube_style(n):
    gen = np.random.default_rng(100 + n)
    w = gen.integers(1, 16, size=n)
    z = gen.integers(0, 2, size=n)
    inst = hardness.SubsetSumInstance(w0=int(w @ z), w=tuple(int(v) for v in w))
    return hardness.gen_deg2_cube_instance(inst)[1]


def pair_counter(monkeypatch):
    """Count the pairs every convolution forms."""
    formed = [0]
    real = counter._pair_windows

    def counted(*args):
        for chunk in real(*args):
            formed[0] += chunk[1].size
            yield chunk

    monkeypatch.setattr(counter, "_pair_windows", counted)
    return formed


class TestAnswerRelativeFloor:
    """Count tables merge each left tail below a floor relative to a coarse
    lower bound on the answer; sampling tables keep every tail."""

    @pytest.mark.parametrize("block, stride", [(1 << 16, 32), (61, 1)])
    def test_floored_walk_matches_log_space_reference(self, monkeypatch, block, stride):
        monkeypatch.setattr(counter, "_PAIR_BLOCK", block)
        monkeypatch.setattr(counter, "_SAMPLE_STRIDE", stride)
        gen = np.random.default_rng(21)
        for _ in range(12):
            a = random_lattice_pmf(gen, int(gen.integers(2, 300)))
            b = random_lattice_pmf(gen, int(gen.integers(2, 300)))
            exact = oracles.convolve_log(*a, *b)
            for log_floor in floors_between_cumulatives(gen, exact[1], 4):
                for eps_step in (1e-3, 0.3):
                    want_v, want_lp = oracles.sparsify_log(*exact, eps_step, log_floor)
                    for got_v, got_lp in (
                        _convolve_sparsify(*a, *b, eps_step, log_floor),
                        _sparsify(*exact, eps_step, log_floor),
                    ):
                        assert np.array_equal(got_v, want_v)
                        np.testing.assert_allclose(got_lp, want_lp, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("block, stride", [(1 << 16, 32), (61, 1)])
    def test_floor_in_the_log_head(self, monkeypatch, block, stride):
        # tails at B = 40 lie ~1000 nats below the top pair: floors there sit
        # in the log-space head of the walk, and the rest in its linear part
        monkeypatch.setattr(counter, "_PAIR_BLOCK", block)
        monkeypatch.setattr(counter, "_SAMPLE_STRIDE", stride)
        spec = GridSpec(tau=0.5, B=40.0, n=2)
        f1 = support_and_log_pmf(-0.5, 0.25, spec)
        f2 = support_and_log_pmf(-0.25, 0.0, spec)
        exact = oracles.convolve_log(*f1, *f2)
        gen = np.random.default_rng(22)
        floors = (-1100.0, -900.0, -720.0, -30.0, *floors_between_cumulatives(gen, exact[1], 4))
        for log_floor in floors:
            want_v, want_lp = oracles.sparsify_log(*exact, 1e-3, log_floor)
            got_v, got_lp = _convolve_sparsify(*f1, *f2, 1e-3, log_floor)
            assert np.array_equal(got_v, want_v)
            np.testing.assert_allclose(got_lp, want_lp, rtol=1e-13, atol=1e-12)

    def test_count_within_eps_of_bruteforce(self, monkeypatch):
        # small windows so that the floor engages on small grids
        monkeypatch.setattr(counter, "_PAIR_BLOCK", 61)
        coarse = []
        real = counter._coarse_log_mass

        def spy(*args):
            coarse.append(real(*args))
            return coarse[-1]

        monkeypatch.setattr(counter, "_coarse_log_mass", spy)
        gen = np.random.default_rng(23)
        spec = {n: GridSpec(tau=0.25, B=2.0, n=n) for n in (3, 4, 5)}
        worst, floored = 0.0, 0
        for trial in range(54):
            n = 3 + trial % 3
            dc = lattice_constraint(gen, n)
            exact = exact_tail_bruteforce(dc, spec[n])
            if exact < 1e-9:
                continue
            for eps in (0.05, 0.2, 0.5, 1.0):
                before = len(coarse)
                est = count(dc, spec[n], eps)
                assert len(coarse) == before + 1
                assert coarse[-1] <= math.log(exact) + 1e-12
                floored += coarse[-1] > LOG_ZERO
                assert 1.0 / (1.0 + eps) <= est / exact <= 1.0 + eps
                if eps == 0.05:
                    worst = max(worst, abs(math.log(est / exact)))
        assert floored >= 50 * 4
        assert worst <= 0.05 / 2

    def test_no_coarse_pass_when_every_step_fits_one_window(self, monkeypatch):
        def no_coarse(*args):
            raise AssertionError("the coarse pass ran on a one-window table")

        monkeypatch.setattr(counter, "_coarse_log_mass", no_coarse)
        gen = np.random.default_rng(24)
        spec = GridSpec(tau=0.25, B=2.0, n=4)
        dc = lattice_constraint(gen, 4)
        step = 0.05 / (2.0 * 5)
        got = PrefixCDFTable.for_count(dc, spec, 0.05)
        want = PrefixCDFTable._build(dc, spec, step)
        for a, b in zip(got.cdfs, want.cdfs):
            assert np.array_equal(a.values, b.values)
            assert np.array_equal(a.log_cum, b.log_cum)

    def test_sampling_table_has_no_floor(self, monkeypatch):
        # even where a count table's floor engages, a sampling table equals
        # one built straight from the unfloored chain
        monkeypatch.setattr(counter, "_PAIR_BLOCK", 61)
        gen = np.random.default_rng(25)
        for n in (3, 4, 5):
            spec = GridSpec(tau=0.25, B=2.0, n=n)
            dc = lattice_constraint(gen, n)
            for eps in (0.05, 0.5, 0.9):
                table = PrefixCDFTable.for_sampling(dc, spec, eps)
                step = math.expm1(-math.log1p(-eps) / (2 * n - 3))
                pmfs = [
                    support_and_log_pmf(float(dc.lam[j]), float(dc.mu[j]), spec)
                    for j in range(n - 1)
                ]
                steps = []
                compressed_tail_cdf(pmfs, step, collect=steps)
                assert len(table.cdfs) == len(steps) + 1
                for got, want in zip(table.cdfs[2:], steps[1:]):
                    assert np.array_equal(got.values, want.values)
                    assert np.array_equal(got.log_cum, want.log_cum)
                    assert got.err_budget == want.err_budget

    def test_floor_cuts_pairs_at_default_flags(self, monkeypatch):
        # machine-independent: pairs formed by default-flag counts, the
        # coarse pass included, against the floor-free tables (a coarse mass
        # of zero leaves no floor)
        formed = pair_counter(monkeypatch)
        estimates = [count_ptf_gaussian(q).estimate for q in (bench_style(5), cube_style(4))]
        with_floor = formed[0]
        formed[0] = 0
        monkeypatch.setattr(counter, "_coarse_log_mass", lambda *args: LOG_ZERO)
        for q, est in zip((bench_style(5), cube_style(4)), estimates):
            assert count_ptf_gaussian(q).estimate == pytest.approx(est, rel=1e-3)
        assert with_floor <= 0.7 * formed[0]


def by_each_route(monkeypatch, kernel, *args):
    """``kernel(*args)`` with every block of the greedy walk crossed by one
    search per kept atom (``_JUMP_RATIO`` 0), then by jump table (inf); the
    two results must be bit-identical."""
    results = []
    for ratio in (0.0, math.inf):
        monkeypatch.setattr(counter, "_JUMP_RATIO", ratio)
        results.append(kernel(*args))
    (scalar_v, scalar_lp), (table_v, table_lp) = results
    assert np.array_equal(scalar_v, table_v)
    assert np.array_equal(scalar_lp, table_lp)
    return table_v, table_lp


class TestWalkRoutes:
    """The greedy walk keeps the same atoms by jump table and by scalar
    steps, across chunk carries, jump blocks and floors in the log head."""

    @pytest.mark.parametrize("block, jump_block", [(61, 7), (97, 1 << 10)])
    def test_routes_agree_with_log_space_reference(self, monkeypatch, block, jump_block):
        # 7-atom jump blocks: a table walk crosses many blocks per chunk
        monkeypatch.setattr(counter, "_PAIR_BLOCK", block)
        monkeypatch.setattr(counter, "_SAMPLE_STRIDE", 1)
        monkeypatch.setattr(counter, "_JUMP_BLOCK", jump_block)
        gen = np.random.default_rng(23)
        for _ in range(8):
            a = random_lattice_pmf(gen, int(gen.integers(2, 100)))
            b = random_lattice_pmf(gen, int(gen.integers(2, 100)))
            exact = oracles.convolve_log(*a, *b)
            for log_floor in (LOG_ZERO, *floors_between_cumulatives(gen, exact[1], 2)):
                for eps_step in (1e-3, 1e-2, 0.3):
                    want_v, want_lp = oracles.sparsify_log(*exact, eps_step, log_floor)
                    for kernel, args in ((_convolve_sparsify, (*a, *b)), (_sparsify, exact)):
                        got_v, got_lp = by_each_route(monkeypatch, kernel, *args, eps_step, log_floor)
                        assert np.array_equal(got_v, want_v)
                        np.testing.assert_allclose(got_lp, want_lp, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("jump_block", [3, 1 << 10])
    def test_routes_agree_at_exact_ties(self, monkeypatch, jump_block):
        # masses 1, 1, 2, 4, ... have cumulative sums 2^i, so at step 1 each
        # next threshold equals a cumulative exactly; that atom has not grown
        # by more than the step, so every other atom merges
        monkeypatch.setattr(counter, "_JUMP_BLOCK", jump_block)
        p = np.concatenate(([1.0], 2.0 ** np.arange(20)))
        values = np.arange(p.size, dtype=float)
        chunk = (values, p, np.arange(p.size), lambda pos: np.log(p[pos]))
        got_v, got_lp = by_each_route(monkeypatch, counter._merge_stream, [chunk], 0.0, 1.0)
        assert np.array_equal(got_v, values[::2])
        np.testing.assert_allclose(np.exp(got_lp), [1.0, *(3.0 * 2.0 ** np.arange(0, 19, 2))])

    @pytest.mark.parametrize("block", [61, 97, 1 << 16])
    def test_routes_agree_with_floors_in_the_log_head(self, monkeypatch, block):
        # B = 40: the walk starts in the log-space head and leaves it for the
        # linear part, in one chunk or across many
        monkeypatch.setattr(counter, "_PAIR_BLOCK", block)
        monkeypatch.setattr(counter, "_SAMPLE_STRIDE", 1 if block < 1 << 16 else 32)
        spec = GridSpec(tau=0.5, B=40.0, n=2)
        f1 = support_and_log_pmf(-0.5, 0.25, spec)
        f2 = support_and_log_pmf(-0.25, 0.0, spec)
        exact = oracles.convolve_log(*f1, *f2)
        for log_floor in (LOG_ZERO, -1100.0, -900.0, -720.0, -30.0):
            want_v, want_lp = oracles.sparsify_log(*exact, 1e-3, log_floor)
            for kernel, args in ((_convolve_sparsify, (*f1, *f2)), (_sparsify, exact)):
                got_v, got_lp = by_each_route(monkeypatch, kernel, *args, 1e-3, log_floor)
                assert np.array_equal(got_v, want_v)
                np.testing.assert_allclose(got_lp, want_lp, rtol=1e-13, atol=1e-12)


class CountingPool(ThreadPoolExecutor):
    """A worker pool that counts the tasks submitted to it."""

    def __init__(self, workers):
        super().__init__(workers, thread_name_prefix="test-worker")
        self.submitted = 0

    def submit(self, fn, *args):
        self.submitted += 1
        return super().submit(fn, *args)


class TestPooledSort:
    """Pair windows sort on the worker pool, one window ahead of the merge."""

    def test_output_does_not_depend_on_worker_count(self, monkeypatch, install_pool):
        monkeypatch.setattr(counter, "_PAIR_BLOCK", 1 << 12)
        gen = np.random.default_rng(21)
        a, b = (random_lattice_pmf(gen, 600) for _ in range(2))
        q = bench_style(4)
        results = []
        for workers in (1, 2):
            pool = install_pool(CountingPool(workers), workers)
            conv = _convolve_sparsify(*a, *b, 1e-3)
            est = count_ptf_gaussian(q).estimate
            assert pool.submitted > 10
            results.append((conv, est))
        (v1, lp1), est1 = results[0]
        (v2, lp2), est2 = results[1]
        assert np.array_equal(v1, v2) and np.array_equal(lp1, lp2)
        assert est1.hex() == est2.hex()

    def test_close_leaves_no_sort_pending(self, monkeypatch, lazy_pool):
        # the sort submitted one window ahead stays pending until the
        # generator closes
        monkeypatch.setattr(counter, "_PAIR_BLOCK", 97)
        gen = np.random.default_rng(22)
        a, b = (random_lattice_pmf(gen, 200) for _ in range(2))
        windows = _pair_windows(*a, *b)
        next(windows)
        windows.close()
        assert [f.done() for f in lazy_pool.futures] == [True, True]
        assert [f.cancelled() for f in lazy_pool.futures] == [False, True]

    def test_sort_error_reaches_caller(self, monkeypatch, install_pool):
        class SortError(Exception):
            pass

        error = SortError("sort failed")
        real = np.argsort

        def failing_off_the_caller(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                raise error
            return real(*args, **kwargs)

        monkeypatch.setattr(counter, "_PAIR_BLOCK", 1 << 12)
        monkeypatch.setattr(np, "argsort", failing_off_the_caller)
        install_pool(ThreadPoolExecutor(2), 2)
        with pytest.raises(SortError) as info:
            count_ptf_gaussian(bench_style(4))
        assert info.value is error

    def test_concurrent_counts_next_to_block_draws(self, monkeypatch):
        # more callers than workers, block draws on the same pool, and
        # threads switching as often as possible
        monkeypatch.setattr(counter, "_PAIR_BLOCK", 1 << 12)
        forms = [bench_style(n) for n in (3, 4, 3, 4)]
        want = [count_ptf_gaussian(q).estimate for q in forms]
        want_blocks = [b.copy() for b in normal_blocks(Rng(5), 3, 256, total=256 * 40)]
        counts: dict[int, float] = {}
        draws: dict[int, list] = {}

        def run_count(k):
            counts[k] = count_ptf_gaussian(forms[k]).estimate

        def run_draws(k):
            draws[k] = [b.copy() for b in normal_blocks(Rng(5), 3, 256, total=256 * 40)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run_count, args=(k,)) for k in range(4)]
            threads += [threading.Thread(target=run_draws, args=(k,)) for k in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert [counts.get(k) for k in range(4)] == want
        for k in range(2):
            assert len(draws[k]) == len(want_blocks)
            assert all(np.array_equal(x, y) for x, y in zip(draws[k], want_blocks))


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
        assert set(doc) == {"estimate", "eps", "below_floor"}
        json.dumps(doc)  # serializable

    def test_default_radius(self):
        assert default_trunc_radius(2, 0.05) >= 2
        assert default_trunc_radius(8, 0.05) == 8

    @pytest.mark.parametrize(
        "kwargs", [{"eps": 0.0}, {"eps": 5.0}, {"tau": 0.3}, {"trunc_B": 0.3}]
    )
    def test_bad_settings_rejected_before_work(self, monkeypatch, kwargs):
        # a constant instance is answered without a grid, so only an up-front
        # check catches these settings
        def no_decouple(q):
            raise AssertionError("decouple ran before the settings were checked")

        monkeypatch.setattr(counter, "decouple", no_decouple)
        q = QuadraticForm(A=np.zeros((2, 2)), b=np.zeros(2), c=1.0)
        with pytest.raises(ValueError):
            count_ptf_gaussian(q, **kwargs)

    @pytest.mark.parametrize("build", [count_ptf_gaussian, PtfSampler])
    def test_oversized_grid_refused_before_pmfs(self, monkeypatch, build):
        # 2B/tau + 1 points per coordinate past the guard: no pmf or cell
        # mass is built
        def no_pmf(*args):
            raise AssertionError("a pmf was built before the size guard")

        monkeypatch.setattr(counter, "support_and_log_pmf", no_pmf)
        monkeypatch.setattr(counter, "_log_cell_masses", no_pmf)
        q = QuadraticForm(A=-np.eye(2), b=np.zeros(2), c=2.0)
        spec_points = 2 * 4 * 2**20 + 1
        assert spec_points > counter._POINTS_LIMIT
        with pytest.raises(EngineTooLargeError, match=f"grid has {spec_points} points"):
            build(q, tau=2.0**-20, trunc_B=4.0)


class TestMcCount:
    def test_constant_positive(self):
        q = QuadraticForm(A=np.zeros((1, 1)), b=np.zeros(1), c=1.0)
        est, ci = mc_count(q, 1000, Rng(0))
        assert est == 1.0 and ci == 0.0

    @pytest.mark.parametrize("c, mass", [(2.5, 1.0), (0.0, 1.0), (-0.0, 1.0), (-1e-300, 0.0)])
    def test_constant_forms_draw_nothing(self, monkeypatch, c, mass):
        # every point has sign(c), with sign(0) = +1, so the answer is exact
        def no_blocks(*args, **kwargs):
            raise AssertionError("a constant form drew a block")

        monkeypatch.setattr(counter, "normal_blocks", no_blocks)
        q = QuadraticForm(A=np.zeros((3, 3)), b=np.zeros(3), c=c)
        assert mc_count(q, 1 << 16, Rng(0)) == (mass, 0.0)

    def test_constant_answer_matches_sampling(self, monkeypatch):
        forms = [QuadraticForm(A=np.zeros((2, 2)), b=np.zeros(2), c=c) for c in (1.0, 0.0, -1.0)]
        exact = [mc_count(q, 5000, Rng(1)) for q in forms]
        # with the shortcut off, the same forms are sampled: the estimates
        # agree, and only the sampled ones carry a Wilson half-width
        monkeypatch.setattr(QuadraticForm, "is_constant", property(lambda self: False))
        sampled = [mc_count(q, 5000, Rng(1)) for q in forms]
        assert [e for e, _ in exact] == [e for e, _ in sampled] == [1.0, 1.0, 0.0]
        assert all(ci == 0.0 for _, ci in exact)
        assert all(ci > 0.0 for _, ci in sampled)

    @pytest.mark.parametrize("c, mass", [(-5.0, 0.0), (5.0, 1.0)])
    def test_no_hits_or_all_hits_keep_a_half_width(self, c, mass):
        # x1 >= 5 has no hit in 2^16 draws and x1 >= -5 no miss; the 99%
        # Wilson half-width there is z^2 / (n + z^2), about 1.0e-4
        q = QuadraticForm(A=np.zeros((2, 2)), b=np.array([1.0, 0.0]), c=c)
        z2 = 2.5758293035489004**2
        assert mc_count(q, 1 << 16, Rng(1)) == (mass, pytest.approx(z2 / ((1 << 16) + z2), rel=1e-12))

    @pytest.mark.parametrize("kwargs", [
        {"n_samples": 1e4}, {"n_samples": 2.5}, {"n_samples": 0}, {"n_samples": -3},
        {"n_samples": "100"}, {"n_samples": True}, {"n_samples": None}, {"n_samples": np.float64(100.0)},
    ])
    @pytest.mark.parametrize("c", [1.0, -1.0])
    def test_bad_counts_rejected_for_every_form(self, kwargs, c):
        # a constant form (b = 0) is checked before its exact answer
        for b in (np.zeros(2), np.array([1.0, 0.0])):
            q = QuadraticForm(A=np.zeros((2, 2)), b=b, c=c)
            args = {"n_samples": 1000, **kwargs}
            name = next(iter(kwargs))
            with pytest.raises(ValueError, match=f"^{name} must be"):
                mc_count(q, rng=Rng(0), **args)

    def test_numpy_integer_counts_accepted(self):
        q = QuadraticForm(A=-np.eye(2), b=np.zeros(2), c=2.0)
        assert mc_count(q, np.int64(5000), Rng(3)) == mc_count(q, 5000, Rng(3))

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

    def test_pinned_values(self):
        # threaded block draws equal the same 2^16-row blocks drawn serially
        # here, block i from Rng(seed).derive(i); 70,001 rows end in a short
        # second block
        chi2 = QuadraticForm(A=-np.eye(2), b=np.zeros(2), c=2.0)
        thin3 = QuadraticForm(A=np.zeros((3, 3)), b=np.array([1.0, 0.0, 0.0]), c=-3.0)
        for q, n_samples, seed in ((chi2, 70_001, 3), (thin3, 100_000, 7)):
            hits = 0
            for i, start in enumerate(range(0, n_samples, 1 << 16)):
                g = Rng(seed).derive(i).normal((min(1 << 16, n_samples - start), q.n))
                hits += int(np.count_nonzero(np.asarray(sign_at(q, g)) == 1))
            p = hits / n_samples
            assert mc_count(q, n_samples, Rng(seed)) == (p, _wilson_half_width(p, n_samples))
        assert mc_count(thin3, 100_000, Rng(7))[0] == 0.00148
