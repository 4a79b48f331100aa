import json
import math
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from quadgauss import counter, hardness
from quadgauss.counter import (
    DEFAULT_EPS,
    DEFAULT_TAU,
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
    mc_count,
)
from quadgauss.grid import GridSpec
from quadgauss.numerics import LOG_ZERO, Rng, _wilson_half_width, normal_blocks
from quadgauss.quadform import DecoupledConstraint, QuadraticForm, decouple, normalize, sign_at
from quadgauss.sampler import PtfSampler

import oracles
from test_grid import grid_pmf
from test_quadform import rotated_null_form


def lattice_constraint(gen, n, step=2.0**-4):
    lam = np.rint(gen.normal(size=n) / step) * step
    mu = np.rint(gen.normal(size=n) / step) * step
    theta = float(gen.normal() * n)
    return DecoupledConstraint(lam=lam, mu=mu, theta=theta, rotation=np.eye(n))


class TestExactTailBruteforce:
    """The brute-force oracle the count tests compare against."""

    def test_single_square_example(self):
        got = oracles.exact_tail_bruteforce([1.0], [0.0], 0.5, 0.5, 1.0)
        want = oracles.phi_series(1.0) - oracles.phi_series(-0.5)
        assert got == pytest.approx(want, rel=1e-12)

    def test_theta_below_min(self):
        assert oracles.exact_tail_bruteforce([1.0, 1.0], [0.0, 0.0], -0.5, 0.5, 1.0) == 0.0

    def test_theta_above_max(self):
        got = oracles.exact_tail_bruteforce([1.0, 1.0], [0.0, 0.0], 10.0, 0.5, 1.0)
        assert got == pytest.approx(1.0, abs=1e-13)

    def test_matches_direct_enumeration(self):
        gen = np.random.default_rng(1)
        for _ in range(10):
            dc = lattice_constraint(gen, 2)
            args = (dc.lam.tolist(), dc.mu.tolist(), dc.theta, 0.25, 1.0)
            got = oracles.exact_tail_bruteforce(*args)
            assert got == pytest.approx(oracles.discrete_tail(*args), rel=1e-11, abs=1e-13)

    def test_size_guard(self):
        with pytest.raises(ValueError, match="beyond the brute-force limit"):
            oracles.exact_tail_bruteforce(np.ones(4), np.zeros(4), 0.0, 2.0**-10, 8.0)

    def test_size_guard_beyond_float_range(self):
        # (2e200 + 1)^2 grid points, which no float holds
        with pytest.raises(ValueError, match=r"^grid has 4\.00e\+400 points, beyond"):
            oracles.exact_tail_bruteforce(np.ones(2), np.zeros(2), 0.0, 1.0, 1e200)

    def test_size_guard_prints_three_digits(self):
        # 16385^4 points, not its 17 digits
        with pytest.raises(ValueError, match=r"^grid has 7\.21e\+16 points, beyond"):
            oracles.exact_tail_bruteforce(np.ones(4), np.zeros(4), 0.0, 2.0**-10, 8.0)


class TestCount:
    def test_oracle_equivalence_randomized(self):
        gen = np.random.default_rng(2)
        for trial in range(40):
            n = 1 + trial % 3
            spec = GridSpec(tau=2.0 ** -int(gen.integers(2, 5)), B=float(gen.integers(1, 4)))
            dc = lattice_constraint(gen, n)
            exact = oracles.exact_tail_bruteforce(dc.lam, dc.mu, dc.theta, spec.tau, spec.B)
            for eps in (0.3, 0.1, 0.05):
                est = count(dc, spec, eps)
                if exact == 0.0:
                    assert est == 0.0
                else:
                    assert 1.0 / (1.0 + eps) - 1e-9 <= est / exact <= 1.0 + eps + 1e-9

    def test_small_n_fast_path_matches_bruteforce(self):
        gen = np.random.default_rng(3)
        for n in (1, 2):
            spec = GridSpec(tau=2.0**-4, B=2.0)
            for _ in range(10):
                dc = lattice_constraint(gen, n)
                fast = count(dc, spec, 0.05)
                exact = oracles.exact_tail_bruteforce(dc.lam, dc.mu, dc.theta, spec.tau, spec.B)
                assert fast == pytest.approx(exact, rel=1e-11, abs=1e-14)

    def test_determinism(self):
        gen = np.random.default_rng(4)
        spec = GridSpec(tau=2.0**-3, B=2.0)
        dc = lattice_constraint(gen, 3)
        a = count(dc, spec, 0.1)
        b = count(dc, spec, 0.1)
        assert a == b  # bit identical

    def test_monotone_in_theta(self):
        gen = np.random.default_rng(5)
        spec = GridSpec(tau=2.0**-3, B=2.0)
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
        spec = GridSpec(tau=2.0**-8, B=6.0)
        dc = DecoupledConstraint(
            lam=np.ones(2), mu=np.zeros(2), theta=2.0, rotation=np.eye(2)
        )
        est = count(dc, spec, 0.02)
        assert est == pytest.approx(oracles.chi2_cdf(2.0, 2), rel=0.03)

    def test_compression_brackets_running_cdf(self):
        # instrumented: every intermediate compressed CDF must lower-bound
        # the exact running CDF and stay within its error budget
        gen = np.random.default_rng(7)
        spec = GridSpec(tau=2.0**-3, B=2.0)
        dc = lattice_constraint(gen, 3)
        pmfs = [
            grid_pmf(float(dc.lam[j]), float(dc.mu[j]), spec)
            for j in range(3)
        ]
        factors, _ = counter._guarded_factors(pmfs, 0.25, 0)
        collected: list = []
        compressed_tail_cdf(factors, 0.25, collect=collected)
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
            # 2k + 1 merges of step 0.25 lie behind the (k + 1)-th prefix sum
            cdf, budget = collected[k], 1.25 ** (2 * k + 1)
            exact_cum = np.cumsum(running_p)
            for t in np.linspace(running_v[0] - 0.1, running_v[-1] + 0.1, 97):
                idx = int(np.searchsorted(running_v, t, side="right"))
                exact = exact_cum[idx - 1] if idx else 0.0
                approx = np.exp(cdf.log_query(t))
                assert approx <= exact + 1e-12
                assert exact <= budget * approx + 1e-12

    def test_oracle_equivalence_four_coordinates(self):
        # n = 4 makes two convolutions, each of a sparsified factor
        gen = np.random.default_rng(9)
        spec = GridSpec(tau=2.0**-2, B=2.0)
        for _ in range(8):
            dc = lattice_constraint(gen, 4)
            exact = oracles.exact_tail_bruteforce(dc.lam, dc.mu, dc.theta, spec.tau, spec.B)
            for eps in (0.3, 0.1, 0.05):
                est = count(dc, spec, eps)
                if exact == 0.0:
                    assert est == 0.0
                else:
                    assert 1.0 / (1.0 + eps) - 1e-9 <= est / exact <= 1.0 + eps + 1e-9

    def test_rejects_bad_eps(self):
        spec = GridSpec(tau=0.5, B=1.0)
        dc = DecoupledConstraint(
            lam=np.array([1.0]), mu=np.zeros(1), theta=0.0, rotation=np.eye(1)
        )
        with pytest.raises(ValueError):
            count(dc, spec, 0.0)


def with_nulls(gen, mask):
    """A constraint with a null coordinate (lam = mu = 0) wherever ``mask``
    has a 0 and a live one elsewhere: lam = 0 at an "m", mu = 0 at an "l",
    both nonzero at a "1"; and the same constraint on its live coordinates
    alone.  theta >= 0, so the grid point 0 lies in the region."""
    codes = np.array([c for c in mask if c != "0"])
    live = np.array([c != "0" for c in mask])

    def lattice(zero):
        size = 0.25 + np.rint(np.abs(gen.normal(size=codes.size)) * 16) / 16
        return np.where(zero, 0.0, gen.choice([-1.0, 1.0], codes.size) * size)

    reduced = DecoupledConstraint(
        lam=lattice(codes == "m"),
        mu=lattice(codes == "l"),
        theta=abs(float(gen.normal())) * codes.size,
        rotation=np.eye(codes.size),
    )
    lam, mu = np.zeros(live.size), np.full(live.size, -0.0)
    lam[live], mu[live] = reduced.lam, reduced.mu
    full = DecoupledConstraint(lam=lam, mu=mu, theta=reduced.theta, rotation=np.eye(live.size))
    return full, reduced


class TestNullCoordinates:
    """A count reads only the coordinates with lam or mu nonzero: a null
    coordinate adds 0 on every grid cell, and its cells sum to 1."""

    @pytest.mark.parametrize(
        "mask",
        ["001", "010", "100", "0m", "l0", "0011", "1001", "1100", "0m0l"]
        + ["001111", "110011", "111100", "0m01l01"],
    )
    def test_counts_like_the_live_coordinates_alone(self, mask):
        dc, reduced = with_nulls(np.random.default_rng([ord(c) for c in mask]), mask)
        spec = GridSpec(tau=DEFAULT_TAU, B=4.0)
        got = count(dc, spec)
        assert got > 0.0
        # the live coordinates' own count, which has nothing to reduce
        assert got == count(reduced, spec, DEFAULT_EPS)

    @pytest.mark.parametrize("mask", ["010", "1001", "10110", "110011"])
    def test_builds_pmfs_for_live_coordinates_only(self, monkeypatch, mask):
        # at k <= 2 live coordinates nothing is compressed, so no chain runs
        built, chains = [], []
        pmf, chain = counter.support_and_log_pmf, counter.compressed_tail_cdf

        def pmf_spy(row, log_cell):
            built.append(row)
            return pmf(row, log_cell)

        def chain_spy(*args, **kwargs):
            chains.append(len(args[0]))
            return chain(*args, **kwargs)

        monkeypatch.setattr(counter, "support_and_log_pmf", pmf_spy)
        monkeypatch.setattr(counter, "compressed_tail_cdf", chain_spy)
        dc, reduced = with_nulls(np.random.default_rng(8), mask)
        k = reduced.n
        count(dc, GridSpec(tau=DEFAULT_TAU, B=4.0))
        assert len(built) <= k
        assert all(np.any(row != 0.0) for row in built)
        assert (chains == []) == (k <= 2)
        assert all(size < k for size in chains)

    @pytest.mark.parametrize("null", [0, 1, 2])
    def test_matches_bruteforce_on_the_full_grid(self, null):
        gen = np.random.default_rng(30 + null)
        # n = 4 on a coarser grid, which the brute force can enumerate
        cases = [(GridSpec(tau=2.0**-4, B=3.0), 3)] * 3 + [(GridSpec(tau=2.0**-2, B=2.0), 4)] * 2
        for spec, n in cases:
            dc, _ = with_nulls(gen, "".join("0" if j == null else "1" for j in range(n)))
            exact = oracles.exact_tail_bruteforce(dc.lam, dc.mu, dc.theta, spec.tau, spec.B)
            assert exact > 0.0
            for eps in (0.3, 0.05):
                ratio = count(dc, spec, eps) / exact
                assert 1.0 / (1.0 + eps) - 1e-9 <= ratio <= 1.0 + eps + 1e-9

    @pytest.mark.parametrize("theta, mass", [(0.0, 1.0), (0.5, 1.0), (-0.5, 0.0)])
    def test_all_null_constraint_counts_its_constant_sum(self, theta, mass):
        # nothing is dropped: the full table of point masses at 0 is exact
        dc = DecoupledConstraint(lam=np.zeros(3), mu=np.zeros(3), theta=theta, rotation=np.eye(3))
        assert count(dc, GridSpec(tau=DEFAULT_TAU, B=4.0)) == mass


def random_lattice_pmf(gen, size, step=2.0**-6):
    values = np.unique(gen.integers(-400, 400, size=size)) * step
    return values, gen.normal(size=values.size) * 3.0 - 4.0


class TestKernels:
    """The linear-space kernels against the log-space reference in oracles."""

    @pytest.mark.parametrize("step", [2.0**-6, 0.1])
    def test_pair_windows_partition_the_convolution(self, monkeypatch, step):
        # small windows: every pair lands in exactly one, within the window's
        # bounds and left of the next window's pairs; at step 0.1 pair sums
        # round, and equal sums must share a window
        monkeypatch.setattr(counter, "_PAIR_BLOCK", 97)
        monkeypatch.setattr(counter, "_SAMPLE_STRIDE", 1)
        gen = np.random.default_rng(11)
        for _ in range(20):
            a = random_lattice_pmf(gen, int(gen.integers(1, 300)), step)
            b = random_lattice_pmf(gen, int(gen.integers(1, 300)), step)
            windows = list(_pair_windows(a[0], a[1], b[0], b[1]))
            assert len(windows) > 1 or a[0].size * b[0].size <= 97
            assert windows[0][2] == windows[0][0].min()
            assert windows[-1][3] == windows[-1][0].max()
            got_v, got_lp, right = [], [], -math.inf
            for v, p, lo, hi, log_terms in windows:
                assert right < v.min() and lo <= v.min() and v.max() <= hi
                right = v.max()
                lp = log_terms(np.arange(v.size))
                np.testing.assert_allclose(p, np.exp(lp), rtol=1e-13)
                order = np.argsort(v, kind="stable")
                v, lp = v[order], lp[order]
                starts = np.flatnonzero(np.concatenate(([True], v[1:] != v[:-1])))
                got_v.append(v[starts])
                got_lp.append(np.logaddexp.reduceat(lp, starts))
            want_v, want_lp = oracles.convolve_log(*a, *b)
            assert np.array_equal(np.concatenate(got_v), want_v)
            np.testing.assert_allclose(np.concatenate(got_lp), want_lp, rtol=0.0, atol=1e-12)

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
                want_v, want_lp = oracles.greedy_sparsify_log(v, lp, eps_step)
                assert np.array_equal(got_v, want_v)
                np.testing.assert_allclose(got_lp, want_lp, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("block", [16, 1 << 16])
    def test_cumulative_equal_to_a_threshold_is_not_kept(self, monkeypatch, block):
        # 64 atoms of mass 1: the cumulatives 1, 2, ..., 64 are exact, and so
        # is the floor 20 at log(20), which is also the first threshold c_0.
        # The atom whose cumulative equals it has not passed it, for the
        # greedy walk and the threshold merge alike; a floor one ulp lower
        # keeps that atom.  Atom 20 lies past the window merge's log head
        monkeypatch.setattr(counter, "_PAIR_BLOCK", block)
        monkeypatch.setattr(counter, "_SAMPLE_STRIDE", 1)
        values, logp = np.arange(64.0), np.zeros(64)
        point = (np.zeros(1), np.zeros(1))
        at = math.log(20.0)
        for log_floor, first in ((at, 20.0), (math.nextafter(at, -math.inf), 19.0)):
            for got_v, got_lp in (
                _sparsify(values, logp, 0.5, log_floor),
                _convolve_sparsify(values, logp, *point, 0.5, log_floor),
            ):
                assert got_v[0] == first
                assert math.exp(got_lp[0]) == pytest.approx(first + 1.0, rel=1e-15)

    def test_threshold_counted_in_a_bin_lands_on_its_atoms(self):
        # one window of 32 terms in 5 bins of width 10.  Bin 1 holds masses
        # 1, 2^-53, 2^-53 at values 10, 11, 12, listed small ones first:
        # summed in that order they give 1 + 2^-52, in value order 1.  The
        # floor sits between the two cumulatives, so the threshold counted
        # at bin 1's end must land on its last atom.  Bin 2 (mass 0.9) holds
        # no threshold and stays unsorted; had the threshold moved on to
        # bin 3, nothing would be kept below 35, where F reaches 1.9 times
        # the floor
        t = 2.0**-53
        v = np.array([0.0, 11.0, 12.0, 10.0, 25.0, 35.0] + [40.0] * 26)
        p = np.array([2.0**-10, t, t, 1.0, 0.9, 10.0] + [1.0] * 26)
        window = (v, p, 0.0, 40.0, lambda pos: np.log(p[pos]))
        ahead, behind = 2.0**-10 + (t + t + 1.0), 2.0**-10 + 1.0
        assert ahead > behind
        log_floor = 0.5 * (math.log(ahead) + math.log(behind))
        got_v, got_lp = counter._merge_stream([window], 0.0, 1.0, log_floor)
        assert got_v[0] == 12.0
        exact_v = np.unique(v)
        exact = np.array([p[v <= x].sum() for x in exact_v])
        merged = np.cumsum(np.exp(got_lp))
        idx = np.searchsorted(got_v, exact_v, side="right")
        approx = np.where(idx > 0, merged[idx - 1], 0.0)
        assert np.all(exact <= 2.0 * approx * (1.0 + 1e-12) + math.exp(log_floor))

    @pytest.mark.parametrize("block", [61, 97])
    def test_threshold_merge_brackets_every_atom(self, monkeypatch, block):
        # the rule itself, not a reference: at every atom of the exact
        # convolution F' <= F <= (1 + e) F' + delta, and the merge keeps at
        # most 2 + log(F_total/base)/log1p(e) atoms, where base is the floor
        # delta, or the first atom's mass with no floor
        monkeypatch.setattr(counter, "_PAIR_BLOCK", block)
        monkeypatch.setattr(counter, "_SAMPLE_STRIDE", 1)
        gen = np.random.default_rng(31)
        for _ in range(12):
            a = random_lattice_pmf(gen, int(gen.integers(2, 300)))
            b = random_lattice_pmf(gen, int(gen.integers(2, 300)))
            exact_v, exact_lp = oracles.convolve_log(*a, *b)
            exact = np.cumsum(np.exp(exact_lp))
            for log_floor in (LOG_ZERO, *floors_between_cumulatives(gen, exact_lp, 3)):
                delta = math.exp(log_floor)
                base = delta if delta > 0.0 else exact[0]
                for eps_step in (1e-3, 0.3):
                    for got_v, got_lp in (
                        _convolve_sparsify(*a, *b, eps_step, log_floor),
                        _sparsify(exact_v, exact_lp, eps_step, log_floor),
                    ):
                        idx = np.searchsorted(got_v, exact_v, side="right")
                        merged = np.cumsum(np.exp(got_lp))
                        approx = np.where(idx > 0, merged[idx - 1], 0.0)
                        assert np.all(approx <= exact * (1.0 + 1e-12))
                        assert np.all(exact <= (1.0 + eps_step) * approx * (1.0 + 1e-12) + delta)
                        spread = max(math.log(exact[-1] / base), 0.0)
                        assert got_v.size <= 2.0 + spread / math.log1p(eps_step)

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
        want_v, want_lp = oracles.greedy_sparsify_log(values, logp, 0.1)
        assert np.array_equal(want_v, [0.0, 2.0, 3.0, 4.0])
        assert np.array_equal(got_v, want_v)
        np.testing.assert_allclose(got_lp, want_lp, rtol=0.0, atol=1e-12)

    def test_no_atom_lost_beyond_linear_range(self, monkeypatch):
        # tails at B = 40 weigh ~e^-785 per factor: the sum of two spans more
        # than the ~745 nats a scaled double can hold
        spec = GridSpec(tau=0.5, B=40.0)
        dc = DecoupledConstraint(
            lam=np.array([-0.5, -0.25, 0.5]),
            mu=np.array([0.25, 0.0, 0.0]),
            theta=0.0,
            rotation=np.eye(3),
        )
        f1, f2 = (
            grid_pmf(float(dc.lam[j]), float(dc.mu[j]), spec) for j in range(2)
        )
        exact = oracles.convolve_log(*f1, *f2)
        assert exact[1].max() - exact[1].min() > 1000.0
        want_v, want_lp = oracles.greedy_sparsify_log(*exact, 1e-3)
        got_v, got_lp = _sparsify(*exact, 1e-3)
        assert np.array_equal(got_v, want_v)
        np.testing.assert_allclose(got_lp, want_lp, rtol=1e-13)
        # in small windows the log-space head and runs carry across windows
        want_v, want_lp = oracles.sparsify_log(*exact, 1e-3)
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
        # a count merges that pair into its first kept atom, which holds the
        # exact cumulative mass of the (floored) factors it convolved
        calls = []
        real = counter._convolve_sparsify

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(counter, "_convolve_sparsify", spy)
        reads = grid_reads(monkeypatch)
        count(dc, spec, 0.05)
        *factors, _, log_floor = calls[-1]
        first = reads[-1][0]
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

    def test_refusal_sparsifies_only_the_factors_it_reads(self, monkeypatch):
        # the default n = 32 count is refused at convolution step 1, whose
        # bound reads the first two factors: the other 29 pmfs of 16,385
        # points are never sparsified
        calls = []
        real = counter._sparsify

        def spy(*args):
            calls.append(args[0].size)
            return real(*args)

        monkeypatch.setattr(counter, "_sparsify", spy)
        with pytest.raises(EngineTooLargeError, match="convolution step 1 "):
            count_ptf_gaussian(bench_style(32))
        assert len(calls) == 2

    def test_size_guard_counts_the_tail_lookups(self, monkeypatch):
        # four live coordinates on a 5-point grid: the chain's one step pairs
        # two 3-atom factors (9 pairs) and the last two coordinates' lookups
        # pair two 5-atom factors (25), so a limit of 24 refuses the lookups
        # alone, before the chain convolves
        def no_convolution(*args):
            raise AssertionError("a convolution ran before the size guard fired")

        spec = GridSpec(tau=0.5, B=1.0)
        dc = DecoupledConstraint(
            lam=np.array([1.0, 1.0, -0.5, 0.5]),
            mu=np.array([0.0, 0.0, 0.125, 0.375]),
            theta=0.5,
            rotation=np.eye(4),
        )
        monkeypatch.setattr(counter, "_PAIR_LIMIT", 25)
        assert count(dc, spec, 0.05) > 0.0
        monkeypatch.setattr(counter, "_PAIR_LIMIT", 24)
        monkeypatch.setattr(counter, "_convolve_sparsify", no_convolution)
        with pytest.raises(EngineTooLargeError, match="last two coordinates' lookups"):
            count(dc, spec, 0.05)


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


def tail_reads(monkeypatch):
    """Record every (cdf, tail, theta) ``_tail_log_mass`` reads, with its
    result: a count's last read is its mass before the midpoint."""
    reads = []
    real = counter._tail_log_mass

    def spy(cdf, tail, theta):
        reads.append((cdf, tail, theta, real(cdf, tail, theta)))
        return reads[-1][-1]

    monkeypatch.setattr(counter, "_tail_log_mass", spy)
    return reads


def grid_reads(monkeypatch):
    """Record every (cdf, row, log_cell, theta) ``_grid_log_mass`` reads,
    with its result: a count's last read at n <= 3 is its mass before the
    midpoint."""
    reads = []
    real = counter._grid_log_mass

    def spy(cdf, row, log_cell, theta):
        reads.append((cdf, row, log_cell, theta, real(cdf, row, log_cell, theta)))
        return reads[-1][-1]

    monkeypatch.setattr(counter, "_grid_log_mass", spy)
    return reads


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
    """Counts merge each left tail below a floor relative to a coarse lower
    bound on the answer; sampling tables keep every tail."""

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
                    for (got_v, got_lp), reference in (
                        (_convolve_sparsify(*a, *b, eps_step, log_floor), oracles.sparsify_log),
                        (_sparsify(*exact, eps_step, log_floor), oracles.greedy_sparsify_log),
                    ):
                        want_v, want_lp = reference(*exact, eps_step, log_floor)
                        assert np.array_equal(got_v, want_v)
                        np.testing.assert_allclose(got_lp, want_lp, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("block, stride", [(1 << 16, 32), (61, 1)])
    def test_floor_in_the_log_head(self, monkeypatch, block, stride):
        # tails at B = 40 lie ~1000 nats below the top pair: floors there sit
        # in the log-space head of the walk, and the rest in its linear part
        monkeypatch.setattr(counter, "_PAIR_BLOCK", block)
        monkeypatch.setattr(counter, "_SAMPLE_STRIDE", stride)
        spec = GridSpec(tau=0.5, B=40.0)
        f1 = grid_pmf(-0.5, 0.25, spec)
        f2 = grid_pmf(-0.25, 0.0, spec)
        exact = oracles.convolve_log(*f1, *f2)
        gen = np.random.default_rng(22)
        floors = (LOG_ZERO, -1100.0, -900.0, -720.0, -30.0, *floors_between_cumulatives(gen, exact[1], 4))
        for log_floor in floors:
            want_v, want_lp = oracles.sparsify_log(*exact, 1e-3, log_floor)
            got_v, got_lp = _convolve_sparsify(*f1, *f2, 1e-3, log_floor)
            assert np.array_equal(got_v, want_v)
            np.testing.assert_allclose(got_lp, want_lp, rtol=1e-13, atol=1e-12)

    def test_count_within_eps_of_bruteforce(self, monkeypatch):
        # small windows so that the floor engages on small grids
        monkeypatch.setattr(counter, "_PAIR_BLOCK", 41)
        coarse = []
        real = counter._coarse_log_mass

        def spy(*args):
            coarse.append(real(*args))
            return coarse[-1]

        monkeypatch.setattr(counter, "_coarse_log_mass", spy)
        gen = np.random.default_rng(23)
        spec = {n: GridSpec(tau=0.25, B=2.0) for n in (3, 4, 5)}
        worst, floored = 0.0, 0
        for trial in range(54):
            n = 3 + trial % 3
            dc = lattice_constraint(gen, n)
            exact = oracles.exact_tail_bruteforce(dc.lam, dc.mu, dc.theta, 0.25, 2.0)
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
        # the count reads the unfloored chain of its first two factors, and
        # the unfloored last two factors
        def no_coarse(*args):
            raise AssertionError("the coarse pass ran on a one-window count")

        monkeypatch.setattr(counter, "_coarse_log_mass", no_coarse)
        reads = tail_reads(monkeypatch)
        gen = np.random.default_rng(24)
        spec = GridSpec(tau=0.25, B=2.0)
        dc = lattice_constraint(gen, 4)
        step = 0.05 / 5
        count(dc, spec, 0.05)
        pmfs = [grid_pmf(float(dc.lam[j]), float(dc.mu[j]), spec) for j in range(4)]
        factors, _ = counter._guarded_factors(pmfs, step, 2)
        want = compressed_tail_cdf(factors[:2], step)
        assert len(reads) == 1
        got, tail, _, _ = reads[0]
        assert np.array_equal(got.values, want.values)
        assert np.array_equal(got.log_cum, want.log_cum)
        for a, b in zip(tail, (*factors[2], *factors[3])):
            assert np.array_equal(a, b)

    def test_sampling_table_has_no_floor(self, monkeypatch):
        # even where a count's floor engages, a sampling table equals
        # one built straight from the unfloored chain
        monkeypatch.setattr(counter, "_PAIR_BLOCK", 61)
        gen = np.random.default_rng(25)
        for n in (3, 4, 5):
            spec = GridSpec(tau=0.25, B=2.0)
            dc = lattice_constraint(gen, n)
            for eps in (0.05, 0.5, 0.9):
                table = PrefixCDFTable.for_sampling(dc, spec, eps)
                step = math.expm1(-math.log1p(-eps) / (2 * n - 3))
                pmfs = [
                    grid_pmf(float(dc.lam[j]), float(dc.mu[j]), spec)
                    for j in range(n - 1)
                ]
                factors, _ = counter._guarded_factors(pmfs, step, 0)
                steps = []
                compressed_tail_cdf(factors, step, collect=steps)
                assert len(table.cdfs) == len(steps) + 1
                for got, want in zip(table.cdfs[2:], steps[1:]):
                    assert np.array_equal(got.values, want.values)
                    assert np.array_equal(got.log_cum, want.log_cum)
                assert table.beta == (1.0 + step) ** (2 * n - 3)

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

    def test_default_count_forms_under_half_the_pairs(self, monkeypatch):
        # machine-independent: pairs formed, the coarse pass included.  A
        # merge step of eps/(2(2n - 3)) with a floor of eps' L/(8n), half the
        # certified budget, formed 2,548,413 pairs on this count
        formed = pair_counter(monkeypatch)
        count_ptf_gaussian(bench_style(5))
        assert 0 < formed[0] <= 2_548_413 // 2

    def test_default_count_sorts_under_a_fifth_of_its_pairs(self, monkeypatch):
        # machine-independent: a merge sorts only the value bins a threshold
        # falls in (and the log-space head), not whole pair windows
        formed = pair_counter(monkeypatch)
        sorted_terms = [0]
        real = np.argsort

        def counted(a, *args, **kwargs):
            sorted_terms[0] += np.size(a)
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", counted)
        count_ptf_gaussian(bench_style(5))
        assert 0 < sorted_terms[0] <= formed[0] / 5

    def test_null_coordinate_forms_no_pair_window(self, monkeypatch):
        # A = Q diag(-1, -1, 0) Q^T in a rotated basis: decouple snaps the
        # null coordinate to exactly 0 (roundoff of 1e-17 there once made
        # the count form 70,981 pairs), and the count reads the two live
        # coordinates with no convolution
        formed = pair_counter(monkeypatch)
        estimate = count_ptf_gaussian(rotated_null_form()).estimate
        assert formed[0] == 0
        # the same region without its null direction: both are exact grid
        # masses in 2-D, on grids rotated apart, so they differ only by where
        # the cells fall (6.8e-4 relative)
        plane = QuadraticForm(A=-np.eye(2), b=np.array([0.3, 0.3]), c=2.0)
        assert estimate == pytest.approx(count_ptf_gaussian(plane).estimate, rel=DEFAULT_TAU)

    def test_certificate_holds_for_every_eps_and_n(self):
        # count's docstring arithmetic, on the step and floor fraction it
        # takes: with beta = (1 + step)^(2n - 3) and r = beta (2n - 3)
        # delta/L, the midpoint's two ends sqrt(beta) and (1 - r)/sqrt(beta)
        # lie within [1/(1 + eps), 1 + eps]
        grid = np.concatenate((np.geomspace(1e-6, 1.0, 1000), np.linspace(0.0, 1.0, 1001)[1:], [0.5]))
        for n in range(3, 65):
            for eps in grid.tolist():
                step, log_floor_frac = counter._count_step(n, eps)
                beta = (1.0 + step) ** (2 * n - 3)
                r = beta * (2 * n - 3) * math.exp(log_floor_frac)
                assert math.sqrt(beta) <= 1.0 + eps
                assert (1.0 - r) / math.sqrt(beta) >= 1.0 / (1.0 + eps)


class TestTail:
    """Counts at n >= 4 read their last two coordinates by lookups into the
    CDF of the others, instead of convolving them, and build no table."""

    def test_count_builds_no_table(self, monkeypatch):
        def no_table(*args, **kwargs):
            raise AssertionError("a count built a PrefixCDFTable")

        monkeypatch.setattr(PrefixCDFTable, "__init__", no_table)
        for n in range(1, 6):
            assert 0.0 < count_ptf_gaussian(bench_style(n)).estimate < 1.0

    def test_default_count_convolves_n_minus_3_times(self, monkeypatch):
        # machine-independent: the fine chain stops two coordinates early.
        # Convolving the last coordinate too, this count formed 996,293 pairs,
        # the coarse pass included
        formed = pair_counter(monkeypatch)
        steps = []
        real = counter._convolve_sparsify

        def spy(*args):
            steps.append(args[4])
            return real(*args)

        monkeypatch.setattr(counter, "_convolve_sparsify", spy)
        count_ptf_gaussian(bench_style(5))
        assert sum(step < 1.0 for step in steps) == 5 - 3
        assert 0 < formed[0] <= 0.6 * 996_293

    @pytest.mark.parametrize("n, theta", [(4, -90.0), (5, -100.0)])
    def test_deep_tail_sums_in_log_space(self, monkeypatch, n, theta):
        # sum of mu kappa >= -theta with every |kappa| <= 25: the mass at
        # theta lies ~1000 nats below the tail's largest pair, so the
        # linear-space sum falls below _LINEAR_FLOOR and is redone in log
        # space; the exact law is convolved in log space
        shapes = []
        real = counter.log_sum

        def spy(log_terms):
            shapes.append(np.shape(log_terms))
            return real(log_terms)

        monkeypatch.setattr(counter, "log_sum", spy)
        chained = []
        real_chain = counter.compressed_tail_cdf

        def chain_spy(factors, eps_step, collect=None):
            chained.append(len(factors))
            return real_chain(factors, eps_step, collect)

        monkeypatch.setattr(counter, "compressed_tail_cdf", chain_spy)
        reads = tail_reads(monkeypatch)
        spec = GridSpec(tau=1.0, B=25.0)
        dc = DecoupledConstraint(lam=np.zeros(n), mu=-np.ones(n), theta=theta, rotation=np.eye(n))
        count(dc, spec, 0.05)
        step = 0.05 / (2 * n - 3)
        _, _, _, got = reads[-1]
        # the chain the tail reads holds the first n - 2 coordinates
        assert chained[-1] == n - 2
        beta = (1.0 + step) ** (2 * n - 3)
        assert any(len(s) == 2 and s[1] > 1 for s in shapes)
        pmf = grid_pmf(0.0, -1.0, spec)
        v, lp = pmf
        for _ in range(n - 1):
            v, lp = oracles.convolve_log(v, lp, *pmf)
        exact = float(np.logaddexp.reduce(lp[v <= theta]))
        assert exact < -1000.0
        assert abs(got + 0.5 * math.log(beta) - exact) <= math.log1p(0.05)

    def test_tail_lookups_run_in_row_blocks(self, monkeypatch):
        # a far-tail region on a wide grid keeps ~2500 atoms in each tail
        # factor: 6.2M lookups, whose thresholds alone would take 50 MB at
        # once
        real = counter._tail_log_mass
        reads = tail_reads(monkeypatch)
        dc = DecoupledConstraint(
            lam=np.full(4, -0.5), mu=np.array([0.3, 0.2, 0.1, 0.4]), theta=-60.0, rotation=np.eye(4)
        )
        mass = count(dc, GridSpec(tau=2.0**-8, B=16.0), 0.05)
        assert 0.0 < mass < 1e-20
        cdf, tail, theta, want = reads[-1]
        assert tail[0].size * tail[2].size > 5_000_000
        tracemalloc.start()
        try:
            got = real(cdf, tail, theta)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < 8e6

    def test_floored_factor_reuses_its_unfloored_walk(self, monkeypatch):
        # a floor below a factor's first atom starts the walk there, where it
        # is the unfloored walk: that factor is reused, and recomputing it
        # gives the same arrays
        reused = []
        real = counter._sparsify

        def spy(values, logp, eps_step, log_floor=LOG_ZERO, unfloored=None):
            out = real(values, logp, eps_step, log_floor, unfloored)
            if unfloored is not None and out is unfloored:
                fresh = real(values, logp, eps_step, log_floor)
                assert np.array_equal(out[0], fresh[0]) and np.array_equal(out[1], fresh[1])
                reused.append(values.size)
            return out

        monkeypatch.setattr(counter, "_sparsify", spy)
        for q in (bench_style(4), bench_style(5), cube_style(4)):
            count_ptf_gaussian(q)
        assert reused
        values, logp = random_lattice_pmf(np.random.default_rng(26), 300)
        unfloored = real(values, logp, 0.01)
        below = logp[0] - 1.0
        assert real(values, logp, 0.01, below, unfloored) is unfloored
        above = float(np.logaddexp.reduce(logp[:10]))
        got = real(values, logp, 0.01, above, unfloored)
        want = real(values, logp, 0.01, above)
        assert got is not unfloored and got[0][0] > values[0]
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


class TestPooledSort:
    """Counts run on any thread, next to block draws on the shared worker
    pool, and give the answers they give alone."""

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

    def test_counts_and_samples_the_normalized_form(self):
        # the bench form's normalized coefficients lie off the 2^-20
        # lattice, so any rounding stage would move them; the count and the
        # sampler's table both take normalize(decouple(q)) as it is
        q = bench_style(5)
        nz = normalize(decouple(q))
        lattice = 2.0**-20
        assert not np.array_equal(nz.lam, np.rint(nz.lam / lattice) * lattice)
        spec = GridSpec(tau=DEFAULT_TAU, B=default_trunc_radius(5, 0.05))
        assert count_ptf_gaussian(q, 0.05).estimate == count(nz, spec, 0.05)
        held = PtfSampler(q, 0.1, tau=2.0**-4, trunc_B=3.0).rounded
        assert np.array_equal(held.lam, nz.lam) and np.array_equal(held.mu, nz.mu)
        assert held.theta == nz.theta

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
        with pytest.raises(EngineTooLargeError, match=re.escape(f"grid has {spec_points:.3g} points")):
            build(q, tau=2.0**-20, trunc_B=4.0)


class TestFoldLinear:
    """``count_ptf_gaussian`` folds two or more linear coordinates (lam = 0,
    mu != 0) into one, so halfspaces and rank-deficient forms count in the
    coordinates they use."""

    @pytest.mark.parametrize("n", [8, 16, 32])
    @pytest.mark.parametrize("t", [1.234, 2.0, 5.0])
    def test_rotated_halfspace_within_eps_of_phi(self, n, t):
        w = np.random.default_rng(n).standard_normal(n)
        q = QuadraticForm(A=np.zeros((n, n)), b=w / np.linalg.norm(w), c=-t)
        res = count_ptf_gaussian(q)
        assert 1.0 / (1.0 + res.eps) <= res.estimate / oracles.phi_erfc(-t) <= 1.0 + res.eps

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_rank_two_form_within_eps_of_exact_mass(self, n):
        gen = np.random.default_rng(100 + n)
        basis = np.linalg.qr(gen.standard_normal((n, 2)))[0]
        q = QuadraticForm(A=basis @ np.diag([-1.0, 0.5]) @ basis.T, b=0.5 * gen.standard_normal(n), c=0.7)
        res = count_ptf_gaussian(q)
        ratio = res.estimate / oracles.gaussian_mass(*decoupled(q))
        assert 1.0 / (1.0 + res.eps) <= ratio <= 1.0 + res.eps

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_fold_keeps_the_region(self, sign):
        # the folded constraint, with its rotation, takes the same value at
        # every x, and its rotation stays orthonormal
        gen = np.random.default_rng(5)
        lam = np.array([0.0, -0.5, 0.0, 0.0, 0.25])
        mu = sign * np.array([0.75, 0.1, -1e-200, 0.5, 0.0])
        rotation = np.linalg.qr(gen.standard_normal((5, 5)))[0]
        dc = DecoupledConstraint(lam=lam, mu=mu, theta=0.3, rotation=rotation)
        folded = counter._fold_linear(dc)
        assert np.array_equal(folded.lam, lam)
        assert folded.mu[0] == pytest.approx(math.hypot(0.75, 1e-200, 0.5))
        assert np.array_equal(folded.mu[[1, 2, 3, 4]], [sign * 0.1, 0.0, 0.0, 0.0])
        x = gen.standard_normal((200, 5))
        np.testing.assert_allclose(folded.value(x @ folded.rotation), dc.value(x @ rotation), atol=1e-14)
        np.testing.assert_allclose(folded.rotation.T @ folded.rotation, np.eye(5), atol=1e-14)

    def test_one_linear_coordinate_is_left_as_it_is(self):
        dc = DecoupledConstraint(lam=[0.0, 1.0], mu=[1.0, 1.0], theta=0.0, rotation=np.eye(2))
        assert counter._fold_linear(dc) is dc


def decoupled(q):
    """(lam, mu, theta) with q(x) >= 0 iff sum lam_i y_i^2 + mu_i y_i <= theta
    for y = V^T x, from numpy's eigendecomposition of -A = V diag(lam) V^T."""
    lam, vecs = np.linalg.eigh(-q.A)
    return lam, -vecs.T @ q.b, q.c


class TestExactGaussianMass:
    """``oracles.gaussian_mass`` against closed forms, then as the reference
    for default-flag counts."""

    @pytest.mark.parametrize("t", [0.5, 3.0, 8.0])
    def test_matches_chi_square_3(self, t):
        for scale in (1.0, 2.5):
            got = oracles.gaussian_mass([scale] * 3, [0.0] * 3, scale * t, tol=1e-6)
            assert got == pytest.approx(oracles.chi2_cdf(t, 3), rel=0.0, abs=1e-9)

    def test_matches_chi_square_8(self):
        # 1 - e^(-x/2) sum_{j < 4} (x/2)^j / j!
        for x in (2.0, 8.0, 20.0):
            want = 1.0 - math.exp(-x / 2) * math.fsum((x / 2) ** j / math.factorial(j) for j in range(4))
            assert oracles.gaussian_mass([1.0] * 8, [0.0] * 8, x) == pytest.approx(want, rel=0.0, abs=1e-12)

    def test_matches_normal_tails(self):
        # a halfspace mu . y <= theta has mass Phi(theta/|mu|)
        for mu, theta in (([-1.0, 0.0, 0.0], -4.2), ([0.6, -0.8, 0.0], -4.2), ([0.3, 0.4], 1.0)):
            want = oracles.phi_erfc(theta / math.hypot(*mu))
            assert oracles.gaussian_mass([0.0] * len(mu), mu, theta) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("n", [8, 10, 12])
    def test_default_count_within_eps_of_exact_mass(self, n):
        # n = 12 also pins that the size guard admits this size
        q = bench_style(n)
        exact = oracles.gaussian_mass(*decoupled(q))
        res = count_ptf_gaussian(q)
        assert 1.0 / (1.0 + res.eps) <= res.estimate / exact <= 1.0 + res.eps

    @pytest.mark.parametrize("n", [16, 32])
    def test_matches_monte_carlo_beyond_the_counter(self, n):
        # default count refuses these sizes, so 2^20 draws are the check;
        # their 99% half-width is about 0.00125
        q = bench_style(n)
        est, half = mc_count(q, 1 << 20, Rng(n))
        assert abs(oracles.gaussian_mass(*decoupled(q)) - est) <= half


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

    def test_decoupled_form_rejected_before_a_draw(self, monkeypatch):
        # a decoupled constraint has no (A, b, c) to test signs with
        def no_blocks(*args, **kwargs):
            raise AssertionError("a block was drawn before the form was checked")

        monkeypatch.setattr(counter, "normal_blocks", no_blocks)
        dc = decouple(QuadraticForm(A=-np.eye(2), b=np.zeros(2), c=2.0))
        with pytest.raises(ValueError, match="DecoupledConstraint"):
            mc_count(dc, 100, Rng(0))

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
