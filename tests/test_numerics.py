import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from decimal import Decimal

import numpy as np
import pytest

from quadgauss import numerics
from quadgauss.numerics import (
    LOG_ZERO,
    Rng,
    interval_mass,
    log_interval_mass,
    log_sum,
    normal_blocks,
    std_normal_cdf,
    truncated_normal_sample,
)

import oracles


class TestStdNormalCdf:
    def test_zero_by_symmetry(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_at_one_vs_series_oracle(self):
        assert std_normal_cdf(1.0) == pytest.approx(oracles.phi_series(1.0), abs=1e-15)

    def test_symmetry_identity(self):
        assert std_normal_cdf(-1.0) == pytest.approx(1.0 - std_normal_cdf(1.0), abs=1e-15)

    def test_symmetry_sweep(self):
        for x in np.linspace(-10, 10, 2001):
            assert abs(std_normal_cdf(x) + std_normal_cdf(-x) - 1.0) <= 1e-14

    def test_monotone(self):
        xs = np.linspace(-12, 12, 5001)
        vals = [std_normal_cdf(x) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            std_normal_cdf(float("inf"))
        with pytest.raises(ValueError):
            std_normal_cdf(float("nan"))


# thin intervals deep in the right tail
THIN_DEEP = [(5.0, 5.0 + 1e-9), (12.0, 12.0 + 1e-11), (24.898121127481282, 24.89812112748252)]


class TestIntervalMass:
    def test_whole_line(self):
        assert interval_mass(-math.inf, math.inf) == 1.0

    def test_mid_interval_vs_oracle(self):
        assert interval_mass(-0.5, 1.0) == pytest.approx(
            oracles.phi_series(1.0) - oracles.phi_series(-0.5), rel=1e-14
        )

    def test_deep_tail_relative_accuracy(self):
        got = interval_mass(8.0, 9.0)
        want = float(oracles.phi_interval_dec(8.0, 9.0))
        assert 0.0 < got < 1e-14
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("a, b", [(5.0, 5.0001), (3.0, 3.00001), (8.0, 8.0 + 1e-6)])
    def test_thin_tail_cell_by_quadrature(self, monkeypatch, a, b):
        # the difference of log survivals would lose leading digits on these
        # cells, so the log-space quadrature gives the mass
        calls = []
        quad = numerics._log_thin_mass

        def spy(lo, hi):
            calls.append((lo, hi))
            return quad(lo, hi)

        monkeypatch.setattr(numerics, "_log_thin_mass", spy)
        got = interval_mass(a, b)
        assert calls == [(a, b)]
        assert got == pytest.approx(float(oracles.phi_interval_dec(a, b)), rel=1e-12)

    @pytest.mark.parametrize("a, b", THIN_DEEP + [(-b, -a) for a, b in THIN_DEEP])
    def test_thin_deep_interval(self, a, b):
        # thin intervals deep in either tail: the difference of log
        # survivals alone is off by 1.4e-7, 4.1e-5 and 2.6e-3 on these
        want = oracles.phi_interval_dec(a, b)
        assert log_interval_mass(a, b) == pytest.approx(float(want.ln()), abs=1e-13)
        assert interval_mass(a, b) == pytest.approx(float(want), rel=1e-13)

    def test_random_interval_sweep(self):
        # the bound interval_mass's docstring states: 3000 intervals of widths
        # 1e-12 to 10 that start anywhere in [-38, 38] (measured 9.8e-11)
        gen = np.random.default_rng(40)
        worst = 0.0
        for _ in range(3000):
            a = gen.uniform(-38.0, 38.0)
            b = a + 10.0 ** gen.uniform(-12.0, 1.0)
            want = oracles.phi_interval_dec(a, b)
            err = abs(log_interval_mass(a, b) - float(want.ln()))
            if want > Decimal("1e-300"):
                err = max(err, abs(interval_mass(a, b) / float(want) - 1.0))
            worst = max(worst, err)
        assert worst <= 3e-10

    def test_rejects_reversed(self):
        with pytest.raises(ValueError):
            interval_mass(1.0, 0.0)

    def test_additivity(self):
        gen = np.random.default_rng(3)
        for _ in range(300):
            a, b, c = np.sort(gen.normal(size=3) * 4.0)
            lhs = interval_mass(a, c)
            rhs = interval_mass(a, b) + interval_mass(b, c)
            assert abs(lhs - rhs) <= 1e-13
        # thin splits deep in both tails, whose masses come from the
        # quadrature: the parts add up, and each is its width times the pdf
        # at its midpoint (log-survival differences telescope, so additivity
        # alone would not see a wrong quadrature)
        for lo in np.repeat([5.0, 12.0, 20.0, 30.0], 5):
            w1, w2 = 10.0 ** gen.uniform(-12.0, -9.0, size=2)
            for a, b, c in ((lo, lo + w1, lo + w1 + w2), (-lo - w1 - w2, -lo - w1, -lo)):
                for x, y in ((a, b), (b, c)):
                    midpoint_rule = (y - x) * math.exp(-0.125 * (x + y) ** 2) / math.sqrt(2.0 * math.pi)
                    assert abs(interval_mass(x, y) / midpoint_rule - 1.0) <= 1e-10
                lhs = interval_mass(a, c)
                assert abs(lhs - interval_mass(a, b) - interval_mass(b, c)) <= 1e-10 * lhs

    def test_log_variant_deep(self):
        # far beyond float range: only the log value is representable
        lv = log_interval_mass(40.0, 41.0)
        want = float(oracles.phi_interval_dec(40.0, 41.0).ln())
        assert lv == pytest.approx(want, rel=1e-12)
        assert math.exp(lv) == 0.0  # underflows linearly, by design


def _rel_err(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


def _near(edge: float, h: float) -> list[float]:
    """The edge, its float neighbours, and 40 points spaced h around it."""
    pts = [edge + k * h for k in range(-20, 21)]
    return sorted(pts + [math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf)])


class TestNormalFamily:
    """The four scalar primitives against the 50-digit oracle, on both sides
    of every branch edge (x = -1, +-1 and -20; y = log1p(-e^-2) and -700)."""

    def test_ndtr_relative_error(self):
        xs = _near(-1.0, 1e-10) + _near(1.0, 1e-10) + list(np.linspace(-37.0, 37.0, 149))
        worst = max(_rel_err(numerics._ndtr(x), float(oracles.phi_dec(x))) for x in xs)
        assert worst <= 5e-13

    def test_log_ndtr_relative_error(self):
        xs = _near(-1.0, 1e-10) + _near(-20.0, 1e-10)
        xs += list(np.linspace(-40.0, 37.0, 155)) + list(-np.logspace(1.5, 8, 27))
        worst = max(_rel_err(numerics._log_ndtr(x), float(oracles.log_phi_dec(x))) for x in xs)
        assert worst <= 5e-13

    def test_ndtri_relative_error(self):
        ps = list(np.logspace(-300, -0.01, 121)) + list(1.0 - np.logspace(-16, -0.5, 31)) + [0.5]
        for p in ps:
            got = numerics._ndtri(p)
            want = oracles.phi_inverse_dec(Decimal(p).ln(), got)
            assert abs(got - want) <= 5e-13 * max(abs(want), 1.0), p

    def test_ndtri_exp_relative_error(self):
        ys = _near(numerics._UPPER_LOG, 1e-10) + _near(-700.0, 1e-9)
        ys += [-720.0, -745.5, -800.0] + list(-np.logspace(-17, 5, 45))  # exp(-745.5) == 0
        for y in ys:
            got = numerics._ndtri_exp(y)
            want = oracles.phi_inverse_dec(y, got)
            assert abs(got - want) <= 5e-13 * max(abs(want), 1.0), y

    @pytest.mark.parametrize(
        "fn, edge, h",
        [
            ("_ndtr", -1.0, 1e-10),
            ("_ndtr", 1.0, 1e-10),
            ("_log_ndtr", -1.0, 1e-10),
            ("_log_ndtr", -20.0, 1e-10),
            ("_ndtri_exp", numerics._UPPER_LOG, 1e-10),
            ("_ndtri_exp", -700.0, 1e-9),
        ],
    )
    def test_monotone_across_branch_edge(self, fn, edge, h):
        # h is wide enough that the true change per step is far above the
        # rounding error of either branch
        f = getattr(numerics, fn)
        vals = [f(t) for t in np.linspace(edge - 20 * h, edge + 20 * h, 41)]
        assert all(lo < hi for lo, hi in zip(vals, vals[1:]))

    def test_log_ndtr_inverts_ndtri_exp(self):
        for y in -np.logspace(-17, 5, 221):
            assert numerics._log_ndtr(numerics._ndtri_exp(y)) == pytest.approx(y, rel=5e-13)

    def test_ndtri_inverts_ndtr(self):
        # above 0, 1 - Phi(x) is rounded away in Phi(x) itself
        for x in np.linspace(-37.0, 0.0, 149):
            assert numerics._ndtri(numerics._ndtr(x)) == pytest.approx(x, rel=5e-13, abs=1e-15)

    def test_edge_values(self):
        inf = math.inf
        assert (numerics._ndtr(-inf), numerics._ndtr(0.0), numerics._ndtr(inf)) == (0.0, 0.5, 1.0)
        assert (numerics._log_ndtr(-inf), numerics._log_ndtr(inf)) == (-inf, 0.0)
        assert (numerics._ndtri(0.0), numerics._ndtri(0.5), numerics._ndtri(1.0)) == (-inf, 0.0, inf)
        assert (numerics._ndtri_exp(-inf), numerics._ndtri_exp(0.0)) == (-inf, inf)


def _draws(a, b, rng, k):
    """k draws in a row from one stream, the way the lift makes them."""
    return np.array([truncated_normal_sample(a, b, rng) for _ in range(k)])


class TestTruncatedNormal:
    def test_unconstrained_matches_normal_law(self):
        r = Rng(1)
        x = _draws(-math.inf, math.inf, r, 200_000)
        assert abs(np.mean(x)) < 0.01
        assert abs(np.std(x) - 1.0) < 0.01

    def test_half_normal_mean(self):
        r = Rng(2)
        x = _draws(0.0, math.inf, r, 1_000_000)
        assert np.all(x >= 0.0)
        assert abs(np.mean(x) - math.sqrt(2.0 / math.pi)) < 0.01

    def test_support_containment(self):
        r = Rng(3)
        x = _draws(3.0, 4.0, r, 10_000)
        assert np.all((x >= 3.0) & (x < 4.0))

    def test_deep_tail_support_and_mean(self):
        r = Rng(4)
        x = _draws(10.0, 10.5, r, 50_000)
        assert np.all((x >= 10.0) & (x < 10.5))
        want = oracles.truncated_mean(10.0, 10.5)
        se = np.std(x) / math.sqrt(x.size)
        assert abs(np.mean(x) - want) < 5 * se + 1e-6

    def test_cell_means_match_moment_formula(self):
        r = Rng(5)
        for a, b in [(-0.25, 0.0), (0.5, 0.75), (-2.0, -1.75), (2.0, math.inf)]:
            x = _draws(a, b, r, 100_000)
            want = oracles.truncated_mean(a, b)
            se = np.std(x) / math.sqrt(x.size)
            assert abs(np.mean(x) - want) <= 3.5 * se

    @pytest.mark.parametrize("a, b", [(40.0, 40.5), (-40.5, -40.0)])
    def test_cells_past_the_quantile_newton_branch(self, a, b):
        # log S(40) = -804.6 < -700: the inversion runs Newton steps
        r = Rng(6)
        x = _draws(a, b, r, 20_000)
        assert np.all((x >= a) & (x < b))
        want = oracles.truncated_mean(a, b)
        se = np.std(x) / math.sqrt(x.size)
        assert abs(np.mean(x) - want) <= 4 * se
        assert isinstance(truncated_normal_sample(a, b, r), float)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            truncated_normal_sample(1.0, 1.0, Rng(0))

    @pytest.mark.parametrize(
        "a, b",
        [
            (math.nan, 1.0),
            (0.0, math.nan),
            (2.0, 1.0),
            (math.inf, math.inf),
            (1e300, math.inf),
            (-math.inf, -1e300),
            (0.0, 5e-324),
            (-5e-324, 0.0),
        ],
    )
    def test_zero_mass_refused_before_the_uniform(self, a, b):
        r, ref = Rng(0), Rng(0)
        with pytest.raises(ValueError):
            truncated_normal_sample(a, b, r)
        assert r.uniform() == ref.uniform()

    @pytest.mark.parametrize(
        "a, b",
        [
            (40.0, 40.5),
            (-40.5, -40.0),
            (5.0, math.nextafter(5.0, math.inf)),
            (38.5, math.nextafter(38.5, math.inf)),
            (-1e-320, 1e-320),
            (0.0, 1e-300),
        ],
    )
    def test_tiny_or_far_intervals_keep_their_mass(self, a, b):
        # in each a float Phi difference underflows or cancels, but the mass
        # is positive, so the draw lands in [a, b)
        x = _draws(a, b, Rng(0), 50)
        assert np.all((x >= a) & (x < b))


class TestLogProb:
    def test_large_sum_matches_fsum(self):
        gen = np.random.default_rng(7)
        logs = np.log(gen.uniform(size=1_000_000)) - 20.0
        got = log_sum(logs)
        want = math.fsum([math.exp(v) for v in logs.tolist()])
        assert got == pytest.approx(math.log(want), rel=1e-10)


class TestWilsonHalfWidth:
    @pytest.mark.parametrize("p, n", [(0.0, 10), (0.3, 50), (1.0, 3000), (0.00148, 100_000)])
    def test_farther_end_of_the_score_interval(self, p, n):
        # the 99% Wilson interval's ends are the roots t of
        # (t - p)^2 = z^2 t (1 - t) / n
        a = 2.5758293035489004**2 / n
        ends = np.roots([1.0 + a, -(2.0 * p + a), p * p])
        assert numerics._wilson_half_width(p, n) == pytest.approx(max(abs(ends - p)), rel=1e-12)


class TestRng:
    def test_seed_reproducibility(self):
        a = Rng(123).normal(1000)
        b = Rng(123).normal(1000)
        assert np.array_equal(a, b)

    def test_derived_streams_differ_and_reproduce(self):
        r = Rng(9)
        c1 = r.derive(4).uniform(100)
        c2 = r.derive(5).uniform(100)
        assert not np.array_equal(c1, c2)
        assert np.array_equal(c1, Rng(9).derive(4).uniform(100))

    def test_derivation_path_matters(self):
        assert not np.array_equal(
            Rng(9).derive(1).derive(2).uniform(10), Rng(9).derive(2).derive(1).uniform(10)
        )

    @pytest.mark.parametrize("seed", [1.5, 1.0, "1", None])
    def test_rejects_non_integral_seed(self, seed):
        with pytest.raises(ValueError, match="^seed must be an integer"):
            Rng(seed)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1"):
            Rng(-1)

    def test_numpy_integer_seed(self):
        assert np.array_equal(Rng(np.int64(3)).normal(5), Rng(3).normal(5))

    def test_generator_built_on_first_draw(self, monkeypatch):
        built = []
        real = numerics._philox
        monkeypatch.setattr(numerics, "_philox", lambda *args: built.append(args) or real(*args))
        rng = Rng(5).derive(2)
        assert built == []
        got = rng.normal(8)
        assert built == [(5, (2,))]
        ss = np.random.SeedSequence(5, spawn_key=(2,))
        assert np.array_equal(got, np.random.Generator(np.random.Philox(ss)).standard_normal(8))
        rng.uniform(3)
        assert len(built) == 1

    @pytest.mark.parametrize("index", [-1, 2.5])
    def test_derive_rejects_bad_index(self, index):
        with pytest.raises(ValueError, match="^index must be"):
            Rng(1).derive(index)


def _serial_blocks(rng, n, size, first, total):
    # the definition normal_blocks must reproduce, one block at a time
    out, i = [], 0
    while total is None or i * size < total:
        m = size if total is None else min(size, total - i * size)
        out.append(rng.derive(first + i).normal((m, n)))
        i += 1
        if total is None and i == 6:
            break
    return out


class TestNormalBlocks:
    @pytest.mark.parametrize(
        "first, size, total", [(0, 64, 64 * 5), (7, 100, 1030), (40_000, 33, 33), (3, 50, None)]
    )
    def test_equals_serial_definition(self, first, size, total):
        rng = Rng(5).derive(2)
        want = _serial_blocks(rng, 3, size, first, total)
        got = []
        for block in normal_blocks(rng, 3, size, first=first, total=total):
            got.append(block.copy())
            if total is None and len(got) == len(want):
                break
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.shape == b.shape and np.array_equal(a, b)

    def test_early_break_then_fresh_generator(self):
        rng = Rng(8)
        gen = normal_blocks(rng, 2, 16, total=16 * 50)
        first = next(gen).copy()
        gen.close()
        again = next(normal_blocks(rng, 2, 16, total=16 * 50))
        assert np.array_equal(first, again)
        assert np.array_equal(first, rng.derive(0).normal((16, 2)))

    def test_close_cancels_pending_blocks(self, lazy_pool):
        # a block that nobody reads stays pending until the generator is closed
        gen = normal_blocks(Rng(1), 2, 16, total=16 * 10)
        assert np.array_equal(next(gen), Rng(1).derive(0).normal((16, 2)))
        gen.close()
        assert [f.cancelled() for f in lazy_pool.futures] == [False, True]

    def test_close_waits_for_a_block_being_filled(self, install_pool, monkeypatch):
        # block 1 is mid-fill when the generator closes: close returns only
        # once the worker is done with its slot
        started, release = threading.Event(), threading.Event()
        done = []
        real = numerics._philox

        def slow(seed, key):
            if key == (1,):
                started.set()
                release.wait(timeout=30)
                done.append(key)
            return real(seed, key)

        monkeypatch.setattr(numerics, "_philox", slow)
        install_pool(ThreadPoolExecutor(2), 2)
        gen = normal_blocks(Rng(1), 2, 16, total=16 * 10)
        next(gen)
        assert started.wait(timeout=30)
        closer = threading.Thread(target=gen.close)
        try:
            closer.start()
            closer.join(timeout=0.2)
            assert closer.is_alive() and not done
        finally:
            release.set()
        closer.join(timeout=30)
        assert not closer.is_alive() and done == [(1,)]

    def test_one_worker_pool(self, monkeypatch):
        monkeypatch.setattr(numerics, "_POOL", None)
        monkeypatch.setattr(numerics.os, "sched_getaffinity", lambda pid: {0})
        pool, workers = numerics._worker_pool()
        try:
            assert workers == 1
            rng = Rng(4)
            got = [b.copy() for b in normal_blocks(rng, 3, 40, first=2, total=150)]
            want = _serial_blocks(rng, 3, 40, 2, 150)
            assert [b.shape[0] for b in got] == [40, 40, 40, 30]
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
        finally:
            pool.shutdown()

    def test_at_most_two_workers(self, monkeypatch):
        monkeypatch.setattr(numerics, "_POOL", None)
        monkeypatch.setattr(numerics.os, "sched_getaffinity", lambda pid: set(range(64)))
        pool, workers = numerics._worker_pool()
        pool.shutdown()
        assert workers == 2

    def test_worker_error_reaches_consumer(self, monkeypatch):
        def broken(seed, key):
            raise RuntimeError("fill failed")

        monkeypatch.setattr(numerics, "_philox", broken)
        with pytest.raises(RuntimeError, match="fill failed"):
            next(normal_blocks(Rng(0), 2, 8, total=80))

    def test_concurrent_consumers_share_the_pool(self):
        # more consumers than workers, switching threads as often as possible
        results: dict[int, list[np.ndarray]] = {}

        def consume(k: int) -> None:
            results[k] = [b.copy() for b in normal_blocks(Rng(k), 2, 64, total=64 * 20 + 5)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=consume, args=(k,)) for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for k in range(6):
            want = _serial_blocks(Rng(k), 2, 64, 0, 64 * 20 + 5)
            assert len(results[k]) == len(want)
            assert all(np.array_equal(a, b) for a, b in zip(results[k], want))

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            next(normal_blocks(Rng(0), 2, 0))
        with pytest.raises(ValueError):
            next(normal_blocks(Rng(0), 2, 8, total=-1))
