import math
import os
import sys
import threading
from concurrent.futures import Future

import numpy as np
import pytest

from quadgauss import numerics
from quadgauss.numerics import (
    LOG_ZERO,
    LogProb,
    Rng,
    interval_mass,
    jacobi_eigen,
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


class TestIntervalMass:
    def test_whole_line(self):
        assert interval_mass(-math.inf, math.inf) == 1.0

    def test_mid_interval_vs_oracle(self):
        assert interval_mass(-0.5, 1.0) == pytest.approx(
            oracles.phi_series(1.0) - oracles.phi_series(-0.5), rel=1e-14
        )

    def test_deep_tail_relative_accuracy(self):
        got = interval_mass(8.0, 9.0)
        want = oracles.phi_interval(8.0, 9.0)
        assert 0.0 < got < 1e-14
        assert got == pytest.approx(want, rel=1e-12)

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

    def test_log_variant_deep(self):
        # far beyond float range: only the log value is representable
        lv = log_interval_mass(40.0, 41.0)
        # leading asymptotics: log Phi(-40) ~ -0.5*40^2 - log(40 sqrt(2 pi))
        assert -810.0 < lv < -790.0
        assert math.exp(lv) == 0.0  # underflows linearly, by design


class TestTruncatedNormal:
    def test_unconstrained_matches_normal_law(self):
        r = Rng(1)
        x = truncated_normal_sample(-math.inf, math.inf, r, size=200_000)
        assert abs(np.mean(x)) < 0.01
        assert abs(np.std(x) - 1.0) < 0.01

    def test_half_normal_mean(self):
        r = Rng(2)
        x = truncated_normal_sample(0.0, math.inf, r, size=1_000_000)
        assert np.all(x >= 0.0)
        assert abs(np.mean(x) - math.sqrt(2.0 / math.pi)) < 0.01

    def test_support_containment(self):
        r = Rng(3)
        x = truncated_normal_sample(3.0, 4.0, r, size=10_000)
        assert np.all((x >= 3.0) & (x < 4.0))

    def test_deep_tail_support_and_mean(self):
        r = Rng(4)
        x = truncated_normal_sample(10.0, 10.5, r, size=50_000)
        assert np.all((x >= 10.0) & (x < 10.5))
        want = oracles.truncated_mean(10.0, 10.5)
        se = np.std(x) / math.sqrt(x.size)
        assert abs(np.mean(x) - want) < 5 * se + 1e-6

    def test_cell_means_match_moment_formula(self):
        r = Rng(5)
        for a, b in [(-0.25, 0.0), (0.5, 0.75), (-2.0, -1.75), (2.0, math.inf)]:
            x = truncated_normal_sample(a, b, r, size=100_000)
            want = oracles.truncated_mean(a, b)
            se = np.std(x) / math.sqrt(x.size)
            assert abs(np.mean(x) - want) <= 3.5 * se

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            truncated_normal_sample(1.0, 1.0, Rng(0))


class TestJacobiEigen:
    def test_identity(self):
        w, r = jacobi_eigen(np.eye(2))
        assert np.allclose(w, [1.0, 1.0])
        assert np.allclose(r.T @ r, np.eye(2), atol=1e-12)

    def test_diagonal(self):
        w, r = jacobi_eigen(np.diag([3.0, 2.0]))
        assert np.allclose(w, [3.0, 2.0])
        assert np.allclose(np.abs(r), np.eye(2), atol=1e-12)

    def test_offdiagonal_closed_form(self):
        w, r = jacobi_eigen(np.array([[0.0, 1.0], [1.0, 0.0]]))
        (w1, w2), (v1, v2) = oracles.eig2_closed(0.0, 1.0, 0.0)
        assert np.allclose(w, [w1, w2], atol=1e-14)
        for col, v in ((r[:, 0], v1), (r[:, 1], v2)):
            assert min(np.linalg.norm(col - v), np.linalg.norm(col + v)) < 1e-12

    def test_random_closed_form_2x2(self):
        gen = np.random.default_rng(11)
        for _ in range(50):
            a11, a12, a22 = gen.normal(size=3) * 3.0
            w, _ = jacobi_eigen(np.array([[a11, a12], [a12, a22]]))
            (w1, w2), _ = oracles.eig2_closed(a11, a12, a22)
            assert np.allclose(w, [w1, w2], rtol=1e-12, atol=1e-12)

    def test_reconstruction_and_orthonormality(self):
        gen = np.random.default_rng(12)
        for n in range(1, 9):
            for _ in range(10):
                m = gen.normal(size=(n, n))
                a = 0.5 * (m + m.T)
                w, r = jacobi_eigen(a)
                scale = max(np.linalg.norm(a), 1e-30)
                assert np.linalg.norm(a - r @ np.diag(w) @ r.T) <= 1e-10 * scale
                assert np.linalg.norm(r.T @ r - np.eye(n)) <= 1e-10
                assert np.all(np.diff(w) <= 1e-12)

    def test_eigh_oracle_agreement(self):
        gen = np.random.default_rng(13)
        for _ in range(30):
            n = int(gen.integers(2, 8))
            m = gen.normal(size=(n, n))
            a = 0.5 * (m + m.T)
            w, _ = jacobi_eigen(a)
            ref = np.sort(np.linalg.eigvalsh(a))[::-1]
            assert np.allclose(w, ref, rtol=1e-10, atol=1e-10)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            jacobi_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestLogProb:
    def test_zero_sentinel(self):
        z = LogProb.zero()
        assert z.is_zero and z.linear == 0.0
        assert (z + LogProb.from_linear(0.25)).linear == pytest.approx(0.25)
        assert (z * LogProb.one()).is_zero

    def test_deep_values_survive(self):
        tiny = LogProb(-1e6)
        tinier = LogProb(-1e6 - math.log(2.0))
        s = tiny + tinier
        assert s.value == pytest.approx(-1e6 + math.log(1.5), rel=1e-12)
        assert tinier < tiny

    def test_product(self):
        a = LogProb.from_linear(0.5)
        b = LogProb.from_linear(0.25)
        assert (a * b).linear == pytest.approx(0.125, rel=1e-14)

    def test_rejects_positive_log(self):
        with pytest.raises(ValueError):
            LogProb(0.5)

    def test_large_sum_matches_fsum(self):
        gen = np.random.default_rng(7)
        logs = np.log(gen.uniform(size=1_000_000)) - 20.0
        got = log_sum(logs)
        want = math.fsum([math.exp(v) for v in logs.tolist()])
        assert got == pytest.approx(math.log(want), rel=1e-10)


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

    def test_close_cancels_pending_blocks(self, monkeypatch):
        # a pool whose tasks run only when their result is read, so a block
        # that nobody reads stays pending until the generator is closed
        class LazyFuture(Future):
            def __init__(self, fn, args):
                super().__init__()
                self.task = (fn, args)

            def result(self, timeout=None):
                if self.set_running_or_notify_cancel():
                    fn, args = self.task
                    self.set_result(fn(*args))
                return super().result(timeout)

        class LazyPool:
            def __init__(self):
                self.futures = []

            def submit(self, fn, *args):
                self.futures.append(LazyFuture(fn, args))
                return self.futures[-1]

        pool = LazyPool()
        monkeypatch.setattr(numerics, "_POOL", (os.getpid(), pool, 2))
        gen = normal_blocks(Rng(1), 2, 16, total=16 * 10)
        assert np.array_equal(next(gen), Rng(1).derive(0).normal((16, 2)))
        gen.close()
        assert [f.cancelled() for f in pool.futures] == [False, True]

    def test_one_worker_pool(self, monkeypatch):
        monkeypatch.setattr(numerics, "_POOL", None)
        monkeypatch.setattr(numerics.os, "sched_getaffinity", lambda pid: {0})
        pool, workers = numerics._draw_pool()
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
        pool, workers = numerics._draw_pool()
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
