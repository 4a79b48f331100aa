"""Scalar numerical primitives shared by every other module.

Gaussian CDF machinery is routed through ``scipy.special`` (the ``ndtr``
family), i.e. the published Cephes rational approximations of erf/erfc with
tail-safe complementary evaluation; interval masses are assembled so that no
catastrophic cancellation occurs in either tail.  Cumulative probabilities
destined for the counting engine live in the log domain (natural log, with
``-inf`` as the exact-zero sentinel) because products of per-coordinate atom
masses underflow native floats long before they become irrelevant.

The symmetric eigensolver is a classical cyclic Jacobi iteration: it is
deterministic, has no platform-dependent branching, and at the matrix sizes
used here (n <= a few dozen) is as accurate as anything LAPACK would return.

Everything in this module is pure given explicit inputs.  ``Rng`` is the one
stateful object: a splittable counter-based (Philox) stream, single-owner by
convention.  ``normal_blocks`` draws blocks of normals on at most two worker
threads; each block is fixed by its child stream, so the output does not
depend on the worker count.
"""

from __future__ import annotations

import math
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr, ndtr, ndtri, ndtri_exp

__all__ = [
    "LOG_ZERO",
    "LogProb",
    "Rng",
    "normal_blocks",
    "EigenConvergenceError",
    "std_normal_cdf",
    "log_std_normal_cdf",
    "interval_mass",
    "log_interval_mass",
    "truncated_normal_sample",
    "jacobi_eigen",
    "log_sum",
    "log_add",
    "log_sub",
    "log1mexp",
]

LOG_ZERO = float("-inf")

_SQRT2PI = math.sqrt(2.0 * math.pi)

# Nodes/weights of 8-point Gauss-Legendre on [-1, 1], used only for very thin
# intervals where the erfc difference would cancel.
_GL_NODES = np.polynomial.legendre.leggauss(8)


def std_normal_cdf(x: float) -> float:
    """Standard normal CDF Phi(x), absolute error below 1e-15.

    Monotone nondecreasing; rejects non-finite input.
    """
    x = float(x)
    if math.isnan(x):
        raise ValueError("std_normal_cdf requires finite x")
    if math.isinf(x):
        raise ValueError("std_normal_cdf requires finite x")
    return float(ndtr(x))


def log_std_normal_cdf(x: float) -> float:
    """log Phi(x), accurate far into the left tail (x ~ -1000 is fine)."""
    return float(log_ndtr(float(x)))


def _validate_interval(a: float, b: float) -> tuple[float, float]:
    a = float(a)
    b = float(b)
    if math.isnan(a) or math.isnan(b):
        raise ValueError("interval endpoints must not be NaN")
    if a > b:
        raise ValueError(f"interval endpoints out of order: a={a} > b={b}")
    return a, b


def _thin_interval_mass(a: float, b: float) -> float:
    # Gauss-Legendre quadrature of the normal pdf over [a, b]; only used when
    # the interval is so thin relative to its tail location that the CDF
    # difference loses the leading digits.
    nodes, weights = _GL_NODES
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x = mid + half * nodes
    return float(half * np.sum(weights * np.exp(-0.5 * x * x)) / _SQRT2PI)


def interval_mass(a: float, b: float) -> float:
    """Phi(b) - Phi(a), computed without cancellation in the tails.

    Endpoints may be infinite.  Relative error stays below ~1e-12 whenever the
    result exceeds 1e-300.
    """
    a, b = _validate_interval(a, b)
    if a == b:
        return 0.0
    if a <= 0.0 <= b:
        # Opposite tails: the two contributions add, so no cancellation.
        return float(ndtr(b) - ndtr(a)) if (np.isinf(a) or np.isinf(b)) else float(
            0.5 * (math.erf(b / math.sqrt(2)) + math.erf(-a / math.sqrt(2)))
        )
    if a >= 0.0:
        lo, hi = a, b
    else:
        lo, hi = -b, -a  # mirror the left tail onto the right
    # Survival-function difference: both terms small, result same order.
    mass = float(ndtr(-lo) - ndtr(-hi))
    if not math.isinf(hi):
        # Thin deep cells: fall back to direct quadrature of the pdf.
        if 0.0 < mass < 1e-3 * float(ndtr(-lo)):
            return _thin_interval_mass(lo, hi)
        if mass == 0.0 and hi > lo:
            return _thin_interval_mass(lo, hi)
    return max(mass, 0.0)


def log1mexp(x: float) -> float:
    """log(1 - e^x) for x <= 0, stable on both ends."""
    if x >= 0.0:
        if x == 0.0:
            return LOG_ZERO
        raise ValueError("log1mexp requires x <= 0")
    if x > -math.log(2.0):
        return math.log(-math.expm1(x))
    return math.log1p(-math.exp(x))


def log_add(la: float, lb: float) -> float:
    """log(e^la + e^lb) with -inf as zero."""
    if la == LOG_ZERO:
        return lb
    if lb == LOG_ZERO:
        return la
    return float(np.logaddexp(la, lb))


def log_sub(la: float, lb: float) -> float:
    """log(e^la - e^lb); requires la >= lb, returns -inf on equality."""
    if lb == LOG_ZERO:
        return la
    if lb > la:
        if lb - la < 1e-12:  # float jitter at equal masses
            return LOG_ZERO
        raise ValueError(f"log_sub would be negative: {la} < {lb}")
    if la == lb:
        return LOG_ZERO
    return la + log1mexp(lb - la)


def log_sum(log_terms: np.ndarray) -> float:
    """log of the sum of probabilities given by their logs (shift-stable)."""
    arr = np.asarray(log_terms, dtype=float)
    if arr.size == 0:
        return LOG_ZERO
    m = float(np.max(arr))
    if m == LOG_ZERO:
        return LOG_ZERO
    return m + math.log(float(np.sum(np.exp(arr - m))))


def log_interval_mass(a: float, b: float) -> float:
    """log(Phi(b) - Phi(a)), usable for masses far below float range."""
    a, b = _validate_interval(a, b)
    if a == b:
        return LOG_ZERO
    if a <= 0.0 <= b:
        m = interval_mass(a, b)
        return math.log(m) if m > 0.0 else LOG_ZERO
    if a >= 0.0:
        lsa = float(log_ndtr(-a))  # log S(a), the larger one
        lsb = float(log_ndtr(-b))
        return log_sub(lsa, lsb)
    lfa = float(log_ndtr(a))
    lfb = float(log_ndtr(b))
    return log_sub(lfb, lfa)


@dataclass(frozen=True)
class LogProb:
    """A probability held as its natural log; -inf encodes exact zero.

    Arithmetic never underflows for probabilities down to e^(-1e6) and far
    beyond; addition is probability addition, ``*`` is independent-event
    product.
    """

    value: float

    def __post_init__(self) -> None:
        if math.isnan(self.value):
            raise ValueError("LogProb value must not be NaN")
        if self.value > 1e-9:
            raise ValueError(f"LogProb must be <= 0, got {self.value}")

    @classmethod
    def zero(cls) -> "LogProb":
        return cls(LOG_ZERO)

    @classmethod
    def one(cls) -> "LogProb":
        return cls(0.0)

    @classmethod
    def from_linear(cls, p: float) -> "LogProb":
        if p < 0.0:
            raise ValueError("probability must be >= 0")
        return cls(LOG_ZERO) if p == 0.0 else cls(min(math.log(p), 0.0))

    @property
    def linear(self) -> float:
        return 0.0 if self.value == LOG_ZERO else math.exp(self.value)

    @property
    def is_zero(self) -> bool:
        return self.value == LOG_ZERO

    def __add__(self, other: "LogProb") -> "LogProb":
        return LogProb(min(log_add(self.value, other.value), 0.0))

    def __mul__(self, other: "LogProb") -> "LogProb":
        if self.is_zero or other.is_zero:
            return LogProb.zero()
        return LogProb(self.value + other.value)

    def __lt__(self, other: "LogProb") -> bool:
        return self.value < other.value

    def __le__(self, other: "LogProb") -> bool:
        return self.value <= other.value


def _philox(seed: int, spawn_key: tuple[int, ...]) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=spawn_key)
    return np.random.Generator(np.random.Philox(ss))


class Rng:
    """Seeded, splittable, counter-based random stream (Philox).

    Identical seeds reproduce identical output sequences; ``derive(i)``
    yields an independent child stream determined by (seed, spawn path, i),
    so sharded Monte Carlo is reproducible no matter how work is divided.
    A stream is single-owner: never share one instance across concurrent
    consumers, derive children instead.  Block draws through
    :func:`normal_blocks` use at most 2 worker threads, and their output does
    not depend on the worker count.
    """

    def __init__(self, seed: int, _spawn_key: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.spawn_key = tuple(int(k) for k in _spawn_key)
        self._gen = _philox(self.seed, self.spawn_key)

    def derive(self, index: int) -> "Rng":
        """Independent child stream; deterministic in (seed, path, index)."""
        return Rng(self.seed, self.spawn_key + (int(index),))

    def uniform(self, size=None):
        return self._gen.random(size)

    def normal(self, size=None):
        return self._gen.standard_normal(size)

    def exponential(self, size=None):
        return self._gen.standard_exponential(size)

    def integers(self, low, high=None, size=None):
        return self._gen.integers(low, high=high, size=size)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Rng(seed={self.seed}, spawn_key={self.spawn_key})"


_POOL: tuple[int, ThreadPoolExecutor, int] | None = None  # (pid, pool, workers)
_POOL_LOCK = threading.Lock()


def _draw_pool() -> tuple[ThreadPoolExecutor, int]:
    """The block-draw pool, started on first use (again after a fork): one
    worker per CPU this process may run on, at most 2."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None or _POOL[0] != os.getpid():
            cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
            workers = min(2, cpus or 1)
            pool = ThreadPoolExecutor(workers, thread_name_prefix="quadgauss-normal")
            _POOL = (os.getpid(), pool, workers)
        return _POOL[1], _POOL[2]


def normal_blocks(rng: Rng, n: int, size: int, first: int = 0, total: int | None = None):
    """Yield standard-normal blocks of ``size`` rows and ``n`` columns.

    Block i is exactly ``rng.derive(first + i).normal((m, n))``, where m is
    ``size`` except for a partial last block when ``total`` (rows in all,
    None for an endless stream) is not a multiple of ``size``.  Worker
    threads fill the next block while the caller works on the current one.
    They fill preallocated slots, one per worker, and a yielded block is a
    view of its slot, valid only until the next block is requested: copy
    what must be kept.  A worker's exception is raised here; closing the
    generator cancels the blocks not yet started.
    """
    if size < 1 or n < 1 or (total is not None and total < 0):
        raise ValueError("normal_blocks needs size, n >= 1 and total >= 0")
    pool, workers = _draw_pool()
    end = math.inf if total is None else total
    slots = workers if total is None else min(workers, -(-total // size))
    bufs = [np.empty((min(size, end), n)) for _ in range(slots)]
    seed, key = rng.seed, rng.spawn_key

    def fill(buf: np.ndarray, index: int) -> np.ndarray:
        return _philox(seed, key + (first + index,)).standard_normal(out=buf)

    pending: deque = deque()
    submitted = 0

    def submit() -> None:
        nonlocal submitted
        if submitted * size < end:
            m = min(size, end - submitted * size)
            pending.append(pool.submit(fill, bufs[submitted % slots][:m], submitted))
            submitted += 1

    try:
        for _ in range(slots):
            submit()
        while pending:
            yield pending.popleft().result()
            submit()  # the slot of the block just yielded is free again
    finally:
        for fut in pending:
            fut.cancel()


def _truncated_right_tail(lo: float, hi: float, u: np.ndarray) -> np.ndarray:
    # Inverse-CDF in survival space for 0 <= lo < hi, accurate arbitrarily
    # deep: S_x = S(lo) * (1 - u*(1 - S(hi)/S(lo))), inverted through
    # ndtri_exp on log S_x.
    lsa = float(log_ndtr(-lo))
    lsb = float(log_ndtr(-hi)) if not math.isinf(hi) else LOG_ZERO
    ratio = math.exp(lsb - lsa) if lsb != LOG_ZERO else 0.0
    log_sx = lsa + np.log1p(-u * (1.0 - ratio))
    return -ndtri_exp(log_sx)


def truncated_normal_sample(a: float, b: float, rng: Rng, size=None):
    """Draw from N(0,1) conditioned on [a, b), by inverse CDF.

    Endpoints may be infinite.  The law is exact up to float resolution even
    for cells deep in the tails (the inversion runs in log-survival space).
    Returns a scalar when ``size`` is None, else an ndarray.
    """
    a, b = _validate_interval(a, b)
    if a == b:
        raise ValueError("degenerate interval has zero mass")
    if not (interval_mass(a, b) > 0.0) and not (log_interval_mass(a, b) > LOG_ZERO):
        raise ValueError(f"zero-mass interval [{a}, {b})")
    scalar = size is None
    u = np.atleast_1d(rng.uniform(1 if scalar else size)).astype(float)
    if a >= 0.0:
        x = _truncated_right_tail(a, b, u)
    elif b <= 0.0:
        x = -_truncated_right_tail(-b, -a, 1.0 - u)
    else:
        fa = float(ndtr(a)) if not math.isinf(a) else 0.0
        fb = float(ndtr(b)) if not math.isinf(b) else 1.0
        x = ndtri(fa + u * (fb - fa))
    if not math.isinf(b):
        np.minimum(x, np.nextafter(b, -math.inf), out=x)
    if not math.isinf(a):
        np.maximum(x, a, out=x)
    return float(x[0]) if scalar else x.reshape(size)


class EigenConvergenceError(RuntimeError):
    """Jacobi sweeps failed to drive the off-diagonal to zero."""


def jacobi_eigen(A: np.ndarray, max_sweeps: int = 60) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns ``(w, R)`` with eigenvalues ``w`` sorted descending and
    orthonormal columns ``R`` such that A = R diag(w) R^T to a relative
    Frobenius residual of 1e-10.  Rejects input that is not symmetric to
    1e-12 (relative to its magnitude).
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    n = A.shape[0]
    scale = max(1.0, float(np.max(np.abs(A)))) if A.size else 1.0
    if float(np.max(np.abs(A - A.T))) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric within tolerance 1e-12")
    a = 0.5 * (A + A.T)
    r = np.eye(n)
    if n == 1:
        return a.diagonal().copy(), r
    fro = max(float(np.linalg.norm(a)), 1e-300)
    for _ in range(max_sweeps):
        # off-diagonal norm measured entrywise (a sum-of-squares difference
        # would cancel catastrophically near convergence)
        off = float(np.linalg.norm(a - np.diag(a.diagonal())))
        if off <= 1e-14 * fro:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-18 * fro:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rot_p = c * a[:, p] - s * a[:, q]
                rot_q = s * a[:, p] + c * a[:, q]
                a[:, p], a[:, q] = rot_p, rot_q
                rot_p = c * a[p, :] - s * a[q, :]
                rot_q = s * a[p, :] + c * a[q, :]
                a[p, :], a[q, :] = rot_p, rot_q
                a[p, q] = 0.0
                a[q, p] = 0.0
                rot_p = c * r[:, p] - s * r[:, q]
                rot_q = s * r[:, p] + c * r[:, q]
                r[:, p], r[:, q] = rot_p, rot_q
    else:
        raise EigenConvergenceError(f"no convergence after {max_sweeps} sweeps")
    w = a.diagonal().copy()
    order = np.argsort(-w, kind="stable")
    return w[order], r[:, order]
