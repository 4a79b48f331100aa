"""Scalar numerical primitives shared by every other module.

The normal CDF family (Phi, log Phi, Phi^-1 and Phi^-1 of a log) is built
here on the standard library: libm's ``erf``/``erfc`` evaluated on the
complementary tail, an asymptotic series for log Phi below -20,
``statistics.NormalDist.inv_cdf`` (Wichura's AS241) for the quantile, and
Newton steps on log Phi for quantiles of logs below -700.  Each takes and
returns one float, so the sampler's lift builds no arrays.  The Gaussian
mass of an interval has one implementation, in the log domain
(``log_interval_mass``): an erf sum across 0, else a difference of log
survivals, or, for an interval too thin for that, Gauss-Legendre quadrature
of the pdf shifted so that no node underflows; ``interval_mass`` is its
exponential.  Cumulative probabilities destined for the counting engine
live in the log domain (natural log, with ``-inf`` as the exact-zero
sentinel) because products of per-coordinate atom masses underflow native
floats long before they become irrelevant.  There is no eigensolver here:
``quadform.decouple`` takes its eigenpairs from numpy's ``linalg.eigh``.

Everything in this module is pure given explicit inputs.  ``Rng`` is the one
stateful object: a splittable counter-based (Philox) stream, single-owner by
convention.  ``normal_blocks`` draws blocks of normals on at most two worker
threads; each block is fixed by its child stream, so the output does not
depend on the worker count.
"""

from __future__ import annotations

import math
import operator
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from functools import cached_property, lru_cache
from statistics import NormalDist

import numpy as np

__all__ = [
    "LOG_ZERO",
    "Rng",
    "normal_blocks",
    "std_normal_cdf",
    "interval_mass",
    "log_interval_mass",
    "truncated_normal_sample",
    "log_sum",
    "log_sub",
    "log1mexp",
]

LOG_ZERO = float("-inf")

_SQRT2 = math.sqrt(2.0)
_SQRT1_2 = math.sqrt(0.5)
_LOG_SQRT2PI = math.log(math.sqrt(2.0 * math.pi))
_STD_NORMAL = NormalDist()
# ndtri_exp's switch to the upper quantile: log Phi(x) above this means
# Phi(x) > 1 - e^-2, where 1 - Phi(x) = -expm1(y) is the accurate argument.
_UPPER_LOG = math.log1p(-math.exp(-2.0))

# Nodes/weights of 8-point Gauss-Legendre on [-1, 1], used only for very thin
# intervals, where the difference of log survivals would cancel.
_GL_NODES = np.polynomial.legendre.leggauss(8)
# below this gap between the log survivals of its ends, an interval's mass
# comes from quadrature
_THIN_LOG_GAP = 1e-3


def _ndtr(x: float) -> float:
    """Phi(x): erf near 0, libm erfc on the complementary tail elsewhere."""
    if abs(x) < 1.0:
        return 0.5 + 0.5 * math.erf(x * _SQRT1_2)
    tail = 0.5 * math.erfc(abs(x) * _SQRT1_2)
    return 1.0 - tail if x > 0.0 else tail


def _log_ndtr(x: float) -> float:
    """log Phi(x), accurate far below the float range of Phi(x)."""
    if x > -1.0:
        return math.log1p(-_ndtr(-x))
    if x > -20.0:
        return math.log(_ndtr(x))
    # log Phi(x) = -x^2/2 - log(-x) - log sqrt(2 pi)
    #              + log sum_k (-1)^k (2k-1)!! / x^(2k)
    inv = 1.0 / (x * x)
    total = term = 1.0
    k = 1
    while total + term != total:
        term *= -(2 * k - 1) * inv
        total += term
        k += 1
    return -0.5 * x * x - math.log(-x) - _LOG_SQRT2PI + math.log(total)


def _ndtri(p: float) -> float:
    """Phi^-1(p), with 0 -> -inf and 1 -> +inf."""
    if p <= 0.0:
        return -math.inf
    if p >= 1.0:
        return math.inf
    return _STD_NORMAL.inv_cdf(p)


def _ndtri_exp(y: float) -> float:
    """The x with log Phi(x) = y, for y <= 0."""
    if y > _UPPER_LOG:
        return -_ndtri(-math.expm1(y))
    if y > -700.0:
        return _ndtri(math.exp(y))
    if y == LOG_ZERO:
        return -math.inf
    # Start from -x^2/2 - log(-x sqrt(2 pi)) = y, whose relative error is
    # below 1e-5 here; each Newton step on log Phi squares it.
    t = -2.0 * y
    x = -math.sqrt(t - math.log(2.0 * math.pi * t))
    for _ in range(3):
        lp = _log_ndtr(x)
        x -= (lp - y) * math.exp(lp + 0.5 * x * x + _LOG_SQRT2PI)
    return x


def std_normal_cdf(x: float) -> float:
    """Standard normal CDF Phi(x), absolute error below 1e-15.

    Monotone nondecreasing; rejects non-finite input.
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("std_normal_cdf requires finite x")
    return _ndtr(x)


_Z99 = 2.5758293035489004  # two-sided 99% normal quantile


def _wilson_half_width(p: float, n: int) -> float:
    """Larger distance from a success fraction ``p`` of ``n`` trials to the
    ends of its 99% Wilson score interval; above 0 for every p, also 0 and 1."""
    z2 = _Z99 * _Z99 / n
    center = (p + z2 / 2.0) / (1.0 + z2)
    return abs(center - p) + math.sqrt(z2 * p * (1.0 - p) + z2 * z2 / 4.0) / (1.0 + z2)


def _validate_interval(a: float, b: float) -> tuple[float, float]:
    a = float(a)
    b = float(b)
    if math.isnan(a) or math.isnan(b):
        raise ValueError("interval endpoints must not be NaN")
    if a > b:
        raise ValueError(f"interval endpoints out of order: a={a} > b={b}")
    return a, b


def log1mexp(x: float) -> float:
    """log(1 - e^x) for x <= 0, stable on both ends."""
    if x >= 0.0:
        if x == 0.0:
            return LOG_ZERO
        raise ValueError("log1mexp requires x <= 0")
    if x > -math.log(2.0):
        return math.log(-math.expm1(x))
    return math.log1p(-math.exp(x))


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


def _log_thin_mass(lo: float, hi: float) -> float:
    """log of the normal pdf's integral over [lo, hi), 0 <= lo < hi, by
    Gauss-Legendre quadrature of the pdf times e^(lo^2/2), which is at most
    1 there and does not underflow."""
    nodes, weights = _GL_NODES
    x = 0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes
    shifted = float(weights @ np.exp(0.5 * (lo - x) * (lo + x)))
    return math.log(hi - lo) + math.log(0.5 * shifted) - 0.5 * lo * lo - _LOG_SQRT2PI


def log_interval_mass(a: float, b: float) -> float:
    """log(Phi(b) - Phi(a)), accurate far below the float range of the mass.

    Across 0 the mass is a sum of two erf terms.  A one-sided interval is
    mirrored into [lo, hi), lo >= 0, and its mass S(lo) - S(hi) comes from
    log S(lo) - log S(hi), or, when that is below 1e-3 and would lose
    leading digits, from quadrature of the pdf.  Endpoints may be infinite.
    The log is good to about 2e-13 lo^2 absolute beyond lo = 1: the log
    survivals, near -lo^2/2, carry its rounding, amplified up to 1e3-fold.
    """
    a, b = _validate_interval(a, b)
    if a == b:
        return LOG_ZERO
    if a <= 0.0 <= b:
        # erf(+-inf) = +-1
        m = 0.5 * (math.erf(b / _SQRT2) + math.erf(-a / _SQRT2))
        return math.log(m) if m > 0.0 else LOG_ZERO
    lo, hi = (a, b) if a >= 0.0 else (-b, -a)
    lsa, lsb = _log_ndtr(-lo), _log_ndtr(-hi)
    if lsa - lsb < _THIN_LOG_GAP:
        return _log_thin_mass(lo, hi)
    return log_sub(lsa, lsb)


def interval_mass(a: float, b: float) -> float:
    """Phi(b) - Phi(a), the exponential of :func:`log_interval_mass`.

    Endpoints may be infinite.  Relative error stays below 3e-10 whenever
    the result exceeds 1e-300 (3000 seeded intervals of widths 1e-12 to 10
    starting in [-38, 38], against a 40-digit oracle, measured 9.8e-11).
    """
    return math.exp(log_interval_mass(a, b))


def _checked_int(name: str, value, least: int) -> int:
    """``value`` as an int: an integer >= ``least`` and not a bool, else
    ValueError (``operator.index`` decides, so 2.0 fails and numpy ints pass)."""
    try:
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


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
    :func:`normal_blocks` (``mc_count`` and the region source of
    ``sampler``) use at most 2 worker threads, and their output does not
    depend on the worker count.

    The Philox generator is built on the first ``uniform``, ``normal`` or
    ``exponential`` call, so a stream used only as a ``derive`` parent or as
    the seed and key of :func:`normal_blocks` never builds one.
    """

    def __init__(self, seed: int, _spawn_key: tuple[int, ...] = ()):
        self.seed = _checked_int("seed", seed, 0)
        self.spawn_key = tuple(int(k) for k in _spawn_key)

    @cached_property
    def _gen(self) -> np.random.Generator:
        return _philox(self.seed, self.spawn_key)

    def derive(self, index: int) -> "Rng":
        """Independent child stream; deterministic in (seed, path, index).
        ``index`` must be an integer >= 0, else ValueError here, not at the
        child's first draw."""
        return Rng(self.seed, self.spawn_key + (_checked_int("index", index, 0),))

    def uniform(self, size=None):
        return self._gen.random(size)

    def normal(self, size=None):
        return self._gen.standard_normal(size)

    def exponential(self, size=None):
        return self._gen.standard_exponential(size)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Rng(seed={self.seed}, spawn_key={self.spawn_key})"


_POOL: tuple[int, ThreadPoolExecutor, int] | None = None  # (pid, pool, workers)
_POOL_LOCK = threading.Lock()


def _worker_pool() -> tuple[ThreadPoolExecutor, int]:
    """The shared worker pool, started on first use (again after a fork):
    one worker per CPU this process may run on, at most 2.  It fills the
    blocks of :func:`normal_blocks`; no task on it waits for another."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None or _POOL[0] != os.getpid():
            cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
            workers = min(2, cpus or 1)
            pool = ThreadPoolExecutor(workers, thread_name_prefix="quadgauss-worker")
            _POOL = (os.getpid(), pool, workers)
        return _POOL[1], _POOL[2]


def normal_blocks(
    rng: Rng,
    n: int,
    size: int,
    first: int = 0,
    total: int | None = None,
):
    """Yield standard-normal blocks of ``size`` rows and ``n`` columns.

    Block i is exactly ``rng.derive(first + i).normal((m, n))``, where m is
    ``size`` except for a partial last block when ``total`` (rows in all,
    None for an endless stream) is not a multiple of ``size``.  Worker
    threads fill the next block while the caller works on the current one.
    They fill preallocated slots, one per worker, and a yielded block is a
    view of its slot, valid only until the next block is requested: copy
    what must be kept.  A worker's exception is raised here; closing the
    generator cancels the blocks not yet started and waits for those being
    filled.
    """
    if size < 1 or n < 1 or (total is not None and total < 0):
        raise ValueError("normal_blocks needs size, n >= 1 and total >= 0")
    pool, workers = _worker_pool()
    end = math.inf if total is None else total
    slots = workers if total is None else min(workers, -(-total // size))
    bufs = [np.empty((min(size, end), n)) for _ in range(slots)]
    seed, key = rng.seed, rng.spawn_key

    def fill(buf: np.ndarray, index: int) -> np.ndarray:
        _philox(seed, key + (first + index,)).standard_normal(out=buf)
        return buf

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
        # a block already being filled is waited for, so no worker still
        # writes into a slot (or holds it) once the generator is closed
        for fut in pending:
            if not fut.cancel():
                fut.exception()


def _require_mass(a: float, b: float) -> None:
    if not log_interval_mass(a, b) > LOG_ZERO:
        raise ValueError(f"zero-mass interval [{a}, {b})")


@lru_cache(maxsize=4096)
def _inverse_cdf_constants(a: float, b: float) -> tuple[int, float, float, float]:
    """What ``truncated_normal_sample`` needs of [a, b) before its uniform
    u, as (side, base, width, top): x = Phi^-1(base + u width) across 0
    (side 0), and for a one-sided interval, mirrored into the right tail as
    [lo, hi) (side -1 when mirrored, else 1), base = log S(lo) and width =
    1 - S(hi)/S(lo), so that S(x) = S(lo)(1 - u' width), u' = u or 1 - u, is
    inverted in log-survival space, accurate arbitrarily deep.  top is the
    largest double below b, the clamp.  A NaN, reversed or zero-mass
    interval raises ValueError, and a raise caches nothing.  The grid
    sampler lifts every coordinate from one grid's cells, so the cache
    holds a default grid's 2049 cells at once."""
    a, b = _validate_interval(a, b)
    top = math.nextafter(b, -math.inf)
    if a >= 0.0 or b <= 0.0:
        # its log survival values show that it has mass whenever they differ
        lo, hi = (a, b) if a >= 0.0 else (-b, -a)
        lsa, lsb = _log_ndtr(-lo), _log_ndtr(-hi)
        if not lsa > lsb:
            _require_mass(a, b)
        return (1 if a >= 0.0 else -1), lsa, 1.0 - math.exp(lsb - lsa), top  # S(hi) = 0 at hi = inf
    _require_mass(a, b)
    fa = _ndtr(a)
    return 0, fa, _ndtr(b) - fa, top


def truncated_normal_sample(a: float, b: float, rng: Rng) -> float:
    """One draw from N(0,1) conditioned on [a, b), by inverse CDF of one
    ``rng.uniform()``.

    Endpoints may be infinite.  The law is exact up to float resolution even
    for cells deep in the tails (the inversion runs in log-survival space).
    An interval of zero mass raises ValueError before the uniform is drawn.
    Each interval's constants are computed once and kept in a bounded cache
    (``_inverse_cdf_constants``).
    """
    a, b = float(a), float(b)
    side, base, width, top = _inverse_cdf_constants(a, b)
    u = rng.uniform()
    if side > 0:
        x = -_ndtri_exp(base + math.log1p(-u * width))
    elif side < 0:
        x = _ndtri_exp(base + math.log1p(-(1.0 - u) * width))
    else:
        x = _ndtri(base + u * width)
    # max(min(x, top), a), spelled with the comparisons min and max make
    if top < x:
        x = top
    return a if a > x else x
