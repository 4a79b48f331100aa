"""Scalar numerical primitives shared by every other module.

The normal CDF family (Phi, log Phi, Phi^-1 and Phi^-1 of a log) is built
here on the standard library: libm's ``erf``/``erfc`` evaluated on the
complementary tail, an asymptotic series for log Phi below -20,
``statistics.NormalDist.inv_cdf`` (Wichura's AS241) for the quantile, and
Newton steps on log Phi for quantiles of logs below -700.  Each takes and
returns one float, so the sampler's lift builds no arrays.  Interval masses
are assembled so that no catastrophic cancellation occurs in either tail.
Cumulative probabilities destined for the counting engine live in the log
domain (natural log, with ``-inf`` as the exact-zero sentinel) because
products of per-coordinate atom masses underflow native floats long before
they become irrelevant.

The symmetric eigensolver is a classical cyclic Jacobi iteration: it is
deterministic, has no platform-dependent branching, and at the matrix sizes
used here (n <= a few dozen) is as accurate as anything LAPACK would return.

Everything in this module is pure given explicit inputs.  ``Rng`` is the one
stateful object: a splittable counter-based (Philox) stream, single-owner by
convention.  ``normal_blocks`` draws blocks of normals on at most two worker
threads, optionally with columns conditioned on intervals; each block is
fixed by its child stream, so the output does not depend on the worker
count.  The counter sorts its pair windows on the same threads.
"""

from __future__ import annotations

import math
import operator
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from functools import cached_property
from statistics import NormalDist

import numpy as np

__all__ = [
    "LOG_ZERO",
    "Rng",
    "normal_blocks",
    "EigenConvergenceError",
    "std_normal_cdf",
    "interval_mass",
    "log_interval_mass",
    "truncated_normal_sample",
    "jacobi_eigen",
    "log_sum",
    "log_sub",
    "log1mexp",
]

LOG_ZERO = float("-inf")

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)
_SQRT1_2 = math.sqrt(0.5)
_LOG_SQRT2PI = math.log(_SQRT2PI)
_STD_NORMAL = NormalDist()
# ndtri_exp's switch to the upper quantile: log Phi(x) above this means
# Phi(x) > 1 - e^-2, where 1 - Phi(x) = -expm1(y) is the accurate argument.
_UPPER_LOG = math.log1p(-math.exp(-2.0))

# Nodes/weights of 8-point Gauss-Legendre on [-1, 1], used only for very thin
# intervals where the erfc difference would cancel.
_GL_NODES = np.polynomial.legendre.leggauss(8)


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
        # Opposite tails: the two contributions add, so no cancellation
        # (erf(+-inf) = +-1).
        return 0.5 * (math.erf(b / _SQRT2) + math.erf(-a / _SQRT2))
    if a >= 0.0:
        lo, hi = a, b
    else:
        lo, hi = -b, -a  # mirror the left tail onto the right
    # Survival-function difference: both terms small, result same order.
    mass = _ndtr(-lo) - _ndtr(-hi)
    if not math.isinf(hi):
        # Thin deep cells: fall back to direct quadrature of the pdf.
        if 0.0 < mass < 1e-3 * _ndtr(-lo):
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
        lsa = _log_ndtr(-a)  # log S(a), the larger one
        lsb = _log_ndtr(-b)
        return log_sub(lsa, lsb)
    return log_sub(_log_ndtr(b), _log_ndtr(a))


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
    :func:`normal_blocks` use at most 2 worker threads, and their output does
    not depend on the worker count.

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
    blocks of :func:`normal_blocks` and sorts the counter's pair windows;
    no task on it waits for another."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None or _POOL[0] != os.getpid():
            cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
            workers = min(2, cpus or 1)
            pool = ThreadPoolExecutor(workers, thread_name_prefix="quadgauss-worker")
            _POOL = (os.getpid(), pool, workers)
        return _POOL[1], _POOL[2]


def _column_plan(a: float, b: float) -> tuple:
    """How to draw N(0,1) conditioned on [a, b) by rejection: the proposal
    with the highest acceptance rate among a plain normal, a uniform on
    [a, b) (finite intervals) and Robert's (1995) exponential on a one-sided
    tail.  Returns (kind, sign, a', b', rate), where a', b' = a, b or, when
    b <= 0, the mirrored -b, -a (then sign = -1 and draws are negated)."""
    a, b = _validate_interval(a, b)
    log_mass = log_interval_mass(a, b)
    if log_mass == LOG_ZERO:
        raise ValueError(f"zero-mass interval [{a}, {b})")
    sign = 1.0
    if b <= 0.0:
        a, b, sign = -b, -a, -1.0
    # log acceptance rate of each proposal
    rates = {"normal": log_mass}
    near = max(a, 0.0)  # the point of [a, b) where the density peaks
    if math.isfinite(b - a):
        rates["uniform"] = log_mass + 0.5 * near * near + _LOG_SQRT2PI - math.log(b - a)
    if a >= 0.0:
        alpha = 0.5 * (a + math.sqrt(a * a + 4.0))
        rates["exponential"] = log_mass + math.log(alpha) + _LOG_SQRT2PI + alpha * a - 0.5 * alpha * alpha
    kind = max(rates, key=rates.get)
    return kind, sign, a, b, math.exp(rates[kind])


# Proposals per rejection batch: small batches keep the workers' temporaries
# small.
_PROPOSALS = 1 << 12


def _fill_truncated(gen: np.random.Generator, out: np.ndarray, plan: tuple) -> None:
    """Fill ``out`` (1-d, may be strided) with i.i.d. draws by the rejection
    ``plan``; the accepted proposals are kept in order."""
    kind, sign, a, b, rate = plan
    near = max(a, 0.0)
    alpha = 0.5 * (a + math.sqrt(a * a + 4.0))
    got = 0
    while got < out.size:
        k = min(int(1.1 * (out.size - got) / rate) + 16, _PROPOSALS)
        if kind == "normal":
            z = gen.standard_normal(k)
            ok = (z >= a) & (z < b)
        elif kind == "uniform":
            z = a + (b - a) * gen.random(k)
            ok = (z < b) & (gen.random(k) <= np.exp(0.5 * (near * near - z * z)))
        else:
            z = a + gen.standard_exponential(k) / alpha
            ok = (z < b) & (gen.random(k) <= np.exp(-0.5 * (z - alpha) ** 2))
        if sign < 0.0:
            ok &= z > a  # z = a would give -a = hi, outside [lo, hi)
        z = z[ok]
        take = min(z.size, out.size - got)
        out[got : got + take] = sign * z[:take]
        got += take


def normal_blocks(
    rng: Rng,
    n: int,
    size: int,
    first: int = 0,
    total: int | None = None,
    lo: np.ndarray | None = None,
    hi: np.ndarray | None = None,
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

    With per-column bounds ``lo``, ``hi`` (arrays of n, +-inf for an open
    end), column j is N(0,1) conditioned on [lo_j, hi_j).  Block i then
    still comes from ``rng.derive(first + i)`` alone: the plain block above
    is drawn first, so unbounded columns are its columns, and then each
    bounded column in turn is overwritten by exact vectorised rejection (an
    exponential proposal on a tail, as in Robert 1995, a uniform one on a
    short interval, plain normals otherwise).  Raises ValueError on an empty
    or zero-mass interval.
    """
    if size < 1 or n < 1 or (total is not None and total < 0):
        raise ValueError("normal_blocks needs size, n >= 1 and total >= 0")
    lo = np.full(n, -np.inf) if lo is None else np.asarray(lo, dtype=float)
    hi = np.full(n, np.inf) if hi is None else np.asarray(hi, dtype=float)
    if lo.shape != (n,) or hi.shape != (n,):
        raise ValueError(f"lo and hi must have shape ({n},)")
    bounded = np.isfinite(lo) | np.isfinite(hi)
    plans = [(j, _column_plan(lo[j], hi[j])) for j in np.flatnonzero(bounded)]
    pool, workers = _worker_pool()
    end = math.inf if total is None else total
    slots = workers if total is None else min(workers, -(-total // size))
    bufs = [np.empty((min(size, end), n)) for _ in range(slots)]
    seed, key = rng.seed, rng.spawn_key

    def fill(buf: np.ndarray, index: int) -> np.ndarray:
        gen = _philox(seed, key + (first + index,))
        gen.standard_normal(out=buf)
        for j, plan in plans:
            _fill_truncated(gen, buf[:, j], plan)
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


def _right_tail_quantile(lo: float, hi: float, u: float) -> float:
    # Inverse CDF in survival space for 0 <= lo < hi, accurate arbitrarily
    # deep: S_x = S(lo) * (1 - u*(1 - S(hi)/S(lo))), inverted through
    # _ndtri_exp on log S_x.
    lsa = _log_ndtr(-lo)
    ratio = math.exp(_log_ndtr(-hi) - lsa)  # 0 when hi = inf
    return -_ndtri_exp(lsa + math.log1p(-u * (1.0 - ratio)))


def _cell_quantile(a: float, b: float, u: float) -> float:
    """The u-quantile of N(0,1) conditioned on [a, b), clamped into it."""
    if a >= 0.0:
        x = _right_tail_quantile(a, b, u)
    elif b <= 0.0:
        x = -_right_tail_quantile(-b, -a, 1.0 - u)
    else:
        fa = _ndtr(a)
        x = _ndtri(fa + u * (_ndtr(b) - fa))
    return max(min(x, math.nextafter(b, -math.inf)), a)


def truncated_normal_sample(a: float, b: float, rng: Rng, size=None):
    """Draw from N(0,1) conditioned on [a, b), by inverse CDF.

    Endpoints may be infinite.  The law is exact up to float resolution even
    for cells deep in the tails (the inversion runs in log-survival space).
    Returns a float when ``size`` is None, else an ndarray.
    """
    a, b = _validate_interval(a, b)
    if a == b:
        raise ValueError("degenerate interval has zero mass")
    if not (interval_mass(a, b) > 0.0) and not (log_interval_mass(a, b) > LOG_ZERO):
        raise ValueError(f"zero-mass interval [{a}, {b})")
    if size is None:
        return _cell_quantile(a, b, rng.uniform())
    u = rng.uniform(size)
    return np.array([_cell_quantile(a, b, v) for v in u.ravel().tolist()]).reshape(u.shape)


class EigenConvergenceError(RuntimeError):
    """Jacobi sweeps failed to drive the off-diagonal to zero."""


_JACOBI_MAX_SWEEPS = 60


def jacobi_eigen(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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
    for _ in range(_JACOBI_MAX_SWEEPS):
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
        raise EigenConvergenceError(f"no convergence after {_JACOBI_MAX_SWEEPS} sweeps")
    w = a.diagonal().copy()
    order = np.argsort(-w, kind="stable")
    return w[order], r[:, order]
