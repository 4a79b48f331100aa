"""Deterministic multiplicative-accuracy estimation of Pr[sum_i Y_i <= theta]
for independent per-coordinate variables Y_i = lam_i*[G]^2 + mu_i*[G], and
the prefix-CDF table that serves both counting and sampling.

The engine convolves the per-coordinate pmfs sequentially, sparsifying each
factor before it enters and the running distribution after every step.  A
greedy walk over the cumulative distribution keeps an atom whenever the
cumulative mass has grown by more than a (1 + eps_step) factor since the
last kept atom, and merges the mass of dropped atoms into the next kept atom
to their right.  Where the walk keeps many of a block's atoms it follows a
jump table, every atom's next one from one vectorized search; in the wide
windows of large convolutions, where it keeps few, it takes one search per
kept atom.  Merging rightward makes the compressed CDF F' a pointwise
lower bound of the running CDF F with F <= (1 + eps_step) * F', so after k
merges the exact CDF is bracketed within a known factor
``err_budget = (1 + eps_step)^k``.  Count tables also start each walk at a
floor relative to the answer, which merges the far left tail into the first
kept atom at a bounded additive cost.  Masses are stored as logs; pair masses
and cumulative sums are formed in linear space scaled by each call's largest
mass, and whatever falls too far below it for a double is summed in log
space instead.  A convolution forms its pairs one window of values at a
time and merges them as it goes; each window is sorted on the shared worker
pool while the caller merges the one before it, so at most two windows are
alive at once.  Every window is sorted whole and merged in value order, so
results do not depend on the worker count.

``PrefixCDFTable`` keeps the CDFs P_0, ..., P_{n-1} of the prefix sums
Y_1 + ... + Y_j: P_0 is the point mass at 0, P_1 the exact CDF of Y_1, and
P_2, ..., P_{n-1} the per-step output of one ``compressed_tail_cdf`` run over
the first n - 1 coordinates.  The last coordinate is summed over its grid
values, so the table's mass at theta is
sum_kappa cell(kappa) * P_{n-1}(theta - lam_n kappa^2 - mu_n kappa).
``mass()`` reads it at the geometric midpoint of P_{n-1}'s budget, which
certifies ``count``'s (1 +- eps) answer (exact up to float roundoff at n <= 2,
where nothing is compressed).  The sampler draws coordinates n, ..., 1 in
turn from the same weights, from one table built at its own step, whose
``mass()`` is its floor check.  Everything is pure and deterministic: two
runs on identical inputs produce bit-identical outputs.

``exact_tail_bruteforce`` is the independent oracle: a dense convolution in
80-bit extended precision, feasible up to ~1e7 grid points.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import GridSpec, _log_cell_masses, support_and_log_pmf, support_and_pmf
from .numerics import LOG_ZERO, Rng, _checked_int, _wilson_half_width, _worker_pool, log_sum, normal_blocks
from .quadform import (
    ConstantPolynomialError,
    DecoupledConstraint,
    QuadraticForm,
    RoundingConfig,
    decouple,
    normalize,
    round_coefficients,
    sign_at,
)

__all__ = [
    "CompressedCDF",
    "CountResult",
    "EngineTooLargeError",
    "FloorError",
    "PrefixCDFTable",
    "DEFAULT_TAU",
    "DEFAULT_GAMMA",
    "DEFAULT_EPS",
    "default_trunc_radius",
    "exact_tail_bruteforce",
    "count",
    "count_ptf_gaussian",
    "mc_count",
]

DEFAULT_TAU = 2.0**-8
DEFAULT_GAMMA = 2.0**-20
DEFAULT_EPS = 0.05

_BRUTEFORCE_LIMIT = 10_000_000
# pairs one convolution may form; it bounds time, not memory, since pairs
# are formed _PAIR_BLOCK at a time
_PAIR_LIMIT = 85_000_000
_PAIR_BLOCK = 1 << 16
# grid points per coordinate; each pmf, support row and cell-mass array has
# this many entries, and they are built before the pair guard can run
_POINTS_LIMIT = 1 << 20
# window edges are quantiles of every _SAMPLE_STRIDE-th atom of each side
_SAMPLE_STRIDE = 32


class EngineTooLargeError(RuntimeError):
    """The requested convolution exceeds the configured size guards."""


class FloorError(RuntimeError):
    """The acceptance region's counted mass is below the reporting floor."""


def default_trunc_radius(n: int, eps: float) -> int:
    """Truncation radius keeping the n-coordinate tail mass below ~eps/10."""
    return max(int(n), int(math.ceil(math.sqrt(2.0 * math.log(20.0 * n / eps)))))


@dataclass(frozen=True)
class CompressedCDF:
    """Sparsified CDF: ascending anchor values with log cumulative masses.

    The represented step function lower-bounds the CDF it was compressed
    from; the true CDF never exceeds it by more than the multiplicative
    ``err_budget``, plus, in a count table with a floor, an additive term
    (see ``PrefixCDFTable``).
    """

    values: np.ndarray
    log_cum: np.ndarray
    err_budget: float

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        c = np.asarray(self.log_cum, dtype=float)
        v.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "log_cum", c)
        if v.shape != c.shape or v.ndim != 1 or v.size == 0:
            raise ValueError("values and log_cum must be matching 1-d arrays")
        if np.any(np.diff(v) <= 0.0) or np.any(np.diff(c) <= 0.0):
            raise ValueError("anchors must be strictly increasing")
        if self.err_budget < 1.0:
            raise ValueError("err_budget must be >= 1")

    def log_query(self, t):
        """log F'(t) for a scalar or an array of thresholds."""
        idx = np.searchsorted(self.values, t, side="right")
        out = np.where(idx == 0, LOG_ZERO, self.log_cum[idx - 1])
        return out if out.ndim else float(out)

    def query(self, t):
        return np.exp(self.log_query(t))


# A linear-space sum scaled by the call's largest mass keeps double precision
# once it reaches this floor: each term it may have lost to underflow is
# below 2^-1074, i.e. 2^-74 of the floor.  Sums below it are redone in log
# space.
_LINEAR_FLOOR = 2.0**-1000


def _run_log_sums(p: np.ndarray, starts: np.ndarray, log_terms) -> np.ndarray:
    """log of the sums of ``p`` over the runs that begin at ``starts``.

    ``p`` holds masses scaled by the call's largest mass; ``log_terms(pos)``
    gives the log of ``p`` at the positions ``pos`` without underflow.  A
    run whose linear sum falls below ``_LINEAR_FLOOR`` is summed again from
    those logs, so no mass is lost however far below the maximum it lies."""
    out = np.add.reduceat(p, starts)
    low = out < _LINEAR_FLOOR
    with np.errstate(divide="ignore"):
        np.log(out, out=out)
    if low.any():
        lengths = np.diff(np.append(starts, p.size))
        pos = np.flatnonzero(np.repeat(low, lengths))
        lengths = lengths[low]
        out[low] = np.logaddexp.reduceat(log_terms(pos), np.cumsum(lengths) - lengths)
    return out


def _log_cumsum(logp: np.ndarray) -> np.ndarray:
    """Running log-sum-exp of ``logp``: a scaled linear cumsum, with the
    leading sums that stay below ``_LINEAR_FLOOR`` redone in log space."""
    top = logp.max()
    cum = np.cumsum(np.exp(logp - top))
    with np.errstate(divide="ignore"):
        out = np.log(cum) + top
    head = int(np.searchsorted(cum, _LINEAR_FLOOR))
    if head:
        out[:head] = np.logaddexp.accumulate(logp[:head])
    return out


# The greedy walk crosses a block of at most _JUMP_BLOCK atoms by a jump table
# (one vectorized search gives every atom's next one) when its bound on the
# atoms kept there is at least 1/_JUMP_RATIO of the block, and by one search
# per kept atom otherwise.
_JUMP_BLOCK = 1 << 10
_JUMP_RATIO = 16


def _greedy_walk(cum: np.ndarray, i: int, eps_step: float, log_space: bool, kept: list) -> int:
    """The greedy walk over the nondecreasing cumulative masses ``cum`` from
    position i: keep i, then jump to the first position whose cumulative
    exceeds cum[i] * (1 + eps_step), or cum[i] + log1p(eps_step) when
    ``log_space``, until the walk leaves ``cum``.  Appends the kept
    positions to ``kept`` and returns where the walk left.

    From position i at most 1 + log(cum[j] / cum[i]) / log1p(eps_step)
    atoms up to j are kept.  Where that bound is dense in a block, every
    atom's next one comes from one vectorized ``searchsorted`` and the walk
    follows the table; where it is sparse (a wide convolution window, where
    a table would cost more than the searches it saves) the walk takes one
    scalar search per kept atom.  Both compare the same floats, so the kept
    positions do not depend on the route."""
    thresh = math.log1p(eps_step)
    step = (lambda c: c + thresh) if log_space else (lambda c: c * (1.0 + eps_step))
    n = cum.size
    while i < n:
        end = min(i + _JUMP_BLOCK, n)
        last = float(cum[end - 1])
        span = last - cum[i] if log_space else math.log(last / cum[i])
        if (1.0 + span / thresh) * _JUMP_RATIO >= end - i:
            nxt = cum.searchsorted(step(cum[i:end]), "right").tolist()
            start = i
            while i < end:
                kept.append(i)
                i = nxt[i - start]
        else:
            while i < end:
                kept.append(i)
                i = int(cum.searchsorted(step(cum[i]), "right"))
    return i


def _merge_stream(chunks, top: float, eps_step: float, log_floor: float = LOG_ZERO):
    """Greedy rightward merge over a distribution given in ascending chunks.

    Each chunk is ``(values, p, starts, log_terms)``: distinct ascending
    values, each of mass the sum of ``p`` over its run of terms (the runs
    begin at ``starts``), ``p`` scaled by exp(-top), and ``log_terms(pos)``
    the logs of ``p`` at ``pos`` without underflow; every chunk lies right
    of the one before.  The first atom kept is the first whose cumulative
    mass exceeds exp(log_floor) (the first atom when there is no floor);
    after it, an atom is kept once the cumulative mass has grown by more
    than a (1 + eps_step) factor since the last kept one, the last atom is
    always kept, and the mass of dropped atoms merges into the next kept
    atom to their right, so kept anchors retain their exact cumulative
    mass.  Returns the kept (values, log masses).

    The walk (``_greedy_walk``) compares scaled linear cumulative sums; over
    the leading sums below ``_LINEAR_FLOOR`` it compares their logs instead.
    It follows a jump table where it keeps many atoms of a chunk, as in
    sparsified factors and small windows, and keeps one search per kept
    atom in the wide windows of large convolutions, where it keeps few.
    The cumulative sum, the pending run and the next threshold carry over
    from chunk to chunk, so the result does not depend on where the chunks
    split."""
    thresh = math.log1p(eps_step)
    grow = 1.0 + eps_step
    kept_v, kept_lp = [], []
    cum_prev, log_cum_prev = 0.0, LOG_ZERO
    run_log, pending = LOG_ZERO, False  # the merged run not yet kept
    target, in_log = log_floor - top, True  # the next kept atom's cumulative exceeds it
    for values, p, starts, log_terms in chunks:
        n = values.size
        cum = p.copy() if n == p.size else np.add.reduceat(p, starts)
        cum[0] += cum_prev
        np.cumsum(cum, out=cum)
        cum_prev = cum[-1]
        head = int(cum.searchsorted(_LINEAR_FLOOR))
        if head:
            end = starts[head] if head < n else p.size
            log_head = np.logaddexp.reduceat(log_terms(np.arange(end)), starts[:head])
            log_head[0] = np.logaddexp(log_cum_prev, log_head[0])
            np.logaddexp.accumulate(log_head, out=log_head)
            log_cum_prev = log_head[-1]
        kept = []
        if in_log:
            i = 0
            if head:
                i = _greedy_walk(log_head, int(log_head.searchsorted(target, "right")), eps_step, True, kept)
                if kept:
                    target = log_head[kept[-1]] + thresh
            if i < n:  # the walk leaves the head in this chunk
                in_log, target = False, math.exp(target)
                i = max(head, int(cum.searchsorted(target, "right")))
        else:
            i = int(cum.searchsorted(target, "right"))
        in_head = len(kept)
        _greedy_walk(cum, i, eps_step, False, kept)
        if len(kept) > in_head:
            target = cum[kept[-1]] * grow
        ends = np.asarray(kept, dtype=np.intp)
        ends = ends[ends < n - 1] + 1
        runs = _run_log_sums(p, np.concatenate(([0], starts[ends])), log_terms)
        if kept:
            runs[0] = np.logaddexp(run_log, runs[0])
            kept_v.append(values[kept])
            kept_lp.append(runs[: len(kept)])
            run_log, pending = LOG_ZERO, False
        if len(runs) > len(kept):
            run_log, pending = np.logaddexp(run_log, runs[-1]), True
        last = values[-1]
        # let the chunk go before the next one is formed
        del values, p, starts, log_terms, cum, runs
    if pending:
        kept_v.append(np.array([last]))
        kept_lp.append(np.array([run_log]))
    return np.concatenate(kept_v), np.concatenate(kept_lp) + top


def _sparsify(values: np.ndarray, logp: np.ndarray, eps_step: float, log_floor: float = LOG_ZERO):
    """Merge atoms rightward while consecutive cumulative masses stay within
    a (1 + eps_step) ratio, and the cumulative mass up to exp(log_floor) into
    the first kept atom; kept anchors retain their exact cumulative mass
    (``_merge_stream`` on one chunk)."""
    live = logp > LOG_ZERO
    if not np.all(live):
        values, logp = values[live], logp[live]
    if values.size == 0:
        raise ValueError("empty distribution")
    top = logp.max()
    lp = logp - top
    chunk = (values, np.exp(lp), np.arange(values.size), lambda pos: lp[pos])
    return _merge_stream([chunk], top, eps_step, log_floor)


def _row_splits(values, atom_v, t):
    """For each b, the number of a with values[a] + atom_v[b] < t, the sums
    compared as rounded to doubles: a search on t - atom_v[b], then stepped
    until the rounded sums on either side of the split agree with it."""
    m = values.size
    idx = np.searchsorted(values, t - atom_v)
    while True:
        below = idx > 0
        below[below] = values[idx[below] - 1] + atom_v[below] >= t
        above = idx < m
        above[above] = values[idx[above]] + atom_v[above] < t
        if not (below.any() or above.any()):
            return idx
        idx += above
        idx -= below


def _pair_windows(values, la, atom_v, lb):
    """The pairs of two ascending supports, in ascending chunks of about
    ``_PAIR_BLOCK`` pairs for ``_merge_stream``: each chunk's distinct pair
    values, the pair masses exp(la[a] + lb[b]) in value order, where each
    value's run begins, and the pair log masses.  Window edges are
    quantiles of a sub-grid of the pairs; each pair falls in one window by
    its rounded value, so equal values never straddle two windows.

    A window's pair values and masses are formed here and sorted on the
    shared worker pool, one window ahead: while a worker sorts window w + 1,
    the caller merges window w.  At most two windows are alive at once, and
    every window is sorted whole, so the chunks do not depend on the worker
    count.  Pairs that fit one window are sorted here.  Closing the
    generator cancels a sort not yet started."""
    m, k = values.size, atom_v.size
    pa, pb = np.exp(la), np.exp(lb)
    windows = -(-m * k // _PAIR_BLOCK)
    edges = []
    if windows > 1:
        sample = np.sort(np.add.outer(atom_v[::_SAMPLE_STRIDE], values[::_SAMPLE_STRIDE]), axis=None)
        edges = sample[np.arange(1, windows) * sample.size // windows]
        # unique by hand: np.unique would import numpy.ma on the first count
        edges = edges[np.concatenate(([True], edges[1:] != edges[:-1]))]
    pool = _worker_pool()[0] if len(edges) else None

    def chunk(v, p, ends, offset, order):
        v, p = v[order], p[order]
        new = np.empty(v.size, dtype=bool)
        new[0] = True
        np.not_equal(v[1:], v[:-1], out=new[1:])
        starts = np.flatnonzero(new)

        def log_terms(pos):
            # pair i of the window is (a, b) = (i - offset[b], row of i)
            i = order[pos]
            b = ends.searchsorted(i, "right")
            return la[i - offset[b]] + lb[b]

        return v[starts], p, starts, log_terms

    def sorted_chunk(v, p, ends, offset, sort):
        return chunk(v, p, ends, offset, sort.result())

    ahead: deque = deque()  # windows sorting on the pool, with their sort
    lo = np.zeros(k, dtype=np.intp)
    try:
        for t in [*edges, None]:
            hi = np.full(k, m, dtype=np.intp) if t is None else _row_splits(values, atom_v, t)
            size = hi - lo
            ends = np.cumsum(size)
            offset = ends - size - lo
            lo = hi
            total = int(ends[-1])
            if not total:
                continue
            b = np.repeat(np.arange(k), size)
            a = np.arange(total) - np.repeat(offset, size)
            v = atom_v[b] + values[a]
            p = pb[b] * pa[a]
            del a, b
            if pool is None:
                yield chunk(v, p, ends, offset, np.argsort(v))
                continue
            ahead.append((v, p, ends, offset, pool.submit(np.argsort, v)))
            del v, p
            if len(ahead) > 1:
                yield sorted_chunk(*ahead.popleft())
        while ahead:
            yield sorted_chunk(*ahead.popleft())
    finally:
        for *_, sort in ahead:
            sort.cancel()


def _convolve_sparsify(values, logp, atom_v, atom_lp, eps_step: float, log_floor: float = LOG_ZERO):
    """The law of the sum of two independent variables given as ascending
    (values, log masses), sparsified at ``eps_step`` and ``log_floor`` as
    ``_sparsify`` would sparsify their exact convolution.  Pairs are formed,
    sorted and merged one window of values at a time (``_pair_windows``).
    Pair masses are formed and summed in linear space, scaled by the largest
    pair mass."""
    top_a, top_b = logp.max(), atom_lp.max()
    windows = _pair_windows(values, logp - top_a, atom_v, atom_lp - top_b)
    return _merge_stream(windows, top_a + top_b, eps_step, log_floor)


def _finalize_cdf(values, logp, err_budget) -> CompressedCDF:
    cum = _log_cumsum(logp)
    # drop anchors whose mass vanished below float resolution so the
    # cumulative sequence is strictly increasing
    keep = np.concatenate(([True], cum[1:] > cum[:-1]))
    last = np.flatnonzero(keep)[-1]
    if last != cum.size - 1:
        cum[last] = cum[-1]
    return CompressedCDF(values=values[keep], log_cum=cum[keep], err_budget=err_budget)


def _log_spread(logp: np.ndarray) -> float:
    """log of total mass over leftmost mass: bounds the log-range of the
    cumulative masses of any sum this factor enters."""
    return float(np.logaddexp.reduce(logp) - logp[0])


def _pair_bounds(factors, eps_step: float) -> list[float]:
    """Upper bounds on the pairs each convolution of ``factors`` forms when
    the running sum is sparsified at ``eps_step``: greedy sparsification
    keeps at most 2 + (log-range)/log1p(eps_step) anchors, and the log-range
    of a sum is at most the sum of its factors' ``_log_spread``."""
    thresh = math.log1p(eps_step)
    atoms = float(factors[0][0].size)
    spread = _log_spread(factors[0][1])
    bounds = []
    for v, lp in factors[1:]:
        bounds.append(atoms * v.size)
        spread += _log_spread(lp)
        atoms = min(bounds[-1], 3.0 + spread / thresh)
    return bounds


@dataclass(frozen=True)
class _FlooredStep:
    """A per-merge ``step`` with an answer-relative floor for
    ``compressed_tail_cdf``: ``log_floor(factors)`` is called with the
    factors sparsified at ``step`` once they have passed the size guard, and
    returns log delta, the cumulative mass up to which every left tail
    merges into its first kept atom."""

    step: float
    log_floor: Callable[[list], float]


def compressed_tail_cdf(pmfs, eps_step, collect: list | None = None) -> CompressedCDF:
    """Convolve n per-coordinate (values, log pmf) pairs left to right,
    sparsifying every factor before it is convolved and the running sum
    after every convolution, each at the per-merge step ``eps_step``.

    2j - 1 merges lie behind the j-th prefix sum, so its compressed CDF
    lower-bounds the exact CDF and stays within its ``err_budget`` =
    (1 + eps_step)^(2j - 1) of it; ``collect`` receives one per prefix sum.
    All pair counts are checked against the size guard before the first
    convolution.

    ``eps_step`` may be a ``_FlooredStep``: then, unless every convolution
    fits one pair window (where merging more saves nothing), each factor is
    sparsified again from its pmf and every merge starts its walk at the
    floor delta, which also lets the exact CDF exceed the bound by an
    additive (2j - 1) * err_budget * delta."""
    step, log_floor = eps_step, None
    if isinstance(eps_step, _FlooredStep):
        step, log_floor = eps_step.step, eps_step.log_floor
    factors = [_sparsify(v, lp, step) for v, lp in pmfs]
    bounds = _pair_bounds(factors, step)
    for j, pairs in enumerate(bounds, start=1):
        if pairs > _PAIR_LIMIT:
            raise EngineTooLargeError(
                f"convolution step {j} may form up to {pairs:.3g} pairs "
                f"({pairs / factors[j][0].size:.0f} x {factors[j][0].size} "
                f"atoms), beyond the size guard; use a coarser grid or larger eps"
            )
    floor = LOG_ZERO
    if log_floor is not None and max(bounds, default=0.0) > _PAIR_BLOCK:
        floor = log_floor(factors)
        if floor > LOG_ZERO:
            factors = [_sparsify(v, lp, step, floor) for v, lp in pmfs]
    values, logp = factors[0]
    for j, (atom_v, atom_lp) in enumerate(factors[1:], start=1):
        if collect is not None:
            collect.append(_finalize_cdf(values, logp, (1.0 + step) ** (2 * j - 1)))
        values, logp = _convolve_sparsify(values, logp, atom_v, atom_lp, step, floor)
    out = _finalize_cdf(values, logp, (1.0 + step) ** (2 * len(factors) - 1))
    if collect is not None:
        collect.append(out)
    return out


def _coarse_log_mass(factors, support: np.ndarray, log_cell: np.ndarray, theta: float) -> float:
    """log of a lower bound on the grid mass at theta: ``factors`` (the
    first n - 1 coordinates) chained by ``compressed_tail_cdf`` at step 1,
    then summed over the last coordinate's ``support`` values with cell
    masses ``log_cell``.  Every merge lower-bounds the CDF it replaces, so
    the result lower-bounds the exact mass."""
    cdf = compressed_tail_cdf(factors, 1.0)
    return log_sum(log_cell + cdf.log_query(theta - support))


_POINT_MASS_AT_ZERO = CompressedCDF(
    values=np.zeros(1), log_cum=np.zeros(1), err_budget=1.0
)


@dataclass(frozen=True)
class PrefixCDFTable:
    """Prefix CDFs of the decoupled sum on one grid, read by both ``count``
    and the sampler.

    ``cdfs[i]`` is P_i, the CDF of Y_1 + ... + Y_i (P_0 is the point mass at
    0); ``support[i]`` holds coordinate i+1's value lam kappa^2 + mu kappa
    at every grid value ``kappa``, and ``log_cell`` the log mass of each
    grid value.  Given the threshold t left for coordinates 1..i+1,
    coordinate i+1 weighs kappa by cell(kappa) * P_i(t - support[i][kappa])
    (``log_weights(i, t)``).

    Accuracy.  One number carries every table's guarantee: the last CDF's
    ``err_budget`` beta = (1 + e)^(2n - 3), where e is the merge step.  P_1
    is exact.  For j >= 2, P_j comes out of ``compressed_tail_cdf`` over the
    first n - 1 coordinates.  A rightward merge at step e, of a factor
    before it is convolved or of the running sum after, leaves a pointwise
    lower bound within a (1 + e) factor of the CDF it replaces, and
    convolving with an independent variable keeps both properties.  So
    P_j <= F_j <= (1 + e)^(2j - 1) P_j, where F_j is the exact CDF: one
    merge per convolution and one per sparsified factor among coordinates
    1..j.  For P_{n-1} that is beta.

    Counting (``for_count``) takes e = eps/(2(2n - 3)), so beta <= exp(eps/2),
    and merges every left tail relative to the answer F = F(theta), the
    exact grid mass at theta.  A coarse pass runs ``compressed_tail_cdf`` on
    the same sparsified factors at step 1 and reads their mass L at theta;
    L <= F, since every merge lower-bounds.  Each merge of the table then
    starts its walk at delta = eps' L/(8n), with eps' = min(eps, 1/2): the
    mass whose cumulative total is at most delta merges into the first kept
    atom, which keeps its exact cumulative mass.  Such a merge leaves
    F' <= F <= (1 + e) F' + delta, as left of the first kept atom F <= delta,
    and convolving with a probability law keeps this without growing delta.
    Over the 2n - 3 merges, and then summing over the last coordinate's
    cells (total mass at most 1), the table mass M at theta satisfies
    M <= F <= beta (M + (2n - 3) delta), where (2n - 3) delta <= eps' L/4 <=
    eps' F/4.  So F <= beta M/(1 - r) with r = beta eps'/4, and the midpoint
    sqrt(beta) M satisfies (1 - r)/sqrt(beta) <= sqrt(beta) M/F <=
    sqrt(beta): both ends lie within [1/(1 + eps), 1 + eps] for every eps in
    (0, 1] (the cap eps' <= 1/2 keeps r small enough near eps = 1).  When
    every convolution fits one pair window, the floor would save no work,
    so neither the coarse pass nor the floor runs, and delta = 0.

    Sampling (``for_sampling``) takes e with beta = 1/(1 - eps), and no
    floor.  Write t_n = theta and t_{j-1} = t_j - s_j(kappa_j), with s_j =
    ``support[j-1]``.  Coordinate j weighs kappa_j by cell(kappa_j)
    P_{j-1}(t_{j-1}) over Z_j(t_j), the sum of its weights, which is the
    exact convolution of P_{j-1} with Y_j's law.  Pair coordinate j's
    numerator P_{j-1}(t_{j-1}) with coordinate (j - 1)'s denominator
    Z_{j-1}(t_{j-1}): as P_0(t_0) = 1[accept] and Z_1 = P_1, a point's
    probability is prod cell * 1[accept] * prod_{i=2..n-1} (P_i/Z_i)(t_i) /
    Z_n(theta).  P_i/Z_i lies in [(1 + e)^-3, 1] for i = 2, as the chain also
    sparsifies coordinate 1's factor, and in [(1 + e)^-2, 1] for i >= 3, so
    the product lies in [1/beta, 1]; the exact law divides by F(theta), and
    F(theta)/Z_n(theta) lies in [1, beta].  So every grid point's ratio to
    the exact conditional law lies in [1/beta, beta] = [1 - eps, 1/(1 - eps)],
    and the total variation distance is at most eps.
    """

    cdfs: tuple[CompressedCDF, ...]
    support: np.ndarray
    log_cell: np.ndarray
    kappa: np.ndarray
    theta: float

    @classmethod
    def for_count(
        cls, dc: DecoupledConstraint, spec: GridSpec, eps: float
    ) -> "PrefixCDFTable":
        """Table whose mass at theta, read at the midpoint of its budget, is
        within (1 +- eps) of the exact mass; its left tails merge below a
        floor relative to that mass (see the class docstring)."""
        n = dc.n
        step = eps / (2.0 * max(2 * n - 3, 1))
        return cls._build(dc, spec, step, math.log(min(eps, 0.5) / (8.0 * n)))

    @classmethod
    def for_sampling(
        cls, dc: DecoupledConstraint, spec: GridSpec, eps: float
    ) -> "PrefixCDFTable":
        """Table whose draws are within eps of the exact conditional law in
        total variation, point by point within [1 - eps, 1/(1 - eps)].  At
        n <= 2 nothing is compressed and the draws are exact.  An eps outside
        (0, 1) raises ValueError: eps = 1 would bound nothing."""
        if not (0.0 < eps < 1.0):
            raise ValueError(f"eps must lie in (0, 1) for sampling, got {eps}")
        step = math.expm1(-math.log1p(-eps) / max(2 * dc.n - 3, 1))
        return cls._build(dc, spec, step)

    @classmethod
    def _build(
        cls,
        dc: DecoupledConstraint,
        spec: GridSpec,
        eps_step: float,
        log_floor_frac: float | None = None,
    ) -> "PrefixCDFTable":
        """Table for ``dc`` on ``spec``; P_2..P_{n-1} come from
        ``compressed_tail_cdf`` at ``eps_step``, floored at
        exp(log_floor_frac) times the coarse mass at theta when
        ``log_floor_frac`` is given.  Coefficients are expected to be rounded
        (integral multiples of one lattice step) so that support values
        collide exactly."""
        n = dc.n
        if spec.n != n:
            raise ValueError("constraint and grid dimensions disagree")
        if spec.points_per_coord > _POINTS_LIMIT:
            raise EngineTooLargeError(
                f"grid has {spec.points_per_coord} points per coordinate, beyond "
                f"the size guard of {_POINTS_LIMIT}; use a coarser tau or a smaller B"
            )
        kappa = spec.value(np.arange(spec.points_per_coord))
        support = dc.lam[:, None] * kappa * kappa + dc.mu[:, None] * kappa
        log_cell = _log_cell_masses(spec.tau, spec.B)
        theta = float(dc.theta)
        cdfs = [_POINT_MASS_AT_ZERO]
        if n >= 2:
            pmfs = [
                support_and_log_pmf(float(dc.lam[j]), float(dc.mu[j]), spec)
                for j in range(n - 1)
            ]
            cdfs.append(_finalize_cdf(*pmfs[0], 1.0))
            if n >= 3:
                merge = eps_step
                if log_floor_frac is not None:
                    merge = _FlooredStep(
                        eps_step,
                        lambda factors: log_floor_frac
                        + _coarse_log_mass(factors, support[n - 1], log_cell, theta),
                    )
                steps: list[CompressedCDF] = []
                compressed_tail_cdf(pmfs, merge, collect=steps)
                cdfs.extend(steps[1:])
        return cls(
            cdfs=tuple(cdfs),
            support=support,
            log_cell=log_cell,
            kappa=kappa,
            theta=theta,
        )

    @property
    def n(self) -> int:
        return len(self.cdfs)

    def log_weights(self, j: int, t) -> np.ndarray:
        """Log weight of every grid value of coordinate j+1 given the
        threshold ``t`` left for coordinates 1..j+1; ``t`` is a scalar,
        giving shape (m,), or a (k,) array, giving (k, m)."""
        t = np.asarray(t, dtype=float)[..., None]
        return self.log_cell + self.cdfs[j].log_query(t - self.support[j])

    def mass(self) -> float:
        """The mass at theta read at the geometric midpoint of the last CDF's
        ``err_budget``, capped at 1: within (1 +- eps) of the exact grid mass
        for ``for_count`` at eps, and within (1 - eps)^(+-1/2) of it for
        ``for_sampling`` at eps."""
        lm = log_sum(self.log_weights(self.n - 1, self.theta))
        if lm == LOG_ZERO:
            return 0.0
        return min(math.exp(lm + 0.5 * math.log(self.cdfs[-1].err_budget)), 1.0)

    def cumulative_weights(self, j: int, t: float) -> np.ndarray:
        """Cumulative weights of coordinate j+1's grid values given the
        threshold ``t``, scaled by the largest: the inverse CDF a draw reads
        that coordinate from.  Raises FloorError when no grid value has
        weight."""
        lw = self.log_weights(j, t)
        top = lw.max()
        if top == LOG_ZERO:
            raise FloorError("no grid point lies in the acceptance region")
        return np.cumsum(np.exp(lw - top))

    @cached_property
    def last_coordinate_cum(self) -> np.ndarray:
        """``cumulative_weights`` of coordinate n, the first one a draw
        takes.  Its threshold is always theta, so it is built once, on the
        first draw, and a count table never builds it.  An empty region
        raises FloorError here on every draw, since a raise caches nothing."""
        cum = self.cumulative_weights(self.n - 1, self.theta)
        cum.setflags(write=False)
        return cum


def exact_tail_bruteforce(dc: DecoupledConstraint, spec: GridSpec) -> float:
    """Exact Pr[sum_i Y_i <= theta] on the grid, by dense convolution with
    80-bit accumulation.  Refuses grids beyond ~1e7 points."""
    if spec.total_points > _BRUTEFORCE_LIMIT:
        raise EngineTooLargeError(
            f"grid has {spec.total_points:.0f} points, beyond the brute-force limit"
        )
    acc_v: np.ndarray | None = None
    acc_p: np.ndarray | None = None
    for j in range(dc.n):
        v, p = support_and_pmf(float(dc.lam[j]), float(dc.mu[j]), spec)
        p = p.astype(np.longdouble)
        if acc_v is None:
            acc_v, acc_p = v, p
            continue
        if acc_v.size * v.size > _PAIR_LIMIT:
            raise EngineTooLargeError("dense convolution exceeds the size guard")
        vv = np.add.outer(acc_v, v).ravel()
        pp = np.multiply.outer(acc_p, p).ravel()
        order = np.argsort(vv, kind="stable")
        vv = vv[order]
        pp = pp[order]
        starts = np.flatnonzero(np.concatenate(([True], vv[1:] != vv[:-1])))
        acc_v = vv[starts]
        acc_p = np.add.reduceat(pp, starts)
    idx = int(np.searchsorted(acc_v, dc.theta, side="right"))
    return float(np.sum(acc_p[:idx]))


def count(
    dc: DecoupledConstraint, spec: GridSpec, eps: float = DEFAULT_EPS
) -> float:
    """Deterministic estimate of Pr[sum_i Y_i <= theta] on the grid with a
    certified multiplicative error factor of at most (1 + eps).

    The count table merges each left tail below an absolute floor of about
    eps/(8n) times a coarse lower bound on the answer, so its atoms span only
    the mass range the answer needs; sampling tables keep every tail (see
    ``PrefixCDFTable``)."""
    if not (0.0 < eps <= 1.0):
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    return PrefixCDFTable.for_count(dc, spec, eps).mass()


@dataclass(frozen=True)
class CountResult:
    """A count and the accuracy that certifies it.

    ``estimate`` lies within (1 +- eps) of the grid mass of the rounded,
    truncated instance: coefficients snapped to the gamma lattice, and each
    coordinate floored onto the grid of step tau and radius B, whose end
    cells absorb the tails.  The gap from that grid mass to the Gaussian
    mass of the original instance is not bounded here.  ``below_floor``
    flags an estimate below ``floor`` = 2^(-4n); it is reported, not
    suppressed.
    """

    estimate: float
    eps: float
    below_floor: bool
    floor: float

    def to_dict(self) -> dict:
        return {"estimate": self.estimate, "eps": self.eps, "below_floor": self.below_floor}


def _checked_grid(
    q: QuadraticForm | DecoupledConstraint,
    eps: float,
    tau: float,
    trunc_B: float | None,
    gamma: float,
    floor: float | None = None,
) -> tuple[RoundingConfig, GridSpec, float]:
    """Check ``eps`` and build the rounding config, the grid (radius
    ``trunc_B``, default ``default_trunc_radius``) and the floor (in [0, 1],
    default 2^(-4n)) that counting and sampling share.  It runs before any
    decoupling work, so a bad setting raises ValueError at once."""
    if not (0.0 < eps <= 1.0):
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    cfg = RoundingConfig(gamma=gamma, tau=tau)
    b_radius = float(trunc_B) if trunc_B is not None else default_trunc_radius(q.n, eps)
    spec = GridSpec(tau=tau, B=b_radius, n=q.n)
    floor_value = float(floor) if floor is not None else 2.0 ** (-4 * q.n)
    if not (0.0 <= floor_value <= 1.0):
        raise ValueError(f"floor must lie in [0, 1], got {floor}")
    return cfg, spec, floor_value


def _prepare(q: QuadraticForm | DecoupledConstraint, cfg: RoundingConfig):
    """``(rounded, mass)`` for ``q``: decoupled unless it already is, then
    normalized and rounded by ``cfg``; ``rounded`` keeps the rotation.  A
    constant form has ``rounded`` None and its exact ``mass``, 0 or 1; any
    other ``mass`` None.  A constant ``QuadraticForm`` (A = 0, b = 0) is
    answered from the sign of c without decoupling."""
    if isinstance(q, QuadraticForm):
        if q.is_constant:
            return None, 1.0 if q.c >= 0.0 else 0.0
        q = decouple(q)
    try:
        nz = normalize(q)
    except ConstantPolynomialError as err:
        return None, err.mass
    return round_coefficients(nz, cfg), None


def count_ptf_gaussian(
    q: QuadraticForm | DecoupledConstraint,
    eps: float = DEFAULT_EPS,
    *,
    tau: float = DEFAULT_TAU,
    trunc_B: float | None = None,
    gamma: float = DEFAULT_GAMMA,
) -> CountResult:
    """Estimate Pr_{G ~ N(0,I)}[sign(q(G)) = +1].

    Pipeline: decouple -> normalize -> round coefficients to the ``gamma``
    lattice -> count on the grid of step ``tau`` and radius ``trunc_B``
    (default ``default_trunc_radius``).  The estimate is within (1 +- eps)
    of the grid mass of that rounded, truncated instance; the gap to the
    Gaussian mass of ``q`` is not bounded (see ``CountResult``).  Constant
    polynomials are answered exactly, a constant ``QuadraticForm`` without
    decoupling.  Estimates below 2^(-4n) are flagged, not suppressed.  A
    bad setting raises ValueError before any work.
    """
    cfg, spec, floor = _checked_grid(q, eps, tau, trunc_B, gamma)
    rounded, estimate = _prepare(q, cfg)
    if rounded is not None:
        estimate = count(rounded, spec, eps)
    return CountResult(estimate=estimate, eps=eps, below_floor=estimate < floor, floor=floor)


def mc_count(q: QuadraticForm, n_samples: int, rng: Rng) -> tuple[float, float]:
    """Monte Carlo frequency of sign(q(G)) = +1 with a 99% CI half-width:
    the larger distance to its Wilson bounds, which is not 0 at 0 or all hits.

    Block i of 2^16 rows (the last one shorter) comes from the child stream
    ``rng.derive(i)`` (see :func:`normal_blocks`, which fills blocks on at
    most 2 worker threads), so the estimate depends only on (seed,
    n_samples), not on the worker count or on how blocks are scheduled.

    A constant form (A = 0, b = 0) is answered exactly and draws nothing:
    (1.0, 0.0) when c >= 0, else (0.0, 0.0); the estimate is what sampling
    gives, since every point has sign(c).  ``n_samples`` must be an integer
    >= 1, for every form; otherwise ValueError.
    """
    n_samples = _checked_int("n_samples", n_samples, 1)
    if q.is_constant:
        return (1.0 if q.c >= 0.0 else 0.0), 0.0
    hits = 0
    for g in normal_blocks(rng, q.n, 1 << 16, total=n_samples):
        hits += int(np.count_nonzero(np.asarray(sign_at(q, g)) == 1))
    p = hits / n_samples
    return p, _wilson_half_width(p, n_samples)
