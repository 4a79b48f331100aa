"""Deterministic multiplicative-accuracy estimation of Pr[sum_i Y_i <= theta]
for independent per-coordinate variables Y_i = lam_i*[G]^2 + mu_i*[G], and
the prefix-CDF table that serves both counting and sampling.

The engine convolves the per-coordinate pmfs sequentially, sparsifying each
factor before it enters and the running distribution after every step.  A
greedy walk over the cumulative distribution keeps an atom whenever the
cumulative mass has grown by more than a (1 + eps_step) factor since the
last kept atom, and merges the mass of dropped atoms into the next kept atom
to their right.  Merging rightward makes the compressed CDF F' a pointwise
lower bound of the running CDF F with F <= (1 + eps_step) * F', so after k
merges the exact CDF is bracketed within a known factor
``err_budget = (1 + eps_step)^k``.  Masses are stored as logs; pair masses
and cumulative sums are formed in linear space scaled by each call's largest
mass, and whatever falls too far below it for a double is summed in log
space instead.  A convolution forms its pairs one window of values at a
time and merges them as it goes, so its memory does not grow with the
number of pairs.

``PrefixCDFTable`` keeps the CDFs P_0, ..., P_{n-1} of the prefix sums
Y_1 + ... + Y_j: P_0 is the point mass at 0, P_1 the exact CDF of Y_1, and
P_2, ..., P_{n-1} the per-step output of one ``compressed_tail_cdf`` run over
the first n - 1 coordinates.  The last coordinate is summed over its grid
values, so the table's mass at theta is
sum_kappa cell(kappa) * P_{n-1}(theta - lam_n kappa^2 - mu_n kappa).
``count`` reports that mass at the geometric midpoint of P_{n-1}'s budget,
which certifies a (1 +- eps) answer; at n <= 2 nothing is compressed and the
mass is exact up to float roundoff.  The sampler draws coordinates n, n-1,
..., 1 in turn from the same weights, from a table built at a finer step.
Everything is pure and deterministic: two runs on identical inputs produce
bit-identical outputs.

``exact_tail_bruteforce`` is the independent oracle: a dense convolution in
80-bit extended precision, feasible up to ~1e7 grid points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import (
    CoordinateBox,
    GridSpec,
    _log_cell_masses,
    support_and_log_pmf,
    support_and_pmf,
)
from .numerics import LOG_ZERO, Rng, log_sum, normal_blocks
from .quadform import (
    ConstantPolynomialError,
    DecoupledConstraint,
    QuadraticForm,
    RoundingConfig,
    decouple,
    gaussian_variance,
    normalize,
    round_coefficients,
    sign_at,
)

__all__ = [
    "CompressedCDF",
    "CountResult",
    "EngineTooLargeError",
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
# window edges are quantiles of every _SAMPLE_STRIDE-th atom of each side
_SAMPLE_STRIDE = 32


class EngineTooLargeError(RuntimeError):
    """The requested convolution exceeds the configured size guards."""


def default_trunc_radius(n: int, eps: float) -> int:
    """Truncation radius keeping the n-coordinate tail mass below ~eps/10."""
    return max(int(n), int(math.ceil(math.sqrt(2.0 * math.log(20.0 * n / eps)))))


@dataclass(frozen=True)
class CompressedCDF:
    """Sparsified CDF: ascending anchor values with log cumulative masses.

    The represented step function lower-bounds the CDF it was compressed
    from; the true CDF never exceeds it by more than the multiplicative
    ``err_budget``.
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

    @property
    def log_total(self) -> float:
        return float(self.log_cum[-1])


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


def _merge_stream(chunks, top: float, eps_step: float):
    """Greedy rightward merge over a distribution given in ascending chunks.

    Each chunk is ``(values, p, starts, log_terms)``: distinct ascending
    values, each of mass the sum of ``p`` over its run of terms (the runs
    begin at ``starts``), ``p`` scaled by exp(-top), and ``log_terms(pos)``
    the logs of ``p`` at ``pos`` without underflow; every chunk lies right
    of the one before.  An atom is kept once the cumulative mass has grown
    by more than a (1 + eps_step) factor since the last kept one, the last
    atom is always kept, and the mass of dropped atoms merges into the next
    kept atom to their right, so kept anchors retain their exact cumulative
    mass.  Returns the kept (values, log masses).

    The walk compares scaled linear cumulative sums; over the leading sums
    below ``_LINEAR_FLOOR`` it compares their logs instead.  The cumulative
    sum, the pending run and the next threshold carry over from chunk to
    chunk, so the result does not depend on where the chunks split."""
    thresh = math.log1p(eps_step)
    grow = 1.0 + eps_step
    kept_v, kept_lp = [], []
    cum_prev, log_cum_prev = 0.0, LOG_ZERO
    run_log, pending = LOG_ZERO, False  # the merged run not yet kept
    target, in_log = LOG_ZERO, True  # the next kept atom's cumulative exceeds it
    for values, p, starts, log_terms in chunks:
        n = values.size
        cum = np.add.reduceat(p, starts)
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
            i = int(log_head.searchsorted(target, "right")) if head else 0
            while i < head:
                kept.append(i)
                target = log_head[i] + thresh
                i = int(log_head.searchsorted(target, "right"))
            if i < n:  # the walk leaves the head in this chunk
                in_log, target = False, math.exp(target)
                i = max(head, int(cum.searchsorted(target, "right")))
        else:
            i = int(cum.searchsorted(target, "right"))
        while i < n:
            kept.append(i)
            target = cum[i] * grow
            i = int(cum.searchsorted(target, "right"))
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
        last = values[-1:]
    if pending:
        kept_v.append(last)
        kept_lp.append(np.array([run_log]))
    return np.concatenate(kept_v), np.concatenate(kept_lp) + top


def _sparsify(values: np.ndarray, logp: np.ndarray, eps_step: float):
    """Merge atoms rightward while consecutive cumulative masses stay within
    a (1 + eps_step) ratio; kept anchors retain their exact cumulative mass
    (``_merge_stream`` on one chunk)."""
    live = logp > LOG_ZERO
    if not np.all(live):
        values, logp = values[live], logp[live]
    if values.size == 0:
        raise ValueError("empty distribution")
    top = logp.max()
    lp = logp - top
    chunk = (values, np.exp(lp), np.arange(values.size), lambda pos: lp[pos])
    return _merge_stream([chunk], top, eps_step)


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
    its rounded value, so equal values never straddle two windows."""
    m, k = values.size, atom_v.size
    pa, pb = np.exp(la), np.exp(lb)
    windows = -(-m * k // _PAIR_BLOCK)
    edges = []
    if windows > 1:
        sample = np.sort(np.add.outer(atom_v[::_SAMPLE_STRIDE], values[::_SAMPLE_STRIDE]), axis=None)
        edges = np.unique(sample[np.arange(1, windows) * sample.size // windows])
    lo = np.zeros(k, dtype=np.intp)
    for t in [*edges, None]:
        hi = np.full(k, m, dtype=np.intp) if t is None else _row_splits(values, atom_v, t)
        size = hi - lo
        total = int(size.sum())
        if total:
            b = np.repeat(np.arange(k), size)
            a = np.arange(total) - np.repeat(np.cumsum(size) - size - lo, size)
            v = atom_v[b] + values[a]
            order = np.argsort(v)
            v, a, b = v[order], a[order], b[order]
            del order
            new = np.empty(total, dtype=bool)
            new[0] = True
            np.not_equal(v[1:], v[:-1], out=new[1:])
            starts = np.flatnonzero(new)
            yield v[starts], pb[b] * pa[a], starts, lambda pos: la[a[pos]] + lb[b[pos]]
        lo = hi


def _convolve_sparsify(values, logp, atom_v, atom_lp, eps_step: float):
    """The law of the sum of two independent variables given as ascending
    (values, log masses), sparsified at ``eps_step`` as ``_sparsify`` would
    sparsify their exact convolution.  Pairs are formed, sorted and merged
    one window of values at a time, so memory does not grow with the number
    of pairs.  Pair masses are formed and summed in linear space, scaled by
    the largest pair mass."""
    top_a, top_b = logp.max(), atom_lp.max()
    windows = _pair_windows(values, logp - top_a, atom_v, atom_lp - top_b)
    return _merge_stream(windows, top_a + top_b, eps_step)


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


def compressed_tail_cdf(pmfs, eps_step: float, collect: list | None = None) -> CompressedCDF:
    """Convolve n per-coordinate (values, log pmf) pairs left to right,
    sparsifying every factor before it is convolved and the running sum
    after every convolution, each at the per-merge step ``eps_step``.

    2j - 1 merges lie behind the j-th prefix sum, so its compressed CDF
    lower-bounds the exact CDF and stays within its ``err_budget`` =
    (1 + eps_step)^(2j - 1) of it; ``collect`` receives one per prefix sum.
    All pair counts are checked against the size guard before the first
    convolution."""
    factors = [_sparsify(v, lp, eps_step) for v, lp in pmfs]
    for j, pairs in enumerate(_pair_bounds(factors, eps_step), start=1):
        if pairs > _PAIR_LIMIT:
            raise EngineTooLargeError(
                f"convolution step {j} may form up to {pairs:.3g} pairs "
                f"({pairs / factors[j][0].size:.0f} x {factors[j][0].size} "
                f"atoms), beyond the size guard; use a coarser grid or larger eps"
            )
    values, logp = factors[0]
    for j, (atom_v, atom_lp) in enumerate(factors[1:], start=1):
        if collect is not None:
            collect.append(_finalize_cdf(values, logp, (1.0 + eps_step) ** (2 * j - 1)))
        values, logp = _convolve_sparsify(values, logp, atom_v, atom_lp, eps_step)
    out = _finalize_cdf(values, logp, (1.0 + eps_step) ** (2 * len(factors) - 1))
    if collect is not None:
        collect.append(out)
    return out


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

    Accuracy.  P_1 is exact.  For j >= 2, P_j comes out of
    ``compressed_tail_cdf`` over the first n - 1 coordinates.  A rightward
    merge at step e, of a factor before it is convolved or of the running
    sum after, leaves a pointwise lower bound within a (1 + e) factor of the
    CDF it replaces, and convolving with an independent variable keeps both
    properties.  So P_j <= F_j <= beta_j * P_j, where F_j is the exact CDF
    and beta_j = (1 + e)^(m_j), with m_j the number of merges behind P_j:
    one per convolution and one per sparsified factor among coordinates
    1..j, so m_j = 2j - 1.

    Counting reads the mass at the geometric midpoint of beta_{n-1}.  With
    e = eps/(2 m_{n-1}) = eps/(2(2n - 3)), beta_{n-1} <= exp(eps/2) and the
    midpoint is within exp(+-eps/4) of the exact mass.

    Sampling: a point's probability under the sampler is the product over
    j of its coordinate-j weight divided by the sum of the coordinate-j
    weights.  The numerator's P_{j-1} and the denominator (the same weights
    summed, a lower bound of F_j(t)) both lower-bound their exact values
    within beta_{j-1}, so their quotient, coordinate j's factor, is within
    beta_{j-1} either way of its exact conditional.  With
    beta_0 = beta_1 = 1, the product over j = 3..n puts every grid point's
    probability within (1 + e)^K of the exact conditional law, where
    K = m_2 + ... + m_{n-1} = (n-1)^2 - 1.  With e from
    (1 + e)^K = 1/(1 - eps), every point's ratio lies in
    [1 - eps, 1/(1 - eps)], so the total variation distance is at most eps.
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
        within exp(+-eps/4) of the exact mass."""
        return cls._build(dc, spec, eps / (2.0 * max(2 * dc.n - 3, 1)))

    @classmethod
    def for_sampling(
        cls, dc: DecoupledConstraint, spec: GridSpec, eps: float
    ) -> "PrefixCDFTable":
        """Table whose draws are within eps of the exact conditional law in
        total variation, point by point within [1 - eps, 1/(1 - eps)]; eps = 1
        bounds nothing and merges as far as the sparsifier goes.  At n <= 2
        nothing is compressed and the draws are exact."""
        if not (0.0 < eps <= 1.0):
            raise ValueError(f"eps must lie in (0, 1], got {eps}")
        k = max((dc.n - 1) ** 2 - 1, 1)
        step = math.expm1(-math.log1p(-eps) / k) if eps < 1.0 else math.inf
        return cls._build(dc, spec, step)

    @classmethod
    def _build(
        cls, dc: DecoupledConstraint, spec: GridSpec, eps_step: float
    ) -> "PrefixCDFTable":
        """Table for ``dc`` on ``spec``; P_2..P_{n-1} come from
        ``compressed_tail_cdf`` at ``eps_step``.  Coefficients are expected
        to be rounded (integral multiples of one lattice step) so that
        support values collide exactly."""
        n = dc.n
        if spec.n != n:
            raise ValueError("constraint and grid dimensions disagree")
        kappa = spec.value(np.arange(spec.points_per_coord))
        support = dc.lam[:, None] * kappa * kappa + dc.mu[:, None] * kappa
        cdfs = [_POINT_MASS_AT_ZERO]
        if n >= 2:
            pmfs = [
                support_and_log_pmf(float(dc.lam[j]), float(dc.mu[j]), spec)
                for j in range(n - 1)
            ]
            cdfs.append(_finalize_cdf(*pmfs[0], 1.0))
            if n >= 3:
                steps: list[CompressedCDF] = []
                compressed_tail_cdf(pmfs, eps_step, collect=steps)
                cdfs.extend(steps[1:])
        return cls(
            cdfs=tuple(cdfs),
            support=support,
            log_cell=_log_cell_masses(spec.tau, spec.B),
            kappa=kappa,
            theta=float(dc.theta),
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

    def log_mass(self) -> float:
        """log of the lower-bound mass at theta; off by at most the last
        CDF's ``err_budget``."""
        return log_sum(self.log_weights(self.n - 1, self.theta))


def exact_tail_bruteforce(
    dc: DecoupledConstraint, spec: GridSpec, box: CoordinateBox | None = None
) -> float:
    """Exact Pr[sum_i Y_i <= theta] on the (restricted) grid, by dense
    convolution with 80-bit accumulation.  Refuses grids beyond ~1e7 points."""
    if box is None:
        box = CoordinateBox.full(spec)
    if box.size(spec) > _BRUTEFORCE_LIMIT:
        raise EngineTooLargeError(
            f"grid has {box.size(spec)} points, beyond the brute-force limit"
        )
    i_lo, i_hi = box.index_ranges(spec)
    acc_v: np.ndarray | None = None
    acc_p: np.ndarray | None = None
    for j in range(dc.n):
        v, p = support_and_pmf(
            float(dc.lam[j]), float(dc.mu[j]), spec, (int(i_lo[j]), int(i_hi[j]))
        )
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
    certified multiplicative error factor of at most (1 + eps)."""
    if not (0.0 < eps <= 1.0):
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    table = PrefixCDFTable.for_count(dc, spec, eps)
    lm = table.log_mass()
    if lm == LOG_ZERO:
        return 0.0
    return min(math.exp(lm + 0.5 * math.log(table.cdfs[-1].err_budget)), 1.0)


@dataclass(frozen=True)
class CountResult:
    """Counting answer with its error-budget ledger.

    ``slack`` entries are conservative diagnostic bounds on the probability
    mass that each pipeline stage (coefficient rounding, grid discretization,
    tail truncation) may have moved across the acceptance boundary; they are
    reported, not folded into ``estimate``.
    """

    estimate: float
    eps: float
    slack_rounding: float
    slack_discretization: float
    slack_truncation: float
    below_floor: bool
    floor: float

    @property
    def log_estimate(self) -> float:
        return math.log(self.estimate) if self.estimate > 0.0 else LOG_ZERO

    def to_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "log_estimate": self.log_estimate,
            "eps": self.eps,
            "slack": {
                "rounding": self.slack_rounding,
                "discretization": self.slack_discretization,
                "truncation": self.slack_truncation,
            },
            "below_floor": self.below_floor,
        }


def _rounding_slack(nz: DecoupledConstraint, rounded: DecoupledConstraint) -> float:
    diff = DecoupledConstraint(
        lam=nz.lam - rounded.lam,
        mu=nz.mu - rounded.mu,
        theta=0.0,
        rotation=nz.rotation,
    )
    var = gaussian_variance(diff)
    # sign-flip probability of a unit-variance quadratic under a var-sized
    # perturbation: anticoncentration gives ~ d * var^(1/(3d)) with d = 2
    return min(1.0, 2.0 * var ** (1.0 / 6.0)) if var > 0.0 else 0.0


def _discretization_slack(rounded: DecoupledConstraint, spec: GridSpec) -> float:
    tau, b = spec.tau, spec.B
    dq = tau * float(
        np.sum(np.abs(rounded.lam) * (2.0 * b + tau) + np.abs(rounded.mu))
    )
    var = gaussian_variance(rounded)
    if var <= 0.0:
        return 0.0
    return min(1.0, 2.0 * math.sqrt(dq / math.sqrt(var)))


def _truncation_slack(spec: GridSpec) -> float:
    from .numerics import std_normal_cdf

    return min(1.0, 2.0 * spec.n * std_normal_cdf(-spec.B))


def count_ptf_gaussian(
    q: QuadraticForm | DecoupledConstraint,
    eps: float = DEFAULT_EPS,
    *,
    tau: float = DEFAULT_TAU,
    trunc_B: float | None = None,
    gamma: float = DEFAULT_GAMMA,
    floor: float | None = None,
) -> CountResult:
    """Estimate Pr_{G ~ N(0,I)}[sign(q(G)) = +1] to within (1 +- eps), up to
    the reported discretization/rounding/truncation slack.

    Pipeline: decouple -> normalize -> round coefficients -> discrete count
    on the full grid.  Constant polynomials are answered exactly.  Estimates
    below ``floor`` (default 2^(-4n)) are flagged, not suppressed.
    """
    dc = decouple(q) if isinstance(q, QuadraticForm) else q
    n = dc.n
    floor_value = float(floor) if floor is not None else 2.0 ** (-4 * n)
    try:
        nz = normalize(dc)
    except ConstantPolynomialError as err:
        return CountResult(
            estimate=err.mass,
            eps=eps,
            slack_rounding=0.0,
            slack_discretization=0.0,
            slack_truncation=0.0,
            below_floor=err.mass < floor_value,
            floor=floor_value,
        )
    rounded = round_coefficients(nz, RoundingConfig(gamma=gamma, tau=tau))
    b_radius = float(trunc_B) if trunc_B is not None else default_trunc_radius(n, eps)
    spec = GridSpec(tau=tau, B=b_radius, n=n)
    estimate = count(rounded, spec, eps)
    return CountResult(
        estimate=estimate,
        eps=eps,
        slack_rounding=_rounding_slack(nz, rounded),
        slack_discretization=_discretization_slack(rounded, spec),
        slack_truncation=_truncation_slack(spec),
        below_floor=estimate < floor_value,
        floor=floor_value,
    )


_Z99 = 2.5758293035489004  # two-sided 99% normal quantile


def mc_count(
    q: QuadraticForm,
    n_samples: int,
    rng: Rng,
    chunk: int = 1 << 16,
) -> tuple[float, float]:
    """Monte Carlo frequency of sign(q(G)) = +1 with a 99% CI half-width.

    Block i of ``chunk`` draws comes from the child stream ``rng.derive(i)``
    (see :func:`normal_blocks`, which fills blocks on at most 2 worker
    threads), so the estimate depends only on (seed, n_samples, chunk), not
    on the worker count or on how blocks are scheduled.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    hits = 0
    for g in normal_blocks(rng, q.n, chunk, total=n_samples):
        hits += int(np.count_nonzero(np.asarray(sign_at(q, g)) == 1))
    p = hits / n_samples
    half = _Z99 * math.sqrt(max(p * (1.0 - p), 0.0) / n_samples)
    return p, half
