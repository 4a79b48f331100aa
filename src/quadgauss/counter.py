"""Deterministic multiplicative-accuracy estimation of Pr[sum_i Y_i <= theta]
for independent per-coordinate variables Y_i = lam_i*[G]^2 + mu_i*[G], and
the prefix-CDF table the sampler draws from.

The engine convolves the per-coordinate pmfs sequentially, sparsifying each
factor before it enters (``_sparsify``, a greedy walk) and the running sum
after every step (``_merge_stream``, at fixed thresholds c_k = base * (1 +
eps_step)^k, which need the order of the pairs only where a threshold
falls).  A merge keeps some atoms and merges the mass of the dropped atoms
into the next kept atom to their right, so the compressed CDF F' is a
pointwise lower bound of the CDF F it replaces with F <= (1 + eps_step) F';
after k merges the exact CDF is bracketed within (1 + eps_step)^k.  The
proof that reads a CDF counts its merges (``count``, ``PrefixCDFTable``); a
``CompressedCDF`` carries no budget.  A count also merges at a floor
relative to the answer, which merges the far left tail into the first kept
atom at a bounded additive cost.  Masses are stored as logs; pair masses
and cumulative sums are formed in linear space scaled by each call's
largest mass, and whatever falls too far below it for a double is summed in
log space instead.  A convolution forms its pairs one window of values at a
time, and the merge carries its state from window to window, so results do
not depend on where the windows split.

``compressed_tail_cdf`` is the chain that counting and sampling share: it
convolves factors its caller has sparsified and guarded
(``_guarded_factors``).  The mass at theta is read off the chain's last CDF
P in one of two ways.  A grid sum adds one coordinate's cells, sum_kappa
cell(kappa) P(theta - s(kappa)), whose terms are the weights the sampler
draws that coordinate by, read through ``CompressedCDF.log_query``
(``_grid_log_mass``): a count at n <= 3 and its coarse pass read coordinate
n so, and a sampling table's ``mass()`` sums the same terms, its
``log_weights`` at theta.  A count at n >= 4 chains only the
first n - 2 coordinates and reads the last two coordinates' sparsified
factors b and c at once, sum_(b, c) mass(b) mass(c) P(theta - (v_b + v_c))
(``_tail_log_mass``), by sorted lookups into P_{n-2}: a meet-in-the-middle
evaluation (as in Horowitz and Sahni's subset-sum algorithm) that replaces
the last and largest convolution.  Either way 2n - 3 merges lie behind a
count's mass, which read at the geometric midpoint of their budget is its
(1 +- eps) answer (exact up to float roundoff at n <= 2, where nothing is
compressed); a count builds no table.  ``PrefixCDFTable`` keeps the CDFs of
the prefix sums Y_1 + ... + Y_j, one chain at the sampler's own step, and
the sampler draws coordinates n, ..., 1 in turn from them.  Everything is
pure and deterministic: two runs on identical inputs produce bit-identical
outputs.

A grid is one coordinate's axis (``GridSpec``); each coordinate's image
over it is formed once (``_coordinate_images``).  ``count`` reads only the live coordinates, those with lam or mu nonzero.
A null coordinate has Y = 0 on every grid cell, and its cells sum to 1, so
the mass at theta is that of the live coordinates' sum.  Sampling tables
keep every coordinate, as a draw needs all of them.

The exact grid mass that a count brackets comes from no function here: the
test suite computes it by an independent dense convolution
(``tests/oracles.py``).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .grid import GridSpec, _log_cell_masses, support_and_log_pmf
from .numerics import LOG_ZERO, Rng, _checked_int, _wilson_half_width, log_sum, normal_blocks
from .quadform import (
    ConstantPolynomialError,
    DecoupledConstraint,
    QuadraticForm,
    decouple,
    normalize,
    sign_at,
)

# Not called here: bench/tracing.py's WRAPS wraps this name on this module.
from .quadform import round_coefficients  # noqa: F401

__all__ = [
    "CompressedCDF",
    "CountResult",
    "EngineTooLargeError",
    "FloorError",
    "PrefixCDFTable",
    "DEFAULT_TAU",
    "DEFAULT_EPS",
    "default_trunc_radius",
    "count",
    "count_ptf_gaussian",
    "mc_count",
]

DEFAULT_TAU = 2.0**-8
DEFAULT_EPS = 0.05

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
    """A step function: ascending anchor values with strictly increasing
    logs of their cumulative masses.  Out of a merge it lower-bounds the CDF
    it replaces, within a factor that the proof reading it bounds."""

    values: np.ndarray
    log_cum: np.ndarray

    def __post_init__(self) -> None:
        for name in ("values", "log_cum"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
            getattr(self, name).setflags(write=False)
        v, c = self.values, self.log_cum
        if v.shape != c.shape or v.ndim != 1 or v.size == 0:
            raise ValueError("values and log_cum must be matching 1-d arrays")
        if np.any(np.diff(v) <= 0.0) or np.any(np.diff(c) <= 0.0):
            raise ValueError("anchors must be strictly increasing")

    @cached_property
    def _padded_log_cum(self) -> np.ndarray:
        """``log_cum`` after a leading -inf: entry i is log F' at a threshold
        with i anchors at or below it."""
        out = np.concatenate(([LOG_ZERO], self.log_cum))
        out.setflags(write=False)
        return out

    def log_query(self, t):
        """log F'(t) for a scalar or an array of thresholds; an array comes
        back as a new array."""
        out = self._padded_log_cum[self.values.searchsorted(t, "right")]
        return out if out.ndim else float(out)


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


def _crossings(log_cum, log_base: float, thresh: float):
    """How many thresholds log_base + k*thresh, k >= 0, lie strictly below
    each log cumulative mass: the rank of the last threshold an atom's
    cumulative has passed.  A cumulative equal to a threshold has not
    passed it."""
    return np.maximum(np.ceil((log_cum - log_base) / thresh), 0.0)


def _sparsify(
    values: np.ndarray, logp: np.ndarray, eps_step: float, log_floor: float = LOG_ZERO, unfloored=None
):
    """Greedy rightward merge of a sorted support: keep the first atom whose
    cumulative mass exceeds exp(log_floor) (the first atom when there is no
    floor), then the first atom whose cumulative mass exceeds (1 + eps_step)
    times the last kept one's, and so on, and always keep the last atom; the
    mass of dropped atoms merges into the next kept atom to their right, so
    kept anchors retain their exact cumulative mass.  Cumulatives are
    compared in log space, and every atom's successor comes from one
    ``searchsorted``.  When the walk starts at the first atom it is the walk
    without a floor, and ``unfloored``, that walk's result if given, is
    returned as it is.

    Factors are merged greedily, not at ``_merge_stream``'s fixed
    thresholds: their atoms are about as dense as the thresholds, where
    fixed thresholds keep up to twice as many atoms (14% more on a 2561-atom
    default-flag pmf), and every pair a later convolution forms is a product
    of them."""
    top = logp.max()
    lp = logp - top
    log_cum = _log_cumsum(lp)
    i = int(log_cum.searchsorted(log_floor - top, "right"))
    if i == 0 and unfloored is not None:
        return unfloored
    nxt = log_cum.searchsorted(log_cum + math.log1p(eps_step), "right").tolist()
    kept = []
    while i < lp.size:
        kept.append(i)
        i = nxt[i]
    if not kept or kept[-1] != lp.size - 1:
        kept.append(lp.size - 1)
    ends = np.asarray(kept)
    runs = _run_log_sums(np.exp(lp), np.concatenate(([0], ends[:-1] + 1)), lambda pos: lp[pos])
    return values[ends], runs + top


# A window's pairs are summed into about one value bin per _BIN_PAIRS pairs;
# only the bins a threshold falls in (and the few the log-space paths need)
# are sorted.
_BIN_PAIRS = 8


def _merge_stream(windows, top: float, eps_step: float, log_floor: float = LOG_ZERO):
    """Rightward merge of a distribution given in windows of unsorted terms,
    at the thresholds c_k = base * (1 + eps_step)^k, k >= 0: for each c_k the
    first atom whose cumulative mass exceeds it is kept (one equal to it is
    not), the last atom is always kept, and the mass of dropped atoms merges
    into the next kept atom to their right, so kept anchors retain their
    exact cumulative mass.  ``base`` is exp(log_floor); with no floor it is
    the first atom's mass times (1 + eps_step), and the first atom is kept,
    which is the rule for a base just below it.  Between two kept atoms
    every atom has F <= c_(k+1) < (1 + eps_step) F of the left one.  Returns
    the kept (values, log masses).

    Each window is ``(v, p, lo, hi, log_terms)``: term values ``v`` with
    lo <= v <= hi and masses ``p`` scaled by exp(-top), in any order, and
    ``log_terms(pos)`` the logs of ``p`` at ``pos`` without underflow.  An
    atom is a distinct value, of mass the sum of its terms.  Every value of
    a window lies left of the next window's values; the first window's
    ``lo`` is its smallest value and the last window's ``hi`` its largest.

    A window's masses are summed into about one bin of equal width per
    ``_BIN_PAIRS`` terms, and the cumulative mass at each bin edge gives the
    number of thresholds passed there (``_crossings``).  Only the terms of
    the bins where that number grows are sorted, to place each kept atom
    exactly: their atoms' cumulatives start from the bin's start and the
    bin's last atom takes the count at its end, so each threshold lands on
    an atom of the bin it was counted in.  A merged run sums whole bins and
    sorted atoms.  Bins that start below ``_LINEAR_FLOOR`` are sorted too,
    and their atoms take cumulatives from the terms' logs; so are bins of
    mass below it, so that a run summing below it can be redone from its
    terms' logs.  The cumulative mass, the threshold count and the pending
    run carry from window to window."""
    thresh = math.log1p(eps_step)
    base = None if log_floor == LOG_ZERO else log_floor - top
    kept_v, kept_lp = [], []
    cum_prev, log_cum_prev, k_prev = 0.0, LOG_ZERO, 0.0
    run_log, pending = LOG_ZERO, False  # the merged run not yet kept
    for v, p, lo, hi, log_terms in windows:
        keep_first = base is None
        if keep_first:
            base = float(np.logaddexp.reduce(log_terms(np.flatnonzero(v == lo)))) + thresh
        # cells of equal width from lo; a value at hi (up to rounding) falls
        # in one more bin of its own
        cells = v.size // _BIN_PAIRS
        n_bins = cells + 1
        width = (hi - lo) / cells if cells else 0.0
        if width > 0.0:
            x = v - lo
            x /= width
            bins = x.astype(np.intp)
            del x
        else:
            bins = np.zeros(v.size, dtype=np.intp)
        mass = np.bincount(bins, weights=p, minlength=n_bins)
        cum = np.empty(n_bins + 1)  # the cumulative mass at each bin edge
        cum[0] = cum_prev
        cum[1:] = mass
        np.cumsum(cum, out=cum)
        head = int(cum.searchsorted(_LINEAR_FLOOR))  # bins that start in the log head
        edge_k = _crossings(np.log(cum[head:]), base, thresh)
        sort = mass < _LINEAR_FLOOR
        sort[:head] = True
        sort[head:] |= edge_k[1:] > edge_k[:-1]
        sel = np.flatnonzero(sort[bins])
        sv = v[sel]
        order = np.argsort(sv)
        sel, sv = sel[order], sv[order]
        new = np.empty(sel.size, dtype=bool)
        new[:1] = True
        np.not_equal(sv[1:], sv[:-1], out=new[1:])
        starts = np.flatnonzero(new)
        atom_v = sv[starts]
        atom_p = np.add.reduceat(p[sel], starts)
        atom_bin = bins[sel[starts]]
        n_atoms = atom_v.size
        new_bin = np.empty(n_atoms, dtype=bool)  # an atom that starts a bin
        new_bin[:1] = True
        np.not_equal(atom_bin[1:], atom_bin[:-1], out=new_bin[1:])
        k = np.empty(n_atoms)
        in_head = int(atom_bin.searchsorted(head))
        if in_head:
            end = starts[in_head] if in_head < n_atoms else sel.size
            log_cum = np.logaddexp.reduceat(log_terms(sel[:end]), starts[:in_head])
            log_cum[0] = np.logaddexp(log_cum_prev, log_cum[0])
            np.logaddexp.accumulate(log_cum, out=log_cum)
            log_cum_prev = log_cum[-1]
            k[:in_head] = _crossings(log_cum, base, thresh)
        if in_head < n_atoms:
            # the cumulative within each bin, from the bin's start
            b, bp = atom_bin[in_head:], atom_p[in_head:]
            cs = np.cumsum(bp)
            before = np.where(new_bin[in_head:], cs - bp, 0.0)
            cs -= np.maximum.accumulate(before, out=before)
            k[in_head:] = _crossings(np.log(cum[b] + cs), base, thresh)
        # the last atom of a bin that ends in the linear range takes the count
        # at the bin's end: its cumulative, summed in another order, may
        # round to the other side of a threshold, which would then land on
        # no atom
        last = np.append(new_bin[1:], True) & (atom_bin >= head - 1)
        k[last] = edge_k[atom_bin[last] + 1 - head]
        kept = np.empty(n_atoms, dtype=bool)
        if n_atoms:
            kept[0] = keep_first or k[0] > k_prev
            np.greater(k[1:], k[:-1], out=kept[1:])
        k_prev = edge_k[-1] if edge_k.size else k[-1]
        cum_prev = cum[-1]
        ends = np.flatnonzero(kept)
        # runs[r] is the mass merged into the r-th kept atom; the last run
        # follows the window's last kept atom
        run_of = np.cumsum(kept) - kept
        runs = np.add.reduceat(np.where(sort, 0.0, mass), np.concatenate(([0], atom_bin[ends])))
        runs += np.bincount(run_of, weights=atom_p, minlength=ends.size + 1)
        low = runs < _LINEAR_FLOOR
        with np.errstate(divide="ignore"):
            np.log(runs, out=runs)
        if low.any():
            # such a run holds sorted atoms only: every unsorted bin weighs more
            term_run = run_of[np.cumsum(new) - 1]
            pos = np.flatnonzero(low[term_run])
            if pos.size:
                r = term_run[pos]
                g = np.flatnonzero(np.concatenate(([True], r[1:] != r[:-1])))
                runs[r[g]] = np.logaddexp.reduceat(log_terms(sel[pos]), g)
        if ends.size:
            runs[0] = np.logaddexp(run_log, runs[0])
            kept_v.append(atom_v[ends])
            kept_lp.append(runs[: ends.size])
            run_log, pending = LOG_ZERO, False
        if not ends.size or ends[-1] < n_atoms - 1 or not sort[atom_bin[ends[-1]] + 1 :].all():
            run_log, pending = np.logaddexp(run_log, runs[-1]), True
        last = hi
        # let the window go before the next one is formed
        del v, p, log_terms, bins, sel, sv, order
    if pending:
        kept_v.append(np.array([last]))
        kept_lp.append(np.array([run_log]))
    return np.concatenate(kept_v), np.concatenate(kept_lp) + top


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
    """The pairs of two ascending supports, one window of values of about
    ``_PAIR_BLOCK`` pairs at a time, as ``_merge_stream`` takes them: the
    window's pair values and masses exp(la[a] + lb[b]), unsorted, bounds on
    its values, and the pair log masses.  Window edges are quantiles of a
    sub-grid of the pairs; each pair falls in one window by its rounded
    value, so equal values never straddle two windows.  Rounding is
    monotone, so the first window's lower bound, values[0] + atom_v[0], is
    its smallest value and the last window's upper bound its largest."""
    m, k = values.size, atom_v.size
    pa, pb = np.exp(la), np.exp(lb)
    windows = -(-m * k // _PAIR_BLOCK)
    edges = []
    if windows > 1:
        sample = np.sort(np.add.outer(atom_v[::_SAMPLE_STRIDE], values[::_SAMPLE_STRIDE]), axis=None)
        edges = sample[np.arange(1, windows) * sample.size // windows]
        # unique by hand: np.unique would import numpy.ma on the first count
        edges = edges[np.concatenate(([True], edges[1:] != edges[:-1]))]
    lower = values[0] + atom_v[0]
    done = np.zeros(k, dtype=np.intp)
    for t in [*edges, None]:
        split = np.full(k, m, dtype=np.intp) if t is None else _row_splits(values, atom_v, t)
        size = split - done
        ends = np.cumsum(size)
        offset = ends - size - done
        done = split
        upper = values[-1] + atom_v[-1] if t is None else t
        total = int(ends[-1])
        if total:
            a = np.arange(total)
            a -= np.repeat(offset, size)
            v = np.repeat(atom_v, size)
            v += values[a]
            p = np.repeat(pb, size)
            p *= pa[a]
            del a

            def log_terms(pos, ends=ends, offset=offset):
                # pair i of the window is (a, b) = (i - offset[b], row of i)
                b = ends.searchsorted(pos, "right")
                return la[pos - offset[b]] + lb[b]

            yield v, p, lower, upper, log_terms
            del v, p
        lower = upper


def _convolve_sparsify(values, logp, atom_v, atom_lp, eps_step: float, log_floor: float = LOG_ZERO):
    """The law of the sum of two independent variables given as ascending
    (values, log masses), merged at the thresholds of ``eps_step`` and
    ``log_floor`` (``_merge_stream``).  Pairs are formed and merged one
    window of values at a time (``_pair_windows``), and sorted only where a
    threshold falls.  Pair masses are formed and summed in linear space,
    scaled by the largest pair mass."""
    top_a, top_b = logp.max(), atom_lp.max()
    windows = _pair_windows(values, logp - top_a, atom_v, atom_lp - top_b)
    return _merge_stream(windows, top_a + top_b, eps_step, log_floor)


def _finalize_cdf(values, logp) -> CompressedCDF:
    cum = _log_cumsum(logp)
    # drop anchors whose mass vanished below float resolution so the
    # cumulative sequence is strictly increasing
    keep = np.concatenate(([True], cum[1:] > cum[:-1]))
    last = np.flatnonzero(keep)[-1]
    if last != cum.size - 1:
        cum[last] = cum[-1]
    return CompressedCDF(values=values[keep], log_cum=cum[keep])


def _log_spread(logp: np.ndarray) -> float:
    """log of total mass over leftmost mass: bounds the log-range of the
    cumulative masses of any sum this factor enters."""
    return float(np.logaddexp.reduce(logp) - logp[0])


def _too_large(what: str, sizes: tuple[float, float]) -> EngineTooLargeError:
    return EngineTooLargeError(
        f"{what} may form up to {sizes[0] * sizes[1]:.3g} pairs ({sizes[0]:.0f} x "
        f"{sizes[1]:.0f} atoms), beyond the size guard; use a coarser grid or larger eps"
    )


def _guarded_factors(pmfs, eps_step: float, tail: int) -> tuple[list, float]:
    """``pmfs`` sparsified at ``eps_step``, each one only once the work
    before it has passed the size guard, and the most pairs one step forms.

    The first ``len(pmfs) - tail`` factors are chained: convolution j pairs
    the running sum with factor j + 1, and factor j + 2 is sparsified only
    once that is admitted.  The threshold merge keeps at most 2 +
    (log-range)/log1p(eps_step) atoms of a running sum, one more with a
    floor below the first atom (the thresholds below its mass all keep it),
    and the log-range of a sum is at most the sum of its factors'
    ``_log_spread``.  The last ``tail`` factors (none or two) are read in
    pairs of atoms, and those lookups are guarded too.  Callers run this
    before ``compressed_tail_cdf``, so a refusal comes before any
    convolution."""
    thresh = math.log1p(eps_step)
    chain = len(pmfs) - tail
    factors = [_sparsify(*pmfs[0], eps_step)]
    atoms = float(factors[0][0].size)
    spread = _log_spread(factors[0][1])
    worst = 0.0
    for j in range(1, chain):
        factors.append(_sparsify(*pmfs[j], eps_step))
        size = factors[j][0].size
        if atoms * size > _PAIR_LIMIT:
            raise _too_large(f"convolution step {j}", (atoms, size))
        worst = max(worst, atoms * size)
        spread += _log_spread(factors[j][1])
        atoms = min(atoms * size, 3.0 + spread / thresh)
    if tail:
        factors += [_sparsify(*pmf, eps_step) for pmf in pmfs[chain:]]
        sizes = tuple(float(v.size) for v, _ in factors[chain:])
        if sizes[0] * sizes[1] > _PAIR_LIMIT:
            raise _too_large("the last two coordinates' lookups", sizes)
        worst = max(worst, sizes[0] * sizes[1])
    return factors, worst


@dataclass(frozen=True)
class _FlooredStep:
    """A per-merge ``step`` with the floor ``log_floor`` = log delta for
    ``compressed_tail_cdf``: every merge of the chain keeps no atom up to
    the cumulative mass delta.  It rides in ``eps_step`` because the
    benchmark's tracer forwards ``(factors, eps_step, collect=)`` and
    nothing else."""

    step: float
    log_floor: float


def compressed_tail_cdf(factors, eps_step, collect: list | None = None) -> CompressedCDF:
    """Convolve ascending (values, log masses) factors left to right,
    merging the running sum after every convolution at the per-merge step
    ``eps_step``; the factors come sparsified at that step and admitted by
    the size guard (``_guarded_factors``).  Every merge lower-bounds the
    CDF it replaces, so each prefix sum's compressed CDF (``collect``
    receives one per prefix sum) lower-bounds its exact CDF; by how much is
    for the caller's proof to say, as 2j - 1 merges lie behind the j-th.
    ``eps_step`` may be a ``_FlooredStep``: then every merge keeps no atom
    up to the floor delta (the thresholds start at it)."""
    step, floor = eps_step, LOG_ZERO
    if isinstance(eps_step, _FlooredStep):
        step, floor = eps_step.step, eps_step.log_floor
    values, logp = factors[0]
    for atom_v, atom_lp in factors[1:]:
        if collect is not None:
            collect.append(_finalize_cdf(values, logp))
        values, logp = _convolve_sparsify(values, logp, atom_v, atom_lp, step, floor)
    out = _finalize_cdf(values, logp)
    if collect is not None:
        collect.append(out)
    return out


def _grid_log_mass(cdf: CompressedCDF, row: np.ndarray, log_cell: np.ndarray, theta: float) -> float:
    """log of sum_kappa cell(kappa) F'(theta - row[kappa]), F' = ``cdf``:
    the mass at theta of F''s sum plus a grid coordinate of values ``row``
    and log cell masses ``log_cell``, summed in log space over the terms
    ``PrefixCDFTable.log_weights`` draws that coordinate by."""
    return log_sum(log_cell + cdf.log_query(theta - row))


def _tail_log_mass(cdf: CompressedCDF, tail, theta: float) -> float:
    """log of sum_(b, c) e^(lb + lc) F'(theta - (vb + vc)), F' = ``cdf``:
    the mass at theta of the chain's sum plus a count's last two
    coordinates at n >= 4, ``tail`` = (vb, lb, vc, lc), their sparsified
    atoms' values and log masses.  It takes one ``searchsorted`` per block
    of about ``_PAIR_BLOCK`` lookups, whole rows of b, with c descending so
    that a row's thresholds ascend, and sums in linear space, scaled by the
    largest mass of each list and of F'; a sum below ``_LINEAR_FLOOR`` is
    redone in log space, as a term lost to underflow weighs less than
    2^-1074 of the scale."""
    vb, lb, vc, lc = tail
    vc, lc = vc[::-1], lc[::-1]
    rows = max(1, _PAIR_BLOCK // vc.size)
    blocks = range(0, vb.size, rows)

    def lookups(r):
        return cdf.values.searchsorted(theta - (vb[r : r + rows, None] + vc), "right")

    tops = (lb.max(), lc.max(), cdf.log_cum[-1])
    f = np.concatenate(([0.0], np.exp(cdf.log_cum - tops[2])))
    pb, pc = np.exp(lb - tops[0]), np.exp(lc - tops[1])
    total = sum(float(pb[r : r + rows] @ (f[lookups(r)] @ pc)) for r in blocks)
    if total >= _LINEAR_FLOOR:
        return math.log(total) + sum(tops)
    log_f = cdf._padded_log_cum
    return log_sum([log_sum(lb[r : r + rows, None] + lc + log_f[lookups(r)]) for r in blocks])


def _coarse_log_mass(factors, row: np.ndarray, log_cell: np.ndarray, theta: float) -> float:
    """log of a lower bound on the grid mass at theta: ``factors`` (the
    first n - 1 coordinates) sparsified and chained at step 1, then summed
    over the last coordinate's cells (``_grid_log_mass``); every merge
    lower-bounds the CDF it replaces."""
    coarse, _ = _guarded_factors(factors, 1.0, 0)
    return _grid_log_mass(compressed_tail_cdf(coarse, 1.0), row, log_cell, theta)


_POINT_MASS_AT_ZERO = CompressedCDF(values=np.zeros(1), log_cum=np.zeros(1))  # P_0, the empty sum


def _midpoint_mass(log_mass: float, beta: float) -> float:
    """exp(``log_mass``) at the geometric midpoint of [1, ``beta``], capped
    at 1; 0 when nothing lies below theta."""
    return min(math.exp(log_mass + 0.5 * math.log(beta)), 1.0)


def _scaled_cumsum(lw: np.ndarray) -> np.ndarray:
    """Cumulative weights from log weights ``lw``, scaled by the largest;
    ``lw`` is overwritten.  Raises FloorError when no grid value has weight.
    The sum goes to a new array: numpy copies an accumulation whose output
    is its input, which costs more than the allocation."""
    top = lw.max()
    if top == LOG_ZERO:
        raise FloorError("no grid point lies in the acceptance region")
    lw -= top
    np.exp(lw, out=lw)
    return lw.cumsum()


def _grid_axis(spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """The grid values of one coordinate and their log cell masses, once the
    grid has passed the per-coordinate size guard."""
    if spec.points_per_coord > _POINTS_LIMIT:
        raise EngineTooLargeError(
            f"grid has {2.0 * spec.half_index + 1.0:.3g} points per coordinate, beyond "
            f"the size guard of {_POINTS_LIMIT:.3g}; use a coarser tau or a smaller B"
        )
    return spec.value(np.arange(spec.points_per_coord)), _log_cell_masses(spec.tau, spec.B)


def _coordinate_images(lam: np.ndarray, mu: np.ndarray, kappa: np.ndarray) -> np.ndarray:
    """Row j holds coordinate j's image lam_j kappa^2 + mu_j kappa at every
    grid value ``kappa``."""
    return lam[:, None] * kappa * kappa + mu[:, None] * kappa


@dataclass(frozen=True)
class PrefixCDFTable:
    """Prefix CDFs of the decoupled sum on one grid, which the sampler
    draws from.

    ``cdfs[i]`` is P_i, the CDF of Y_1 + ... + Y_i, for i = 0, ..., n - 1
    (P_0 is the point mass at 0); ``support[i]`` holds coordinate i+1's
    value lam kappa^2 + mu kappa at every grid value ``kappa``, and
    ``log_cell`` the log mass of each grid value.  Given the threshold t left
    for coordinates 1..i+1, coordinate i+1 weighs kappa by cell(kappa) *
    P_i(t - support[i][kappa]) (``log_weights(i, t)``).  Two of these laws do
    not depend on the draw: coordinate n's, at theta
    (``last_coordinate_cum``), and coordinate 1's for every t at once, as the
    cell masses in support order (``first_coordinate_cdf``).  The draw plan
    (``draw_plan``), built on the first draw, holds both, the support rows
    and ``kappa`` as sequences of Python numbers, which a draw reads by
    scalar arithmetic and ``bisect_right``.  A draw rebuilds the weights of
    coordinates n-1, ..., 2 only, one ``cumulative_weights`` call each.  The table's ``mass()``
    sums coordinate n's weights at theta, P_{n-1} over its cells as
    ``_grid_log_mass`` sums a count's, and reads the sum at the midpoint of
    ``beta``; ``last_coordinate_cum`` accumulates the same log weights.

    Accuracy.  The table takes the merge step e with ``beta`` =
    (1 + e)^(2n - 3) = 1/(1 - eps), and no floor; at n <= 2 nothing is
    compressed and ``beta`` is 1.  P_1 is exact; for j >= 2, P_j comes out
    of ``compressed_tail_cdf`` after 2j - 1 merges of step e, so P_j <= F_j
    <= (1 + e)^(2j - 1) P_j, where F_j is the exact CDF (see ``count``).
    Write t_n = theta and t_{j-1} = t_j - s_j(kappa_j), with s_j =
    ``support[j-1]``.  Coordinate j weighs kappa_j by cell(kappa_j)
    P_{j-1}(t_{j-1}) over Z_j(t_j), the sum of its weights, which is the
    exact convolution of P_{j-1} with Y_j's law.  Pair coordinate j's
    numerator P_{j-1}(t_{j-1}) with coordinate (j - 1)'s denominator
    Z_{j-1}(t_{j-1}): as P_0(t_0) = 1[accept] and Z_1 = P_1, a point's
    probability is prod cell * 1[accept] * prod_{i=2..n-1} (P_i/Z_i)(t_i) /
    Z_n(theta).  P_i/Z_i lies in [(1 + e)^-3, 1] for i = 2, as the chain
    also sparsifies coordinate 1's factor, and in [(1 + e)^-2, 1] for
    i >= 3, so the product lies in [1/beta, 1]; the exact law divides by
    F(theta), and F(theta)/Z_n(theta) lies in [1, beta].  So every grid
    point's ratio to the exact conditional law lies in [1/beta, beta] =
    [1 - eps, 1/(1 - eps)], and the total variation distance is at most eps.
    """

    cdfs: tuple[CompressedCDF, ...]
    support: np.ndarray
    log_cell: np.ndarray
    kappa: np.ndarray
    theta: float
    beta: float

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
        n = dc.n
        step = math.expm1(-math.log1p(-eps) / max(2 * n - 3, 1))
        kappa, log_cell = _grid_axis(spec)
        support = _coordinate_images(dc.lam, dc.mu, kappa)
        pmfs = [support_and_log_pmf(row, log_cell) for row in support[:-1]]
        cdfs = [_POINT_MASS_AT_ZERO]
        if pmfs:
            cdfs.append(_finalize_cdf(*pmfs[0]))
        if len(pmfs) >= 2:
            factors, _ = _guarded_factors(pmfs, step, 0)
            steps: list[CompressedCDF] = []
            compressed_tail_cdf(factors, step, collect=steps)
            cdfs.extend(steps[1:])
        return cls(
            cdfs=tuple(cdfs),
            support=support,
            log_cell=log_cell,
            kappa=kappa,
            theta=float(dc.theta),
            beta=(1.0 + step) ** (2 * n - 3) if n >= 3 else 1.0,
        )

    @property
    def n(self) -> int:
        return len(self.support)

    def log_weights(self, j: int, t: float) -> np.ndarray:
        """Log weight of every grid value of coordinate j+1 given the
        threshold ``t`` left for coordinates 1..j+1, as a new array of shape
        (m,)."""
        out = self.cdfs[j].log_query(t - self.support[j])
        out += self.log_cell
        return out

    @cached_property
    def _last_log_weights(self) -> np.ndarray:
        """``log_weights`` of coordinate n at theta, which both ``mass()``
        and ``last_coordinate_cum`` read."""
        out = self.log_weights(self.n - 1, self.theta)
        out.setflags(write=False)
        return out

    def mass(self) -> float:
        """P_{n-1} summed over coordinate n's cells at theta, read at the
        geometric midpoint of ``beta`` and capped at 1: within (1 -
        eps)^(+-1/2) of the exact grid mass."""
        return _midpoint_mass(log_sum(self._last_log_weights), self.beta)

    def cumulative_weights(self, j: int, t: float) -> np.ndarray:
        """Cumulative weights of coordinate j+1's grid values given the
        threshold ``t``, scaled by the largest: the inverse CDF a draw reads
        that coordinate from.  Raises FloorError when no grid value has
        weight."""
        return _scaled_cumsum(self.log_weights(j, t))

    @property
    def last_coordinate_cum(self) -> np.ndarray:
        """``cumulative_weights`` of coordinate n, the first one a draw
        takes.  Its threshold is always theta, so the draw plan keeps it; it
        accumulates the log weights ``mass()`` summed.  Raises FloorError
        when the region holds no grid point."""
        return _scaled_cumsum(self._last_log_weights.copy())

    @property
    def first_coordinate_cdf(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Coordinate 1's inverse CDF for every threshold at once: its grid
        indices in stable order of ``support[0]``, that sorted support, and
        the log cumulative cell masses in that order.  As P_0 is the point
        mass at 0, coordinate 1 weighs kappa by cell(kappa) exactly when
        support[0][kappa] <= t (a float difference has the sign of the exact
        one), so its law given t is the cell masses over a prefix of this
        order, and the draw plan keeps it (n >= 2)."""
        order = np.argsort(self.support[0], kind="stable")
        return order, self.support[0][order], _log_cumsum(self.log_cell[order])

    @cached_property
    def draw_plan(self) -> tuple:
        """What a draw reads besides the middle coordinates' weights, as
        Python sequences, built on the first draw: ``last_coordinate_cum``
        and its total; ``first_coordinate_cdf`` (None at n = 1); the support
        rows of coordinates 2..n, and ``kappa``.  A draw takes coordinates n
        and 1 by ``bisect_right`` on these, which makes the comparisons
        ``searchsorted(side="right")`` makes on the same doubles, and reads
        single values as Python numbers.  Each sequence is an ``array.array``
        copy of its numpy array, built by one memory copy where a list would
        create a float object per grid value.  An empty region raises
        FloorError here on every draw, since a raise caches nothing."""
        cum = self.last_coordinate_cum
        first = tuple(map(_py_array, self.first_coordinate_cdf)) if self.n > 1 else None
        rows = [_py_array(row) for row in self.support[1:]]
        return _py_array(cum), float(cum[-1]), first, rows, _py_array(self.kappa)


def _py_array(a: np.ndarray) -> array:
    """A 1-d float64 or integer array as an ``array.array`` of the same
    values, whose items read as Python floats or ints."""
    if a.dtype == np.float64:
        return array("d", a.tobytes())
    return array("q", a.astype(np.int64).tobytes())


# the share s < 1 of the lower end's slack that a count's floor spends (see
# ``count``); the rest keeps the certificate clear of rounding
_FLOOR_SHARE = 0.9


def _count_step(n: int, eps: float) -> tuple[float, float]:
    """``count``'s merge step e = eps/(2n - 3) at n >= 3 live coordinates,
    and the log of its floor fraction s (1 - sqrt(beta)/(1 + eps))/(beta
    (2n - 3)), with beta = (1 + e)^(2n - 3) and s = ``_FLOOR_SHARE``."""
    merges = 2 * n - 3
    step = eps / merges
    half_log_beta = 0.5 * merges * math.log1p(step)
    slack = -math.expm1(half_log_beta - math.log1p(eps))  # 1 - sqrt(beta)/(1 + eps)
    return step, math.log(_FLOOR_SHARE * slack) - 2.0 * half_log_beta - math.log(merges)


def count(
    dc: DecoupledConstraint, spec: GridSpec, eps: float = DEFAULT_EPS
) -> float:
    """Deterministic estimate of Pr[sum_i Y_i <= theta] on the grid with a
    certified multiplicative error factor of at most (1 + eps).

    Every coordinate is floored onto the one-coordinate grid ``spec``.  The
    null coordinates (lam = mu = 0) are dropped: each adds 0 on every grid
    cell, and its cells sum to 1.  ``lam`` and ``mu`` are masked to the
    live coordinates, n below; a form with none live is counted as it is,
    exactly, since its sum is 0.  At n <= 2
    nothing is compressed: P_1 is exact, and the mass sums it over
    coordinate 2's cells (``_grid_log_mass``).  At n >= 3 the factors are
    sparsified and guarded (``_guarded_factors``), floored, and chained by
    ``compressed_tail_cdf``; the mass M sums the chain's last CDF over
    coordinate n's cells at n = 3, and over the last two coordinates'
    factors at n >= 4 (``_tail_log_mass``), and is read at the midpoint
    sqrt(beta) M, with beta from the proof below.

    Accuracy.  Take the merge step e = eps/(2n - 3) and beta = (1 + e)^
    (2n - 3) <= exp(eps).  A rightward merge at step e, of a factor before
    it is convolved (greedy) or of the running sum after (at the fixed
    thresholds c_k = base (1 + e)^k), keeps anchors with their exact
    cumulative mass, and every atom between two kept ones has F < (1 + e)
    times the left one's: for the thresholds, an atom between the first
    atoms past c_k and c_(k+1) has F <= c_(k+1) = (1 + e) c_k.  So the merge
    leaves a pointwise lower bound within a (1 + e) factor of the CDF it
    replaces, and convolving with an independent variable keeps both
    properties.  2n - 3 merges lie behind M: 2(n - 1) - 1 in the chain at
    n = 3, 2(n - 2) - 1 in the chain and one per tail factor at n >= 4; the
    grid sum merges nothing.  So without a floor M <= F <= beta M, where F is
    the exact grid mass at theta.

    The floor.  A coarse pass (``_coarse_log_mass``) chains the first n - 1
    sparsified factors at step 1, sums the result over coordinate n's grid
    cells and reads its mass L at theta; L <= F, since every merge
    lower-bounds.  Each merge then keeps no atom up to delta = s L (1 -
    sqrt(beta)/(1 + eps))/(beta (2n - 3)), with s = ``_FLOOR_SHARE`` < 1
    (``_count_step``): the greedy walk starts at the first atom past it, and
    the thresholds start at it.  The mass whose cumulative total is at most
    delta merges into the first kept atom, which keeps its exact cumulative
    mass.  Such a merge leaves F' <= F <= (1 + e) F' + delta, as left of the
    first kept atom F <= delta, and convolving with a probability law keeps
    this without growing delta.  Over the 2n - 3 merges, M <= F <= beta (M +
    (2n - 3) delta) <= beta M + r F, with r = s (1 - sqrt(beta)/(1 + eps)),
    as L <= F.  So F <= beta M/(1 - r), and the midpoint sqrt(beta) M
    satisfies (1 - r)/sqrt(beta) <= sqrt(beta) M/F <= sqrt(beta).  Both ends
    lie within [1/(1 + eps), 1 + eps] for every eps = x in (0, 1].  The
    upper end: sqrt(beta) <= exp(x/2) <= 1 + x, as exp(x/2) - 1 - x is
    convex and not positive at x = 0 and x = 1.  The lower end, (1 - r)/
    sqrt(beta) >= 1/(1 + eps), is (1 - s)(1 - sqrt(beta)/(1 + eps)) >= 0,
    which holds as sqrt(beta) <= 1 + eps.  When every convolution and the
    tail's lookups fit one pair window, the floor would save no work, so
    neither the coarse pass nor the floor runs, and delta = 0."""
    if not (0.0 < eps <= 1.0):
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    live = (dc.lam != 0.0) | (dc.mu != 0.0)
    if not live.any():
        live[:] = True
    n, theta = int(np.count_nonzero(live)), dc.theta
    kappa, log_cell = _grid_axis(spec)
    rows = _coordinate_images(dc.lam[live], dc.mu[live], kappa)
    row = rows[-1]
    pmfs = [support_and_log_pmf(r, log_cell) for r in rows[: n if n >= 4 else n - 1]]
    if n <= 2:
        cdf = _finalize_cdf(*pmfs[0]) if pmfs else _POINT_MASS_AT_ZERO
        return _midpoint_mass(_grid_log_mass(cdf, row, log_cell, theta), 1.0)
    step, log_floor_frac = _count_step(n, eps)
    factors, worst = _guarded_factors(pmfs, step, 2 if n >= 4 else 0)
    floor = LOG_ZERO
    if worst > _PAIR_BLOCK:
        floor = log_floor_frac + _coarse_log_mass(factors[: n - 1], row, log_cell, theta)
        if floor > LOG_ZERO:
            factors = [_sparsify(v, lp, step, floor, f) for (v, lp), f in zip(pmfs, factors)]
    cdf = compressed_tail_cdf(factors if n == 3 else factors[:-2], _FlooredStep(step, floor))
    if n == 3:
        log_mass = _grid_log_mass(cdf, row, log_cell, theta)
    else:
        log_mass = _tail_log_mass(cdf, (*factors[-2], *factors[-1]), theta)
    return _midpoint_mass(log_mass, (1.0 + step) ** (2 * n - 3))


@dataclass(frozen=True)
class CountResult:
    """A count and the accuracy that certifies it.

    ``estimate`` lies within (1 +- eps) of the grid mass of the truncated
    instance: the normalized constraint with its linear coordinates folded
    into one (``_fold_linear``), each coordinate floored onto the grid of
    step tau and radius B, whose end cells absorb the tails.  The certified
    instance is the folded one: the fold keeps the Gaussian mass, not the
    grid mass.  The gap from that grid mass to the Gaussian mass of the
    original instance is not bounded here.
    ``below_floor`` flags an estimate below ``floor`` = 2^(-4n); it is
    reported, not suppressed.  The count reads only the live coordinates
    (see ``count``), but B and the floor come from the full dimension n.
    """

    estimate: float
    eps: float
    floor: float

    @property
    def below_floor(self) -> bool:
        return self.estimate < self.floor

    def to_dict(self) -> dict:
        return {"estimate": self.estimate, "eps": self.eps, "below_floor": self.below_floor}


def _checked_grid(
    q: QuadraticForm | DecoupledConstraint, eps: float, tau: float, trunc_B: float | None
) -> tuple[GridSpec, float]:
    """Check ``eps`` and build the grid (radius ``trunc_B``, default
    ``default_trunc_radius``) and the floor 2^(-4n) that counting and
    sampling share.  It runs before any decoupling work, so a bad setting
    raises ValueError at once."""
    if not (0.0 < eps <= 1.0):
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    b_radius = float(trunc_B) if trunc_B is not None else default_trunc_radius(q.n, eps)
    return GridSpec(tau=tau, B=b_radius), 2.0 ** (-4 * q.n)


def _prepare(q: QuadraticForm | DecoupledConstraint):
    """``(normalized, mass)`` for ``q``: decoupled unless it already is,
    then normalized; ``normalized`` keeps the rotation.  A constant form
    has ``normalized`` None and its exact ``mass``, 0 or 1; any other
    ``mass`` None.  A constant ``QuadraticForm`` (A = 0, b = 0) is answered
    from the sign of c without decoupling."""
    if isinstance(q, QuadraticForm):
        if q.is_constant:
            return None, 1.0 if q.c >= 0.0 else 0.0
        q = decouple(q)
    try:
        return normalize(q), None
    except ConstantPolynomialError as err:
        return None, err.mass


def _fold_linear(dc: DecoupledConstraint) -> DecoupledConstraint:
    """``dc`` with its linear coordinates (lam = 0, mu != 0), when there are
    two or more, folded into the first of them: it takes mu = hypot of
    their mu, and the others mu = 0, which ``count`` then drops.  The sum
    sum_i mu_i y_i over them is |mu| times a standard normal coordinate, so
    the region's Gaussian mass is unchanged.  The rotation takes the
    Householder reflection of w = u + sign(u_1) e_1, u their mu's direction,
    with the first column's sign set so that x = rotation @ y still holds."""
    lin = np.flatnonzero((dc.lam == 0.0) & (dc.mu != 0.0))
    if lin.size < 2:
        return dc
    mu = dc.mu.copy()
    mu[lin] = 0.0
    mu[lin[0]] = math.hypot(*dc.mu[lin])
    w = dc.mu[lin] / mu[lin[0]]
    sign = math.copysign(1.0, w[0])
    w[0] += sign
    rotation = dc.rotation.copy()
    rotation[:, lin] -= np.outer(rotation[:, lin] @ w, w) * (2.0 / (w @ w))
    rotation[:, lin[0]] *= -sign
    return replace(dc, mu=mu, rotation=rotation)


def count_ptf_gaussian(
    q: QuadraticForm | DecoupledConstraint,
    eps: float = DEFAULT_EPS,
    *,
    tau: float = DEFAULT_TAU,
    trunc_B: float | None = None,
) -> CountResult:
    """Estimate Pr_{G ~ N(0,I)}[sign(q(G)) = +1].

    Pipeline: decouple -> normalize -> fold the linear coordinates into one
    (``_fold_linear``) -> count on the grid of step ``tau`` and radius
    ``trunc_B`` (default ``default_trunc_radius``).  A halfspace or a
    rank-deficient form is so counted in the coordinates it uses.  The
    estimate is within (1 +- eps) of the grid mass of that truncated
    instance; the gap to the Gaussian mass of ``q`` is not bounded (see
    ``CountResult``).  Constant polynomials are answered exactly, a
    constant ``QuadraticForm`` without decoupling.  Estimates below
    2^(-4n) are flagged, not suppressed.  A bad setting raises ValueError
    before any work.
    """
    spec, floor = _checked_grid(q, eps, tau, trunc_B)
    normalized, estimate = _prepare(q)
    if normalized is not None:
        estimate = count(_fold_linear(normalized), spec, eps)
    return CountResult(estimate=estimate, eps=eps, floor=floor)


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
    >= 1, for every form, and ``q`` a ``QuadraticForm`` (a decoupled
    constraint has no sign to test); otherwise ValueError before any draw.
    """
    if not isinstance(q, QuadraticForm):
        raise ValueError(
            f"mc_count needs a quadratic form (A, b, c), not {type(q).__name__}"
        )
    n_samples = _checked_int("n_samples", n_samples, 1)
    if q.is_constant:
        return (1.0 if q.c >= 0.0 else 0.0), 0.0
    hits = 0
    for g in normal_blocks(rng, q.n, 1 << 16, total=n_samples):
        hits += int(np.count_nonzero(np.asarray(sign_at(q, g)) == 1))
    p = hits / n_samples
    return p, _wilson_half_width(p, n_samples)
