"""The discretized standard Gaussian on a capped uniform grid.

Each coordinate of a standard normal G is floored onto the grid
{-B, -B+tau, ..., B-tau, B}: a grid point kappa owns the cell
[kappa, kappa+tau), except that the extreme points absorb the tails
(kappa = B owns [B, inf) and kappa = -B owns (-inf, -B+tau)), so the
coordinate masses sum to exactly 1.  Restricting a coordinate to a
consecutive run of grid points renormalizes over that run.

``support_and_pmf`` pushes a coordinate through xi -> a*xi^2 + b*xi and
returns the exact pmf of the image; when a and b are integral multiples of a
power-of-two step gamma (and tau is a power of two), every support value is
an exactly representable multiple of gamma*tau^2, so equal values collide
exactly and the support merge is unambiguous.  ``oracle_quadratic`` answers
interval queries against that image distribution in closed form, via at most
four CDF evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .numerics import LOG_ZERO, interval_mass, log_interval_mass

__all__ = [
    "GridSpec",
    "CoordinateBox",
    "ZeroMassRestrictionError",
    "round_to_grid",
    "coordinate_mass",
    "support_and_pmf",
    "support_and_log_pmf",
    "oracle_quadratic",
    "range_log_mass",
    "range_mass",
]


class ZeroMassRestrictionError(ValueError):
    """A coordinate restriction carries no probability mass."""


@dataclass(frozen=True)
class GridSpec:
    """Grid step ``tau``, truncation radius ``B``, and dimension ``n``.

    B/tau must be integral; each coordinate then has 2B/tau + 1 grid points.
    """

    tau: float
    B: float
    n: int

    def __post_init__(self) -> None:
        tau = float(self.tau)
        B = float(self.B)
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "n", int(self.n))
        if not (0.0 < tau <= 1.0):
            raise ValueError(f"tau must lie in (0, 1], got {tau}")
        e = math.log2(tau)
        if e != math.floor(e):
            raise ValueError(f"tau must be an exact power of 2, got {tau}")
        if B < 1.0:
            raise ValueError(f"truncation radius B must be >= 1, got {B}")
        if self.n < 1:
            raise ValueError("dimension must be >= 1")
        ratio = B / tau
        if ratio != math.floor(ratio):
            raise ValueError(f"B/tau must be integral, got {ratio}")

    @property
    def half_index(self) -> int:
        return int(round(self.B / self.tau))

    @property
    def points_per_coord(self) -> int:
        return 2 * self.half_index + 1

    @property
    def total_points(self) -> float:
        return float(self.points_per_coord) ** self.n

    def value(self, index):
        """Grid value at index (0 maps to -B); exact for power-of-two tau."""
        return (np.asarray(index) - self.half_index) * self.tau

    def index_of(self, kappa) -> np.ndarray:
        idx = np.rint(np.asarray(kappa, dtype=float) / self.tau).astype(int)
        idx = idx + self.half_index
        val = self.value(idx)
        if not np.all(val == np.asarray(kappa, dtype=float)):
            raise ValueError("value is not on the grid")
        if np.any(idx < 0) or np.any(idx >= self.points_per_coord):
            raise ValueError("value lies outside the grid range")
        return idx

    def cell_bounds(self, index: int) -> tuple[float, float]:
        """Continuous interval owned by the grid point at ``index``."""
        m = self.points_per_coord
        if not 0 <= index < m:
            raise ValueError(f"index {index} out of range [0, {m})")
        v = float(self.value(index))
        left = -math.inf if index == 0 else v
        right = math.inf if index == m - 1 else v + self.tau
        return left, right


def round_to_grid(x, spec: GridSpec):
    """Floor x onto the grid and cap at +-B; scalar or array."""
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("round_to_grid requires finite input")
    idx = np.floor(arr / spec.tau)
    h = spec.half_index
    idx = np.clip(idx, -h, h)
    out = idx * spec.tau
    return float(out) if out.ndim == 0 else out


@lru_cache(maxsize=64)
def _log_cell_masses(tau: float, B: float) -> np.ndarray:
    spec = GridSpec(tau=tau, B=B, n=1)
    m = spec.points_per_coord
    out = np.empty(m)
    for i in range(m):
        left, right = spec.cell_bounds(i)
        out[i] = log_interval_mass(left, right)
    out.setflags(write=False)
    return out


def _range_bounds(spec: GridSpec, i_lo: int, i_hi: int) -> tuple[float, float]:
    left, _ = spec.cell_bounds(i_lo)
    _, right = spec.cell_bounds(i_hi)
    return left, right


def range_log_mass(spec: GridSpec, i_lo: int, i_hi: int) -> float:
    """log Pr[G lands in cells i_lo..i_hi] (closed form, two CDF calls)."""
    if i_lo > i_hi:
        return LOG_ZERO
    return log_interval_mass(*_range_bounds(spec, i_lo, i_hi))


def range_mass(spec: GridSpec, i_lo: int, i_hi: int) -> float:
    if i_lo > i_hi:
        return 0.0
    return interval_mass(*_range_bounds(spec, i_lo, i_hi))


@dataclass(frozen=True)
class CoordinateBox:
    """Per-coordinate closed runs of grid points: coordinate j is restricted
    to the grid values in [lo_j, hi_j]."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self) -> None:
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float)).copy()
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float)).copy()
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if lo.shape != hi.shape:
            raise ValueError("lo and hi must have the same shape")
        if np.any(lo > hi):
            raise ValueError("box requires lo <= hi componentwise")

    @classmethod
    def full(cls, spec: GridSpec) -> "CoordinateBox":
        b = spec.B
        return cls(lo=np.full(spec.n, -b), hi=np.full(spec.n, b))

    def index_ranges(self, spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
        """(i_lo, i_hi) integer arrays; validates that endpoints are on-grid."""
        return spec.index_of(self.lo), spec.index_of(self.hi)

    def size(self, spec: GridSpec) -> int:
        i_lo, i_hi = self.index_ranges(spec)
        return int(np.prod(i_hi - i_lo + 1))


def _restriction_indices(spec: GridSpec, restriction) -> tuple[int, int]:
    if restriction is None:
        return 0, spec.points_per_coord - 1
    i_lo, i_hi = restriction
    i_lo, i_hi = int(i_lo), int(i_hi)
    m = spec.points_per_coord
    if not (0 <= i_lo <= i_hi < m):
        raise ValueError(f"restriction [{i_lo}, {i_hi}] outside grid of {m} points")
    return i_lo, i_hi


def coordinate_mass(kappa: float, spec: GridSpec, restriction=None) -> float:
    """Probability of the grid point kappa, renormalized over ``restriction``.

    ``restriction`` is an inclusive pair of grid indices, or None for the
    whole grid.
    """
    idx = int(spec.index_of(kappa))
    i_lo, i_hi = _restriction_indices(spec, restriction)
    if not i_lo <= idx <= i_hi:
        raise ValueError("kappa lies outside the restriction")
    lm = _log_cell_masses(spec.tau, spec.B)[idx]
    if restriction is None:
        return math.exp(lm)
    total = range_log_mass(spec, i_lo, i_hi)
    if total == LOG_ZERO:
        raise ZeroMassRestrictionError("restriction has zero mass")
    return math.exp(lm - total)


def support_and_log_pmf(
    a: float, b: float, spec: GridSpec, restriction=None
) -> tuple[np.ndarray, np.ndarray]:
    """pmf of Y = a*[G]^2 + b*[G] on the (restricted) grid, in log domain.

    Returns (values ascending, log probabilities); exact value collisions are
    merged.  The restriction renormalizes so the masses sum to 1.
    """
    i_lo, i_hi = _restriction_indices(spec, restriction)
    idx = np.arange(i_lo, i_hi + 1)
    kappa = spec.value(idx)
    values = a * kappa * kappa + b * kappa
    logp = _log_cell_masses(spec.tau, spec.B)[idx].copy()
    total = range_log_mass(spec, i_lo, i_hi)
    if total == LOG_ZERO:
        raise ZeroMassRestrictionError("restriction has zero mass")
    logp -= total
    order = np.argsort(values, kind="stable")
    values = values[order]
    logp = logp[order]
    # merge exact collisions (the support is a lattice, equality is exact)
    starts = np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))
    merged = np.logaddexp.reduceat(logp, starts)
    return values[starts], merged


def support_and_pmf(
    a: float, b: float, spec: GridSpec, restriction=None
) -> tuple[np.ndarray, np.ndarray]:
    """Linear-probability variant of :func:`support_and_log_pmf`."""
    values, logp = support_and_log_pmf(a, b, spec, restriction)
    return values, np.exp(logp)


def _candidate_intervals(a: float, b: float, nu1: float, nu2: float):
    # Real xi with nu1 <= a xi^2 + b xi <= nu2, as a union of closed
    # intervals (possibly unbounded); at most two after intersection.
    inf = math.inf

    def roots(c: float):
        # a xi^2 + b xi = c
        disc = b * b + 4.0 * a * c
        if disc < 0.0:
            return None
        s = math.sqrt(disc)
        r1 = (-b - s) / (2.0 * a)
        r2 = (-b + s) / (2.0 * a)
        return (min(r1, r2), max(r1, r2))

    if a == 0.0:
        if b == 0.0:
            return [(-inf, inf)] if nu1 <= 0.0 <= nu2 else []
        lo, hi = nu1 / b, nu2 / b
        if b < 0.0:
            lo, hi = hi, lo
        return [(lo, hi)]

    if a > 0.0:
        upper = roots(nu2)  # a xi^2 + b xi <= nu2 is the segment between roots
        if upper is None:
            return []
        lo2, hi2 = upper
        lower = roots(nu1) if nu1 != -inf else None
        if nu1 == -inf or lower is None:
            return [(lo2, hi2)]
        lo1, hi1 = lower  # >= nu1 holds outside (lo1, hi1)
        pieces = [(lo2, lo1), (hi1, hi2)]
    else:
        lower = roots(nu1)  # a xi^2 + b xi >= nu1 is the segment between roots
        if nu1 == -inf:
            lower = (-inf, inf)
        if lower is None:
            return []
        lo1, hi1 = lower
        if nu2 == inf:
            return [(lo1, hi1)]
        upper = roots(nu2)  # <= nu2 holds outside (lo2, hi2)
        if upper is None:
            return [(lo1, hi1)]
        lo2, hi2 = upper
        pieces = [(lo1, lo2), (hi2, hi1)]
    return [(lo, hi) for lo, hi in pieces if lo <= hi]


def oracle_quadratic(
    a: float,
    b: float,
    nu1: float,
    nu2: float,
    spec: GridSpec,
    restriction=None,
) -> float:
    """Pr[nu1 <= a*[G]^2 + b*[G] <= nu2] under the (restricted) coordinate.

    The quadratic preimage is one or two closed intervals of xi; each is
    intersected with the grid and summed in closed form, so the whole query
    costs at most four CDF evaluations plus the restriction normalizer.
    """
    if math.isnan(nu1) or math.isnan(nu2):
        raise ValueError("query endpoints must not be NaN")
    if nu1 > nu2:
        raise ValueError(f"query endpoints out of order: {nu1} > {nu2}")
    if abs(a) > 1.0 or abs(b) > 1.0:
        raise ValueError("coefficients must satisfy |a|, |b| <= 1")
    r_lo, r_hi = _restriction_indices(spec, restriction)
    total = range_log_mass(spec, r_lo, r_hi)
    if total == LOG_ZERO:
        raise ZeroMassRestrictionError("restriction has zero mass")

    kap = spec.value(np.arange(r_lo, r_hi + 1))
    img = a * kap * kap + b * kap

    def inside(i: int) -> bool:
        v = float(img[i - r_lo])
        return nu1 <= v <= nu2

    mass = 0.0
    used: list[tuple[int, int]] = []
    for lo, hi in _candidate_intervals(a, b, nu1, nu2):
        if lo == -math.inf:
            i0 = r_lo
        else:
            i0 = min(max(r_lo, int(math.ceil(lo / spec.tau)) + spec.half_index), r_hi + 1)
        if hi == math.inf:
            i1 = r_hi
        else:
            i1 = max(min(r_hi, int(math.floor(hi / spec.tau)) + spec.half_index), r_lo - 1)
        # Root arithmetic is inexact; settle boundaries with the exact
        # per-atom predicate.
        while i0 - 1 >= r_lo and inside(i0 - 1):
            i0 -= 1
        while i0 <= i1 and not inside(i0):
            i0 += 1
        while i1 + 1 <= r_hi and inside(i1 + 1):
            i1 += 1
        while i1 >= i0 and not inside(i1):
            i1 -= 1
        if i0 > i1:
            continue
        for p0, p1 in used:  # guard against double counting on overlap
            if i0 <= p1 and p0 <= i1:
                i0 = max(i0, p1 + 1)
        if i0 > i1:
            continue
        used.append((i0, i1))
        mass += math.exp(range_log_mass(spec, i0, i1) - total)
    return min(mass, 1.0)


def joint_log_mass(spec: GridSpec, box: CoordinateBox, kappa: np.ndarray) -> float:
    """log joint probability of a grid point under the box-restricted law."""
    i_lo, i_hi = box.index_ranges(spec)
    idx = spec.index_of(kappa)
    cells = _log_cell_masses(spec.tau, spec.B)
    out = 0.0
    for j in range(len(idx)):
        if not i_lo[j] <= idx[j] <= i_hi[j]:
            return LOG_ZERO
        total = range_log_mass(spec, int(i_lo[j]), int(i_hi[j]))
        if total == LOG_ZERO:
            raise ZeroMassRestrictionError("restriction has zero mass")
        out += cells[idx[j]] - total
    return out
