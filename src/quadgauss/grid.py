"""The discretized standard Gaussian on a capped uniform grid.

A grid is one coordinate's axis: each coordinate of a standard normal G is
floored onto the same grid {-B, -B+tau, ..., B-tau, B}, on its own, so a
``GridSpec`` has no dimension.  A grid point kappa owns the cell
[kappa, kappa+tau), except that the extreme points absorb the tails
(kappa = B owns [B, inf) and kappa = -B owns (-inf, -B+tau)), so the
coordinate masses sum to exactly 1.

``support_and_log_pmf`` takes one coordinate's image, the row a*kappa^2 +
b*kappa over the grid values, with the log masses of their cells, and
returns the exact pmf of the image in log domain, one atom per distinct
value.  The counter's merge is correct whether or not values of different
coordinates collide, so a and b may be any finite doubles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .numerics import _THIN_LOG_GAP, _log_ndtr, _log_thin_mass, log_interval_mass, log_sub

__all__ = [
    "GridSpec",
    "support_and_log_pmf",
]


@dataclass(frozen=True)
class GridSpec:
    """One coordinate's grid: step ``tau`` and truncation radius ``B``.

    B/tau must be integral; the coordinate then has 2B/tau + 1 grid points.
    Every coordinate of a form is floored onto the same grid.
    """

    tau: float
    B: float

    def __post_init__(self) -> None:
        tau = float(self.tau)
        B = float(self.B)
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "B", B)
        if not (0.0 < tau <= 1.0):
            raise ValueError(f"tau must lie in (0, 1], got {tau}")
        e = math.log2(tau)
        if e != math.floor(e):
            raise ValueError(f"tau must be an exact power of 2, got {tau}")
        if not (1.0 <= B < math.inf):
            raise ValueError(f"truncation radius B must be finite and >= 1, got {B}")
        ratio = B / tau
        if not ratio.is_integer():
            raise ValueError(f"B/tau must be integral, got {ratio}")

    @cached_property
    def half_index(self) -> int:
        return int(round(self.B / self.tau))

    @property
    def points_per_coord(self) -> int:
        return 2 * self.half_index + 1

    def value(self, index):
        """Grid value at index (0 maps to -B); exact for power-of-two tau."""
        return (np.asarray(index) - self.half_index) * self.tau

    def cell_bounds(self, index: int) -> tuple[float, float]:
        """Continuous interval owned by the grid point at ``index``."""
        m = self.points_per_coord
        if not 0 <= index < m:
            raise ValueError(f"index {index} out of range [0, {m})")
        v = (index - self.half_index) * self.tau
        left = -math.inf if index == 0 else v
        right = math.inf if index == m - 1 else v + self.tau
        return left, right


@lru_cache(maxsize=64)
def _log_cell_masses(tau: float, B: float) -> np.ndarray:
    """The log mass of every cell of one coordinate, as ``log_interval_mass``
    gives it.  Each one-sided cell [k tau, (k + 1) tau), 1 <= k < B/tau, is
    formed as ``log_interval_mass`` forms it, from the log survivals
    L_k = log S(k tau) of the edges, each computed once, and copied to its
    mirror image (but [B - tau, B), whose mirror lies in the lower cap).
    The two cells that touch 0 and the two caps go through
    ``log_interval_mass`` itself."""
    spec = GridSpec(tau=tau, B=B)
    h, m = spec.half_index, spec.points_per_coord
    edges = [_log_ndtr(-(k * tau)) for k in range(h + 1)]
    out = np.empty(m)
    for k in range(1, h):  # cell h + k is [k tau, (k + 1) tau)
        lsa, lsb = edges[k], edges[k + 1]
        thin = lsa - lsb < _THIN_LOG_GAP
        out[h + k] = _log_thin_mass(k * tau, (k + 1) * tau) if thin else log_sub(lsa, lsb)
    out[1 : h - 1] = out[2 * h - 2 : h : -1]  # cell i mirrors cell 2h - 1 - i
    for i in (0, h - 1, h, m - 1):
        out[i] = log_interval_mass(*spec.cell_bounds(i))
    out.setflags(write=False)
    return out


def support_and_log_pmf(row: np.ndarray, log_cell: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """pmf of one coordinate's image Y = a*[G]^2 + b*[G] on the grid, in log
    domain, from ``row``, Y at every grid value, and ``log_cell``, the log
    masses of their cells.

    Returns (values ascending, log probabilities); exact value collisions are
    merged.
    """
    order = np.argsort(row, kind="stable")
    values = row[order]
    logp = log_cell[order]
    # merge values equal as doubles (xi and -xi when b = 0, for one)
    starts = np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))
    merged = np.logaddexp.reduceat(logp, starts)
    return values[starts], merged
