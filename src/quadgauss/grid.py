"""The discretized standard Gaussian on a capped uniform grid.

Each coordinate of a standard normal G is floored onto the grid
{-B, -B+tau, ..., B-tau, B}: a grid point kappa owns the cell
[kappa, kappa+tau), except that the extreme points absorb the tails
(kappa = B owns [B, inf) and kappa = -B owns (-inf, -B+tau)), so the
coordinate masses sum to exactly 1.

``support_and_log_pmf`` pushes a coordinate through xi -> a*xi^2 + b*xi and
returns the exact pmf of the image in log domain, one atom per distinct
value.  The counter's merge is correct whether or not values of different
coordinates collide, so a and b may be any finite doubles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .numerics import log_interval_mass

__all__ = [
    "GridSpec",
    "support_and_log_pmf",
]


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
        if not (1.0 <= B < math.inf):
            raise ValueError(f"truncation radius B must be finite and >= 1, got {B}")
        if self.n < 1:
            raise ValueError("dimension must be >= 1")
        ratio = B / tau
        if not ratio.is_integer():
            raise ValueError(f"B/tau must be integral, got {ratio}")

    @property
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
    spec = GridSpec(tau=tau, B=B, n=1)
    m = spec.points_per_coord
    out = np.empty(m)
    for i in range(m):
        left, right = spec.cell_bounds(i)
        out[i] = log_interval_mass(left, right)
    out.setflags(write=False)
    return out


def support_and_log_pmf(
    a: float, b: float, spec: GridSpec
) -> tuple[np.ndarray, np.ndarray]:
    """pmf of Y = a*[G]^2 + b*[G] on the grid, in log domain.

    Returns (values ascending, log probabilities); exact value collisions are
    merged.
    """
    kappa = spec.value(np.arange(spec.points_per_coord))
    values = a * kappa * kappa + b * kappa
    order = np.argsort(values, kind="stable")
    values = values[order]
    logp = _log_cell_masses(spec.tau, spec.B)[order]
    # merge values equal as doubles (xi and -xi when b = 0, for one)
    starts = np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))
    merged = np.logaddexp.reduceat(logp, starts)
    return values[starts], merged
