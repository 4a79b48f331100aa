"""Sampling from the standard Gaussian conditioned on a quadratic threshold
region, by drawing from the counter's prefix-CDF table.

A grid point is drawn one coordinate at a time, last coordinate first
(counting to sampling by self-reducibility): given the threshold t left for
coordinates 1..j, coordinate j takes the grid value kappa with probability
proportional to cell(kappa) * P_{j-1}(t - lam_j kappa^2 - mu_j kappa), where
P_{j-1} is the table's CDF of Y_1 + ... + Y_{j-1}, by inverse CDF over its
grid values.  The table is built once per sampler at a step size derived
from (n, eps) that keeps every grid point's probability within
[1 - eps, 1/(1 - eps)] of the exact conditional law, so the total variation
error is at most eps (see ``PrefixCDFTable``); the same table's mass is the
floor check, so a sampler builds no other table.  Two inverse CDFs are
built once per table, on the first draw.  Coordinate n's threshold is always
theta, so its inverse CDF is fixed.  Coordinate 1 weighs kappa by cell(kappa)
when its value lam_1 kappa^2 + mu_1 kappa is at most t and by 0 otherwise,
as P_0 is the point mass at 0; so with its grid values sorted by that value,
its law given any t is the cell masses over a prefix of the order, read from
one log cumulative sum.  Each later draw pays one ``searchsorted`` for
coordinate n, two for coordinate 1, and rebuilds only the weights of
coordinates n-1, ..., 2.

The continuous lift is exact, not approximate: conditioned on the grid
point, each coordinate of the underlying Gaussian is distributed as N(0,1)
restricted to the grid point's owning cell, so lifting with truncated
normals inverts the discretization in law.  The lift reads each cell from
the grid index kappa/tau + B/tau, in float arithmetic that is exact
for a power-of-two tau.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .counter import (
    DEFAULT_EPS,
    DEFAULT_TAU,
    EngineTooLargeError,
    FloorError,
    PrefixCDFTable,
    _checked_grid,
    _prepare,
)
from .grid import GridSpec
from .numerics import LOG_ZERO, Rng, _checked_int, truncated_normal_sample
from .quadform import DecoupledConstraint, QuadraticForm, sign_at

# Not called here: bench/tracing.py's WRAPS wraps these names on this module.
from .counter import count  # noqa: F401
from .quadform import decouple, round_coefficients  # noqa: F401

__all__ = [
    "FloorError",
    "FilterRetryError",
    "PtfSampler",
    "sample_grid_point",
    "enumerate_sampler_distribution",
    "lift_to_continuous",
    "sample_ptf_gaussian",
]


class FilterRetryError(RuntimeError):
    """exact_filter rejected every draw within the retry limit."""


def sample_grid_point(table: PrefixCDFTable, rng: Rng) -> np.ndarray:
    """Draw one grid point from the table: coordinates n, n-1, ..., 1 in
    turn, each by inverse CDF of one uniform.  Two of the inverse CDFs do not
    depend on the draw and come from the table's cache: coordinate n's, at
    theta, and coordinate 1's, in support order for every threshold.  So
    only coordinates n-1, ..., 2 rebuild their weights; at n = 1 the single
    coordinate is coordinate n."""
    idx = np.empty(table.n, dtype=int)
    t = table.theta
    cum = table.last_coordinate_cum
    for j in range(table.n - 1, 0, -1):
        i = int(np.searchsorted(cum, rng.uniform() * cum[-1], side="right"))
        idx[j] = i
        t -= table.support[j, i]
        if j > 1:
            cum = table.cumulative_weights(j - 1, t)
    if table.n == 1:
        idx[0] = np.searchsorted(cum, rng.uniform() * cum[-1], side="right")
    else:
        idx[0] = table.first_coordinate_index(t, rng.uniform())
    return table.kappa[idx]


@dataclass(frozen=True)
class EnumeratedDistribution:
    """Exact output law of the sampler: one row per reachable grid point."""

    points: np.ndarray  # (k, n) grid values
    probs: np.ndarray  # (k,)

    def as_dict(self) -> dict[tuple, float]:
        return {tuple(p): float(q) for p, q in zip(self.points, self.probs)}


def enumerate_sampler_distribution(
    dc: DecoupledConstraint, spec: GridSpec, eps: float
) -> EnumeratedDistribution:
    """Output law of :func:`sample_grid_point` on
    ``PrefixCDFTable.for_sampling(dc, spec, eps)``: the product of the n
    conditional laws it draws from, expanded over every reachable grid
    point; feasible for grids up to 1e5 points."""
    if spec.total_points > 100_000:
        raise EngineTooLargeError("grid too large to enumerate")
    table = PrefixCDFTable.for_sampling(dc, spec, eps)
    m = spec.points_per_coord
    idx = np.zeros((1, 0), dtype=int)  # chosen indices of coordinates j+1..n
    logp = np.zeros(1)
    t = np.array([table.theta])
    for j in range(table.n - 1, -1, -1):
        lw = table.log_weights(j, t)
        top = lw.max(axis=1, keepdims=True)
        lw -= top + np.log(np.sum(np.exp(lw - top), axis=1, keepdims=True))
        joint = (logp[:, None] + lw).ravel()
        reach = np.flatnonzero(joint > LOG_ZERO)
        rows, cols = np.divmod(reach, m)
        idx = np.column_stack([cols, idx[rows]])
        t = t[rows] - table.support[j, cols]
        logp = joint[reach]
    return EnumeratedDistribution(points=table.kappa[idx], probs=np.exp(logp))


def lift_to_continuous(kappa: np.ndarray, spec: GridSpec, rng: Rng) -> np.ndarray:
    """Invert the discretization in law: given [G]_tau = kappa, each
    coordinate is N(0,1) restricted to kappa's owning cell ([kappa, kappa+tau)
    inside the grid, the unbounded tail at the caps)."""
    values = np.atleast_1d(np.asarray(kappa, dtype=float)).tolist()
    out = np.empty(len(values))
    for j, v in enumerate(values):
        # exact: tau is a power of two, so v / tau is an integer on the grid
        k = v / spec.tau
        if not k.is_integer():
            raise ValueError(f"value {v} is not on the grid")
        left, right = spec.cell_bounds(int(k) + spec.half_index)
        out[j] = truncated_normal_sample(left, right, rng)
    return out


class PtfSampler:
    """Prepared sampling pipeline for one PTF: decouple -> normalize ->
    prefix-CDF table -> grid point -> exact continuous lift -> rotate back.

    The table is built once, here, and its own mass (``PrefixCDFTable.mass``)
    is checked against ``floor`` (default 2^(-4n)), so FloorError comes
    before any draw.  Draws lie within total variation eps of N(0, I)
    conditioned on the truncated instance: the union of the grid cells
    whose grid point satisfies the normalized constraint, each cell lifted
    exactly.  The gap to N(0, I) conditioned on ``q`` itself is not
    bounded.  ``rounded`` holds that normalized constraint (None for a
    constant form), with the rotation that maps draws back.  With
    ``exact_filter`` draws are rejected until the original polynomial is
    nonnegative at the output.  A bad setting raises ValueError before any
    work; eps must lie in (0, 1), as eps = 1 bounds nothing.
    """

    def __init__(
        self,
        q: QuadraticForm | DecoupledConstraint,
        eps: float = DEFAULT_EPS,
        *,
        tau: float = DEFAULT_TAU,
        trunc_B: float | None = None,
        floor: float | None = None,
        retry_limit: int = 100,
    ):
        self.spec, floor = _checked_grid(q, eps, tau, trunc_B, floor)
        if eps >= 1.0:
            raise ValueError(f"eps must lie in (0, 1) for sampling, got {eps}")
        self.retry_limit = _checked_int("retry_limit", retry_limit, 0)
        self.original = q
        self.eps = float(eps)
        self.filter_rejections = 0
        self.rounded, mass = _prepare(q)
        if self.rounded is not None:  # else q is constant, of exact mass 0 or 1
            self.rotation = self.rounded.rotation
            self.table = PrefixCDFTable.for_sampling(self.rounded, self.spec, self.eps)
            mass = self.table.mass()
        if mass < floor or mass == 0.0:
            raise FloorError(f"acceptance mass {mass} is zero or below the floor {floor}")

    def _original_accepts(self, x: np.ndarray, y: np.ndarray) -> bool:
        if isinstance(self.original, QuadraticForm):
            return sign_at(self.original, x) == 1
        return bool(self.original.accepts(y))

    def sample(self, rng: Rng, exact_filter: bool = False) -> np.ndarray:
        if self.rounded is None:
            return rng.normal(self.spec.n)
        attempts = self.retry_limit + 1 if exact_filter else 1
        for _ in range(attempts):
            kappa = sample_grid_point(self.table, rng)
            y = lift_to_continuous(kappa, self.spec, rng)
            x = self.rotation @ y
            if not exact_filter or self._original_accepts(x, y):
                return x
            self.filter_rejections += 1
        raise FilterRetryError(
            f"exact filter rejected {self.retry_limit + 1} consecutive draws"
        )

    def sample_batch(
        self, k: int, rng: Rng, exact_filter: bool = False
    ) -> np.ndarray:
        k = _checked_int("k", k, 0)
        out = np.empty((k, self.spec.n))
        for i in range(k):
            out[i] = self.sample(rng, exact_filter=exact_filter)
        return out


def sample_ptf_gaussian(
    q: QuadraticForm | DecoupledConstraint,
    eps: float,
    rng: Rng,
    k: int,
    exact_filter: bool = False,
    **kwargs,
) -> np.ndarray:
    """One-shot convenience wrapper around :class:`PtfSampler`: a (k, n)
    batch drawn from one pipeline built with ``kwargs``."""
    return PtfSampler(q, eps, **kwargs).sample_batch(k, rng, exact_filter=exact_filter)
