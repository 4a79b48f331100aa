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
floor check, so a sampler builds no other table.  Coordinate n's threshold
is always theta, so its inverse CDF is built once per table, on the first
draw; each later draw pays one ``searchsorted`` for it and rebuilds only the
weights of coordinates n-1, ..., 1.

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
    DEFAULT_GAMMA,
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
    turn, each by inverse CDF over its grid values.  Coordinate n's inverse
    CDF does not depend on the draw and comes from the table's cache."""
    idx = np.empty(table.n, dtype=int)
    t = table.theta
    cum = table.last_coordinate_cum
    for j in range(table.n - 1, -1, -1):
        i = int(np.searchsorted(cum, rng.uniform() * cum[-1], side="right"))
        idx[j] = i
        t -= table.support[j, i]
        if j:
            cum = table.cumulative_weights(j - 1, t)
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
    round -> prefix-CDF table -> grid point -> exact continuous lift ->
    rotate back.

    The table is built once, here, and its own mass (``PrefixCDFTable.mass``)
    is checked against ``floor`` (default 2^(-4n)), so FloorError comes
    before any draw.  Draws lie within total variation eps of N(0, I)
    conditioned on the rounded, truncated instance: the union of the grid
    cells whose grid point satisfies the rounded constraint, each cell
    lifted exactly.  The gap to N(0, I) conditioned on ``q`` itself is not
    bounded.  With ``exact_filter`` draws are rejected until the original
    polynomial is nonnegative at the output.  A bad setting raises
    ValueError before any work; eps must lie in (0, 1), as eps = 1 bounds
    nothing.
    """

    def __init__(
        self,
        q: QuadraticForm | DecoupledConstraint,
        eps: float = DEFAULT_EPS,
        *,
        tau: float = DEFAULT_TAU,
        trunc_B: float | None = None,
        gamma: float = DEFAULT_GAMMA,
        floor: float | None = None,
        retry_limit: int = 100,
    ):
        cfg, self.spec, floor = _checked_grid(q, eps, tau, trunc_B, gamma, floor)
        if eps >= 1.0:
            raise ValueError(f"eps must lie in (0, 1) for sampling, got {eps}")
        self.retry_limit = _checked_int("retry_limit", retry_limit, 0)
        self.original = q
        self.eps = float(eps)
        self.filter_rejections = 0
        self.rounded, mass = _prepare(q, cfg)
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
    k: int | None = None,
    exact_filter: bool = False,
    **kwargs,
) -> np.ndarray:
    """One-shot convenience wrapper around :class:`PtfSampler`.

    Returns a single point of shape (n,) when ``k`` is None, else a (k, n)
    batch drawn from one shared pipeline.
    """
    sampler = PtfSampler(q, eps, **kwargs)
    if k is None:
        return sampler.sample(rng, exact_filter=exact_filter)
    return sampler.sample_batch(k, rng, exact_filter=exact_filter)
