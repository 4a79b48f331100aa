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
one log cumulative sum.  The first draw copies both inverse CDFs, the
support rows and the grid values into the table's draw plan
(``PrefixCDFTable.draw_plan``), sequences whose items read as Python
numbers.  A draw then takes coordinate n by one ``bisect_right`` and
coordinate 1 by two, in scalar float arithmetic, and calls into numpy only
to rebuild the weights of coordinates n-1, ..., 2 and to return the point.

The sampler's exact output law, the product of those n conditional laws
over every reachable grid point, is enumerated only by the test suite
(``tests/oracles.py``), from a table built here.

The continuous lift is exact, not approximate: conditioned on the grid
point, each coordinate of the underlying Gaussian is distributed as N(0,1)
restricted to the grid point's owning cell, so lifting with truncated
normals inverts the discretization in law.  The lift reads each cell from
kappa/tau, in float arithmetic that is exact for a power-of-two tau, and
``truncated_normal_sample`` keeps each cell's inverse-CDF constants, so a
draw from a cell seen before costs one uniform and one quantile.

Both routes read one prepared ``Region`` (``counter.prepare``), the form
that ``count`` reads too: decoupled, normalized and with its linear
coordinates folded into one.  A sampling table covers only the live
coordinates, those with lam or mu nonzero; a draw takes each null
coordinate as N(0, 1), its exact conditional law, and rotates the whole
point back.  ``region_source`` is the other route, with no table and no
grid: exact rejection from an exponentially tilted Gaussian (Siegmund
1976).  It is how the densifier draws its positives and negatives.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from contextlib import closing

import numpy as np

from .counter import (
    DEFAULT_EPS,
    DEFAULT_TAU,
    FloorError,
    PrefixCDFTable,
    Region,
    _checked_grid,
    _live,
    prepare,
)
from .grid import GridSpec
from .numerics import LOG_ZERO, Rng, _checked_int, normal_blocks, truncated_normal_sample
from .quadform import DecoupledConstraint, QuadraticForm, sign_at

# Not called here: bench/tracing.py's WRAPS wraps these names on this module.
from .counter import count  # noqa: F401
from .quadform import decouple, round_coefficients  # noqa: F401

__all__ = [
    "FloorError",
    "FilterRetryError",
    "PtfSampler",
    "sample_grid_point",
    "lift_to_continuous",
    "sample_ptf_gaussian",
    "region_source",
]


class FilterRetryError(RuntimeError):
    """exact_filter rejected every draw within the retry limit."""


def sample_grid_point(table: PrefixCDFTable, rng: Rng) -> np.ndarray:
    """Draw one grid point from the table: coordinates n, n-1, ..., 1 in
    turn, each by inverse CDF of one uniform.  Two of the inverse CDFs do not
    depend on the draw and come from the table's ``draw_plan``: coordinate
    n's, at theta, and coordinate 1's, in support order for every threshold.
    So only coordinates n-1, ..., 2 rebuild their weights; at n = 1 the
    single coordinate is coordinate n."""
    last_cum, last_total, first, rows, kappa = table.draw_plan
    n = table.n
    i = bisect_right(last_cum, rng.uniform() * last_total)
    if n == 1:
        return np.array([kappa[i]])
    point = [kappa[i]] * n
    t = table.theta - rows[-1][i]
    for j in range(n - 2, 0, -1):
        cum = table.cumulative_weights(j, t)
        i = int(cum.searchsorted(rng.uniform() * cum[-1], "right"))
        point[j] = kappa[i]
        t -= rows[j - 1][i]
    # coordinate 1: the cumulative mass of the indices with support <= t,
    # scaled by u, is compared in log space, so a far-tail region cannot
    # underflow; searching the first c - 1 entries keeps a target that
    # rounds up to the region's total on its last index
    order, support, log_cum = first
    u = rng.uniform()
    c = bisect_right(support, t)
    if c == 0:
        raise FloorError("no grid point lies in the acceptance region")
    target = log_cum[c - 1] + (math.log(u) if u > 0.0 else LOG_ZERO)
    point[0] = kappa[order[bisect_right(log_cum, target, 0, c - 1)]]
    return np.array(point)


def lift_to_continuous(kappa: np.ndarray, spec: GridSpec, rng: Rng) -> np.ndarray:
    """Invert the discretization in law: given [G]_tau = kappa, each
    coordinate is N(0,1) restricted to kappa's owning cell ([kappa, kappa+tau)
    inside the grid, the unbounded tail at the caps)."""
    tau, half = spec.tau, spec.half_index
    values = np.asarray(kappa, dtype=float).tolist()  # a float for a 0-d kappa
    out = []
    for v in values if isinstance(values, list) else [values]:
        # exact: tau is a power of two, so v / tau is an integer on the grid
        k = v / tau
        if not k.is_integer():
            raise ValueError(f"value {v} is not on the grid")
        k = int(k)
        if not -half <= k <= half:
            raise ValueError(f"index {k + half} out of range [0, {2 * half + 1})")
        left = k * tau
        right = math.inf if k == half else left + tau
        out.append(truncated_normal_sample(-math.inf if k == -half else left, right, rng))
    return np.array(out)


def _holds(original: QuadraticForm | DecoupledConstraint, x: np.ndarray) -> bool | np.ndarray:
    """Whether ``original`` holds at x, one point (a bool) or the rows of a
    batch (a bool array): a QuadraticForm's sign at x is +1, or a
    DecoupledConstraint accepts its own coordinates of x, rotation.T @ x.
    Every sign test of the sampler comes through here."""
    if isinstance(original, QuadraticForm):
        return sign_at(original, x) == 1
    return original.accepts(x @ original.rotation)


class PtfSampler:
    """Prepared sampling pipeline for one PTF: the region's form
    (``prepare``: decouple -> normalize -> fold) -> prefix-CDF table of its
    live coordinates -> grid point -> exact continuous lift, the null
    coordinates drawn as N(0, 1) -> rotate back.

    The table is built once, here, from the coordinates ``count`` reads,
    those with lam or mu nonzero, after the fold has merged two or more
    linear ones into one; so a halfspace is sampled from a one-coordinate
    table at any n.  Its own mass (``PrefixCDFTable.mass``) is checked
    against the floor 2^(-4n), so FloorError comes before any draw.  Draws
    lie within total variation eps of N(0, I) conditioned on the truncated
    instance: the union of the grid cells of the live coordinates whose
    grid point satisfies the normalized constraint, each cell lifted
    exactly, with every null coordinate free.  The gap to N(0, I)
    conditioned on ``q`` itself is not bounded.  ``rounded`` holds that
    normalized, folded constraint over all n coordinates (None for a
    constant form), and ``rotation`` its rotation, which maps its
    coordinates back to x.  With ``exact_filter`` draws are rejected until
    the original constraint holds at the output.  A bad setting raises
    ValueError before any work; eps must lie in (0, 1), as eps = 1 bounds
    nothing.
    """

    def __init__(
        self,
        q: QuadraticForm | DecoupledConstraint | Region,
        eps: float = DEFAULT_EPS,
        *,
        tau: float = DEFAULT_TAU,
        trunc_B: float | None = None,
        retry_limit: int = 100,
    ):
        self.spec, floor = _checked_grid(q, eps, tau, trunc_B)
        if eps >= 1.0:
            raise ValueError(f"eps must lie in (0, 1) for sampling, got {eps}")
        self.retry_limit = _checked_int("retry_limit", retry_limit, 0)
        region = prepare(q)
        self.original, self.rounded, mass = region.original, region.form, region.mass
        self.eps = float(eps)
        self.filter_rejections = 0
        form = self.rounded
        if form is not None:  # else q is constant, of exact mass 0 or 1
            live = _live(form)
            self._nulls = form.n - int(np.count_nonzero(live))
            self.rotation = self._draw_rotation = form.rotation
            if self._nulls:
                # the table's form is the live coordinates; a draw lists them
                # first, then the null ones
                self._draw_rotation = form.rotation[:, np.argsort(~live, kind="stable")]
                form = DecoupledConstraint(form.lam[live], form.mu[live], form.theta, np.eye(live.sum()))
            self.table = PrefixCDFTable.for_sampling(form, self.spec, self.eps)
            mass = self.table.mass()
        if mass < floor or mass == 0.0:
            raise FloorError(f"acceptance mass {mass} is zero or below the floor {floor}")

    def sample(self, rng: Rng, exact_filter: bool = False) -> np.ndarray:
        """One point of shape (n,): the k live coordinates of ``rounded`` as
        a grid point from the table, lifted exactly into its cells, then
        its n - k null coordinates (lam = mu = 0) as standard normals, all
        rotated back.  A null coordinate does not enter the region, so its
        conditional law is N(0, 1) itself.  Each attempt takes k uniforms
        from ``rng`` for the grid point (the live coordinates last to
        first), then k for the lift (first to last), then ``rng.normal(n -
        k)`` when n > k; with every coordinate live, that is n and n
        uniforms.  With ``exact_filter`` an attempt whose output the
        original constraint rejects (a QuadraticForm's sign at x is -1, or
        a DecoupledConstraint does not accept its own coordinates
        ``original.rotation.T @ x``) is counted in ``filter_rejections`` and
        repeated, at most ``retry_limit`` times before FilterRetryError.  A
        constant form draws ``rng.normal(n)``."""
        if self.rounded is None:
            return rng.normal(self.original.n)
        table, spec, rotation, nulls = self.table, self.spec, self._draw_rotation, self._nulls
        for _ in range(self.retry_limit + 1 if exact_filter else 1):
            y = lift_to_continuous(sample_grid_point(table, rng), spec, rng)
            y = np.concatenate((y, rng.normal(nulls))) if nulls else y
            x = rotation @ y
            if not exact_filter or _holds(self.original, x):
                return x
            self.filter_rejections += 1
        raise FilterRetryError(
            f"exact filter rejected {self.retry_limit + 1} consecutive draws"
        )

    def sample_batch(
        self, k: int, rng: Rng, exact_filter: bool = False
    ) -> np.ndarray:
        """k draws of :meth:`sample` in turn, from the one stream ``rng``,
        as a (k, n) array; a k that is not an integer >= 0 raises
        ValueError before any draw."""
        k = _checked_int("k", k, 0)
        out = np.empty((k, self.original.n))
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


# Proposals per block of a region source; its blocks come from the child
# streams _FIRST_BLOCK, _FIRST_BLOCK + 1, ... < _BLOCK_LIMIT.
_BLOCK = 1 << 15
_FIRST_BLOCK, _BLOCK_LIMIT = 10_000, 50_000


def _tilt(dc: DecoupledConstraint) -> float:
    """The tilt c >= 0 of a region source: the minimiser over
    c in [0, c_max) of the Chernoff bound log M(-c) + c theta on the mass of
    Q(y) = sum_i lam_i y_i^2 + mu_i y_i <= theta under N(0, I), where
    log M(-c) = log E e^(-cQ) = sum_i -log(1 + 2c lam_i)/2 +
    c^2 mu_i^2 / (2(1 + 2c lam_i)) and c_max = -1/(2 min lam) (inf when
    no lam is negative).

    The bound is convex, with derivative theta - E_c[Q] under the tilted law
    (see :func:`region_source`), so c is found by bisection on the sign of
    that derivative, to a relative 1e-9.  It is 0 (plain rejection) when
    sum(lam) = E[Q] <= theta.  Any c in [0, c_max) gives exact draws; this
    one makes the expected acceptance, mass / bound, largest.  The search
    starts from c = 1, the scale of a normalized form.
    """
    lam, mu, theta = dc.lam, dc.mu, dc.theta

    def slope(c: float) -> float:
        # theta - E_c[Q], with E_c[Q] = sum lam/d - c mu^2 (1 + c lam)/d^2,
        # d = 1 + 2 c lam, in factors that stay finite; +inf past c_max
        d = 1.0 + 2.0 * c * lam
        if d.min() <= 0.0:
            return math.inf
        return theta - float(np.sum(lam / d - (c * mu / d) * mu * ((1.0 + c * lam) / d)))

    if slope(0.0) >= 0.0:
        return 0.0
    least = float(lam.min())
    hi = -0.5 / least if least < 0.0 else 1.0
    # with no lam < 0, the slope tends to theta - min Q > 0 or to +inf
    while least >= 0.0 and hi < 2.0**1000 and slope(hi) < 0.0:
        hi *= 2.0
    lo = 0.0
    while hi - lo > 1e-9 * hi:
        mid = 0.5 * (lo + hi)
        if slope(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return lo


def _tilted_keep(region: Region, c: float, z: np.ndarray) -> np.ndarray:
    """The points that a source of ``region`` with tilt ``c`` keeps from one
    block ``z`` of standard normals: n columns, plus two more when c > 0.

    Column i gives y_i = z_i / sqrt(d_i) - c mu_i / d_i with
    d_i = 1 + 2c lam_i, (lam, mu) from ``region.form``, a draw from
    N(-c mu_i / d_i, 1 / d_i), and x = R y is kept when the original form
    holds at x (sign(q, x) = +1, or a decoupled original accepts its own
    coordinates of x) and, for c > 0, when E = (z_n^2 + z_(n+1)^2) / 2, an
    Exp(1) draw, is at least c (theta - Q(y)): that happens with
    probability e^(-c(theta - Q(y))), capped at 1.
    """
    dc = region.form
    n = dc.n
    d = 1.0 + 2.0 * c * dc.lam
    y = z[:, :n] / np.sqrt(d) - c * dc.mu / d
    x = y @ dc.rotation.T
    keep = _holds(region.original, x)
    if c > 0.0:
        e = 0.5 * (z[:, n] ** 2 + z[:, n + 1] ** 2)
        keep &= e >= c * (dc.theta - dc.value(y))
    return x[keep]


def region_source(region: QuadraticForm | DecoupledConstraint | Region, rng: Rng):
    """Source of points from N(0, I) conditioned on ``region`` (``prepare``
    builds it from a form, once), by exact rejection from an exponentially
    tilted Gaussian.  Its form is Q(y) = sum_i lam_i y_i^2 + mu_i y_i <=
    theta, normalized and folded, with x = R y; a constant region of mass 1
    is R^n, drawn as the zero form in the identity basis, so it costs no
    eigensolve and its proposals are kept as they are drawn.

    For c >= 0 with every 1 + 2c lam_i > 0, the law proportional to
    phi(y) e^(-cQ(y)) is the product of N(-c mu_i/(1 + 2c lam_i),
    1/(1 + 2c lam_i)).  A proposal from it is kept with probability
    e^(-c(theta - Q(y))) when x = R y lies in the region (see
    :func:`_tilted_keep`), and 0 otherwise.  The density of N(0, I) over
    that of the proposal is proportional to e^(cQ(y)), at most e^(c theta)
    in the region, so the kept points are exactly N(0, I) conditioned on
    the region, up to float rounding.  One proposal in M(-c) e^(c theta) /
    mass is kept, M(-c) = E e^(-cQ); c = :func:`_tilt` makes that Chernoff
    bound least, and by Bahadur-Rao the acceptance is then polynomial, not
    exponential, in how thin the region is.

    Blocks of 2^15 proposals come from ``normal_blocks`` on ``rng``, block
    i from ``rng.derive(_FIRST_BLOCK + i)``.  ``source(k)`` returns the next
    k kept points, so successive calls continue one stream and never repeat
    a point; ``source(a)`` then ``source(b)`` returns the rows of
    ``source(a + b)``.  The tilt is found on the first request for k >= 1:
    building the source and ``source(0)`` search and draw nothing.  Raises
    ValueError here when the region is empty or lies in a hyperplane
    (a constant region of mass 0, or theta <= min Q), RuntimeError once the
    blocks below _BLOCK_LIMIT are spent, and ValueError, before any draw,
    for a k that is not an integer >= 0.
    """
    region = prepare(region)
    if region.form is None:
        if region.mass == 0.0:
            raise ValueError("the region has Gaussian mass 0: Q is constant above theta")
        region = Region(region.original, DecoupledConstraint(*np.zeros((2, region.n)), 0.0, np.eye(region.n)))
    dc = region.form
    lam, mu = dc.lam.tolist(), dc.mu.tolist()
    if not any(v < 0.0 or (v == 0.0 and m != 0.0) for v, m in zip(lam, mu)):
        # Q is bounded below; its minimum holds only on a set of mass 0
        # unless lam = 0, where it holds everywhere
        low = -math.fsum(m * m / (4.0 * v) for v, m in zip(lam, mu) if v > 0.0)
        if dc.theta < low or (dc.theta == low and any(lam)):
            raise ValueError(f"the region has Gaussian mass 0: theta {dc.theta} is at most min Q")
    rest = np.empty((0, dc.n))
    block = _FIRST_BLOCK
    tilt = None

    def source(k: int) -> np.ndarray:
        nonlocal rest, block, tilt
        k = _checked_int("k", k, 0)
        parts, got = [rest], rest.shape[0]
        if got < k:
            if tilt is None:
                tilt = _tilt(dc)
            cols = dc.n + 2 if tilt > 0.0 else dc.n
            with closing(normal_blocks(rng, cols, _BLOCK, first=block)) as blocks:
                while got < k:
                    if block >= _BLOCK_LIMIT:
                        raise RuntimeError("tilted rejection sampling starved")
                    keep = _tilted_keep(region, tilt, next(blocks))
                    block += 1
                    parts.append(keep)
                    got += keep.shape[0]
        # no copy when one array holds every point; the result and the
        # surplus are views of it
        full = [p for p in parts if p.size]
        out = full[0] if len(full) == 1 else np.concatenate(parts)
        rest = out[k:]
        return out[:k]

    return source
