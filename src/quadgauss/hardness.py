"""Subset-Sum-planted threshold instances with known satisfying geometry.

Two families serve as a verification corpus:

* degree-2 over the solid cube: p(x) = (w.x - w0)^2 + lam * sum x_i(1 - x_i)
  with lam = (c*n) * ||w||_2, thresholded as f = sign(1/2 - p).  Satisfying
  points cluster in small L1 balls around exactly the Boolean subset-sum
  solutions; radii alpha (outer) and beta (inner) sandwich each cluster.

* degree-4 over R^n with the +-1 encoding: p(x) = (w.x - w0)^2 +
  lam * sum (x_i^2 - 1)^2, lam = c*n*max(||w||^2, n), same thresholding; the
  clusters are L2 balls around +-1 solutions, and cluster masses are taken
  under the standard Gaussian.

The module provides the generators, the cluster radii, a point classifier
that predicts the PTF sign from distance-to-nearest-Boolean-point alone,
per-cluster samplers (uniform on the cube clusters, Gaussian on the
degree-4 clusters), and Monte Carlo cluster-mass estimators.  Solutions are
found exactly by meet-in-the-middle, practical to n ~ 24.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .numerics import _Z99, Rng, _checked_int, _wilson_half_width
from .quadform import QuadraticForm, sign_at

__all__ = [
    "SubsetSumInstance",
    "QuarticForm",
    "Classification",
    "RegionSamplingError",
    "gen_deg2_cube_instance",
    "alpha_beta_deg2",
    "classify_point_deg2",
    "sample_region_uniform_deg2",
    "gen_deg4_gauss_instance",
    "classify_point_deg4",
    "sample_region_gauss_deg4",
    "region_mass_mc",
    "instance_to_dict",
]

_REGION_TRIES = 200_000  # proposals a region sampler tries before it gives up
_MAX_WEIGHT = 2**60
_MITM_LIMIT = 24


class RegionSamplingError(RuntimeError):
    """Rejection sampling exhausted its retry budget (c likely too small)."""


@dataclass(frozen=True)
class SubsetSumInstance:
    """Target w0 and nonnegative integer weights w; ``variant`` fixes the
    solution domain: 'cube01' seeks z in {0,1}^n, 'pm1' seeks z in {-1,1}^n
    with w.z = w0."""

    w0: int
    w: tuple[int, ...]
    variant: str = "cube01"

    def __post_init__(self) -> None:
        object.__setattr__(self, "w0", int(self.w0))
        object.__setattr__(self, "w", tuple(int(v) for v in self.w))
        if self.variant not in ("cube01", "pm1"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.w0 < 0 or any(v < 0 for v in self.w):
            raise ValueError("weights and target must be nonnegative integers")
        if len(self.w) < 1:
            raise ValueError("need at least one weight")
        if any(v > _MAX_WEIGHT for v in self.w) or self.w0 > _MAX_WEIGHT * len(self.w):
            raise ValueError("weights beyond 2^60 are not supported at desk scale")

    @property
    def n(self) -> int:
        return len(self.w)

    @property
    def w_norm(self) -> float:
        return math.sqrt(sum(v * v for v in self.w))

    def is_solution(self, z) -> bool:
        """True when each entry of z is exactly a domain value and w.z = w0."""
        z = np.atleast_1d(z).tolist()
        if len(z) != self.n:
            raise ValueError("dimension mismatch")
        dom = (0, 1) if self.variant == "cube01" else (-1, 1)
        if any(v not in dom for v in z):
            return False
        return sum(wi * int(zi) for wi, zi in zip(self.w, z)) == self.w0

    def solutions(self) -> list[tuple[int, ...]]:
        """All solutions, via meet-in-the-middle over the two halves."""
        n = self.n
        if n > _MITM_LIMIT:
            raise ValueError(f"solution enumeration capped at n = {_MITM_LIMIT}")
        dom = (0, 1) if self.variant == "cube01" else (-1, 1)
        half = n // 2
        left_sums: dict[int, list[tuple[int, ...]]] = {}
        for bits in itertools.product(dom, repeat=half):
            s = sum(wi * zi for wi, zi in zip(self.w[:half], bits))
            left_sums.setdefault(s, []).append(bits)
        out = []
        for bits in itertools.product(dom, repeat=n - half):
            s = sum(wi * zi for wi, zi in zip(self.w[half:], bits))
            for lbits in left_sums.get(self.w0 - s, ()):
                out.append(lbits + bits)
        out.sort()
        return out


def _lambda_deg2(inst: SubsetSumInstance, c: float) -> tuple[float, float]:
    if not math.isfinite(c):
        raise ValueError(f"c must be finite, got {c}")
    m_factor = c * inst.n
    lam = m_factor * inst.w_norm
    if not math.isfinite(2.0 * lam):  # beta's denominator is about 2 lam
        raise ValueError(f"c = {c} overflows the penalty lam = c n ||w||; use a smaller c")
    return m_factor, lam


def gen_deg2_cube_instance(
    inst: SubsetSumInstance, c: float = 4.0
) -> tuple[QuadraticForm, QuadraticForm]:
    """Build (p, f) for the cube construction; both are quadratic forms and
    f = sign-threshold of 1/2 - p, so ``sign_at(f, x)`` is the PTF value."""
    if inst.variant != "cube01":
        raise ValueError("gen_deg2_cube_instance requires the cube01 variant")
    _, lam = _lambda_deg2(inst, c)
    w = np.asarray(inst.w, dtype=float)
    n = inst.n
    A = np.outer(w, w) - lam * np.eye(n)
    b = -2.0 * inst.w0 * w + lam * np.ones(n)
    cst = float(inst.w0) ** 2
    p = QuadraticForm(A=A, b=b, c=cst)
    f = QuadraticForm(A=-A, b=-b, c=0.5 - cst)
    return p, f


def alpha_beta_deg2(inst: SubsetSumInstance, c: float = 4.0) -> tuple[float, float]:
    """Outer radius alpha (sign is -1 beyond it) and inner radius beta
    (sign is +1 within it, around solutions), both in L1 distance.

    alpha solves X(1-X) = 1/(2 lam); beta * ||w|| solves X^2 + M X = 1/2.
    Both are the small roots, written without subtracting nearly equal
    numbers, so they keep full precision at large c.
    """
    m_factor, lam = _lambda_deg2(inst, c)
    if lam <= 2.0:
        raise ValueError(f"penalty lam = {lam} must exceed 2; increase c")
    alpha = (1.0 / lam) / (1.0 + math.sqrt(1.0 - 2.0 / lam))
    beta = 1.0 / (inst.w_norm * (math.hypot(m_factor, math.sqrt(2.0)) + m_factor))
    _check_radii_apart(c, alpha, beta)
    return alpha, beta


def _check_radii_apart(c: float, alpha: float, beta: float) -> None:
    """Refuse radii that rounding has made equal.  Exactly, beta < 1/(2 lam)
    < alpha at degree 2 and beta < 1/sqrt(8 lam) < alpha at degree 4, but the
    gap shrinks with lam below the ulp or so that each radius is off by, so a
    gap of two ulps or less is rounding, not separation."""
    if not alpha - beta > 2.0 * math.ulp(alpha):
        raise ValueError(
            f"at c = {c:g} the radii alpha and beta are equal in double precision "
            f"up to rounding (alpha={alpha!r}, beta={beta!r}); use a smaller c"
        )


@dataclass(frozen=True)
class Classification:
    """Distance-based sign prediction: ``kind`` is one of 'far_from_all',
    'near_solution', 'near_non_solution', 'indeterminate'; ``predicted`` is
    +-1 or None when no prediction is made."""

    kind: str
    nearest: tuple[int, ...]
    distance: float
    predicted: int | None


def _classify_near(
    inst: SubsetSumInstance, z: np.ndarray, dist: float, alpha: float, beta: float
) -> Classification:
    """Classify a point at distance ``dist`` from its nearest cube vertex
    ``z``, given the construction's cluster radii alpha > beta."""
    nearest = tuple(int(v) for v in z)
    if dist > alpha:
        return Classification("far_from_all", nearest, dist, -1)
    if inst.is_solution(z):
        if dist <= beta:
            return Classification("near_solution", nearest, dist, +1)
    elif dist <= 1.0 / (4.0 * inst.w_norm):
        return Classification("near_non_solution", nearest, dist, -1)
    return Classification("indeterminate", nearest, dist, None)


def classify_point_deg2(
    x: np.ndarray, inst: SubsetSumInstance, c: float = 4.0
) -> Classification:
    """Classify a cube point by L1 distance to its nearest Boolean point."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (inst.n,):
        raise ValueError("dimension mismatch")
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise ValueError("point must lie in the unit cube")
    alpha, beta = alpha_beta_deg2(inst, c)
    z = np.where(x >= 0.5, 1, 0)
    return _classify_near(inst, z, float(np.sum(np.abs(x - z))), alpha, beta)


def _simplex_displacements(n: int, radius: float, k: int, rng: Rng) -> np.ndarray:
    # uniform on the solid simplex {d >= 0, sum d <= radius} via n+1
    # exponential spacings
    e = rng.exponential((k, n + 1))
    return radius * e[:, :n] / np.sum(e, axis=1, keepdims=True)


def _first_accepted(propose, advice: str = "") -> np.ndarray:
    """First accepted proposal, trying chunks of 256: ``propose(k)`` returns
    k proposals and their acceptance mask.  Raises RegionSamplingError once
    ``_REGION_TRIES`` proposals are spent, its message ending in ``advice``."""
    tried = 0
    while tried < _REGION_TRIES:
        x, ok = propose(256)
        hit = np.flatnonzero(ok)
        if hit.size:
            return x[hit[0]]
        tried += 256
    raise RegionSamplingError(f"no accepted proposal in {_REGION_TRIES} tries{advice}")


def sample_region_uniform_deg2(
    z,
    inst: SubsetSumInstance,
    c: float,
    rng: Rng,
) -> np.ndarray:
    """Uniform draw from the satisfying cluster around the solution z:
    propose uniformly on the L1 ball of radius alpha (simplex plus random
    signs), keep proposals inside the cube with PTF value +1.  Raises
    RegionSamplingError when none of 200,000 proposals is kept."""
    if not inst.is_solution(z):
        raise ValueError("z is not a solution of the instance")
    z = np.asarray(z, dtype=float)
    alpha, _ = alpha_beta_deg2(inst, c)
    _, f = gen_deg2_cube_instance(inst, c)

    def propose(k: int) -> tuple[np.ndarray, np.ndarray]:
        d = _simplex_displacements(inst.n, alpha, k, rng)
        signs = np.where(rng.uniform((k, inst.n)) < 0.5, -1.0, 1.0)
        x = z + signs * d
        ok = np.all((x >= 0.0) & (x <= 1.0), axis=1)
        return x, ok & (np.asarray(sign_at(f, x)) == 1)

    return _first_accepted(propose, "; c may be too small")


@dataclass(frozen=True)
class QuarticForm:
    """p(x) = (w.x - w0)^2 + lam * sum (x_i^2 - 1)^2, evaluation only."""

    w0: int
    w: tuple[int, ...]
    lam: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "w0", int(self.w0))
        object.__setattr__(self, "w", tuple(int(v) for v in self.w))
        object.__setattr__(self, "lam", float(self.lam))
        if self.lam <= 0.0:
            raise ValueError("penalty must be positive")

    @property
    def n(self) -> int:
        return len(self.w)

    @property
    def w_norm(self) -> float:
        return math.sqrt(sum(v * v for v in self.w))

    def evaluate(self, x: np.ndarray):
        x = np.asarray(x, dtype=float)
        w = np.asarray(self.w, dtype=float)
        s = (x @ w - self.w0) ** 2
        pen = np.sum((x * x - 1.0) ** 2, axis=-1)
        out = s + self.lam * pen
        return float(out) if out.ndim == 0 else out

    def ptf_sign(self, x: np.ndarray):
        """sign(1/2 - p(x)) with sign(0) = +1."""
        v = 0.5 - self.evaluate(x)
        if np.ndim(v) == 0:
            return 1 if v >= 0.0 else -1
        return np.where(np.asarray(v) >= 0.0, 1, -1)


def _radii_deg4(quartic: QuarticForm) -> tuple[float, float]:
    """Cluster radii (alpha, beta) of the quartic form, in the L2 metric.

    alpha solves 4(1-X)^2 X^2 = 1/(2 lam); beta is the one root in [0, 1] of
    g(X) = (||w||^2 + lam (2+X)^2) X^2 - 1/2, which increases there from
    g(0) = -1/2 to g(1) > 0.  Bisection keeps g(lo) < 0 <= g(hi) until lo and
    hi are adjacent doubles, and beta is hi: the double just above the last
    sign change of g as evaluated in floats.
    """
    lam = quartic.lam
    s = math.sqrt(2.0 / lam)
    alpha = 0.5 * s / (1.0 + math.sqrt(1.0 - s))
    wn2 = quartic.w_norm**2

    def g(x: float) -> float:
        return (wn2 + lam * (2.0 + x) ** 2) * x * x - 0.5

    lo, hi = 0.0, 1.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return alpha, hi


def gen_deg4_gauss_instance(
    inst: SubsetSumInstance, c: float = 4.0
) -> tuple[QuarticForm, float, float]:
    """Quartic penalty form plus its cluster radii (alpha, beta), in the L2
    metric (see ``_radii_deg4``)."""
    if inst.variant != "pm1":
        raise ValueError("gen_deg4_gauss_instance requires the pm1 variant")
    if not math.isfinite(c):
        raise ValueError(f"c must be finite, got {c}")
    if c < 1.0:
        raise ValueError("c must be >= 1")
    lam = c * inst.n * max(inst.w_norm**2, float(inst.n))
    if not math.isfinite(10.0 * lam):  # the beta solve evaluates up to 10 lam
        raise ValueError(f"c = {c} overflows the penalty lam = c n max(||w||^2, n); use a smaller c")
    if lam <= 2.0:
        raise ValueError(f"penalty lam = {lam} must exceed 2")
    quartic = QuarticForm(w0=inst.w0, w=inst.w, lam=lam)
    alpha, beta = _radii_deg4(quartic)
    _check_radii_apart(c, alpha, beta)
    return quartic, alpha, beta


def classify_point_deg4(x: np.ndarray, quartic: QuarticForm) -> Classification:
    """Classify a point in R^n by L2 distance to the nearest +-1 point."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (quartic.n,):
        raise ValueError("dimension mismatch")
    inst = SubsetSumInstance(w0=quartic.w0, w=quartic.w, variant="pm1")
    alpha, beta = _radii_deg4(quartic)
    z = np.where(x >= 0.0, 1, -1)
    return _classify_near(inst, z, float(np.linalg.norm(x - z)), alpha, beta)


def _l2_ball_proposals(z: np.ndarray, radius: float, k: int, rng: Rng) -> np.ndarray:
    v = rng.normal((k, z.shape[0]))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    r = radius * rng.uniform(k) ** (1.0 / z.shape[0])
    return z + v * r[:, None]


def sample_region_gauss_deg4(
    z,
    quartic: QuarticForm,
    rng: Rng,
) -> np.ndarray:
    """Draw from N(0,1)^n restricted to the cluster around the solution z:
    propose uniformly on the L2 ball of radius alpha, thin by the Gaussian
    density (normalized by its maximum over the ball), keep PTF value +1.
    Raises RegionSamplingError when none of 200,000 proposals is kept."""
    inst = SubsetSumInstance(w0=quartic.w0, w=quartic.w, variant="pm1")
    if not inst.is_solution(z):
        raise ValueError("z is not a solution of the instance")
    z = np.asarray(z, dtype=float)
    alpha, _ = _radii_deg4(quartic)
    r_min = max(0.0, float(np.linalg.norm(z)) - alpha)

    def propose(k: int) -> tuple[np.ndarray, np.ndarray]:
        x = _l2_ball_proposals(z, alpha, k, rng)
        accept_p = np.exp(-0.5 * (np.sum(x * x, axis=1) - r_min * r_min))
        ok = rng.uniform(k) <= accept_p
        return x, ok & (np.asarray(quartic.ptf_sign(x)) == 1)

    return _first_accepted(propose)


def _ptf_pos(f, x: np.ndarray) -> np.ndarray:
    if isinstance(f, QuadraticForm):
        return np.asarray(sign_at(f, x)) == 1
    if isinstance(f, QuarticForm):
        return np.asarray(f.ptf_sign(x)) == 1
    raise ValueError(f"f must be a QuadraticForm or a QuarticForm, not {type(f).__name__}")


def region_mass_mc(
    f,
    z,
    radius: float,
    measure: str,
    n_samples: int,
    rng: Rng,
) -> tuple[float, float]:
    """Monte Carlo estimate (with 99% CI half-width) of the measure of the
    satisfying cluster within ``radius`` of the Boolean point z.

    cube-uniform: importance proposal uniform on the inward L1 simplex at a
    cube vertex, whose Lebesgue volume radius^n/n! is known exactly; the
    half-width is that volume times the Wilson half-width of the hit
    fraction, so it is not 0 when every proposal hits or none does.
    gaussian: proposal uniform on the L2 ball, reweighted by the Gaussian
    density times the ball volume, with a Wald half-width from the weights'
    spread.  When no proposal hits, that spread is 0, so the half-width is
    the largest weight (the volume times the density at the ball's point
    nearest 0) times the Wilson half-width of 0 hits.
    """
    n_samples = _checked_int("n_samples", n_samples, 1)
    z = np.asarray(z, dtype=float)
    n = z.shape[0]
    if measure == "cube-uniform":
        if not np.all((z == 0.0) | (z == 1.0)):
            raise ValueError("cube-uniform cluster centers must be cube vertices")
        if not 0.0 < radius < 1.0:
            raise ValueError("radius must lie in (0, 1) for vertex clusters")
        inward = np.where(z == 0.0, 1.0, -1.0)
        d = _simplex_displacements(n, radius, n_samples, rng)
        x = z + inward * d
        vol = math.exp(n * math.log(radius) - math.lgamma(n + 1))
        hit = _ptf_pos(f, x)
        p = float(np.mean(hit))
        est = vol * p
        return est, vol * _wilson_half_width(p, n_samples)
    if measure == "gaussian":
        x = _l2_ball_proposals(z, radius, n_samples, rng)
        log_vol = 0.5 * n * math.log(math.pi) + n * math.log(radius) - math.lgamma(0.5 * n + 1.0)
        log_norm = -0.5 * n * math.log(2 * math.pi)
        hit = _ptf_pos(f, x)
        if not hit.any():
            near = max(float(np.linalg.norm(z)) - radius, 0.0)
            top = math.exp(log_vol + log_norm - 0.5 * near * near)
            return 0.0, top * _wilson_half_width(0.0, n_samples)
        dens = np.exp(-0.5 * np.sum(x * x, axis=1) + log_norm)
        wts = np.where(hit, dens, 0.0) * math.exp(log_vol)
        est = float(np.mean(wts))
        half = _Z99 * float(np.std(wts)) / math.sqrt(n_samples)
        return est, half
    raise ValueError(f"unknown measure {measure!r}")


def instance_to_dict(inst: SubsetSumInstance, c: float) -> dict:
    return {
        "variant": inst.variant,
        "w0": inst.w0,
        "w": list(inst.w),
        "c": float(c),
    }
