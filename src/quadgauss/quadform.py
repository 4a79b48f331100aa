"""Degree-2 polynomials, their threshold functions, and canonical forms.

A ``QuadraticForm`` is p(x) = x^T A x + b^T x + c with symmetric A; the
associated PTF is sign(p) with the convention sign(0) = +1.  ``decouple``
rotates to eigencoordinates and rewrites the acceptance region
{x : p(x) >= 0} as {R y : sum_i lam_i y_i^2 + mu_i y_i <= theta}, which is
the single canonical direction every downstream consumer (counting,
sampling) works with.  Under a standard normal input the rotated coordinates
are again independent standard normals, so the decoupled constraint is a sum
of independent one-dimensional pieces.

``normalize`` rescales so sum(lam^2 + mu^2) = 1 and ``round_coefficients``
snaps lam, mu onto the lattice gamma*Z; both leave the acceptance region
unchanged up to the documented perturbation bounds.  ``coordinate_box``
bounds the region coordinate by coordinate, in closed form.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .numerics import jacobi_eigen

__all__ = [
    "QuadraticForm",
    "DecoupledConstraint",
    "RoundingConfig",
    "ConstantPolynomialError",
    "evaluate",
    "sign_at",
    "decouple",
    "coordinate_box",
    "normalize",
    "round_coefficients",
    "gaussian_variance",
    "instance_to_dict",
    "instance_from_dict",
    "load_instance",
    "save_instance",
]


class ConstantPolynomialError(ValueError):
    """The constraint has no variable part; the caller should answer from
    the sign of the constant directly."""

    def __init__(self, theta: float):
        super().__init__("constant polynomial: all of lambda, mu are zero")
        self.theta = float(theta)
        #: Gaussian measure of the acceptance region (0 or 1 exactly).
        self.mass = 1.0 if theta >= 0.0 else 0.0


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class QuadraticForm:
    """p(x) = x^T A x + b^T x + c with A symmetric (tolerance 1e-12)."""

    A: np.ndarray
    b: np.ndarray
    c: float

    def __post_init__(self) -> None:
        A = _readonly(np.atleast_2d(self.A))
        b = _readonly(np.atleast_1d(self.b))
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", float(self.c))
        n = A.shape[0]
        if n < 1 or A.shape != (n, n):
            raise ValueError(f"A must be square and nonempty, got {A.shape}")
        if b.shape != (n,):
            raise ValueError(f"b has shape {b.shape}, expected ({n},)")
        if not (np.isfinite(A).all() and np.isfinite(b).all() and math.isfinite(self.c)):
            raise ValueError("A, b and c must be finite")
        scale = max(1.0, float(np.max(np.abs(A))))
        if float(np.max(np.abs(A - A.T))) > 1e-12 * scale:
            raise ValueError("A is not symmetric within tolerance 1e-12")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def is_constant(self) -> bool:
        """A = 0 and b = 0: sign(q) is sign(c) at every point, sign(0) = +1."""
        return not (self.A.any() or self.b.any())


def evaluate(q: QuadraticForm, x: np.ndarray) -> float | np.ndarray:
    """p(x); accepts a single point of shape (n,) or a batch (..., n)."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != q.n:
        raise ValueError(f"dimension mismatch: x has {x.shape[-1]}, form has {q.n}")
    if x.ndim == 1:
        return float((x @ q.A) @ x + x @ q.b + q.c)
    # two operands: einsum's three-operand path is ~6x slower on batches
    return np.einsum("...i,...i->...", x @ q.A, x) + x @ q.b + q.c


def sign_at(q: QuadraticForm, x: np.ndarray) -> int | np.ndarray:
    """sign(p(x)) with sign(0) = +1."""
    v = evaluate(q, x)
    if np.ndim(v) == 0:
        return 1 if v >= 0.0 else -1
    return np.where(np.asarray(v) >= 0.0, 1, -1)


@dataclass(frozen=True)
class DecoupledConstraint:
    """Acceptance region 'sum_i lam_i y_i^2 + mu_i y_i <= theta' in rotated
    coordinates y, with x = rotation @ y mapping back to the original space."""

    lam: np.ndarray
    mu: np.ndarray
    theta: float
    rotation: np.ndarray
    normalized: bool = False

    def __post_init__(self) -> None:
        lam = _readonly(np.atleast_1d(self.lam))
        mu = _readonly(np.atleast_1d(self.mu))
        rot = _readonly(np.atleast_2d(self.rotation))
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "theta", float(self.theta))
        n = lam.shape[0]
        if mu.shape != (n,) or rot.shape != (n, n):
            raise ValueError("lambda, mu, rotation have inconsistent shapes")
        if not (all(np.isfinite(a).all() for a in (lam, mu, rot)) and math.isfinite(self.theta)):
            raise ValueError("lambda, mu, theta and rotation must be finite")
        if self.normalized:
            total = float(np.sum(lam**2) + np.sum(mu**2))
            if abs(total - 1.0) > 1e-10:
                raise ValueError(f"normalized flag set but sum of squares = {total}")

    @property
    def n(self) -> int:
        return self.lam.shape[0]

    def value(self, y: np.ndarray) -> float | np.ndarray:
        """sum_i lam_i y_i^2 + mu_i y_i for one point or a batch (..., n)."""
        y = np.asarray(y, dtype=float)
        out = (y * y) @ self.lam + y @ self.mu
        return float(out) if out.ndim == 0 else out

    def accepts(self, y: np.ndarray) -> bool | np.ndarray:
        v = self.value(y)
        if np.ndim(v) == 0:
            return bool(v <= self.theta)
        return np.asarray(v) <= self.theta


@dataclass(frozen=True)
class RoundingConfig:
    """Lattice steps used by the discrete pipeline.

    Both must be exact powers of two in (0, 1): coefficient rounding step
    ``gamma`` and grid step ``tau``.  Power-of-two steps keep every product
    lam'*kappa^2 + mu'*kappa exactly representable, which the counting engine
    relies on for collision-free support merging.  ``gamma`` must also be at
    least 2^-1022, the smallest normal double: below it, rounding divides a
    coefficient by gamma and overflows.
    """

    gamma: float
    tau: float

    def __post_init__(self) -> None:
        for name, v in (("gamma", self.gamma), ("tau", self.tau)):
            v = float(v)
            if not (0.0 < v < 1.0):
                raise ValueError(f"{name} must lie in (0, 1), got {v}")
            exp = math.log2(v)
            if exp != math.floor(exp):
                raise ValueError(f"{name} must be an exact power of 2, got {v}")
        if self.gamma < 2.0**-1022:
            raise ValueError(f"gamma must be at least 2^-1022, got {self.gamma}")
        object.__setattr__(self, "gamma", float(self.gamma))
        object.__setattr__(self, "tau", float(self.tau))


def decouple(q: QuadraticForm) -> DecoupledConstraint:
    """Rotate p into a sum of independent univariate quadratics.

    With A = R diag(w) R^T the region {x : p(x) >= 0} equals
    {R y : sum_i (-w_i) y_i^2 + (-R^T b)_i y_i <= c}.
    """
    w, r = jacobi_eigen(q.A)
    return DecoupledConstraint(
        lam=-w, mu=-(r.T @ q.b), theta=q.c, rotation=r, normalized=False
    )


# Outward margin of each finite end of a coordinate box, relative to the end:
# it covers the few roundings of the root formulas.
_BOX_PAD = 1e-9
_EPS = float(np.finfo(float).eps)


def _root_interval(lam: float, mu: float, r: float) -> tuple[float, float]:
    """{y : lam y^2 + mu y <= r} for lam >= 0 as (lo, hi), which is
    (inf, -inf) when the set is empty or a single point."""
    if lam == 0.0:
        if mu > 0.0:
            return -math.inf, r / mu
        if mu < 0.0:
            return r / mu, math.inf
        return (-math.inf, math.inf) if r >= 0.0 else (math.inf, -math.inf)
    # raise the discriminant by its rounding bound, so the roots can only
    # move outward
    d = mu * mu + 4.0 * lam * r
    d += 4.0 * _EPS * (mu * mu + 4.0 * lam * abs(r))
    if d <= 0.0:
        return math.inf, -math.inf
    q = -0.5 * (mu + math.copysign(math.sqrt(d), mu))
    return min(q / lam, -r / q), max(q / lam, -r / q)


def coordinate_box(dc: DecoupledConstraint) -> tuple[np.ndarray, np.ndarray]:
    """Bounds (lo, hi) per rotated coordinate whose box contains the region
    sum_i lam_i y_i^2 + mu_i y_i <= theta; an unbounded end is +-inf.

    With m_j = min over y of lam_j y^2 + mu_j y, which is -mu_j^2/(4 lam_j)
    when lam_j > 0, 0 when lam_j = mu_j = 0 and -inf otherwise, every point
    of the region has lam_i y_i^2 + mu_i y_i <= r_i = theta - sum_{j != i} m_j.
    Coordinate i gets the interval of that set, or the whole line when the
    set is not one interval (lam_i < 0) or r_i = +inf.  The roots come from
    q = -(mu + sign(mu) sqrt(d))/2 as q/lam and -r/q, which does not cancel;
    r_i and the discriminant are raised by their rounding bounds and each
    finite end is widened by a relative 1e-9, so rounding can only enlarge
    the box.  Raises ValueError when an interval is empty or a single point:
    the region then has Gaussian mass 0.
    """
    lam, mu, n = dc.lam, dc.mu, dc.n
    m = np.zeros(n)
    up = lam > 0.0
    m[up] = -mu[up] ** 2 / (4.0 * lam[up])
    m[(lam < 0.0) | ((lam == 0.0) & (mu != 0.0))] = -np.inf
    lo = np.full(n, -np.inf)
    hi = np.full(n, np.inf)
    for i in range(n):
        rest = np.delete(m, i)
        if lam[i] < 0.0 or np.isneginf(rest).any():
            continue
        size = abs(dc.theta) + float(np.sum(np.abs(rest)))
        r = dc.theta - float(np.sum(rest)) + 2.0 * (n + 3) * _EPS * size
        a, b = _root_interval(float(lam[i]), float(mu[i]), r)
        if not a < b:
            raise ValueError(f"the region has Gaussian mass 0: coordinate {i} admits no interval")
        lo[i] = a - _BOX_PAD * abs(a)
        hi[i] = b + _BOX_PAD * abs(b)
    return lo, hi


def normalize(dc: DecoupledConstraint) -> DecoupledConstraint:
    """Scale (lam, mu, theta) so that sum(lam^2 + mu^2) = 1.

    Raises ConstantPolynomialError when all coefficients vanish; the error
    carries the 0/1 answer derived from the sign of theta.
    """
    total = float(np.sum(dc.lam**2) + np.sum(dc.mu**2))
    if total == 0.0:
        raise ConstantPolynomialError(dc.theta)
    s = 1.0 / math.sqrt(total)
    out = replace(
        dc, lam=dc.lam * s, mu=dc.mu * s, theta=dc.theta * s, normalized=False
    )
    # Renormalize once more against float drift before stamping the flag.
    t2 = float(np.sum(out.lam**2) + np.sum(out.mu**2))
    if abs(t2 - 1.0) > 1e-12:
        s2 = 1.0 / math.sqrt(t2)
        out = replace(out, lam=out.lam * s2, mu=out.mu * s2, theta=out.theta * s2)
    return replace(out, normalized=True)


def round_coefficients(
    dc: DecoupledConstraint, cfg: RoundingConfig
) -> DecoupledConstraint:
    """Snap lam and mu to the nearest integral multiples of gamma.

    Requires a normalized input and n*gamma^2 <= 1/4; under that precondition
    the rounded coefficients certify 1/2 <= sum(lam'^2 + mu'^2) <= 3/2 and
    the total squared perturbation is at most n*gamma^2/2.  theta is left
    untouched.
    """
    if not dc.normalized:
        raise ValueError("round_coefficients requires a normalized constraint")
    g = cfg.gamma
    if dc.n * g * g > 0.25:
        raise ValueError(f"n*gamma^2 = {dc.n * g * g} exceeds 1/4; choose smaller gamma")
    lam = np.rint(dc.lam / g) * g
    mu = np.rint(dc.mu / g) * g
    total = float(np.sum(lam**2) + np.sum(mu**2))
    if not (0.5 <= total <= 1.5):
        raise ValueError(
            f"rounded coefficient mass {total} escaped [1/2, 3/2]; gamma too coarse"
        )
    return replace(dc, lam=lam, mu=mu, normalized=False)


def gaussian_variance(dc: DecoupledConstraint) -> float:
    """Variance of sum_i lam_i G_i^2 + mu_i G_i under independent N(0,1).

    Each summand splits into orthogonal Hermite components of variances
    2*lam_i^2 and mu_i^2.
    """
    return float(np.sum(2.0 * dc.lam**2 + dc.mu**2))


# --- instance (de)serialization, shared with the CLI ---------------------


def instance_to_dict(obj: QuadraticForm | DecoupledConstraint) -> dict:
    if isinstance(obj, QuadraticForm):
        return {
            "n": obj.n,
            "A": [[float(v) for v in row] for row in obj.A],
            "b": [float(v) for v in obj.b],
            "c": float(obj.c),
        }
    if isinstance(obj, DecoupledConstraint):
        return {
            "decoupled": {
                "lambda": [float(v) for v in obj.lam],
                "mu": [float(v) for v in obj.mu],
                "theta": float(obj.theta),
            }
        }
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def instance_from_dict(doc: dict) -> QuadraticForm | DecoupledConstraint:
    if "decoupled" in doc:
        d = doc["decoupled"]
        lam = np.asarray(d["lambda"], dtype=float)
        n = lam.shape[0]
        return DecoupledConstraint(
            lam=lam,
            mu=np.asarray(d["mu"], dtype=float),
            theta=float(d["theta"]),
            rotation=np.eye(n),
        )
    n = int(doc["n"])
    A = np.asarray(doc["A"], dtype=float)
    if A.shape != (n, n):
        raise ValueError(f"A has shape {A.shape}, expected ({n}, {n})")
    return QuadraticForm(A=A, b=np.asarray(doc["b"], dtype=float), c=float(doc["c"]))


def load_instance(path: str) -> QuadraticForm | DecoupledConstraint:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_dict(json.load(fh))


def save_instance(obj: QuadraticForm | DecoupledConstraint, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_dict(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")
