"""Degree-2 polynomials, their threshold functions, and canonical forms.

A ``QuadraticForm`` is p(x) = x^T A x + b^T x + c with symmetric A; the
associated PTF is sign(p) with the convention sign(0) = +1.  ``decouple``
rotates to eigencoordinates and rewrites the acceptance region
{x : p(x) >= 0} as {R y : sum_i lam_i y_i^2 + mu_i y_i <= theta}, which is
the single canonical direction every downstream consumer (counting,
sampling) works with.  Under a standard normal input the rotated coordinates
are again independent standard normals, so the decoupled constraint is a sum
of independent one-dimensional pieces.

``normalize`` rescales so sum(lam^2 + mu^2) = 1, at any finite scale of
the input, leaving the acceptance region unchanged; counting and sampling
work on that normalized form.  ``round_coefficients`` snaps lam, mu onto
the lattice gamma*Z within a documented perturbation bound; the pipeline
does not use it.  Whether a constraint is normalized is read from its
coefficients, not stored with them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "QuadraticForm",
    "DecoupledConstraint",
    "RoundingConfig",
    "ConstantPolynomialError",
    "evaluate",
    "sign_at",
    "decouple",
    "normalize",
    "round_coefficients",
    "instance_to_dict",
    "instance_from_dict",
    "load_instance",
    "save_instance",
]


class ConstantPolynomialError(ValueError):
    """The constraint has no variable part, or one that is negligible beside
    theta; the caller should answer from the sign of the constant directly."""

    def __init__(self, theta: float):
        super().__init__("constant polynomial: lambda, mu are zero or negligible beside theta")
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
    if isinstance(v, float):  # one point
        return 1 if v >= 0.0 else -1
    return np.where(np.asarray(v) >= 0.0, 1, -1)


@dataclass(frozen=True)
class DecoupledConstraint:
    """Acceptance region 'sum_i lam_i y_i^2 + mu_i y_i <= theta' in rotated
    coordinates y, with x = rotation @ y mapping back to the original space.

    Every value is finite and the shapes agree, or ValueError.  Any scale of
    (lam, mu, theta) describes the same region; ``normalize`` picks the one
    with sum(lam^2 + mu^2) = 1, which ``round_coefficients`` checks."""

    lam: np.ndarray
    mu: np.ndarray
    theta: float
    rotation: np.ndarray

    def __post_init__(self) -> None:
        lam = _readonly(np.atleast_1d(self.lam))
        mu = _readonly(np.atleast_1d(self.mu))
        rot = _readonly(np.atleast_2d(self.rotation))
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "theta", float(self.theta))
        n = lam.shape[0]
        if n < 1:
            raise ValueError("lambda, mu and rotation must be nonempty")
        if mu.shape != (n,) or rot.shape != (n, n):
            raise ValueError("lambda, mu, rotation have inconsistent shapes")
        if not (all(np.isfinite(a).all() for a in (lam, mu, rot)) and math.isfinite(self.theta)):
            raise ValueError("lambda, mu, theta and rotation must be finite")

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
    """Lattice steps for ``round_coefficients``.

    Both must be exact powers of two in (0, 1): coefficient rounding step
    ``gamma`` and grid step ``tau``.  Power-of-two steps keep every product
    lam'*kappa^2 + mu'*kappa exactly representable.  ``gamma`` must also be
    at least 2^-1022, the smallest normal double: below it, rounding divides
    a coefficient by gamma and overflows.
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


def _snap_negligible(v: np.ndarray, ref: np.ndarray) -> None:
    """Set each entry of ``v`` with |v_i| <= 1e-14 ||ref||_F to exactly 0.

    Both are first divided by the power of two at the largest |ref| entry,
    which is exact, so the norm does not overflow at any finite scale."""
    e = -math.frexp(float(np.max(np.abs(ref))))[1]
    v[np.abs(np.ldexp(v, e)) <= 1e-14 * np.linalg.norm(np.ldexp(ref, e))] = 0.0


def decouple(q: QuadraticForm) -> DecoupledConstraint:
    """Rotate p into a sum of independent univariate quadratics.

    With A = R diag(w) R^T from LAPACK (``np.linalg.eigh``, which reads one
    triangle of A and scales it internally, so any finite A is solved) and w
    sorted descending, the region {x : p(x) >= 0} equals
    {R y : sum_i (-w_i) y_i^2 + (-R^T b)_i y_i <= c}.

    An eigenvalue within the solver's backward error of 0 (about n eps ||A||,
    under 3.6e-15 ||A||_F at n = 32), |w_i| <= 1e-14 ||A||_F, is set to
    exactly 0, and so is a linear term with |(R^T b)_i| <= 1e-14 ||b||.  A
    rank-deficient A given in a rotated basis otherwise leaves about +-1e-17
    on its null space: the counter then convolves a full grid pmf for that
    coordinate rather than a point mass, and a negative one leaves the
    region unbounded, so that ``sampler.region_source`` takes an empty
    region for a thin one.  An eigenvalue or linear term beyond the float
    range raises ValueError.
    """
    w, r = np.linalg.eigh(q.A)
    order = np.argsort(-w, kind="stable")
    lam, r = -w[order], r[:, order]
    with np.errstate(over="ignore"):  # reported by the ValueError below
        mu = -(r.T @ q.b)
    if not (np.isfinite(lam).all() and np.isfinite(mu).all()):
        raise ValueError(
            "an eigenvalue of A or a coefficient of R^T b overflows the float range"
        )
    _snap_negligible(lam, q.A)
    _snap_negligible(mu, q.b)
    return DecoupledConstraint(lam=lam, mu=mu, theta=q.c, rotation=r)


def normalize(dc: DecoupledConstraint) -> DecoupledConstraint:
    """Scale (lam, mu, theta) so that sum(lam^2 + mu^2) = 1 to within a few
    roundings, with the region unchanged.

    The coefficients are first divided by the power of two at the largest
    |coefficient|, which is exact, so no square overflows or underflows to
    0 at any finite scale and the result is the same as without that step.
    Raises ConstantPolynomialError when all coefficients vanish, or when
    the scaled theta overflows, so that the region holds all or none of the
    Gaussian mass in floats; the error carries the 0/1 answer derived from
    the sign of theta.
    """
    top = max(float(np.max(np.abs(dc.lam))), float(np.max(np.abs(dc.mu))))
    if top == 0.0:
        raise ConstantPolynomialError(dc.theta)
    e = -math.frexp(top)[1]
    lam, mu = np.ldexp(dc.lam, e), np.ldexp(dc.mu, e)
    s = 1.0 / math.sqrt(float(np.sum(lam**2) + np.sum(mu**2)))
    try:
        theta = math.ldexp(dc.theta * s, e)
    except OverflowError:
        theta = math.inf
    if math.isinf(theta):
        raise ConstantPolynomialError(dc.theta)
    return replace(dc, lam=lam * s, mu=mu * s, theta=theta)


def round_coefficients(
    dc: DecoupledConstraint, cfg: RoundingConfig
) -> DecoupledConstraint:
    """Snap lam and mu to the nearest integral multiples of gamma.

    Requires a normalized input, |sum(lam^2 + mu^2) - 1| <= 1e-10 as
    ``normalize`` leaves it, and n*gamma^2 <= 1/4; under that precondition
    the rounded coefficients certify 1/2 <= sum(lam'^2 + mu'^2) <= 3/2 and
    the total squared perturbation is at most n*gamma^2/2.  theta is left
    untouched.  Either precondition failing raises ValueError.
    """
    if abs(float(np.sum(dc.lam**2) + np.sum(dc.mu**2)) - 1.0) > 1e-10:
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
    return replace(dc, lam=lam, mu=mu)


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


def _numbers(doc: dict, key: str, depth: int = 0):
    """Field ``key`` as JSON numbers (no boolean or string): one at depth 0,
    as a float, or an array at depth 1 or of equal-length arrays at depth 2,
    as floats; otherwise ValueError naming the field."""
    if key not in doc:
        raise ValueError(f"missing field {key!r}")
    value = doc[key]

    def fits(v, d: int) -> bool:
        return type(v) in (int, float) if d == 0 else type(v) is list and all(fits(x, d - 1) for x in v)

    if not fits(value, depth) or (depth == 2 and len(set(map(len, value))) > 1):
        kind = ("a number", "an array of numbers", "an array of equal-length arrays of numbers")[depth]
        got = f", got {json.dumps(value)}" if depth == 0 else ""
        raise ValueError(f"field {key!r} must be {kind}{got}")
    try:
        return np.asarray(value, dtype=float) if depth else float(value)
    except OverflowError:
        raise ValueError(f"field {key!r} holds an integer beyond the float range") from None


def instance_from_dict(doc: dict) -> QuadraticForm | DecoupledConstraint:
    """The instance a JSON object describes: ``{"n", "A", "b", "c"}``, n an
    integer >= 1, or ``{"decoupled": {"lambda", "mu", "theta"}}``; the other
    fields hold JSON numbers.  Otherwise ValueError, naming the field."""
    if type(doc) is not dict:
        raise ValueError("the instance must be a JSON object")
    d = doc.get("decoupled", {})
    if type(d) is not dict:
        raise ValueError("field 'decoupled' must be a JSON object")
    if "decoupled" in doc:
        lam = _numbers(d, "lambda", 1)
        mu, theta = _numbers(d, "mu", 1), _numbers(d, "theta")
        return DecoupledConstraint(lam=lam, mu=mu, theta=theta, rotation=np.eye(lam.size))
    n = _numbers(doc, "n")
    if type(doc["n"]) is not int or n < 1:
        raise ValueError(f"field 'n' must be an integer >= 1, got {json.dumps(doc['n'])}")
    A = _numbers(doc, "A", 2)
    if A.shape != (n, n):
        raise ValueError(f"field 'A' has shape {A.shape}, expected ({doc['n']}, {doc['n']})")
    return QuadraticForm(A=A, b=_numbers(doc, "b", 1), c=_numbers(doc, "c"))


def load_instance(path: str) -> QuadraticForm | DecoupledConstraint:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_dict(json.load(fh))


def save_instance(obj: QuadraticForm | DecoupledConstraint, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_dict(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")
