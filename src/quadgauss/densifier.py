"""Learning a containing degree-2 region from positive samples only.

The loop (after De, Diakonikolas and Servedio, 2015) maintains an online
halfspace learner over the degree-2 monomial expansion (so its linear
hypotheses are exactly degree-2 threshold functions).  Misclassified
positives from the sample pool are fed with label +1 until the pool is
covered.  The dimension n comes from a zero-point request to the positive
source, and the pool is drawn only when a hypothesis could reject one of its
points: the starting hypothesis, +1 everywhere, covers any pool, so a run
that stops at round 0 draws no point at all.  Once the pool is covered, the
hypothesis region's Gaussian mass is counted to within (1 +- delta) (the
constant starting hypothesis exactly, without decoupling it), and
either the caller's target mass estimate p_hat is already a gamma/2
fraction of it (terminate: the hypothesis is dense enough) or a
fresh point drawn from the Gaussian conditioned on the hypothesis is fed
with label -1, which is correct with probability 1 - gamma per draw since
the target occupies less than a gamma fraction of the hypothesis.  Target
positives and hypothesis negatives alike come from
``sampler.region_source``, exact rejection from a tilted Gaussian; the
densifier builds no sampling table.  With mistake budget M,
gamma = 1/(8M) and at most 4M + 16 negatives are drawn.  Points are rounded
to the lattice of step ``_KAPPA`` before entering the learner; how often that
flips the hypothesis sign is tracked and must stay below 1%.

The learner is a central-cut ellipsoid over weight space: predict with the
center, cut on each violated constraint, and keep cutting until the center
is consistent with every example fed so far.  Each cut shrinks the
ellipsoid volume by e^(-1/(2(m+1))), so when some halfspace separates the
examples with margin at least ``_MARGIN_FLOOR`` = 1e-6, the total number of
cuts (hence of mistakes) is at most ~2 m (m+1) ln(1/_MARGIN_FLOOR), the
learner's ``cut_budget`` and the default mistake budget M.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import TextIO

import numpy as np

from .counter import count_ptf_gaussian, mc_count
from .numerics import Rng, _checked_int, _wilson_half_width
from .quadform import QuadraticForm, decouple, sign_at
from .sampler import region_source

__all__ = [
    "feature_dim",
    "feature_map",
    "quadratic_from_weights",
    "weights_from_quadratic",
    "EllipsoidLearner",
    "DensifierConfig",
    "DensifyResult",
    "BudgetExhaustedError",
    "KappaFlipError",
    "MarginError",
    "densify",
    "planted_experiment",
]


def feature_dim(n: int) -> int:
    """n linear + n(n+1)/2 quadratic monomials + constant 1."""
    return n + n * (n + 1) // 2 + 1


def feature_map(x: np.ndarray) -> np.ndarray:
    """Degree-2 monomial expansion (x_1..x_n, x_1^2, x_1 x_2, ..., x_n^2, 1).

    Accepts one point (n,) or a batch (k, n); linear functions of the output
    correspond bijectively to degree-2 polynomials in x.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = x[None, :] if single else x
    k, n = pts.shape
    iu, ju = np.triu_indices(n)
    out = np.concatenate(
        [pts, pts[:, iu] * pts[:, ju], np.ones((k, 1))],
        axis=1,
    )
    return out[0] if single else out


def quadratic_from_weights(weights: np.ndarray, n: int) -> QuadraticForm:
    """Interpret a feature-space weight vector as a quadratic form: the
    hypothesis sign(<w, feature_map(x)>) equals sign_at of the result."""
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (feature_dim(n),):
        raise ValueError(f"expected {feature_dim(n)} weights for n = {n}")
    b = weights[:n]
    iu, ju = np.triu_indices(n)
    A = np.zeros((n, n))
    quad = weights[n : n + iu.size]
    A[iu, ju] = quad
    A[ju, iu] = quad
    off = iu != ju  # cross terms split evenly across the two mirror entries
    A[iu[off], ju[off]] /= 2.0
    A[ju[off], iu[off]] /= 2.0
    return QuadraticForm(A=A, b=b, c=float(weights[-1]))


def weights_from_quadratic(q: QuadraticForm) -> np.ndarray:
    """Inverse of :func:`quadratic_from_weights`."""
    iu, ju = np.triu_indices(q.n)
    quad = np.where(iu == ju, q.A[iu, ju], 2.0 * q.A[iu, ju])
    return np.concatenate([q.b, quad, [q.c]])


class MarginError(RuntimeError):
    """No halfspace with the requested margin is consistent with the
    constraints fed so far."""


_MARGIN_FLOOR = 1e-6  # least margin the learner assumes a separating halfspace has


class EllipsoidLearner:
    """Online halfspace learner by central-cut ellipsoid over weight space.

    predict() uses the center with sign(0) = +1; update() records the
    example, counts a mistake when the prediction was wrong, and applies
    central cuts until the center is consistent with everything recorded.
    More than ``cut_budget`` cuts raise MarginError.
    """

    def __init__(self, dim: int):
        if dim < 2:
            raise ValueError("ellipsoid learner needs dimension >= 2")
        self.dim = dim
        self.center = np.zeros(dim)
        self.shape = np.eye(dim)
        self.mistakes = 0
        self.cuts = 0
        self.cut_budget = int(math.ceil(2.0 * dim * (dim + 1) * math.log(1.0 / _MARGIN_FLOOR))) + dim
        self._examples: list[tuple[np.ndarray, int]] = []

    @property
    def weights(self) -> np.ndarray:
        return self.center.copy()

    def predict(self, v: np.ndarray) -> int:
        return 1 if float(self.center @ v) >= 0.0 else -1

    def _violated(self, v: np.ndarray, label: int) -> bool:
        s = float(self.center @ v)
        return s < 0.0 if label == 1 else s >= 0.0

    def _cut(self, a: np.ndarray) -> None:
        # keep the halfspace {w : a.w >= 0}; the center currently violates it
        m = self.dim
        pa = self.shape @ a
        denom = float(a @ pa)
        if denom <= 0.0:
            raise MarginError("ellipsoid collapsed; constraints are inconsistent")
        g = pa / math.sqrt(denom)
        self.center = self.center + g / (m + 1.0)
        self.shape = (m * m / (m * m - 1.0)) * (
            self.shape - (2.0 / (m + 1.0)) * np.outer(pa, pa) / denom
        )
        self.shape = 0.5 * (self.shape + self.shape.T)
        self.cuts += 1
        if self.cuts > self.cut_budget:
            raise MarginError(
                f"cut budget {self.cut_budget} exhausted; no consistent halfspace "
                f"with margin {_MARGIN_FLOOR} appears to exist"
            )

    def update(self, v: np.ndarray, label: int) -> None:
        v = np.asarray(v, dtype=float)
        norm = float(np.linalg.norm(v))
        if norm == 0.0:
            raise ValueError("zero feature vector")
        v = v / norm
        if self.predict(v) != label:
            self.mistakes += 1
        self._examples.append((v, int(label)))
        # restore consistency with everything recorded so far
        progress = True
        while progress:
            progress = False
            for ev, el in self._examples:
                if self._violated(ev, el):
                    self._cut(el * ev)
                    progress = True


# Points fed to the learner are rounded to this lattice first.
_KAPPA = 2.0**-16


@dataclass(frozen=True)
class DensifierConfig:
    """Accuracy eps and confidence delta of one densifier run, plus the pool
    size and mistake budget, which ``resolve`` derives when left None (n_pos
    from the coverage bound, the budget M from the learner's own bound).

    Everything else follows from these: the density bar ``gamma`` = 1/(8M),
    a cap of 4M + 16 negative rounds, and a hypothesis count to within
    (1 +- delta).  A field out of range, or an ``n_pos`` or
    ``mistake_budget`` that is not an integer, raises ValueError."""

    eps: float = 0.1
    delta: float = 0.1
    n_pos: int | None = None
    mistake_budget: int | None = None

    def __post_init__(self) -> None:
        for name, v in (("eps", self.eps), ("delta", self.delta)):
            if not (0.0 < v < 1.0):
                raise ValueError(f"{name} must lie in (0, 1), got {v}")
        for name, least in (("n_pos", 1), ("mistake_budget", 0)):
            v = getattr(self, name)
            if v is not None:
                object.__setattr__(self, name, _checked_int(name, v, least))

    def resolve(self, n: int) -> "DensifierConfig":
        m = feature_dim(n)
        budget = self.mistake_budget
        if budget is None:
            budget = EllipsoidLearner(m).cut_budget
        pos_floor = int(math.ceil((m * m + math.log(1.0 / self.delta)) / self.eps**2))
        n_pos = self.n_pos if self.n_pos is not None else pos_floor
        if n_pos < pos_floor:
            raise ValueError(
                f"n_pos = {n_pos} is below the coverage bound {pos_floor} for "
                f"eps = {self.eps}, delta = {self.delta}"
            )
        return replace(self, n_pos=n_pos, mistake_budget=budget)

    @property
    def gamma(self) -> float:
        """Density bar 1/(8M) of a resolved config; ValueError while the
        budget M is still None."""
        if self.mistake_budget is None:
            raise ValueError("gamma needs the mistake budget: call resolve(n) first")
        return 1.0 / (8.0 * max(self.mistake_budget, 1))


class BudgetExhaustedError(RuntimeError):
    """The run hit its mistake or round budget before the density test
    fired; the transcript so far is attached."""

    def __init__(self, message: str, transcript: list[dict]):
        super().__init__(message)
        self.transcript = transcript


class KappaFlipError(RuntimeError):
    """Rounding fed points to the kappa lattice flipped the learner's
    prediction on more than 1% of them; the transcript is attached."""

    def __init__(self, message: str, transcript: list[dict]):
        super().__init__(message)
        self.transcript = transcript


@dataclass
class DensifyResult:
    hypothesis: QuadraticForm
    transcript: list[dict] = field(repr=False)
    mistakes: int = 0
    rounds: int = 0
    kappa_flip_fraction: float = 0.0
    density_estimate: float = 1.0


def _round_kappa(x: np.ndarray) -> np.ndarray:
    return np.rint(np.asarray(x, dtype=float) / _KAPPA) * _KAPPA


def densify(
    pos_source,
    p_hat: float,
    cfg: DensifierConfig,
    rng: Rng,
    f_oracle=None,
) -> DensifyResult:
    """Run the densifier loop against a stream of positive examples.

    ``pos_source(k)`` must return k fresh draws from the target-conditioned
    Gaussian as an array (k, n).  It is called once with k = 0, whose (0, n)
    reply gives n, and then once with ``n_pos`` for the pool, at the first
    hypothesis that is not +1 everywhere.  A run that stops at round 0
    therefore draws no point.  A constant hypothesis is counted exactly
    and decoupled only when a negative is drawn from it, so a run that
    stops at round 0 makes no eigensolve either.  ``p_hat`` is the caller's
    estimate of the target mass, which the density termination test
    compares against.
    ``f_oracle`` (batch points -> +-1), when given, is used only to annotate
    the transcript with true labels.

    Returns the hypothesis as a quadratic form whose sign agrees with the
    learner, plus the full event transcript.  Raises BudgetExhaustedError if
    the budgets run out before the density test passes, and ValueError for
    a ``p_hat`` outside (0, 1] (before any request), a zero-point reply that
    is not (0, n) with n >= 1 (before any count), or a pool whose shape is
    not (n_pos, n).
    """
    if not (0.0 < p_hat <= 1.0):
        raise ValueError(f"p_hat must lie in (0, 1], got {p_hat}")
    shape = np.shape(pos_source(0))
    if len(shape) != 2 or shape[0] != 0 or shape[1] < 1:
        raise ValueError(f"pos_source(0) returned shape {shape}, expected (0, n)")
    n = shape[1]
    cfg = cfg.resolve(n)
    learner = EllipsoidLearner(feature_dim(n))
    max_rounds = 4 * cfg.mistake_budget + 16
    pool = feats = None
    transcript: list[dict] = []
    fed = 0
    flips = 0

    def feed(raw_x: np.ndarray, disc_feat: np.ndarray, label: int, event: str, step: int) -> None:
        nonlocal fed, flips
        raw_feat = feature_map(raw_x)
        pred_disc = learner.predict(disc_feat / np.linalg.norm(disc_feat))
        pred_raw = learner.predict(raw_feat / np.linalg.norm(raw_feat))
        if pred_disc != pred_raw:
            flips += 1
        fed += 1
        entry = {
            "step": step,
            "event": event,
            "x": [float(v) for v in raw_x],
            "label": label,
            "mistake": pred_disc != label,
        }
        if f_oracle is not None:
            entry["true_label"] = int(np.asarray(f_oracle(raw_x[None, :]))[0])
        transcript.append(entry)
        learner.update(disc_feat, label)

    rounds = 0
    while True:
        if learner.mistakes > cfg.mistake_budget:
            raise BudgetExhaustedError(
                f"mistake budget {cfg.mistake_budget} exhausted", transcript
            )
        g = quadratic_from_weights(learner.weights, n)
        # a constant g with c >= 0 has feats @ w = c >= 0 on every pool
        # point, so it covers the pool without reading it
        if not (g.is_constant and g.c >= 0.0):
            if feats is None:
                pool = np.asarray(pos_source(cfg.n_pos), dtype=float)
                if pool.shape != (cfg.n_pos, n):
                    raise ValueError(
                        f"pos_source({cfg.n_pos}) returned shape {pool.shape}, "
                        f"expected ({cfg.n_pos}, {n})"
                    )
                feats = feature_map(_round_kappa(pool))
            preds = np.where(feats @ learner.weights >= 0.0, 1, -1)
            bad = np.flatnonzero(preds == -1)
            if bad.size:
                j = int(bad[0])
                feed(pool[j], feats[j], +1, "pos_mistake", rounds)
                continue
        # a constant g is counted without decoupling, and decoupled only
        # when a negative is drawn from it
        dc = g if g.is_constant else decouple(g)
        res = count_ptf_gaussian(dc, cfg.delta)
        transcript.append({"step": rounds, "event": "count", "estimate": res.estimate})
        if p_hat >= 0.5 * cfg.gamma * res.estimate:
            transcript.append({"step": rounds, "event": "terminate", "reason": "density"})
            flip_frac = flips / fed if fed else 0.0
            if flip_frac > 0.01:
                raise KappaFlipError(
                    f"kappa rounding flipped {flip_frac:.1%} of fed points", transcript
                )
            return DensifyResult(
                hypothesis=g,
                transcript=transcript,
                mistakes=learner.mistakes,
                rounds=rounds,
                kappa_flip_fraction=flip_frac,
                density_estimate=res.estimate,
            )
        if rounds >= max_rounds:
            raise BudgetExhaustedError(
                f"round budget {max_rounds} exhausted", transcript
            )
        if dc is g:
            dc = decouple(g)
        x = region_source(g, dc, rng.derive(rounds))(1)[0]
        feed(x, feature_map(_round_kappa(x)), -1, "neg_feed", rounds)
        rounds += 1


def _write_transcript(fh: TextIO | None, events: list[dict]) -> None:
    if fh is not None:
        fh.writelines(json.dumps(e, sort_keys=True) + "\n" for e in events)


def planted_experiment(
    f: QuadraticForm,
    cfg: DensifierConfig,
    rng: Rng,
    n_validation: int = 4000,
    transcript: TextIO | None = None,
) -> dict:
    """End-to-end run against a known target f: generate positives, densify,
    then measure (a) ``agreement``, the fraction of n_validation fresh
    positives (the only validation draws) that the hypothesis g accepts, with
    ``agreement_ci`` the larger distance from it to a 99% Wilson bound at
    n_validation, and (b) ``density`` = mass(f & g) / mass(g), drawing nothing
    from g: for joint = p * agreement (p = ``p_estimate``) and
    M = max(mc_count(g), joint), density = joint / M (0 if joint is 0); by the
    delta method on the two 99% half-widths,
    density_ci = sqrt((p * agreement_ci)^2 + (density * M_ci)^2) / M.
    A constant g (A = 0, b = 0; g = R^n when c >= 0) is measured exactly and
    draws nothing: its agreement is 1.0 or 0.0 with no validation draws, and
    ``mc_count`` answers its mass without sampling; ``agreement_ci`` is still
    the Wilson half-width at n_validation, so reports match the sampled ones.
    ``n_validation`` must be an integer >= 1, else ValueError before any work.
    The learner stops once p_hat >= gamma/2 * mass(g), but (b) passes only at
    density >= gamma, so a run that met the stopping rule can fail (b).
    ``transcript``, a text stream, receives the run's events as JSON lines,
    also when the run ends in BudgetExhaustedError or KappaFlipError.
    """
    if not isinstance(f, QuadraticForm):
        raise ValueError(
            "planted_experiment needs a quadratic-form target (A, b, c), "
            f"not a decoupled or other instance ({type(f).__name__})"
        )
    n_validation = _checked_int("n_validation", n_validation, 1)
    cfg = cfg.resolve(f.n)
    dc = decouple(f)
    p_est = count_ptf_gaussian(dc, cfg.eps / 3.0).estimate
    if p_est <= 0.0:
        raise ValueError("target has no measurable positive region")
    p_hat = min(p_est * (1.0 + cfg.eps / 3.0), 1.0)

    pos = region_source(f, dc, rng.derive(1))

    try:
        result = densify(pos, p_hat, cfg, rng.derive(3), f_oracle=lambda pts: sign_at(f, pts))
    except (BudgetExhaustedError, KappaFlipError) as exc:
        _write_transcript(transcript, exc.transcript)
        raise
    _write_transcript(transcript, result.transcript)
    g = result.hypothesis

    # (a) coverage of the target's conditioned distribution by g; a constant
    # g gives every fresh point sign(c), so it needs none
    if g.is_constant:
        agree = 1.0 if g.c >= 0.0 else 0.0
    else:
        agree = float(np.mean(np.asarray(sign_at(g, pos(n_validation))) == 1))
    agree_ci = _wilson_half_width(agree, n_validation)

    # (b) density of the target inside g's region
    g_mass, g_ci = mc_count(g, 1 << 16, rng.derive(4))
    joint = p_est * agree
    density, density_ci = 0.0, 0.0
    if joint > 0.0:
        mass = max(g_mass, joint)
        density = joint / mass
        density_ci = math.hypot(p_est * agree_ci, density * g_ci) / mass

    return {
        "n": f.n,
        "p_estimate": p_est,
        "p_hat": p_hat,
        "mistakes": result.mistakes,
        "rounds": result.rounds,
        "gamma": cfg.gamma,
        "mistake_budget": cfg.mistake_budget,
        "agreement": agree,
        "agreement_ci": agree_ci,
        "density": density,
        "density_ci": density_ci,
        "kappa_flip_fraction": result.kappa_flip_fraction,
        "passed_a": agree >= 1.0 - 2.0 * cfg.eps,
        "passed_b": density >= cfg.gamma,
        "transcript_events": len(result.transcript),
    }
