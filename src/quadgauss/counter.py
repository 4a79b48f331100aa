"""Deterministic multiplicative-accuracy estimation of Pr[sum_i Y_i <= theta]
for independent per-coordinate variables Y_i = lam_i*[G]^2 + mu_i*[G], and
the prefix-CDF table that serves both counting and sampling.

The engine convolves the per-coordinate pmfs sequentially, sparsifying the
running distribution after every step: a greedy walk over the cumulative
distribution keeps an atom whenever the cumulative mass has grown by more
than a (1 + eps_step) factor since the last kept atom, and merges the mass
of dropped atoms into the next kept atom to their right.  Merging rightward
makes the compressed CDF F' a pointwise lower bound of the running CDF F
with F <= (1 + eps_step) * F', so after k steps the exact CDF is bracketed
within a known factor ``err_budget = (1 + eps_step)^k``.

``PrefixCDFTable`` keeps the CDFs P_0, ..., P_{n-1} of the prefix sums
Y_1 + ... + Y_j: P_0 is the point mass at 0, P_1 the exact CDF of Y_1, and
P_2, ..., P_{n-1} the per-step output of one ``compressed_tail_cdf`` run over
the first n - 1 coordinates.  The last coordinate is summed over its grid
values, so the table's mass at theta is
sum_kappa cell(kappa) * P_{n-1}(theta - lam_n kappa^2 - mu_n kappa).
``count`` reports that mass at the geometric midpoint of P_{n-1}'s budget
with eps_step = eps/(2(n-1)), which certifies a (1 +- eps) answer; at n <= 2
nothing is compressed and the mass is exact up to float roundoff.  The
sampler draws coordinates n, n-1, ..., 1 in turn from the same weights.
Everything is pure and deterministic: two runs on identical inputs produce
bit-identical outputs.

``exact_tail_bruteforce`` is the independent oracle: a dense convolution in
80-bit extended precision, feasible up to ~1e7 grid points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import (
    CoordinateBox,
    GridSpec,
    _log_cell_masses,
    support_and_log_pmf,
    support_and_pmf,
)
from .numerics import LOG_ZERO, Rng, log_sum
from .quadform import (
    ConstantPolynomialError,
    DecoupledConstraint,
    QuadraticForm,
    RoundingConfig,
    decouple,
    gaussian_variance,
    normalize,
    round_coefficients,
    sign_at,
)

__all__ = [
    "CompressedCDF",
    "CountResult",
    "EngineTooLargeError",
    "PrefixCDFTable",
    "DEFAULT_TAU",
    "DEFAULT_GAMMA",
    "DEFAULT_EPS",
    "default_trunc_radius",
    "exact_tail_bruteforce",
    "count",
    "count_ptf_gaussian",
    "mc_count",
]

DEFAULT_TAU = 2.0**-8
DEFAULT_GAMMA = 2.0**-20
DEFAULT_EPS = 0.05

_BRUTEFORCE_LIMIT = 10_000_000
_PAIR_LIMIT = 60_000_000


class EngineTooLargeError(RuntimeError):
    """The requested convolution exceeds the configured size guards."""


def default_trunc_radius(n: int, eps: float) -> int:
    """Truncation radius keeping the n-coordinate tail mass below ~eps/10."""
    return max(int(n), int(math.ceil(math.sqrt(2.0 * math.log(20.0 * n / eps)))))


@dataclass(frozen=True)
class CompressedCDF:
    """Sparsified CDF: ascending anchor values with log cumulative masses.

    The represented step function lower-bounds the CDF it was compressed
    from; the true CDF never exceeds it by more than the multiplicative
    ``err_budget``.
    """

    values: np.ndarray
    log_cum: np.ndarray
    err_budget: float

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        c = np.asarray(self.log_cum, dtype=float)
        v.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "log_cum", c)
        if v.shape != c.shape or v.ndim != 1 or v.size == 0:
            raise ValueError("values and log_cum must be matching 1-d arrays")
        if np.any(np.diff(v) <= 0.0) or np.any(np.diff(c) <= 0.0):
            raise ValueError("anchors must be strictly increasing")
        if self.err_budget < 1.0:
            raise ValueError("err_budget must be >= 1")

    def log_query(self, t):
        """log F'(t) for a scalar or an array of thresholds."""
        idx = np.searchsorted(self.values, t, side="right")
        out = np.where(idx == 0, LOG_ZERO, self.log_cum[idx - 1])
        return out if out.ndim else float(out)

    def query(self, t):
        return np.exp(self.log_query(t))

    @property
    def log_total(self) -> float:
        return float(self.log_cum[-1])


def _sparsify(values: np.ndarray, logp: np.ndarray, eps_step: float):
    """Merge atoms rightward while consecutive cumulative masses stay within
    a (1 + eps_step) ratio; kept anchors retain their exact cumulative mass."""
    live = logp > LOG_ZERO
    if not np.all(live):
        values, logp = values[live], logp[live]
    m = values.size
    if m == 0:
        raise ValueError("empty distribution")
    thresh = math.log1p(eps_step)
    cum = np.logaddexp.accumulate(logp)
    if m <= 2 or (cum[-1] - cum[0]) >= thresh * (m - 1):
        return values, logp  # nothing worth merging
    kept = []
    i = 0
    while i < m:
        kept.append(i)
        i = int(np.searchsorted(cum, cum[i] + thresh, side="right"))
    if kept[-1] != m - 1:
        kept.append(m - 1)
    kept_arr = np.asarray(kept, dtype=int)
    starts = np.concatenate(([0], kept_arr[:-1] + 1))
    merged = np.logaddexp.reduceat(logp, starts)
    return values[kept_arr], merged


def _convolve_pmfs(values, logp, atom_v, atom_lp):
    pairs = values.size * atom_v.size
    if pairs > _PAIR_LIMIT:
        raise EngineTooLargeError(
            f"convolution of {values.size} x {atom_v.size} atoms exceeds the "
            f"size guard; use a coarser grid or larger eps"
        )
    v = np.add.outer(values, atom_v).ravel()
    lp = np.add.outer(logp, atom_lp).ravel()
    order = np.argsort(v, kind="stable")
    v = v[order]
    lp = lp[order]
    starts = np.flatnonzero(np.concatenate(([True], v[1:] != v[:-1])))
    return v[starts], np.logaddexp.reduceat(lp, starts)


def _finalize_cdf(values, logp, err_budget) -> CompressedCDF:
    cum = np.logaddexp.accumulate(logp)
    # drop anchors whose mass vanished below float resolution so the
    # cumulative sequence is strictly increasing
    keep = np.concatenate(([True], cum[1:] > cum[:-1]))
    last = np.flatnonzero(keep)[-1]
    if last != cum.size - 1:
        cum[last] = cum[-1]
    return CompressedCDF(values=values[keep], log_cum=cum[keep], err_budget=err_budget)


def compressed_tail_cdf(pmfs, eps: float, collect: list | None = None) -> CompressedCDF:
    """Convolve per-coordinate (values, log pmf) pairs with per-step
    sparsification at eps_step = eps/(2n); the result brackets the exact sum
    CDF within err_budget."""
    n = len(pmfs)
    eps_step = eps / (2.0 * n)
    budget = 1.0
    values, logp = pmfs[0]
    values, logp = _sparsify(values, logp, eps_step)
    budget *= 1.0 + eps_step
    if collect is not None:
        collect.append(_finalize_cdf(values, logp, budget))
    for atom_v, atom_lp in pmfs[1:]:
        values, logp = _convolve_pmfs(values, logp, atom_v, atom_lp)
        values, logp = _sparsify(values, logp, eps_step)
        budget *= 1.0 + eps_step
        if collect is not None:
            collect.append(_finalize_cdf(values, logp, budget))
    return _finalize_cdf(values, logp, budget)


_POINT_MASS_AT_ZERO = CompressedCDF(
    values=np.zeros(1), log_cum=np.zeros(1), err_budget=1.0
)


@dataclass(frozen=True)
class PrefixCDFTable:
    """Prefix CDFs of the decoupled sum on one grid, read by both ``count``
    and the sampler.

    ``cdfs[i]`` is P_i, the CDF of Y_1 + ... + Y_i (P_0 is the point mass at
    0); ``support[i]`` holds coordinate i+1's value lam kappa^2 + mu kappa
    at every grid value ``kappa``, and ``log_cell`` the log mass of each
    grid value.  Given the threshold t left for coordinates 1..i+1,
    coordinate i+1 weighs kappa by cell(kappa) * P_i(t - support[i][kappa])
    (``log_weights(i, t)``).

    Accuracy.  P_1 is exact.  For j >= 2, P_j comes out of j sparsification
    steps at one step size e, so P_j <= F_j <= beta_j * P_j with
    beta_j = (1 + e)^j, where F_j is the exact CDF.  A point's probability
    under the sampler is the product over j of its coordinate-j weight
    divided by the sum of the coordinate-j weights.  The numerator's
    P_{j-1} and the denominator (the same weights summed, a lower bound of
    F_j(t)) both lower-bound their exact values within beta_{j-1}, so their
    quotient, coordinate j's factor, is within beta_{j-1} either way of its
    exact conditional.  With beta_0 = beta_1 = 1, the product over
    j = 3..n puts every grid point's probability within (1 + e)^K of the
    exact conditional law, K = n(n-1)/2 - 1.  The sampler picks e from
    (1 + e)^K = 1/(1 - eps): every point's ratio then lies in
    [1 - eps, 1/(1 - eps)], so the total variation distance is at most eps.
    Counting keeps the single-sum certificate: at e = eps/(2(n-1)),
    beta_{n-1} = (1 + e)^(n-1) <= exp(eps/2), and the geometric midpoint of
    the mass is within exp(+-eps/4).  Both steps are computed from (n, eps).
    """

    cdfs: tuple[CompressedCDF, ...]
    support: np.ndarray
    log_cell: np.ndarray
    kappa: np.ndarray
    theta: float

    @classmethod
    def build(
        cls, dc: DecoupledConstraint, spec: GridSpec, tail_eps: float
    ) -> "PrefixCDFTable":
        """Table for ``dc`` on ``spec``; P_2..P_{n-1} come from
        ``compressed_tail_cdf`` at ``tail_eps``, i.e. at the per-step eps
        tail_eps/(2(n-1)).  Coefficients are expected to be rounded
        (integral multiples of one lattice step) so that support values
        collide exactly."""
        n = dc.n
        if spec.n != n:
            raise ValueError("constraint and grid dimensions disagree")
        kappa = spec.value(np.arange(spec.points_per_coord))
        support = dc.lam[:, None] * kappa * kappa + dc.mu[:, None] * kappa
        cdfs = [_POINT_MASS_AT_ZERO]
        if n >= 2:
            pmfs = [
                support_and_log_pmf(float(dc.lam[j]), float(dc.mu[j]), spec)
                for j in range(n - 1)
            ]
            cdfs.append(_finalize_cdf(*pmfs[0], 1.0))
            if n >= 3:
                steps: list[CompressedCDF] = []
                compressed_tail_cdf(pmfs, tail_eps, collect=steps)
                cdfs.extend(steps[1:])
        return cls(
            cdfs=tuple(cdfs),
            support=support,
            log_cell=_log_cell_masses(spec.tau, spec.B),
            kappa=kappa,
            theta=float(dc.theta),
        )

    @property
    def n(self) -> int:
        return len(self.cdfs)

    def log_weights(self, j: int, t) -> np.ndarray:
        """Log weight of every grid value of coordinate j+1 given the
        threshold ``t`` left for coordinates 1..j+1; ``t`` is a scalar,
        giving shape (m,), or a (k,) array, giving (k, m)."""
        t = np.asarray(t, dtype=float)[..., None]
        return self.log_cell + self.cdfs[j].log_query(t - self.support[j])

    def log_mass(self) -> float:
        """log of the lower-bound mass at theta; off by at most the last
        CDF's ``err_budget``."""
        return log_sum(self.log_weights(self.n - 1, self.theta))


def exact_tail_bruteforce(
    dc: DecoupledConstraint, spec: GridSpec, box: CoordinateBox | None = None
) -> float:
    """Exact Pr[sum_i Y_i <= theta] on the (restricted) grid, by dense
    convolution with 80-bit accumulation.  Refuses grids beyond ~1e7 points."""
    if box is None:
        box = CoordinateBox.full(spec)
    if box.size(spec) > _BRUTEFORCE_LIMIT:
        raise EngineTooLargeError(
            f"grid has {box.size(spec)} points, beyond the brute-force limit"
        )
    i_lo, i_hi = box.index_ranges(spec)
    acc_v: np.ndarray | None = None
    acc_p: np.ndarray | None = None
    for j in range(dc.n):
        v, p = support_and_pmf(
            float(dc.lam[j]), float(dc.mu[j]), spec, (int(i_lo[j]), int(i_hi[j]))
        )
        p = p.astype(np.longdouble)
        if acc_v is None:
            acc_v, acc_p = v, p
            continue
        if acc_v.size * v.size > _PAIR_LIMIT:
            raise EngineTooLargeError("dense convolution exceeds the size guard")
        vv = np.add.outer(acc_v, v).ravel()
        pp = np.multiply.outer(acc_p, p).ravel()
        order = np.argsort(vv, kind="stable")
        vv = vv[order]
        pp = pp[order]
        starts = np.flatnonzero(np.concatenate(([True], vv[1:] != vv[:-1])))
        acc_v = vv[starts]
        acc_p = np.add.reduceat(pp, starts)
    idx = int(np.searchsorted(acc_v, dc.theta, side="right"))
    return float(np.sum(acc_p[:idx]))


def count(
    dc: DecoupledConstraint, spec: GridSpec, eps: float = DEFAULT_EPS
) -> float:
    """Deterministic estimate of Pr[sum_i Y_i <= theta] on the grid with a
    certified multiplicative error factor of at most (1 + eps)."""
    if not (0.0 < eps <= 1.0):
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    table = PrefixCDFTable.build(dc, spec, eps)
    lm = table.log_mass()
    if lm == LOG_ZERO:
        return 0.0
    return min(math.exp(lm + 0.5 * math.log(table.cdfs[-1].err_budget)), 1.0)


@dataclass(frozen=True)
class CountResult:
    """Counting answer with its error-budget ledger.

    ``slack`` entries are conservative diagnostic bounds on the probability
    mass that each pipeline stage (coefficient rounding, grid discretization,
    tail truncation) may have moved across the acceptance boundary; they are
    reported, not folded into ``estimate``.
    """

    estimate: float
    eps: float
    slack_rounding: float
    slack_discretization: float
    slack_truncation: float
    below_floor: bool
    floor: float

    @property
    def log_estimate(self) -> float:
        return math.log(self.estimate) if self.estimate > 0.0 else LOG_ZERO

    def to_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "log_estimate": self.log_estimate,
            "eps": self.eps,
            "slack": {
                "rounding": self.slack_rounding,
                "discretization": self.slack_discretization,
                "truncation": self.slack_truncation,
            },
            "below_floor": self.below_floor,
        }


def _rounding_slack(nz: DecoupledConstraint, rounded: DecoupledConstraint) -> float:
    diff = DecoupledConstraint(
        lam=nz.lam - rounded.lam,
        mu=nz.mu - rounded.mu,
        theta=0.0,
        rotation=nz.rotation,
    )
    var = gaussian_variance(diff)
    # sign-flip probability of a unit-variance quadratic under a var-sized
    # perturbation: anticoncentration gives ~ d * var^(1/(3d)) with d = 2
    return min(1.0, 2.0 * var ** (1.0 / 6.0)) if var > 0.0 else 0.0


def _discretization_slack(rounded: DecoupledConstraint, spec: GridSpec) -> float:
    tau, b = spec.tau, spec.B
    dq = tau * float(
        np.sum(np.abs(rounded.lam) * (2.0 * b + tau) + np.abs(rounded.mu))
    )
    var = gaussian_variance(rounded)
    if var <= 0.0:
        return 0.0
    return min(1.0, 2.0 * math.sqrt(dq / math.sqrt(var)))


def _truncation_slack(spec: GridSpec) -> float:
    from .numerics import std_normal_cdf

    return min(1.0, 2.0 * spec.n * std_normal_cdf(-spec.B))


def count_ptf_gaussian(
    q: QuadraticForm | DecoupledConstraint,
    eps: float = DEFAULT_EPS,
    *,
    tau: float = DEFAULT_TAU,
    trunc_B: float | None = None,
    gamma: float = DEFAULT_GAMMA,
    floor: float | None = None,
) -> CountResult:
    """Estimate Pr_{G ~ N(0,I)}[sign(q(G)) = +1] to within (1 +- eps), up to
    the reported discretization/rounding/truncation slack.

    Pipeline: decouple -> normalize -> round coefficients -> discrete count
    on the full grid.  Constant polynomials are answered exactly.  Estimates
    below ``floor`` (default 2^(-4n)) are flagged, not suppressed.
    """
    dc = decouple(q) if isinstance(q, QuadraticForm) else q
    n = dc.n
    floor_value = float(floor) if floor is not None else 2.0 ** (-4 * n)
    try:
        nz = normalize(dc)
    except ConstantPolynomialError as err:
        return CountResult(
            estimate=err.mass,
            eps=eps,
            slack_rounding=0.0,
            slack_discretization=0.0,
            slack_truncation=0.0,
            below_floor=err.mass < floor_value,
            floor=floor_value,
        )
    rounded = round_coefficients(nz, RoundingConfig(gamma=gamma, tau=tau))
    b_radius = float(trunc_B) if trunc_B is not None else default_trunc_radius(n, eps)
    spec = GridSpec(tau=tau, B=b_radius, n=n)
    estimate = count(rounded, spec, eps)
    return CountResult(
        estimate=estimate,
        eps=eps,
        slack_rounding=_rounding_slack(nz, rounded),
        slack_discretization=_discretization_slack(rounded, spec),
        slack_truncation=_truncation_slack(spec),
        below_floor=estimate < floor_value,
        floor=floor_value,
    )


_Z99 = 2.5758293035489004  # two-sided 99% normal quantile


def mc_count(
    q: QuadraticForm,
    n_samples: int,
    rng: Rng,
    chunk: int = 1 << 16,
) -> tuple[float, float]:
    """Monte Carlo frequency of sign(q(G)) = +1 with a 99% CI half-width.

    Work is split into fixed-size blocks, each drawn from a derived child
    stream, so the estimate depends only on (seed, n_samples) no matter how
    blocks are scheduled.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    hits = 0
    done = 0
    block = 0
    while done < n_samples:
        size = min(chunk, n_samples - done)
        g = rng.derive(block).normal(size=(size, q.n))
        hits += int(np.count_nonzero(np.asarray(sign_at(q, g)) == 1))
        done += size
        block += 1
    p = hits / n_samples
    half = _Z99 * math.sqrt(max(p * (1.0 - p), 0.0) / n_samples)
    return p, half
