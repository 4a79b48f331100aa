"""Fast deterministic self-checks over the shipped invariants.

Each check returns (name, passed, detail); the CLI ``validate`` command runs
them all and exits nonzero if any fail.  These are release-gate smoke
versions of the full test-suite properties: small fixed seeds, small grids.
"""

from __future__ import annotations

import math

import numpy as np

from . import grid as g
from . import hardness as hd
from .counter import count, exact_tail_bruteforce, mc_count
from .densifier import feature_map, quadratic_from_weights, weights_from_quadratic
from .grid import GridSpec
from .numerics import Rng, interval_mass, std_normal_cdf
from .quadform import (
    DecoupledConstraint,
    QuadraticForm,
    RoundingConfig,
    decouple,
    evaluate,
    normalize,
    round_coefficients,
)
from .sampler import enumerate_sampler_distribution

Check = tuple[str, bool, str]


def _cdf_symmetry() -> Check:
    xs = np.linspace(-10.0, 10.0, 4001)
    worst = max(abs(std_normal_cdf(x) + std_normal_cdf(-x) - 1.0) for x in xs)
    return "cdf-symmetry", worst <= 1e-14, f"max |Phi(x)+Phi(-x)-1| = {worst:.2e}"


def _interval_additivity() -> Check:
    rng = Rng(11)
    worst = 0.0
    for _ in range(200):
        a, b, c = np.sort(rng.normal(3) * 3.0)
        lhs = interval_mass(a, c)
        rhs = interval_mass(a, b) + interval_mass(b, c)
        worst = max(worst, abs(lhs - rhs))
    # thin splits deep in both tails, whose masses come from the quadrature:
    # the parts add up, and each is its width times the pdf at its midpoint
    worst_rel = 0.0
    for lo in np.repeat([5.0, 12.0, 20.0, 30.0], 5):
        w1, w2 = 10.0 ** (rng.uniform(2) * 3.0 - 12.0)  # widths 1e-12 to 1e-9
        for a, b, c in ((lo, lo + w1, lo + w1 + w2), (-lo - w1 - w2, -lo - w1, -lo)):
            for x, y in ((a, b), (b, c)):
                midpoint_rule = (y - x) * math.exp(-0.125 * (x + y) ** 2) / math.sqrt(2.0 * math.pi)
                worst_rel = max(worst_rel, abs(interval_mass(x, y) / midpoint_rule - 1.0))
            lhs = interval_mass(a, c)
            worst_rel = max(worst_rel, abs(lhs - interval_mass(a, b) - interval_mass(b, c)) / lhs)
    ok = worst <= 1e-13 and worst_rel <= 1e-10
    return "interval-additivity", ok, f"max gap = {worst:.2e}, deep-tail max relative gap = {worst_rel:.2e}"


def _eigen_residuals() -> Check:
    rng = Rng(12)
    worst = 0.0
    for n in (2, 3, 5, 8):
        m = rng.normal((n, n))
        a = 0.5 * (m + m.T)
        dc = decouple(QuadraticForm(A=a, b=np.zeros(n), c=0.0))
        r = dc.rotation
        rec = np.linalg.norm(a - r @ np.diag(-dc.lam) @ r.T) / max(np.linalg.norm(a), 1e-30)
        orth = np.linalg.norm(r.T @ r - np.eye(n))
        worst = max(worst, rec, orth)
    return "eigen-residuals", worst <= 1e-10, f"max residual = {worst:.2e}"


def _decouple_roundtrip() -> Check:
    rng = Rng(13)
    worst = 0.0
    for n in (1, 2, 4):
        m = rng.normal((n, n))
        q = QuadraticForm(A=0.5 * (m + m.T), b=rng.normal(n), c=float(rng.normal()))
        dc = decouple(q)
        for _ in range(20):
            x = rng.normal(n)
            y = dc.rotation.T @ x
            lhs = evaluate(q, x)
            rhs = -(dc.value(y) - dc.theta)
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    return "decouple-roundtrip", worst <= 1e-9, f"max relative gap = {worst:.2e}"


def _rounding_bound() -> Check:
    rng = Rng(14)
    cfg = RoundingConfig(gamma=2.0**-20, tau=2.0**-8)
    ok = True
    for n in (2, 5):
        dc = DecoupledConstraint(
            lam=rng.normal(n), mu=rng.normal(n), theta=0.3, rotation=np.eye(n)
        )
        nz = normalize(dc)
        rd = round_coefficients(nz, cfg)
        total = float(np.sum(rd.lam**2 + rd.mu**2))
        pert = float(np.sum((nz.lam - rd.lam) ** 2 + (nz.mu - rd.mu) ** 2))
        ok &= 0.5 <= total <= 1.5 and pert <= n * cfg.gamma**2 / 2.0
        ok &= bool(np.all(np.abs(np.rint(rd.lam / cfg.gamma) * cfg.gamma - rd.lam) == 0))
    return "rounding-bound", ok, "lattice and perturbation bounds"


def _cell_masses(spec: GridSpec) -> np.ndarray:
    return np.array(
        [interval_mass(*spec.cell_bounds(i)) for i in range(spec.points_per_coord)]
    )


def _pmf_vs_cells() -> Check:
    spec = GridSpec(tau=2.0**-3, B=2.0, n=1)
    kappa = spec.value(np.arange(spec.points_per_coord))
    cells = _cell_masses(spec)
    rng = Rng(15)
    worst = 0.0
    for _ in range(50):
        a, b = rng.uniform(2) * 2.0 - 1.0
        direct: dict[float, float] = {}
        for v, m in zip((a * kappa * kappa + b * kappa).tolist(), cells):
            direct[v] = direct.get(v, 0.0) + m
        vals, probs = g.support_and_pmf(a, b, spec)
        if sorted(direct) != vals.tolist():
            return "pmf-vs-cells", False, f"support differs at a={a}, b={b}"
        worst = max(worst, max(abs(direct[v] - p) for v, p in zip(vals.tolist(), probs)))
    return "pmf-vs-cells", worst <= 1e-12, f"max gap = {worst:.2e}"


def _count_vs_bruteforce() -> Check:
    # trials 6-9 run at n = 4, where count reads its last two coordinates
    # by lookups instead of convolving them
    rng = Rng(16)
    ok = True
    for trial in range(10):
        n = 1 + trial % 3 if trial < 6 else 4
        spec = GridSpec(tau=2.0**-3 if n < 4 else 2.0**-2, B=2.0, n=n)
        lam = np.rint(rng.normal(n) * 8) / 8.0
        mu = np.rint(rng.normal(n) * 8) / 8.0
        if trial == 5:
            # n = 3 with a null coordinate: count drops it, the oracle keeps it
            lam[1] = mu[1] = 0.0
        theta = float(rng.normal()) * n
        dc = DecoupledConstraint(lam=lam, mu=mu, theta=theta, rotation=np.eye(n))
        exact = exact_tail_bruteforce(dc, spec)
        for eps in (0.3, 0.05):
            est = count(dc, spec, eps)
            if exact == 0.0:
                ok &= est == 0.0
            else:
                ratio = est / exact
                ok &= 1.0 / (1.0 + eps) - 1e-9 <= ratio <= (1.0 + eps) + 1e-9
    return "count-vs-bruteforce", ok, "10 instances, n = 1-4 (one with a null coordinate) x 2 eps"


def _sampler_tv() -> Check:
    spec = GridSpec(tau=0.5, B=2.0, n=2)
    dc = DecoupledConstraint(
        lam=np.array([0.5, 0.5]), mu=np.zeros(2), theta=1.5, rotation=np.eye(2)
    )
    dist = enumerate_sampler_distribution(dc, spec, 0.1)
    idx0, idx1 = np.meshgrid(
        np.arange(spec.points_per_coord), np.arange(spec.points_per_coord)
    )
    pts = np.stack(
        [spec.value(idx0.ravel()), spec.value(idx1.ravel())], axis=1
    )
    cells = _cell_masses(spec)
    masses = cells[idx0.ravel()] * cells[idx1.ravel()]
    accept = dc.value(pts) <= dc.theta
    masses = np.where(accept, masses, 0.0)
    masses /= masses.sum()
    exact = {tuple(p): float(m) for p, m in zip(pts, masses) if m > 0}
    approx = dist.as_dict()
    keys = set(exact) | set(approx)
    tv = 0.5 * sum(abs(exact.get(k, 0.0) - approx.get(k, 0.0)) for k in keys)
    return "sampler-tv", tv <= 0.1, f"TV = {tv:.3e}"


def _hardness_geometry() -> Check:
    rng = Rng(17)
    ok = True
    inst = hd.SubsetSumInstance(w0=8, w=(3, 5, 7), variant="cube01")
    _, f = hd.gen_deg2_cube_instance(inst, 4.0)
    sols = set(inst.solutions())
    for z in np.ndindex(*(2,) * inst.n):
        want = tuple(z) in sols
        got = np.asarray(
            evaluate(f, np.asarray(z, dtype=float))
        ) >= 0.0
        ok &= bool(got) == want
    for _ in range(500):
        x = rng.uniform(inst.n)
        cl = hd.classify_point_deg2(x, inst, 4.0)
        if cl.predicted is not None:
            ok &= cl.predicted == (1 if evaluate(f, x) >= 0.0 else -1)
    pm = hd.SubsetSumInstance(w0=2, w=(1, 1, 2), variant="pm1")
    quartic, alpha, beta = hd.gen_deg4_gauss_instance(pm, 4.0)
    ok &= beta < alpha
    for _ in range(500):
        x = rng.normal(pm.n) * 1.5
        cl = hd.classify_point_deg4(x, quartic)
        if cl.predicted is not None:
            ok &= cl.predicted == int(quartic.ptf_sign(x))
    return "hardness-geometry", ok, "deg2 + deg4 sweeps"


def _feature_roundtrip() -> Check:
    rng = Rng(18)
    worst = 0.0
    for n in (1, 2, 4):
        m = rng.normal((n, n))
        q = QuadraticForm(A=0.5 * (m + m.T), b=rng.normal(n), c=float(rng.normal()))
        w = weights_from_quadratic(q)
        for _ in range(20):
            x = rng.normal(n)
            worst = max(worst, abs(float(w @ feature_map(x)) - evaluate(q, x)))
        q2 = quadratic_from_weights(w, n)
        worst = max(worst, float(np.max(np.abs(q2.A - q.A))))
    return "feature-roundtrip", worst <= 1e-12, f"max gap = {worst:.2e}"


def _mc_count_sanity() -> Check:
    q = QuadraticForm(A=np.zeros((1, 1)), b=np.array([1.0]), c=0.0)
    est, ci = mc_count(q, 1 << 14, Rng(19))
    return "mc-count-sanity", abs(est - 0.5) <= max(3 * ci, 0.02), f"est = {est:.4f}"


ALL_CHECKS = [
    _cdf_symmetry,
    _interval_additivity,
    _eigen_residuals,
    _decouple_roundtrip,
    _rounding_bound,
    _pmf_vs_cells,
    _count_vs_bruteforce,
    _sampler_tv,
    _hardness_geometry,
    _feature_roundtrip,
    _mc_count_sanity,
]


def run_validation() -> list[Check]:
    results = []
    for check in ALL_CHECKS:
        try:
            results.append(check())
        except Exception as exc:  # a crash is a failure, not an abort
            results.append((check.__name__.strip("_"), False, f"raised {exc!r}"))
    return results
