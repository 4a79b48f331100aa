"""Independent reference implementations used to freeze expected values.

Nothing here imports the package under test: CDFs come from an erf power
series or libm's erfc, eigenpairs from the 2x2 closed form, chi-square CDFs
from their elementary closed forms, discrete pmfs from direct cell
enumeration, and the counting engine's kernels from a log-space
implementation that never leaves the log domain.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

SQRT2 = math.sqrt(2.0)


def erf_series(z: float, terms: int = 60) -> float:
    """erf(z) by its Maclaurin series with exact-fraction term updates;
    plenty of accuracy for |z| <= 3."""
    acc = []
    term = z
    for n in range(terms):
        acc.append(term / (2 * n + 1))
        term *= -z * z / (n + 1)
    return 2.0 / math.sqrt(math.pi) * math.fsum(acc)


def phi_series(x: float) -> float:
    """Phi(x) from the erf series (use only for |x| <= 3)."""
    return 0.5 * (1.0 + erf_series(x / SQRT2))


def phi_erfc(x: float) -> float:
    """Phi(x) via libm erfc, accurate in both tails."""
    return 0.5 * math.erfc(-x / SQRT2)


def phi_interval(a: float, b: float) -> float:
    """Phi(b) - Phi(a) via complementary tails (independent oracle)."""
    if a == -math.inf and b == math.inf:
        return 1.0
    if a == -math.inf:
        return phi_erfc(b)
    if b == math.inf:
        return 0.5 * math.erfc(a / SQRT2)
    return 0.5 * (math.erfc(a / SQRT2) - math.erfc(b / SQRT2))


def normal_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def truncated_mean(a: float, b: float) -> float:
    """Mean of N(0,1) restricted to [a, b] (moment formula)."""
    pa = 0.0 if a == -math.inf else normal_pdf(a)
    pb = 0.0 if b == math.inf else normal_pdf(b)
    return (pa - pb) / phi_interval(a, b)


def eig2_closed(a11: float, a12: float, a22: float):
    """Eigenvalues (descending) and unit eigenvectors of [[a11,a12],[a12,a22]]."""
    tr = a11 + a22
    disc = math.sqrt((a11 - a22) ** 2 + 4.0 * a12 * a12)
    w1 = 0.5 * (tr + disc)
    w2 = 0.5 * (tr - disc)
    vecs = []
    for w in (w1, w2):
        if abs(a12) > 1e-300:
            v = (a12, w - a11)
        elif a11 >= a22:
            v = (1.0, 0.0) if w == w1 else (0.0, 1.0)
        else:
            v = (0.0, 1.0) if w == w1 else (1.0, 0.0)
        norm = math.hypot(*v)
        vecs.append((v[0] / norm, v[1] / norm))
    return (w1, w2), vecs


def chi2_cdf(t: float, k: int) -> float:
    """Chi-square CDF for 1, 2, or 3 degrees of freedom (closed forms)."""
    if t <= 0.0:
        return 0.0
    if k == 1:
        return 2.0 * phi_erfc(math.sqrt(t)) - 1.0
    if k == 2:
        return 1.0 - math.exp(-0.5 * t)
    if k == 3:
        r = math.sqrt(t)
        return 2.0 * phi_erfc(r) - 1.0 - math.sqrt(2.0 / math.pi) * r * math.exp(-0.5 * t)
    raise ValueError("closed form only for k in {1, 2, 3}")


def grid_points(tau: float, B: float) -> list[float]:
    half = int(round(B / tau))
    return [(i - half) * tau for i in range(2 * half + 1)]


def round_to_grid(x, tau: float, B: float):
    """Floor x onto the tau-grid, capped at +-B (scalar or array)."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("round_to_grid requires finite input")
    half = round(B / tau)
    return np.clip(np.floor(x / tau), -half, half) * tau


def grid_cell_mass(kappa: float, tau: float, B: float) -> float:
    """Mass of the floor-cell owned by kappa, tails capped at +-B."""
    lo = -math.inf if kappa == -B else kappa
    hi = math.inf if kappa == B else kappa + tau
    return phi_interval(lo, hi)


def discrete_image_pmf(a: float, b: float, tau: float, B: float) -> dict[float, float]:
    """pmf of a*[G]^2 + b*[G] by direct enumeration of every grid cell."""
    out: dict[float, float] = {}
    for kappa in grid_points(tau, B):
        v = a * kappa * kappa + b * kappa
        out[v] = out.get(v, 0.0) + grid_cell_mass(kappa, tau, B)
    return out


def discrete_tail(lam, mu, theta: float, tau: float, B: float) -> float:
    """Exact Pr[sum lam_i [G]_i^2 + mu_i [G]_i <= theta] by product-grid
    enumeration (small grids only)."""
    pts = grid_points(tau, B)
    masses = {k: grid_cell_mass(k, tau, B) for k in pts}
    total = 0.0
    for combo in itertools.product(pts, repeat=len(lam)):
        v = sum(l * k * k + m * k for l, m, k in zip(lam, mu, combo))
        if v <= theta:
            total += math.prod(masses[k] for k in combo)
    return total


def conditional_pmf(lam, mu, theta: float, tau: float, B: float) -> dict:
    """Law of the grid point given sum lam_i k_i^2 + mu_i k_i <= theta, by
    product-grid enumeration (small grids only)."""
    pts = grid_points(tau, B)
    masses = {k: grid_cell_mass(k, tau, B) for k in pts}
    law = {}
    for combo in itertools.product(pts, repeat=len(lam)):
        if sum(l * k * k + m * k for l, m, k in zip(lam, mu, combo)) <= theta:
            law[combo] = math.prod(masses[k] for k in combo)
    total = math.fsum(law.values())
    return {k: v / total for k, v in law.items() if v > 0.0}


def convolve_log(values, logp, atom_v, atom_lp):
    """Law of the sum of two independent variables given as ascending
    (values, log masses), with every pair mass summed by logaddexp."""
    v = np.add.outer(values, atom_v).ravel()
    lp = np.add.outer(logp, atom_lp).ravel()
    order = np.argsort(v, kind="stable")
    v = v[order]
    lp = lp[order]
    starts = np.flatnonzero(np.concatenate(([True], v[1:] != v[:-1])))
    return v[starts], np.logaddexp.reduceat(lp, starts)


def sparsify_log(values, logp, eps_step, log_floor=-math.inf):
    """Greedy rightward merge in log space: the first atom kept is the first
    whose log cumulative mass exceeds ``log_floor``; after it, keep an atom
    once the log cumulative mass has grown by more than log1p(eps_step)
    since the last kept one, and always keep the last atom."""
    live = logp > -math.inf
    values, logp = values[live], logp[live]
    m = values.size
    thresh = math.log1p(eps_step)
    cum = np.logaddexp.accumulate(logp)
    kept = []
    i = int(np.searchsorted(cum, log_floor, side="right"))
    while i < m:
        kept.append(i)
        i = int(np.searchsorted(cum, cum[i] + thresh, side="right"))
    if not kept or kept[-1] != m - 1:
        kept.append(m - 1)
    kept = np.asarray(kept)
    starts = np.concatenate(([0], kept[:-1] + 1))
    return values[kept], np.logaddexp.reduceat(logp, starts)
