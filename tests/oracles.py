"""Independent reference implementations used to freeze expected values.

Nothing here imports the package under test: CDFs come from an erf power
series, libm's erfc, or a 50-digit ``decimal`` evaluation (the erf series
near 0, Laplace's continued fraction for the Mills ratio in the tails),
eigenpairs from the 2x2 closed form, chi-square CDFs from their elementary
closed forms, the Gaussian mass of a decoupled degree-2 region by
characteristic-function inversion, discrete pmfs from direct cell
enumeration, exact grid masses from a dense 80-bit convolution of those
pmfs, and the counting engine's kernels from a log-space implementation
that never leaves the log domain.  The sampler's exact output law is
expanded from a prefix-CDF table that the caller builds and passes in; the
oracle reads only the table's fields.  The package computes Phi with libm's
erfc too, so a check of Phi itself against ``phi_erfc`` or
``phi_interval`` tests only how the terms are assembled; checks of the CDF
values use the ``decimal`` functions.
"""

from __future__ import annotations

import decimal
import itertools
import math
from decimal import Decimal

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


# 50 digits with an unbounded exponent, so that Phi(-1e5) = e^-5e9 is a
# number; results are good to 40 digits.
_DEC = decimal.Context(prec=50, Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX)
_PI = Decimal("3.14159265358979323846264338327950288419716939937510")
_MILLS_TERMS = 400  # Laplace's fraction is good to 50 digits from t = 3 on


def _dec(x) -> Decimal:
    return x if isinstance(x, Decimal) else Decimal(float(x))


def _log_pdf_dec(x: Decimal) -> Decimal:
    return -x * x / 2 - (2 * _PI).ln() / 2


def _erf_dec(z: Decimal) -> Decimal:
    """erf(z) by its Maclaurin series; 50 digits for |z| <= 3/sqrt(2)."""
    total = term = z
    k = 0
    while abs(term) > Decimal("1e-60"):
        term *= -z * z / (k + 1)
        k += 1
        total += term / (2 * k + 1)
    return 2 / _PI.sqrt() * total


def _log_mills_dec(t: Decimal) -> Decimal:
    """log R(t), R(t) = (1 - Phi(t)) / pdf(t), for t >= 3, from Laplace's
    continued fraction R(t) = 1/(t + 1/(t + 2/(t + 3/(t + ...))))."""
    f = t
    for k in range(_MILLS_TERMS, 0, -1):
        f = t + k / f
    return -f.ln()


def log_phi_dec(x) -> Decimal:
    """log Phi(x) to 40 digits for any float or Decimal x, infinities
    included."""
    with decimal.localcontext(_DEC):
        x = _dec(x)
        if x.is_infinite():
            return Decimal(0) if x > 0 else Decimal("-Infinity")
        if abs(x) <= 3:
            return ((1 + _erf_dec(x / Decimal(2).sqrt())) / 2).ln()
        if x < 0:
            return _log_pdf_dec(x) + _log_mills_dec(-x)
        # log(1 - s) = -sum s^k / k with s = 1 - Phi(x) < 0.0014
        s = (_log_pdf_dec(x) + _log_mills_dec(x)).exp()
        total, power, k = Decimal(0), s, 1
        while power > Decimal("1e-60") * s:
            total -= power / k
            power *= s
            k += 1
        return total


def phi_dec(x) -> Decimal:
    """Phi(x) to 40 digits relative, in both tails."""
    with decimal.localcontext(_DEC):
        return log_phi_dec(x).exp()


def phi_interval_dec(a: float, b: float) -> Decimal:
    """Phi(b) - Phi(a) to 40 digits, each tail mirrored so that the two
    terms are its survival values."""
    with decimal.localcontext(_DEC):
        if a >= 0.0:
            return phi_dec(-a) - phi_dec(-b)
        if b <= 0.0:
            return phi_dec(b) - phi_dec(a)
        return 1 - phi_dec(a) - phi_dec(-b)


def phi_inverse_dec(log_p, x0: float) -> float:
    """The x with log Phi(x) = log_p, by 50-digit Newton steps on log Phi
    from a nearby start x0 (log Phi is concave, so Newton cannot cycle)."""
    with decimal.localcontext(_DEC):
        x, y = _dec(x0), _dec(log_p)
        for _ in range(100):
            lp = log_phi_dec(x)
            step = (lp - y) / (_log_pdf_dec(x) - lp).exp()
            x -= step
            if abs(step) <= Decimal("1e-45") * max(1, abs(x)):
                return float(x)
    raise ArithmeticError(f"no convergence from x0 = {x0}")


def truncated_mean(a: float, b: float) -> float:
    """Mean of N(0,1) restricted to [a, b] (moment formula, 40 digits)."""
    with decimal.localcontext(_DEC):
        pa = Decimal(0) if math.isinf(a) else _log_pdf_dec(_dec(a)).exp()
        pb = Decimal(0) if math.isinf(b) else _log_pdf_dec(_dec(b)).exp()
        return float((pa - pb) / phi_interval_dec(a, b))


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


def gaussian_mass(lam, mu, theta: float, tol: float = 1e-12) -> float:
    """P(sum_i lam_i y_i^2 + mu_i y_i <= theta) for y ~ N(0, I), by
    Gil-Pelaez inversion of the characteristic function
    phi(t) = prod_i (1 - 2i lam_i t)^(-1/2) exp(-mu_i^2 t^2 / (2(1 - 2i lam_i t))),
    summed by Davies' (1973) trapezoid at t_k = (k + 1/2) Delta.

    The trapezoid's aliasing error is at most P(|Q - theta| > 2 pi/Delta);
    2 pi/Delta spans |theta - E Q| plus 40 standard deviations and 160
    times the largest |lam_i|, far out in both tails.  The sum stops at
    the first block whose last |phi(t)| is at most ``tol``.  |phi| decays
    like t^(-n/2) when every lam_i is nonzero, so this is fast at n >= 8;
    at n = 3 a ``tol`` of 1e-6 already leaves an error near 1e-11, since
    the tail oscillates."""
    lam = np.asarray(lam, dtype=float)
    mu = np.asarray(mu, dtype=float)
    sd = math.sqrt(float(np.sum(2.0 * lam * lam + mu * mu)))
    width = abs(theta - lam.sum()) + 40.0 * sd + 160.0 * np.abs(lam).max()
    delta = 2.0 * math.pi / width
    block = 1 << 14
    terms = []
    for start in itertools.count(0, block):
        k = np.arange(start, start + block) + 0.5
        t = k * delta
        z = 1.0 - 2j * lam[:, None] * t
        log_phi = np.sum(-0.5 * np.log(z) - (mu * mu)[:, None] * t * t / (2.0 * z), axis=0)
        terms.append(math.fsum(np.exp(log_phi - 1j * t * theta).imag / k))
        if log_phi[-1].real <= math.log(tol):
            return 0.5 - math.fsum(terms) / math.pi


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


def log_cell_masses_per_cell(tau: float, B: float, log_interval_mass) -> np.ndarray:
    """Log mass of every grid cell, -B's first, by one call of the given
    ``log_interval_mass`` per cell: the per-cell loop that a faster table of
    the same masses must match bit for bit."""
    h = round(B / tau)
    out = np.empty(2 * h + 1)
    for i in range(out.size):
        v = (i - h) * tau
        left = -math.inf if i == 0 else v
        right = math.inf if i == out.size - 1 else v + tau
        out[i] = log_interval_mass(left, right)
    return out


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


_BRUTEFORCE_LIMIT = 10_000_000
_ENUMERATION_LIMIT = 100_000


def _sci(k: int) -> str:
    """The integer ``k`` to 3 significant digits (7.21e+16), formatted
    from its exact digits, so a count beyond the float range prints too."""
    return f"{Decimal(k):.2e}"


def exact_tail_bruteforce(lam, mu, theta: float, tau: float, B: float) -> float:
    """Exact Pr[sum lam_i [G]_i^2 + mu_i [G]_i <= theta] on the grid, by
    dense convolution of the coordinates' ``discrete_image_pmf`` with 80-bit
    accumulation; every coordinate is kept, null ones too.  Grids beyond
    1e7 points raise ValueError before any pmf is built."""
    total = (2 * round(B / tau) + 1) ** len(lam)
    if total > _BRUTEFORCE_LIMIT:
        raise ValueError(f"grid has {_sci(total)} points, beyond the brute-force limit")
    acc_v, acc_p = np.zeros(1), np.ones(1, dtype=np.longdouble)
    for a, b in zip(lam, mu):
        pmf = discrete_image_pmf(float(a), float(b), tau, B)
        v = np.array(sorted(pmf))
        p = np.array([pmf[x] for x in v.tolist()], dtype=np.longdouble)
        vv = np.add.outer(acc_v, v).ravel()
        pp = np.multiply.outer(acc_p, p).ravel()
        order = np.argsort(vv, kind="stable")
        vv = vv[order]
        pp = pp[order]
        starts = np.flatnonzero(np.concatenate(([True], vv[1:] != vv[:-1])))
        acc_v = vv[starts]
        acc_p = np.add.reduceat(pp, starts)
    idx = int(np.searchsorted(acc_v, theta, side="right"))
    return float(np.sum(acc_p[:idx]))


def enumerate_sampler_distribution(table) -> dict:
    """Output law of the sampler's draw on a prefix-CDF ``table``, as
    {grid point: probability}: coordinates n, ..., 1 in turn, coordinate
    j+1 weighing its grid values by cell(kappa) P_j(t - support[j][kappa])
    at each threshold t the later coordinates left, the n conditional laws
    multiplied out over every reachable grid point.  Reads the table's
    fields, ``cdfs``, ``support``, ``log_cell``, ``kappa`` and ``theta``,
    and forms the weights of all thresholds at once, as
    ``table.log_weights(j, t)`` forms them for one.  Grids beyond 1e5
    points raise ValueError."""
    n, m = table.n, table.support.shape[1]
    if m**n > _ENUMERATION_LIMIT:
        raise ValueError(f"grid has {_sci(m**n)} points, too many to enumerate")
    idx = np.zeros((1, 0), dtype=int)  # chosen indices of coordinates j+1..n
    logp = np.zeros(1)
    t = np.array([table.theta])
    for j in range(n - 1, -1, -1):
        lw = table.cdfs[j].log_query(t[:, None] - table.support[j]) + table.log_cell
        top = lw.max(axis=1, keepdims=True)
        lw -= top + np.log(np.sum(np.exp(lw - top), axis=1, keepdims=True))
        joint = (logp[:, None] + lw).ravel()
        reach = np.flatnonzero(joint > -math.inf)
        rows, cols = np.divmod(reach, m)
        idx = np.column_stack([cols, idx[rows]])
        t = t[rows] - table.support[j, cols]
        logp = joint[reach]
    return {tuple(p): q for p, q in zip(table.kappa[idx].tolist(), np.exp(logp).tolist())}


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


def greedy_sparsify_log(values, logp, eps_step, log_floor=-math.inf):
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


def sparsify_log(values, logp, eps_step, log_floor=-math.inf):
    """Threshold merge in log space, at the log thresholds log_base + k *
    log1p(eps_step), k >= 0: for each, keep the first atom whose log
    cumulative mass exceeds it, and always keep the last atom.  log_base
    is ``log_floor``; with no floor it is the first atom's log mass plus
    log1p(eps_step), and the first atom is kept."""
    live = logp > -math.inf
    values, logp = values[live], logp[live]
    m = values.size
    thresh = math.log1p(eps_step)
    cum = np.logaddexp.accumulate(logp)
    if log_floor == -math.inf:
        log_base, kept = logp[0] + thresh, [0]
    else:
        log_base, kept = log_floor, []
    steps = max(0, math.ceil((cum[-1] - log_base) / thresh) + 1)
    thresholds = log_base + np.arange(steps) * thresh
    thresholds = thresholds[thresholds < cum[-1]]
    kept = np.concatenate((kept, np.searchsorted(cum, thresholds, side="right"), [m - 1]))
    kept = np.unique(kept.astype(int))
    starts = np.concatenate(([0], kept[:-1] + 1))
    return values[kept], np.logaddexp.reduceat(logp, starts)


def draw_grid_point(cdfs, support, log_cell, kappa, theta: float, rng):
    """One draw by the prefix-CDF recursion, rebuilding every coordinate's
    weights on every draw: coordinates n, ..., 1 in turn, coordinate j+1
    weighing grid value i by log_cell[i] + log P_j(t - support[j][i]), with
    P_j the step CDF given as (anchor values, log cumulative masses) in
    ``cdfs[j]``.  At n >= 2 coordinate 1's inverse CDF runs over its grid
    values in stable order of ``support[0]``, the others' in grid order.
    Returns None when no grid value has weight."""
    n = len(cdfs)
    idx = np.empty(n, dtype=int)
    t = theta
    for j in range(n - 1, -1, -1):
        values, log_cum = cdfs[j]
        x = np.asarray(t, dtype=float)[..., None] - support[j]
        pos = np.searchsorted(values, x, side="right")
        lw = log_cell + np.where(pos == 0, -math.inf, log_cum[pos - 1])
        top = lw.max()
        if top == -math.inf:
            return None
        order = np.argsort(support[0], kind="stable") if j == 0 and n > 1 else np.arange(lw.size)
        cum = np.cumsum(np.exp(lw[order] - top))
        i = order[int(np.searchsorted(cum, rng.uniform() * cum[-1], side="right"))]
        idx[j] = i
        t -= support[j, i]
    return kappa[idx]
