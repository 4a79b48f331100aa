"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured numbers (run with -s or -rA to see them all).
"""

import itertools
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from quadgauss.counter import (
    PrefixCDFTable,
    count,
    count_ptf_gaussian,
    mc_count,
)
from quadgauss.densifier import DensifierConfig, planted_experiment
from quadgauss.grid import GridSpec
from quadgauss.hardness import (
    SubsetSumInstance,
    alpha_beta_deg2,
    classify_point_deg2,
    classify_point_deg4,
    gen_deg2_cube_instance,
    gen_deg4_gauss_instance,
    region_mass_mc,
    sample_region_gauss_deg4,
    sample_region_uniform_deg2,
)
from quadgauss.numerics import Rng
from quadgauss.quadform import (
    DecoupledConstraint,
    QuadraticForm,
    RoundingConfig,
    decouple,
    normalize,
    round_coefficients,
    save_instance,
    sign_at,
)
from quadgauss.sampler import PtfSampler, sample_ptf_gaussian

import oracles


def report(line: str) -> None:
    print(line, flush=True)


def test_criterion_1_closed_form_counting():
    t0 = time.time()
    q2 = QuadraticForm(A=-np.eye(2), b=np.zeros(2), c=2.0)
    res2 = count_ptf_gaussian(q2, 0.02, tau=2.0**-8, trunc_B=6.0)
    want2 = oracles.chi2_cdf(2.0, 2)  # 1 - e^{-1}
    rel2 = abs(res2.estimate / want2 - 1.0)
    t_a = time.time() - t0
    assert rel2 <= 0.03
    assert t_a <= 60.0

    t1 = time.time()
    q1 = QuadraticForm(A=np.eye(1), b=np.zeros(1), c=-1.0)
    res1 = count_ptf_gaussian(q1, 0.02, tau=2.0**-8, trunc_B=6.0)
    want1 = 1.0 - oracles.chi2_cdf(1.0, 1)  # 2 Phi(-1)
    rel1 = abs(res1.estimate / want1 - 1.0)
    t_b = time.time() - t1
    assert rel1 <= 0.03
    assert t_b <= 60.0
    report(
        f"ACCEPTANCE C1 PASS: chi2_2 rel err {rel2:.2e} in {t_a:.1f}s; "
        f"1-d rel err {rel1:.2e} in {t_b:.1f}s"
    )


def test_criterion_2_oracle_equivalence():
    t0 = time.time()
    gen = np.random.default_rng(20)
    step = 2.0**-6
    grids = {1: (2, 6), 2: (2, 6), 3: (2, 4)}  # exponent ranges keep brute force feasible
    checked = 0
    for trial in range(100):
        n = 1 + trial % 3
        lo, hi = grids[n]
        tau = 2.0 ** -int(gen.integers(lo, hi + 1))
        b_radius = float(gen.integers(1, 5))
        spec = GridSpec(tau=tau, B=b_radius)
        lam = np.rint(gen.normal(size=n) / step) * step
        mu = np.rint(gen.normal(size=n) / step) * step
        theta = float(gen.normal() * n)
        dc = DecoupledConstraint(lam=lam, mu=mu, theta=theta, rotation=np.eye(n))
        exact = oracles.exact_tail_bruteforce(lam, mu, theta, tau, b_radius)
        for eps in (0.3, 0.1, 0.05):
            est = count(dc, spec, eps)
            checked += 1
            if exact == 0.0:
                assert est == 0.0
            else:
                assert 1.0 / (1.0 + eps) - 1e-9 <= est / exact <= 1.0 + eps + 1e-9
    elapsed = time.time() - t0
    assert elapsed <= 600.0
    report(f"ACCEPTANCE C2 PASS: {checked} count-vs-bruteforce checks, 0 failures, {elapsed:.1f}s")


def _tv_instance(gen, n):
    if n == 2:
        spec = GridSpec(tau=2.0**-4, B=2.0)  # 65^2 = 4225 points
    else:
        spec = GridSpec(tau=2.0**-2, B=2.0)  # 17^3 = 4913 points
    step = 2.0**-6
    lam = np.rint(gen.normal(size=n) / step) * step
    mu = np.rint(gen.normal(size=n) / step) * step
    dc0 = DecoupledConstraint(lam=lam, mu=mu, theta=0.0, rotation=np.eye(n))
    # put theta at a moderate quantile so the acceptance set is neither empty
    # nor the whole grid
    mesh = [spec.value(np.arange(spec.points_per_coord)) for _ in range(n)]
    grids = np.meshgrid(*mesh, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    vals = np.sort(dc0.value(pts))
    qt = float(gen.uniform(0.05, 0.6))
    theta = float(vals[int(qt * (vals.size - 1))])
    return DecoupledConstraint(lam=lam, mu=mu, theta=theta, rotation=np.eye(n)), spec


def test_criterion_3_sampler_tv_soundness():
    t0 = time.time()
    gen = np.random.default_rng(30)
    worst_tv = 0.0
    worst_ratio = 0.0
    merged = 0
    for trial in range(20):
        n = 2 if trial % 4 else 3
        dc, spec = _tv_instance(gen, n)
        exact = oracles.conditional_pmf(dc.lam, dc.mu, dc.theta, spec.tau, spec.B)
        for eps in (0.1, 0.05):
            table = PrefixCDFTable.for_sampling(dc, spec, eps)
            approx = oracles.enumerate_sampler_distribution(table)
            keys = set(exact) | set(approx)
            tv = 0.5 * sum(abs(exact.get(k, 0.0) - approx.get(k, 0.0)) for k in keys)
            worst_tv = max(worst_tv, tv)
            assert tv <= eps
            for pt, prob in approx.items():
                truth = exact.get(pt)
                assert truth is not None and truth > 0.0
                ratio = prob / truth
                worst_ratio = max(worst_ratio, abs(ratio - 1.0))
                assert 1.0 - eps <= ratio <= 1.0 / (1.0 - eps)
            if n == 3:
                sums = np.unique(np.add.outer(table.support[0], table.support[1]))
                merged += table.cdfs[2].values.size < sums.size
    assert merged >= 1  # the gate exercises sparsification
    report(
        f"ACCEPTANCE C3 PASS: 20 instances x 2 eps, worst TV {worst_tv:.2e}, "
        f"worst per-point |ratio - 1| {worst_ratio:.2e}, {merged} merged n = 3 "
        f"tables, {time.time()-t0:.1f}s"
    )


def test_criterion_4_end_to_end_sampling_fidelity():
    t0 = time.time()
    q = QuadraticForm(A=-np.eye(2), b=np.zeros(2), c=2.0)
    sampler = PtfSampler(q, 0.05)
    rng = Rng(40)
    pts = sampler.sample_batch(10_000, rng)

    # every output's grid rounding satisfies the rounded discrete constraint
    y = (sampler.rotation.T @ pts.T).T
    kappa = oracles.round_to_grid(y, sampler.spec.tau, sampler.spec.B)
    rounded_ok = np.mean(sampler.rounded.value(kappa) <= sampler.rounded.theta)
    assert rounded_ok == 1.0

    orig_ok = float(np.mean(np.asarray(sign_at(q, pts)) == 1))
    assert orig_ok >= 0.99

    ref_raw = Rng(41).normal((1_600_000, 2))
    ref = ref_raw[np.asarray(sign_at(q, ref_raw)) == 1]
    assert ref.shape[0] >= 1_000_000
    ref = ref[:1_000_000]

    diffs = []
    for stat_s, stat_r in (
        (pts[:, 0], ref[:, 0]),
        (pts[:, 1], ref[:, 1]),
        (np.sum(pts**2, axis=1), np.sum(ref**2, axis=1)),
    ):
        se = math.hypot(
            stat_s.std() / math.sqrt(stat_s.size), stat_r.std() / math.sqrt(stat_r.size)
        )
        diff = abs(stat_s.mean() - stat_r.mean())
        diffs.append(diff / se)
        assert diff <= 3.0 * se
    report(
        f"ACCEPTANCE C4 PASS: rounded 100%, original {orig_ok:.4f}, moment "
        f"z-scores {['%.2f' % d for d in diffs]}, {time.time()-t0:.1f}s"
    )


def test_criterion_5_degree2_hardness_geometry():
    t0 = time.time()
    gen = np.random.default_rng(50)
    for trial in range(20):
        n = int(gen.integers(2, 9))
        w = tuple(int(v) for v in gen.integers(0, 2**20, size=n))
        if gen.uniform() < 0.5:  # plant a solution half the time
            mask = gen.integers(0, 2, size=n)
            w0 = int(np.dot(w, mask))
        else:
            w0 = int(gen.integers(0, max(sum(w), 1) + 1))
        inst = SubsetSumInstance(w0=w0, w=w, variant="cube01")
        _, f = gen_deg2_cube_instance(inst, 4.0)
        sols = set(inst.solutions())
        for z in itertools.product((0, 1), repeat=n):
            assert (sign_at(f, np.asarray(z, dtype=float)) == 1) == (z in sols)
        alpha, _ = alpha_beta_deg2(inst, 4.0)
        half = 5000
        sweep = [gen.uniform(size=n) for _ in range(half)]
        for _ in range(half):
            z = gen.integers(0, 2, size=n).astype(float)
            d = gen.uniform(0.0, 2.0 * alpha, size=n) / n
            sweep.append(np.clip(z + np.where(z == 0, d, -d), 0.0, 1.0))
        for x in sweep:
            cl = classify_point_deg2(x, inst, 4.0)
            if cl.predicted is not None:
                assert cl.predicted == sign_at(f, x)

    # symmetric instance: all region masses within factor 2 after CI widening
    n = 6
    inst = SubsetSumInstance(w0=n // 2, w=tuple([1] * n), variant="cube01")
    _, f = gen_deg2_cube_instance(inst, 4.0)
    alpha, _ = alpha_beta_deg2(inst, 4.0)
    rng = Rng(51)
    sols = inst.solutions()
    assert len(sols) == math.comb(n, n // 2)
    bounds = []
    for k, z in enumerate(sols):
        est, ci = region_mass_mc(
            f, np.asarray(z, float), alpha, "cube-uniform", 20_000, rng.derive(k)
        )
        assert est > 0.0
        bounds.append((max(est - ci, 1e-300), est + ci))
    for (lo1, hi1), (lo2, hi2) in itertools.combinations(bounds, 2):
        assert hi1 / lo2 >= 0.5 and lo1 / hi2 <= 2.0
    report(
        f"ACCEPTANCE C5 PASS: 20 instances, exhaustive + sweep clean; "
        f"{len(sols)} symmetric regions within factor 2, {time.time()-t0:.1f}s"
    )


def test_criterion_6_degree4_hardness_geometry():
    t0 = time.time()
    gen = np.random.default_rng(60)
    for trial in range(10):
        n = int(gen.integers(2, 7))
        w = tuple(int(v) for v in gen.integers(1, 2**10, size=n))
        signs = np.where(gen.uniform(size=n) < 0.5, -1, 1)
        w0 = abs(int(np.dot(w, signs))) if gen.uniform() < 0.5 else int(
            gen.integers(0, sum(w) + 1)
        )
        inst = SubsetSumInstance(w0=w0, w=w, variant="pm1")
        quartic, alpha, beta = gen_deg4_gauss_instance(inst, 4.0)
        assert beta < alpha
        sweep = [gen.normal(size=n) for _ in range(500)]
        for _ in range(500):
            z = np.where(gen.uniform(size=n) < 0.5, -1.0, 1.0)
            sweep.append(z + gen.normal(size=n) * (2.0 * alpha / math.sqrt(n)))
        for x in sweep:
            cl = classify_point_deg4(x, quartic)
            if cl.predicted is not None:
                assert cl.predicted == quartic.ptf_sign(x)

    inst = SubsetSumInstance(w0=2, w=(1, 1, 2), variant="pm1")
    quartic, alpha, _ = gen_deg4_gauss_instance(inst, 4.0)
    rng = Rng(61)
    for k, z in enumerate(inst.solutions()):
        zf = np.asarray(z, dtype=float)
        for i in range(100):
            x = sample_region_gauss_deg4(z, quartic, rng.derive(k * 1000 + i))
            assert quartic.ptf_sign(x) == 1
            assert np.linalg.norm(x - zf) <= alpha
    report(f"ACCEPTANCE C6 PASS: deg4 sweeps clean, region samples all in-ball, {time.time()-t0:.1f}s")


def _c7_targets():
    # planted degree-2 targets with Gaussian mass spanning [1e-3, 0.5],
    # kept above the per-dimension reporting floor 2^(-4n)
    disc = QuadraticForm(A=-np.eye(2), b=np.zeros(2), c=0.2107)  # ~0.100
    half = QuadraticForm(A=np.zeros((2, 2)), b=np.array([1.0, 0.0]), c=-1.0)  # ~0.159
    band = QuadraticForm(A=np.diag([-1.0, 0.0]), b=np.zeros(2), c=0.5)  # ~0.52
    shell = QuadraticForm(A=np.eye(2), b=np.zeros(2), c=-9.2)  # ~0.010
    thin3 = QuadraticForm(A=np.zeros((3, 3)), b=np.array([1.0, 0.0, 0.0]), c=-3.0)  # ~1.3e-3
    return [disc, half, band, shell, thin3]


def test_criterion_7_densifier_planted_runs():
    t0 = time.time()
    targets = _c7_targets()
    passes = 0
    runs = []
    seed = 0
    for rep in range(4):
        for f in targets:
            seed += 1
            cfg = DensifierConfig(eps=0.1, delta=0.1)
            rep_out = planted_experiment(f, cfg, Rng(seed), n_validation=3000)
            ok = (
                rep_out["mistakes"] <= rep_out["mistake_budget"]
                and rep_out["agreement"] >= 0.8
                and rep_out["density"] >= 1.0 / (8.0 * rep_out["mistake_budget"])
            )
            passes += ok
            runs.append((seed, rep_out["p_estimate"], ok))
    assert passes >= 18, f"only {passes}/20 planted runs passed: {runs}"
    report(f"ACCEPTANCE C7 PASS: {passes}/20 planted runs, {time.time()-t0:.1f}s")


def test_criterion_8_rounding_perturbation():
    t0 = time.time()
    gen = np.random.default_rng(80)
    cfg = RoundingConfig(gamma=2.0**-20, tau=2.0**-8)
    worst = 0.0
    for trial in range(50):
        n = int(gen.integers(1, 9))
        dc = normalize(
            DecoupledConstraint(
                lam=gen.normal(size=n),
                mu=gen.normal(size=n),
                theta=float(gen.normal()),
                rotation=np.eye(n),
            )
        )
        rd = round_coefficients(dc, cfg)
        pts = gen.normal(size=(100_000, n))
        before = dc.value(pts) <= dc.theta
        after = rd.value(pts) <= rd.theta
        rate = float(np.mean(before != after))
        worst = max(worst, rate)
        assert rate <= 1e-3
    report(f"ACCEPTANCE C8 PASS: 50 instances, worst sign-flip rate {worst:.2e}, {time.time()-t0:.1f}s")


def test_criterion_9_determinism(tmp_path):
    t0 = time.time()
    inst = tmp_path / "chi2.json"
    save_instance(QuadraticForm(A=-np.eye(2), b=np.zeros(2), c=2.0), str(inst))

    def run(argv):
        return subprocess.run(
            [sys.executable, "-m", "quadgauss.cli", *argv],
            capture_output=True,
            text=True,
        )

    count_args = ["count", "--instance", str(inst), "--eps", "0.05"]
    assert run(count_args).stdout == run(count_args).stdout

    sample_args = [
        "sample", "--instance", str(inst), "--samples", "25", "--seed", "3",
        "--tau", str(2.0**-5), "--trunc-B", "4",
    ]
    s1, s2 = run(sample_args), run(sample_args)
    assert s1.returncode == 0
    assert s1.stdout == s2.stdout and s1.stdout.count("\n") == 25

    gen_args = ["geninstance", "--variant", "cube01", "--w0", "8", "--w", "3,5"]
    assert run(gen_args).stdout == run(gen_args).stdout

    # library level: bit-identical counting, identical seeded streams
    q = QuadraticForm(A=-np.eye(2), b=np.zeros(2), c=2.0)
    assert (
        count_ptf_gaussian(q, 0.05).estimate == count_ptf_gaussian(q, 0.05).estimate
    )
    a = sample_ptf_gaussian(q, 0.1, Rng(5), k=8, tau=2.0**-5, trunc_B=4.0)
    b = sample_ptf_gaussian(q, 0.1, Rng(5), k=8, tau=2.0**-5, trunc_B=4.0)
    assert np.array_equal(a, b)
    assert mc_count(q, 20_000, Rng(6)) == mc_count(q, 20_000, Rng(6))
    report(f"ACCEPTANCE C9 PASS: CLI and library determinism, {time.time()-t0:.1f}s")
