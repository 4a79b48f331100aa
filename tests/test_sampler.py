import math

import numpy as np
import pytest

from quadgauss import counter, quadform
from quadgauss.counter import PrefixCDFTable, count, exact_tail_bruteforce
from quadgauss.grid import GridSpec
from quadgauss.numerics import Rng
from quadgauss.quadform import DecoupledConstraint, QuadraticForm, sign_at
from quadgauss.sampler import (
    FilterRetryError,
    FloorError,
    PtfSampler,
    enumerate_sampler_distribution,
    lift_to_continuous,
    sample_grid_point,
    sample_ptf_gaussian,
)

import oracles


DISC = DecoupledConstraint(
    lam=np.array([0.5, 0.5]), mu=np.zeros(2), theta=1.0, rotation=np.eye(2)
)


# lattice coefficients (step 2^-6) whose n = 3 sampling table merges atoms
SKEW3 = DecoupledConstraint(
    lam=np.array([0.40625, -0.796875, 0.21875]),
    mu=np.array([-0.5625, 0.140625, 0.953125]),
    theta=0.0,
    rotation=np.eye(3),
)


class TestSampleGridPoint:
    def test_only_accepting_point_returned(self):
        spec = GridSpec(tau=0.5, B=1.0, n=1)
        dc = DecoupledConstraint(
            lam=np.array([1.0]), mu=np.zeros(1), theta=0.1, rotation=np.eye(1)
        )
        table = PrefixCDFTable.for_sampling(dc, spec, 0.05)
        r = Rng(2)
        for _ in range(50):
            assert sample_grid_point(table, r)[0] == 0.0

    def test_membership_always(self):
        for dc, spec in (
            (DISC, GridSpec(tau=0.25, B=2.0, n=2)),
            (SKEW3, GridSpec(tau=0.25, B=2.0, n=3)),
        ):
            table = PrefixCDFTable.for_sampling(dc, spec, 0.1)
            r = Rng(3)
            for _ in range(100):
                kappa = sample_grid_point(table, r)
                assert dc.value(kappa) <= dc.theta

    def test_floor_violation(self):
        spec = GridSpec(tau=0.5, B=2.0, n=1)
        dc = DecoupledConstraint(
            lam=np.array([0.0]), mu=np.array([1.0]), theta=-10.0, rotation=np.eye(1)
        )
        table = PrefixCDFTable.for_sampling(dc, spec, 0.1)
        # on every draw, not only the first: the empty case is never cached
        for _ in range(2):
            with pytest.raises(FloorError):
                sample_grid_point(table, Rng(0))
        # the sampler reads the same table's mass when it is built
        with pytest.raises(FloorError):
            PtfSampler(dc, 0.1, tau=0.5, trunc_B=2.0)

    def test_seed_determinism(self):
        spec = GridSpec(tau=0.25, B=2.0, n=2)
        table = PrefixCDFTable.for_sampling(DISC, spec, 0.1)
        a = [tuple(sample_grid_point(table, Rng(7))) for _ in range(5)]
        b = [tuple(sample_grid_point(table, Rng(7))) for _ in range(5)]
        assert a == b

    @pytest.mark.parametrize(
        "lam, mu, theta",
        [
            ([-0.5], [0.25], -0.5),
            ([-0.5, -0.25], [0.125, 0.0], -1.0),
            ([-0.40625, -0.796875, -0.21875], [-0.5625, 0.140625, 0.953125], -1.0),
        ],
    )
    def test_draws_match_per_draw_reference(self, lam, mu, theta):
        # coordinate n's cached inverse CDF must give the very draws of a
        # loop that rebuilds every coordinate's weights on every draw
        n = len(lam)
        dc = DecoupledConstraint(
            lam=np.array(lam), mu=np.array(mu), theta=theta, rotation=np.eye(n)
        )
        spec = GridSpec(tau=0.25, B=2.0, n=n)
        table = PrefixCDFTable.for_sampling(dc, spec, 0.1)
        if n == 3:  # atoms were merged
            exact_sums = np.unique(np.add.outer(table.support[0], table.support[1]))
            assert table.cdfs[2].values.size < exact_sums.size
        cdfs = [(c.values, c.log_cum) for c in table.cdfs]
        mine, ref = Rng(8), Rng(8)
        got = np.array([sample_grid_point(table, mine) for _ in range(500)])
        args = (cdfs, table.support, table.log_cell, table.kappa, table.theta, ref)
        want = np.array([oracles.draw_grid_point(*args) for _ in range(500)])
        assert np.array_equal(got, want)
        assert np.all(np.any(got == -spec.B, axis=0)) and np.all(np.any(got == spec.B, axis=0))


class TestEnumerateDistribution:
    def test_probabilities_sum_to_one(self):
        spec = GridSpec(tau=0.25, B=2.0, n=2)
        dist = enumerate_sampler_distribution(DISC, spec, 0.1)
        assert dist.probs.sum() == pytest.approx(1.0, abs=1e-10)

    def test_tv_within_eps(self):
        spec = GridSpec(tau=0.25, B=2.0, n=2)
        for eps in (0.1, 0.05):
            dist = enumerate_sampler_distribution(DISC, spec, eps)
            exact = oracles.conditional_pmf(DISC.lam, DISC.mu, DISC.theta, spec.tau, spec.B)
            approx = dist.as_dict()
            keys = set(exact) | set(approx)
            tv = 0.5 * sum(abs(exact.get(k, 0.0) - approx.get(k, 0.0)) for k in keys)
            assert tv <= eps

    def test_per_point_ratio_merged_table(self):
        spec = GridSpec(tau=0.25, B=2.0, n=3)
        eps = 0.1
        table = PrefixCDFTable.for_sampling(SKEW3, spec, eps)
        exact_sums = np.unique(np.add.outer(table.support[0], table.support[1]))
        assert table.cdfs[2].values.size < exact_sums.size  # atoms were merged
        dist = enumerate_sampler_distribution(SKEW3, spec, eps)
        exact = oracles.conditional_pmf(SKEW3.lam, SKEW3.mu, SKEW3.theta, spec.tau, spec.B)
        assert len(dist.probs) == len(exact)
        for pt, prob in zip(dist.points, dist.probs):
            truth = exact.get(tuple(pt))
            assert truth is not None
            assert 1.0 - eps <= prob / truth <= 1.0 / (1.0 - eps)

    @pytest.mark.parametrize("n, tau", [(4, 0.25), (5, 0.5)])
    def test_per_point_ratio_linear_budget(self, n, tau):
        # the table's step spends 2n - 3 merges; every reachable point stays
        # within the last CDF's budget beta = 1/(1 - eps) of the exact law
        spec = GridSpec(tau=tau, B=2.0, n=n)
        dropped = 0
        for seed in (1, 2):
            gen = np.random.default_rng(seed)
            lam, mu = (np.rint(gen.normal(size=n) * 16.0) / 16.0 for _ in range(2))
            dc = DecoupledConstraint(lam=lam, mu=mu, theta=float(gen.normal() * n), rotation=np.eye(n))
            exact = oracles.conditional_pmf(dc.lam, dc.mu, dc.theta, spec.tau, spec.B)
            for eps in (0.05, 0.3, 0.7):
                table = PrefixCDFTable.for_sampling(dc, spec, eps)
                beta = table.cdfs[-1].err_budget
                assert beta == pytest.approx(1.0 / (1.0 - eps), rel=1e-12)
                sums = np.zeros(1)
                for j in range(1, n):
                    sums = np.unique(np.add.outer(sums, table.support[j - 1]))
                    dropped += sums.size - table.cdfs[j].values.size
                dist = enumerate_sampler_distribution(dc, spec, eps)
                assert len(dist.probs) == len(exact)
                truth = np.array([exact[tuple(pt)] for pt in dist.points])
                ratio = dist.probs / truth
                assert np.all((1.0 / beta <= ratio) & (ratio <= beta))
                assert 0.5 * np.abs(dist.probs - truth).sum() <= eps
        assert dropped > 0  # atoms were merged

    def test_single_point_region_mass_one(self):
        spec = GridSpec(tau=0.5, B=1.0, n=1)
        dc = DecoupledConstraint(
            lam=np.array([1.0]), mu=np.zeros(1), theta=0.1, rotation=np.eye(1)
        )
        dist = enumerate_sampler_distribution(dc, spec, 0.1)
        assert len(dist.probs) == 1
        assert dist.probs[0] == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_instance_invariance(self):
        spec = GridSpec(tau=0.5, B=2.0, n=2)
        dc = DecoupledConstraint(
            lam=np.array([0.5, 0.5]), mu=np.zeros(2), theta=1.0, rotation=np.eye(2)
        )
        pmf = enumerate_sampler_distribution(dc, spec, 0.05).as_dict()
        for (k1, k2), p in pmf.items():
            assert pmf[(k2, k1)] == pytest.approx(p, abs=1e-9)

    def test_empirical_agreement_with_enumeration(self):
        spec = GridSpec(tau=0.5, B=2.0, n=2)
        table = PrefixCDFTable.for_sampling(DISC, spec, 0.1)
        pmf = enumerate_sampler_distribution(DISC, spec, 0.1).as_dict()
        r = Rng(11)
        n = 20_000
        seen: dict = {}
        for _ in range(n):
            k = tuple(sample_grid_point(table, r))
            seen[k] = seen.get(k, 0) + 1
        for k, p in pmf.items():
            if p > 0.01:
                assert seen.get(k, 0) / n == pytest.approx(p, rel=0.15)


class TestLift:
    def test_interior_cell_support(self):
        spec = GridSpec(tau=0.5, B=1.0, n=2)
        r = Rng(0)
        for _ in range(200):
            y = lift_to_continuous(np.array([0.0, -0.5]), spec, r)
            assert 0.0 <= y[0] < 0.5
            assert -0.5 <= y[1] < 0.0

    def test_cap_cell_support(self):
        spec = GridSpec(tau=0.5, B=1.0, n=1)
        r = Rng(1)
        ys = [lift_to_continuous(np.array([1.0]), spec, r)[0] for _ in range(200)]
        assert all(y >= 1.0 for y in ys)
        assert max(ys) > 1.5  # the cap really is unbounded

    def test_cell_mean_matches_moment_formula(self):
        spec = GridSpec(tau=0.5, B=2.0, n=1)
        r = Rng(2)
        for kappa, (a, b) in [(0.0, (0.0, 0.5)), (-1.0, (-1.0, -0.5)), (2.0, (2.0, math.inf))]:
            ys = np.array(
                [lift_to_continuous(np.array([kappa]), spec, r)[0] for _ in range(20_000)]
            )
            want = oracles.truncated_mean(a, b)
            se = ys.std() / math.sqrt(ys.size)
            assert abs(ys.mean() - want) <= 3.5 * se

    def test_off_grid_value_refused(self):
        spec = GridSpec(tau=0.5, B=1.0, n=1)
        with pytest.raises(ValueError, match="not on the grid"):
            lift_to_continuous(np.array([0.3]), spec, Rng(0))

    def test_value_beyond_B_refused(self):
        spec = GridSpec(tau=0.5, B=1.0, n=2)
        for kappa in ([1.5, 0.0], [0.0, -1.5]):
            with pytest.raises(ValueError, match="out of range"):
                lift_to_continuous(np.array(kappa), spec, Rng(0))

    def test_lower_cap_owns_left_tail(self):
        spec = GridSpec(tau=0.5, B=1.0, n=1)
        assert spec.cell_bounds(0) == (-math.inf, -0.5)
        r = Rng(3)
        ys = [lift_to_continuous(np.array([-1.0]), spec, r)[0] for _ in range(200)]
        assert all(y < -0.5 for y in ys)
        assert min(ys) < -1.0  # the cap reaches past -B


class TestPtfSampler:
    def test_rounded_constraint_always_satisfied(self):
        q2 = QuadraticForm(A=-np.eye(2), b=np.zeros(2), c=2.0)
        q3 = QuadraticForm(A=-np.eye(3), b=np.zeros(3), c=2.0)
        for s in (
            PtfSampler(q2, 0.1, tau=2.0**-5, trunc_B=4.0),
            PtfSampler(q3),  # default flags: tau 2^-8, compressed table
        ):
            pts = s.sample_batch(300, Rng(3))
            kappa = oracles.round_to_grid((s.rotation.T @ pts.T).T, s.spec.tau, s.spec.B)
            assert np.all(s.rounded.value(kappa) <= s.rounded.theta)

    def test_exact_filter_postcondition(self):
        q = QuadraticForm(A=-np.eye(2), b=np.zeros(2), c=2.0)
        s = PtfSampler(q, 0.1, tau=2.0**-5, trunc_B=4.0)
        pts = s.sample_batch(300, Rng(4), exact_filter=True)
        assert np.all(np.asarray(sign_at(q, pts)) == 1)

    def test_radial_moment_vs_rejection_reference(self):
        q = QuadraticForm(A=-np.eye(2), b=np.zeros(2), c=2.0)
        s = PtfSampler(q, 0.05, tau=2.0**-6, trunc_B=4.0)
        pts = s.sample_batch(3000, Rng(5))
        r2 = np.sum(pts**2, axis=1)
        ref = Rng(6).normal((400_000, 2))
        ref = ref[np.asarray(sign_at(q, ref)) == 1]
        ref_r2 = np.sum(ref**2, axis=1)
        se = math.hypot(r2.std() / math.sqrt(r2.size), ref_r2.std() / math.sqrt(ref_r2.size))
        assert abs(r2.mean() - ref_r2.mean()) <= 3.0 * se

    def test_rotation_applied(self):
        # acceptance region is a halfplane not aligned with the axes
        q = QuadraticForm(
            A=np.array([[0.0, -1.0], [-1.0, 0.0]]), b=np.zeros(2), c=1.0
        )
        s = PtfSampler(q, 0.1, tau=2.0**-5, trunc_B=4.0)
        pts = s.sample_batch(200, Rng(7), exact_filter=True)
        assert np.all(np.asarray(sign_at(q, pts)) == 1)

    def test_constant_positive_samples_plain_normals(self):
        q = QuadraticForm(A=np.zeros((2, 2)), b=np.zeros(2), c=1.0)
        s = PtfSampler(q, 0.1)
        pts = s.sample_batch(5000, Rng(8))
        assert abs(pts.mean()) < 0.05

    def test_constant_form_draws_normals_without_decoupling(self, monkeypatch):
        def no_eigensolve(A):
            raise AssertionError("a constant form was decoupled")

        monkeypatch.setattr(quadform, "jacobi_eigen", no_eigensolve)
        q = QuadraticForm(A=np.zeros((3, 3)), b=np.zeros(3), c=0.0)
        pts = PtfSampler(q, 0.1).sample_batch(4, Rng(8))
        ref = Rng(8)
        assert np.array_equal(pts, [ref.normal(3) for _ in range(4)])

    @pytest.mark.parametrize("k", [2.5, -1])
    def test_sample_batch_rejects_bad_counts(self, k):
        s = PtfSampler(QuadraticForm(A=-np.eye(2), b=np.zeros(2), c=2.0), 0.1, tau=2.0**-5, trunc_B=4.0)
        with pytest.raises(ValueError, match="^k must be"):
            s.sample_batch(k, Rng(9))
        assert s.sample_batch(0, Rng(9)).shape == (0, 2)

    def test_empty_region_floor_error(self):
        q = QuadraticForm(A=np.zeros((2, 2)), b=np.zeros(2), c=-1.0)
        with pytest.raises(FloorError):
            PtfSampler(q, 0.1)

    def test_filter_retry_error(self):
        # acceptance sliver much thinner than a grid cell: the grid accepts
        # the cell but nearly every lift violates the original polynomial
        tau = 2.0**-4
        q = QuadraticForm(
            A=np.array([[-1.0]]), b=np.array([tau * 0.01]), c=0.0
        )
        s = PtfSampler(q, 0.25, tau=tau, trunc_B=2.0, floor=0.0, retry_limit=2)
        with pytest.raises(FilterRetryError):
            s.sample(Rng(9), exact_filter=True)

    def test_negative_retry_limit_rejected(self):
        # -1 would allow zero attempts, so a filtered draw could never succeed
        q = QuadraticForm(A=-np.eye(2), b=np.zeros(2), c=2.0)
        with pytest.raises(ValueError, match="retry_limit"):
            PtfSampler(q, 0.25, retry_limit=-1)
        PtfSampler(q, 0.25, tau=2.0**-4, retry_limit=0).sample(Rng(9), exact_filter=True)

    @pytest.mark.parametrize(
        "kwargs", [{"eps": 0.0}, {"eps": 5.0}, {"tau": 0.3}, {"trunc_B": 0.3}]
    )
    def test_bad_settings_rejected_before_work(self, monkeypatch, kwargs):
        # a constant instance needs no grid, so only an up-front check
        # catches these settings
        def no_decouple(q):
            raise AssertionError("decouple ran before the settings were checked")

        monkeypatch.setattr(counter, "decouple", no_decouple)
        q = QuadraticForm(A=np.zeros((2, 2)), b=np.zeros(2), c=1.0)
        with pytest.raises(ValueError):
            PtfSampler(q, **kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"floor": math.nan},
            {"floor": -1.0},
            {"floor": 5.0},
            {"floor": math.inf},
            {"retry_limit": 2.5},
            {"retry_limit": True},
            {"eps": 1.0},
        ],
    )
    def test_bad_floor_retries_and_eps_rejected_before_work(self, monkeypatch, kwargs):
        def no_decouple(q):
            raise AssertionError("decouple ran before the settings were checked")

        monkeypatch.setattr(counter, "decouple", no_decouple)
        q = QuadraticForm(A=-np.eye(2), b=np.zeros(2), c=2.0)
        with pytest.raises(ValueError, match=f"^{next(iter(kwargs))} must"):
            PtfSampler(q, **{"eps": 0.1, **kwargs})

    def test_eps_one_refused_by_sampling_table_kept_by_count(self):
        # a sampling table at eps = 1 would bound nothing; a count at eps = 1
        # is still a (1 +- 1) answer
        spec = GridSpec(tau=0.25, B=2.0, n=3)
        with pytest.raises(ValueError, match=r"^eps must lie in \(0, 1\) for sampling, got 1.0"):
            PrefixCDFTable.for_sampling(SKEW3, spec, 1.0)
        assert 0.0 < count(SKEW3, spec, 1.0) < 1.0

    def test_one_table_per_sampler(self, monkeypatch):
        # the floor check reads the sampling table: no count table is built,
        # neither here nor on the first draw
        def no_count_table(*args, **kwargs):
            raise AssertionError("a count table was built")

        monkeypatch.setattr(PrefixCDFTable, "for_count", no_count_table)
        q = QuadraticForm(A=-np.eye(3) + 0.1, b=np.array([0.3, -0.2, 0.1]), c=3.0)
        s = PtfSampler(q, 0.1, tau=2.0**-4, trunc_B=3.0)
        assert s.sample(Rng(0)).shape == (3,)

    @pytest.mark.parametrize("n, tau", [(3, 0.25), (4, 0.5)])
    def test_floor_mass_within_half_the_budget(self, n, tau):
        # the sampling table's mass() lies within sqrt(beta) = (1 - eps)^(-1/2)
        # of the exact grid mass either way
        spec = GridSpec(tau=tau, B=2.0, n=n)
        gen = np.random.default_rng(n)
        for _ in range(3):
            lam, mu = (np.rint(gen.normal(size=n) * 16.0) / 16.0 for _ in range(2))
            dc = DecoupledConstraint(lam=lam, mu=mu, theta=float(gen.normal() * n), rotation=np.eye(n))
            exact = exact_tail_bruteforce(dc, spec)
            for eps in (0.1, 0.5):
                ratio = PrefixCDFTable.for_sampling(dc, spec, eps).mass() / exact
                assert math.sqrt(1.0 - eps) <= ratio <= 1.0 / math.sqrt(1.0 - eps)

    def test_seed_determinism(self):
        q = QuadraticForm(A=-np.eye(2), b=np.zeros(2), c=2.0)
        a = sample_ptf_gaussian(q, 0.1, Rng(10), k=10, tau=2.0**-5, trunc_B=4.0)
        b = sample_ptf_gaussian(q, 0.1, Rng(10), k=10, tau=2.0**-5, trunc_B=4.0)
        assert np.array_equal(a, b)
