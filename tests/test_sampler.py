import hashlib
import math
from types import SimpleNamespace

import numpy as np
import pytest

from quadgauss import counter
from quadgauss.counter import PrefixCDFTable, count
from quadgauss.grid import GridSpec
from quadgauss.numerics import LOG_ZERO, Rng
from quadgauss.quadform import DecoupledConstraint, QuadraticForm, sign_at
from quadgauss.sampler import (
    FilterRetryError,
    FloorError,
    PtfSampler,
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
        spec = GridSpec(tau=0.5, B=1.0)
        dc = DecoupledConstraint(
            lam=np.array([1.0]), mu=np.zeros(1), theta=0.1, rotation=np.eye(1)
        )
        table = PrefixCDFTable.for_sampling(dc, spec, 0.05)
        r = Rng(2)
        for _ in range(50):
            assert sample_grid_point(table, r)[0] == 0.0

    def test_membership_always(self):
        for dc, spec in (
            (DISC, GridSpec(tau=0.25, B=2.0)),
            (SKEW3, GridSpec(tau=0.25, B=2.0)),
        ):
            table = PrefixCDFTable.for_sampling(dc, spec, 0.1)
            r = Rng(3)
            for _ in range(100):
                kappa = sample_grid_point(table, r)
                assert dc.value(kappa) <= dc.theta

    def test_floor_violation(self):
        spec = GridSpec(tau=0.5, B=2.0)
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
        spec = GridSpec(tau=0.25, B=2.0)
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
        # the cached inverse CDFs of coordinates n and 1 must give the very
        # draws of a loop that rebuilds every coordinate's weights on every
        # draw, with coordinate 1's in support order
        n = len(lam)
        dc = DecoupledConstraint(
            lam=np.array(lam), mu=np.array(mu), theta=theta, rotation=np.eye(n)
        )
        spec = GridSpec(tau=0.25, B=2.0)
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


class _FixedRng:
    """Stands in for Rng: every uniform() is ``u``."""

    def __init__(self, u):
        self.u = u

    def uniform(self):
        return self.u


def _table2(lam1, mu1, B=2.0, tau=0.25, theta=0.0):
    """n = 2 sampling table whose coordinate 1 has the given coefficients."""
    dc = DecoupledConstraint(
        lam=np.array([lam1, -0.5]), mu=np.array([mu1, 0.25]), theta=theta, rotation=np.eye(2)
    )
    return PrefixCDFTable.for_sampling(dc, GridSpec(tau=tau, B=B), 0.1)


class TestFirstCoordinateCDF:
    @pytest.mark.parametrize(
        "lam1, mu1, B",
        [
            (0.5, 0.25, 2.0),  # lam > 0
            (-0.75, 0.125, 2.0),  # lam < 0
            (0.0, -0.5, 2.0),  # lam = 0
            (0.5, 0.0, 2.0),  # mirrored support ties
            (-1.0, 0.0, 40.0),  # far tails first, mirrored
        ],
    )
    def test_law_matches_rebuilt_weights(self, lam1, mu1, B):
        table = _table2(lam1, mu1, B=B)
        order, s, log_cum = table.first_coordinate_cdf
        np.testing.assert_array_equal(s, np.sort(table.support[0]))
        ts = [s[0], s[1], s[s.size // 3], 0.5 * (s[s.size // 2] + s[s.size // 2 + 1]), s[-1], s[-1] + 1.0]
        if B == 40.0:
            ts.append(-38.0**2)  # only |kappa| >= 38: log masses near -720
        for t in ts:
            lw = table.log_weights(0, t)
            lw -= np.logaddexp.reduce(lw)
            c = int(np.count_nonzero(table.support[0] <= t))
            assert np.all(lw[order[:c]] > LOG_ZERO) and np.all(lw[order[c:]] == LOG_ZERO)
            # the CDF in support order, to 1e-12 relative (compared as logs,
            # since far-tail values lie below float range)
            log_cdf = log_cum[:c] - log_cum[c - 1]
            want_cdf = np.logaddexp.accumulate(lw[order[:c]])
            np.testing.assert_allclose(log_cdf, want_cdf, rtol=0.0, atol=1e-12)
            got = np.zeros(lw.size)
            got[order[:c]] = np.diff(np.exp(log_cdf), prepend=0.0)
            np.testing.assert_allclose(got, np.exp(lw), rtol=1e-12, atol=1e-12)

    def test_zero_uniform_picks_the_first_index_in_the_region(self):
        for lam1, mu1 in ((0.5, 0.0), (-0.5, 0.0), (0.0, 1.0)):
            table = _table2(lam1, mu1, theta=-0.5)
            kappa = sample_grid_point(table, _FixedRng(0.0))
            i2 = int(np.flatnonzero(table.last_coordinate_cum > 0.0)[0])
            t = table.theta - table.support[1, i2]
            inside = np.flatnonzero(table.support[0] <= t)
            i1 = inside[np.argmin(table.support[0][inside])]  # first of any tie
            assert np.array_equal(kappa, table.kappa[[i1, i2]])

    def test_far_tail_draws_stay_in_the_region(self):
        # coordinate 1 must take |kappa| >= 38 on a B = 40 grid, where every
        # cell mass is far below float range
        dc = DecoupledConstraint(
            lam=np.array([-1.0, 0.0]), mu=np.zeros(2), theta=-38.0**2, rotation=np.eye(2)
        )
        table = PrefixCDFTable.for_sampling(dc, GridSpec(tau=0.25, B=40.0), 0.1)
        r = Rng(5)
        got = np.array([sample_grid_point(table, r)[0] for _ in range(400)])
        assert np.all(np.abs(got) >= 38.0)
        # a uniform just below 1 rounds the log target up to the region's total
        top = sample_grid_point(table, _FixedRng(math.nextafter(1.0, 0.0)))[0]
        assert abs(top) >= 38.0

    @pytest.mark.parametrize("dc, n, weights", [(DISC, 2, 0), (SKEW3, 3, 1)])
    def test_draw_rebuilds_only_the_middle_coordinates(self, monkeypatch, dc, n, weights):
        calls = {"weights": 0, "query": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            PrefixCDFTable, "cumulative_weights", counted("weights", PrefixCDFTable.cumulative_weights)
        )
        monkeypatch.setattr(
            counter.CompressedCDF, "log_query", counted("query", counter.CompressedCDF.log_query)
        )
        table = PrefixCDFTable.for_sampling(dc, GridSpec(tau=0.25, B=2.0), 0.1)
        r = Rng(4)
        sample_grid_point(table, r)  # builds both cached inverse CDFs
        for _ in range(20):
            calls.update(weights=0, query=0)
            sample_grid_point(table, r)
            assert calls["weights"] == weights
            assert calls["query"] == weights


class TestEnumerateDistribution:
    """The sampler's exact output law, enumerated from its table by the
    oracle, against the exact conditional law."""

    def test_probabilities_sum_to_one(self):
        table = PrefixCDFTable.for_sampling(DISC, GridSpec(tau=0.25, B=2.0), 0.1)
        law = oracles.enumerate_sampler_distribution(table)
        assert math.fsum(law.values()) == pytest.approx(1.0, abs=1e-10)

    def test_tv_within_eps(self):
        spec = GridSpec(tau=0.25, B=2.0)
        for eps in (0.1, 0.05):
            approx = oracles.enumerate_sampler_distribution(PrefixCDFTable.for_sampling(DISC, spec, eps))
            exact = oracles.conditional_pmf(DISC.lam, DISC.mu, DISC.theta, spec.tau, spec.B)
            keys = set(exact) | set(approx)
            tv = 0.5 * sum(abs(exact.get(k, 0.0) - approx.get(k, 0.0)) for k in keys)
            assert tv <= eps

    def test_per_point_ratio_merged_table(self):
        spec = GridSpec(tau=0.25, B=2.0)
        eps = 0.1
        table = PrefixCDFTable.for_sampling(SKEW3, spec, eps)
        exact_sums = np.unique(np.add.outer(table.support[0], table.support[1]))
        assert table.cdfs[2].values.size < exact_sums.size  # atoms were merged
        law = oracles.enumerate_sampler_distribution(table)
        exact = oracles.conditional_pmf(SKEW3.lam, SKEW3.mu, SKEW3.theta, spec.tau, spec.B)
        assert len(law) == len(exact)
        for pt, prob in law.items():
            truth = exact.get(pt)
            assert truth is not None
            assert 1.0 - eps <= prob / truth <= 1.0 / (1.0 - eps)

    @pytest.mark.parametrize("n, tau", [(4, 0.25), (5, 0.5)])
    def test_per_point_ratio_linear_budget(self, n, tau):
        # the table's step spends 2n - 3 merges; every reachable point stays
        # within the table's beta = 1/(1 - eps) of the exact law
        spec = GridSpec(tau=tau, B=2.0)
        dropped = 0
        for seed in (1, 2):
            gen = np.random.default_rng(seed)
            lam, mu = (np.rint(gen.normal(size=n) * 16.0) / 16.0 for _ in range(2))
            dc = DecoupledConstraint(lam=lam, mu=mu, theta=float(gen.normal() * n), rotation=np.eye(n))
            exact = oracles.conditional_pmf(dc.lam, dc.mu, dc.theta, spec.tau, spec.B)
            for eps in (0.05, 0.3, 0.7):
                table = PrefixCDFTable.for_sampling(dc, spec, eps)
                beta = table.beta
                assert beta == pytest.approx(1.0 / (1.0 - eps), rel=1e-12)
                sums = np.zeros(1)
                for j in range(1, n):
                    sums = np.unique(np.add.outer(sums, table.support[j - 1]))
                    dropped += sums.size - table.cdfs[j].values.size
                law = oracles.enumerate_sampler_distribution(table)
                assert len(law) == len(exact)
                probs = np.array(list(law.values()))
                truth = np.array([exact[pt] for pt in law])
                ratio = probs / truth
                assert np.all((1.0 / beta <= ratio) & (ratio <= beta))
                assert 0.5 * np.abs(probs - truth).sum() <= eps
        assert dropped > 0  # atoms were merged

    def test_single_point_region_mass_one(self):
        spec = GridSpec(tau=0.5, B=1.0)
        dc = DecoupledConstraint(
            lam=np.array([1.0]), mu=np.zeros(1), theta=0.1, rotation=np.eye(1)
        )
        law = oracles.enumerate_sampler_distribution(PrefixCDFTable.for_sampling(dc, spec, 0.1))
        assert list(law.values()) == [pytest.approx(1.0, abs=1e-12)]

    def test_symmetric_instance_invariance(self):
        spec = GridSpec(tau=0.5, B=2.0)
        dc = DecoupledConstraint(
            lam=np.array([0.5, 0.5]), mu=np.zeros(2), theta=1.0, rotation=np.eye(2)
        )
        pmf = oracles.enumerate_sampler_distribution(PrefixCDFTable.for_sampling(dc, spec, 0.05))
        for (k1, k2), p in pmf.items():
            assert pmf[(k2, k1)] == pytest.approx(p, abs=1e-9)

    def test_empirical_agreement_with_enumeration(self):
        spec = GridSpec(tau=0.5, B=2.0)
        table = PrefixCDFTable.for_sampling(DISC, spec, 0.1)
        pmf = oracles.enumerate_sampler_distribution(table)
        r = Rng(11)
        n = 20_000
        seen: dict = {}
        for _ in range(n):
            k = tuple(sample_grid_point(table, r))
            seen[k] = seen.get(k, 0) + 1
        for k, p in pmf.items():
            if p > 0.01:
                assert seen.get(k, 0) / n == pytest.approx(p, rel=0.15)

    def test_size_guard_beyond_float_range(self):
        # a table of GridSpec(tau=1.0, B=1e200)'s shape, which the
        # package refuses to build: (2e200 + 1)^2 points, which no float holds
        m = GridSpec(tau=1.0, B=1e200).points_per_coord
        table = SimpleNamespace(n=2, support=SimpleNamespace(shape=(2, m)))
        with pytest.raises(ValueError, match=r"^grid has 4\.00e\+400 points, too many"):
            oracles.enumerate_sampler_distribution(table)


class TestLift:
    def test_interior_cell_support(self):
        spec = GridSpec(tau=0.5, B=1.0)
        r = Rng(0)
        for _ in range(200):
            y = lift_to_continuous(np.array([0.0, -0.5]), spec, r)
            assert 0.0 <= y[0] < 0.5
            assert -0.5 <= y[1] < 0.0

    def test_cap_cell_support(self):
        spec = GridSpec(tau=0.5, B=1.0)
        r = Rng(1)
        ys = [lift_to_continuous(np.array([1.0]), spec, r)[0] for _ in range(200)]
        assert all(y >= 1.0 for y in ys)
        assert max(ys) > 1.5  # the cap really is unbounded

    def test_cell_mean_matches_moment_formula(self):
        spec = GridSpec(tau=0.5, B=2.0)
        r = Rng(2)
        for kappa, (a, b) in [(0.0, (0.0, 0.5)), (-1.0, (-1.0, -0.5)), (2.0, (2.0, math.inf))]:
            ys = np.array(
                [lift_to_continuous(np.array([kappa]), spec, r)[0] for _ in range(20_000)]
            )
            want = oracles.truncated_mean(a, b)
            se = ys.std() / math.sqrt(ys.size)
            assert abs(ys.mean() - want) <= 3.5 * se

    def test_off_grid_value_refused(self):
        spec = GridSpec(tau=0.5, B=1.0)
        with pytest.raises(ValueError, match="not on the grid"):
            lift_to_continuous(np.array([0.3]), spec, Rng(0))

    def test_value_beyond_B_refused(self):
        spec = GridSpec(tau=0.5, B=1.0)
        for kappa in ([1.5, 0.0], [0.0, -1.5]):
            with pytest.raises(ValueError, match="out of range"):
                lift_to_continuous(np.array(kappa), spec, Rng(0))

    def test_lower_cap_owns_left_tail(self):
        spec = GridSpec(tau=0.5, B=1.0)
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
        def no_decouple(q):
            raise AssertionError("a constant form was decoupled")

        monkeypatch.setattr(counter, "decouple", no_decouple)
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
        # acceptance sliver x(0.005 - x) >= 0, far thinner than a grid cell:
        # the grid accepts the cell at 0 (table mass 0.19, above the floor
        # 2^-4), but nearly every lift of it violates the original polynomial
        q = QuadraticForm(A=np.array([[-1.0]]), b=np.array([0.005]), c=0.0)
        s = PtfSampler(q, 0.25, tau=0.5, trunc_B=2.0, retry_limit=2)
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
        spec = GridSpec(tau=0.25, B=2.0)
        with pytest.raises(ValueError, match=r"^eps must lie in \(0, 1\) for sampling, got 1.0"):
            PrefixCDFTable.for_sampling(SKEW3, spec, 1.0)
        assert 0.0 < count(SKEW3, spec, 1.0) < 1.0

    def test_one_table_per_sampler(self, monkeypatch):
        # the floor check reads the sampling table: no other table is built,
        # neither here nor on the first draw
        built = []
        real = PrefixCDFTable.__init__

        def spy(self, *args, **kwargs):
            built.append(self)
            real(self, *args, **kwargs)

        monkeypatch.setattr(PrefixCDFTable, "__init__", spy)
        q = QuadraticForm(A=-np.eye(3) + 0.1, b=np.array([0.3, -0.2, 0.1]), c=3.0)
        s = PtfSampler(q, 0.1, tau=2.0**-4, trunc_B=3.0)
        assert s.sample(Rng(0)).shape == (3,)
        assert len(built) == 1 and built[0] is s.table

    @pytest.mark.parametrize("n, tau", [(3, 0.25), (4, 0.5)])
    def test_floor_mass_within_half_the_budget(self, n, tau):
        # the sampling table's mass() lies within sqrt(beta) = (1 - eps)^(-1/2)
        # of the exact grid mass either way
        spec = GridSpec(tau=tau, B=2.0)
        gen = np.random.default_rng(n)
        for _ in range(3):
            lam, mu = (np.rint(gen.normal(size=n) * 16.0) / 16.0 for _ in range(2))
            dc = DecoupledConstraint(lam=lam, mu=mu, theta=float(gen.normal() * n), rotation=np.eye(n))
            exact = oracles.exact_tail_bruteforce(dc.lam, dc.mu, dc.theta, spec.tau, spec.B)
            for eps in (0.1, 0.5):
                ratio = PrefixCDFTable.for_sampling(dc, spec, eps).mass() / exact
                assert math.sqrt(1.0 - eps) <= ratio <= 1.0 / math.sqrt(1.0 - eps)

    def test_seed_determinism(self):
        q = QuadraticForm(A=-np.eye(2), b=np.zeros(2), c=2.0)
        a = sample_ptf_gaussian(q, 0.1, Rng(10), k=10, tau=2.0**-5, trunc_B=4.0)
        b = sample_ptf_gaussian(q, 0.1, Rng(10), k=10, tau=2.0**-5, trunc_B=4.0)
        assert np.array_equal(a, b)


def _truncated_normal_moments(a, b):
    """Mean, variance and fourth central moment of N(0, 1) restricted to
    [a, b], from the raw moments M_k = (k - 1) M_(k-2) + (a^(k-1) phi(a) -
    b^(k-1) phi(b)) / P."""

    def edge(t, k):  # t^k phi(t), 0 at an infinite end
        return 0.0 if math.isinf(t) else t**k * math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)

    mass = 0.5 * (math.erfc(a / math.sqrt(2.0)) - math.erfc(b / math.sqrt(2.0)))
    m = [1.0, (edge(a, 0) - edge(b, 0)) / mass]
    for k in (2, 3, 4):
        m.append((k - 1) * m[k - 2] + (edge(a, k - 1) - edge(b, k - 1)) / mass)
    mean = m[1]
    var = m[2] - mean**2
    mu4 = m[4] - 4.0 * m[3] * mean + 6.0 * m[2] * mean**2 - 3.0 * mean**4
    return mean, var, mu4


class TestFoldedForms:
    """The sampler reads the folded, live coordinates that ``count`` reads:
    a rotated halfspace or slab is a one-coordinate table at any n, and the
    other n - 1 coordinates are drawn as exact normals."""

    @pytest.mark.parametrize("n", [8, 32, 128])
    @pytest.mark.parametrize("shape", ["halfspace", "slab"])
    def test_rotated_halfspace_and_slab_moments(self, n, shape):
        # w.x >= 2, or |w.x| <= 0.5, with default flags and the exact
        # filter: along w the draws follow the truncated normal, and on w's
        # orthogonal complement they are standard normal
        w = np.random.default_rng(n).standard_normal(n)
        w /= np.linalg.norm(w)
        if shape == "halfspace":
            q, (a, b) = QuadraticForm(A=np.zeros((n, n)), b=w, c=-2.0), (2.0, math.inf)
        else:
            q, (a, b) = QuadraticForm(A=-np.outer(w, w), b=np.zeros(n), c=0.25), (-0.5, 0.5)
        s = PtfSampler(q)
        assert s.table.n == 1
        k = 4000
        x = s.sample_batch(k, Rng(n), exact_filter=True)
        along = x @ w
        mean, var, mu4 = _truncated_normal_moments(a, b)
        assert abs(along.mean() - mean) <= 4.0 * math.sqrt(var / k)
        assert abs(along.var() - var) <= 4.0 * math.sqrt((mu4 - var * var) / k)
        rest = x - np.outer(along, w)
        second = np.sum(rest * rest, axis=1) / (n - 1)  # chi^2_(n-1) / (n - 1)
        assert abs(second.mean() - 1.0) <= 4.0 * math.sqrt(2.0 / ((n - 1) * k))

    def test_filter_of_a_folded_decoupled_constraint(self):
        # two linear coordinates and a quadratic one in a Haar basis: the
        # fold leaves one linear coordinate and turns its rotation, so the
        # exact filter must test the original at its own coordinates of x
        z, r = np.linalg.qr(np.random.default_rng(7).standard_normal((3, 3)))
        dc = DecoupledConstraint(
            lam=np.array([0.0, 0.0, 0.5]), mu=np.array([0.6, -0.8, 0.3]), theta=0.5, rotation=z * np.sign(np.diag(r))
        )
        s = PtfSampler(dc)
        assert np.count_nonzero((s.rounded.lam == 0.0) & (s.rounded.mu != 0.0)) == 1
        np.testing.assert_allclose(s.rotation.T @ s.rotation, np.eye(3), atol=1e-14, rtol=0)
        x = s.sample_batch(2000, Rng(11), exact_filter=True)
        assert np.all(dc.accepts(x @ dc.rotation))  # dc.rotation.T @ x, row by row
        assert s.filter_rejections > 0  # the filter had grid cells to trim


def _bench_like(seed, n):
    """A = -I + 0.3 sym(N), b = 0.3 g, c = n, with N, g drawn from
    default_rng(n), in a Haar-random basis drawn from (seed, n)."""
    gen = np.random.default_rng(n)
    big = gen.standard_normal((n, n))
    g = gen.standard_normal(n)
    z, r = np.linalg.qr(np.random.default_rng([seed, n]).standard_normal((n, n)))
    rot = z * np.sign(np.diag(r))
    a = rot.T @ (-np.eye(n) + 0.3 * (big + big.T) / 2.0) @ rot
    return QuadraticForm(A=(a + a.T) / 2.0, b=rot.T @ (0.3 * g), c=float(n))


# filtered draws at n = 1..4, default flags and tau 2^-4
_PINNED_CASES = [
    (_bench_like(seed, n), kwargs, (seed, n))
    for n in (1, 2, 3, 4)
    for kwargs in ({}, {"tau": 2.0**-4})
    for seed in (1, 2)
]
_PINNED_DIGEST = "19370113413098ae66d4bc50c16d7734fc9f04340bb55fd987456e6e7fb51201"


def test_draws_rejections_and_stream_pinned():
    # every draw, the filter's rejection count and the uniform that follows
    # the last draw (so the number of uniforms taken) are pinned bit for bit;
    # so are grid points and lifts far below float range, on a B = 40 grid
    # where coordinate 1 must take |kappa| >= 38
    h = hashlib.sha256()
    for q, kwargs, (seed, tag) in _PINNED_CASES:
        s = PtfSampler(q, **kwargs)
        rng = Rng(seed).derive(tag)
        h.update(s.sample_batch(60, rng, exact_filter=True).tobytes())
        h.update(np.int64(s.filter_rejections).tobytes())
        h.update(np.float64(rng.uniform()).tobytes())
    dc = DecoupledConstraint(lam=np.array([-1.0, 0.25]), mu=np.array([0.0, 0.5]), theta=-38.0**2, rotation=np.eye(2))
    spec = GridSpec(tau=0.25, B=40.0)
    table = PrefixCDFTable.for_sampling(dc, spec, 0.1)
    rng = Rng(3)
    for _ in range(60):
        kappa = sample_grid_point(table, rng)
        h.update(kappa.tobytes())
        h.update(lift_to_continuous(kappa, spec, rng).tobytes())
    h.update(np.float64(rng.uniform()).tobytes())
    assert h.hexdigest() == _PINNED_DIGEST
