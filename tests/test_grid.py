import math

import numpy as np
import pytest

from quadgauss.grid import GridSpec, support_and_log_pmf

import oracles

SPEC_HALF = GridSpec(tau=0.5, B=1.0, n=1)


def image_pmf(a, b, spec):
    """The image pmf in linear space."""
    values, logp = support_and_log_pmf(a, b, spec)
    return values, np.exp(logp)


def cell_masses(spec):
    """Mass of each grid value, read off the pmf of the identity map."""
    vals, probs = image_pmf(0.0, 1.0, spec)
    return dict(zip(vals.tolist(), probs.tolist()))


class TestGridSpec:
    def test_point_count(self):
        assert SPEC_HALF.points_per_coord == 5
        assert GridSpec(tau=2.0**-3, B=2.0, n=2).points_per_coord == 33

    def test_requires_integral_ratio(self):
        with pytest.raises(ValueError):
            GridSpec(tau=2.0**-1, B=1.25, n=1)

    def test_requires_power_of_two(self):
        with pytest.raises(ValueError):
            GridSpec(tau=0.3, B=1.0, n=1)

    def test_values_exact(self):
        spec = GridSpec(tau=2.0**-4, B=3.0, n=1)
        vals = spec.value(np.arange(spec.points_per_coord))
        assert vals[0] == -3.0 and vals[-1] == 3.0
        assert np.all(np.diff(vals) == 2.0**-4)


class TestRoundToGrid:
    def test_interior(self):
        assert oracles.round_to_grid(0.3, 0.5, 1.0) == 0.0

    def test_cap(self):
        assert oracles.round_to_grid(7.0, 0.5, 1.0) == 1.0
        assert oracles.round_to_grid(-7.0, 0.5, 1.0) == -1.0

    def test_exact_point_owns_cell(self):
        assert oracles.round_to_grid(-0.5, 0.5, 1.0) == -0.5

    def test_floor_semantics(self):
        # kappa owns [kappa, kappa + tau)
        assert oracles.round_to_grid(0.4999999, 0.5, 1.0) == 0.0
        assert oracles.round_to_grid(0.5, 0.5, 1.0) == 0.5

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            oracles.round_to_grid(math.nan, 0.5, 1.0)


class TestCoordinateMass:
    def test_interior_cell(self):
        assert cell_masses(SPEC_HALF)[0.0] == pytest.approx(
            oracles.phi_series(0.5) - 0.5, rel=1e-13
        )

    def test_capped_tail(self):
        masses = cell_masses(SPEC_HALF)
        assert masses[1.0] == pytest.approx(1.0 - oracles.phi_series(1.0), rel=1e-13)
        assert masses[-1.0] == pytest.approx(oracles.phi_series(-0.5), rel=1e-13)

    def test_total_mass_one(self):
        masses = cell_masses(SPEC_HALF)
        assert len(masses) == SPEC_HALF.points_per_coord
        assert sum(masses.values()) == pytest.approx(1.0, abs=1e-14)


class TestSupportAndPmf:
    def test_five_point_square_pmf(self):
        vals, probs = image_pmf(1.0, 0.0, SPEC_HALF)
        want = oracles.discrete_image_pmf(1.0, 0.0, 0.5, 1.0)
        assert vals.tolist() == sorted(want)
        for v, p in zip(vals, probs):
            assert p == pytest.approx(want[v], rel=1e-12)
        # frozen oracle values for the canonical example
        assert vals.tolist() == [0.0, 0.25, 1.0]
        assert probs[0] == pytest.approx(0.1914624612740131, rel=1e-9)
        assert probs[1] == pytest.approx(0.3413447460685429, rel=1e-9)
        assert probs[2] == pytest.approx(0.4671927926574440, rel=1e-9)

    def test_degenerate_zero_coefficients(self):
        vals, probs = image_pmf(0.0, 0.0, SPEC_HALF)
        assert vals.tolist() == [0.0]
        assert probs[0] == pytest.approx(1.0, abs=1e-14)

    def test_probabilities_sum_to_one(self):
        gen = np.random.default_rng(2)
        spec = GridSpec(tau=2.0**-4, B=2.0, n=1)
        for _ in range(50):
            a, b = gen.uniform(-1, 1, size=2)
            _, probs = image_pmf(a, b, spec)
            assert abs(probs.sum() - 1.0) <= 1e-12

    def test_lattice_exactness(self):
        # multiples of gamma in, multiples of gamma*tau^2 out, exactly
        gamma, tau = 2.0**-10, 2.0**-4
        spec = GridSpec(tau=tau, B=4.0, n=1)
        gen = np.random.default_rng(3)
        unit = gamma * tau * tau
        for _ in range(20):
            a = float(np.rint(gen.uniform(-1, 1) / gamma) * gamma)
            b = float(np.rint(gen.uniform(-1, 1) / gamma) * gamma)
            vals, _ = image_pmf(a, b, spec)
            ratio = vals / unit
            assert np.array_equal(ratio, np.rint(ratio))
            # range bound: |a| kappa^2 + |b| |kappa| <= 2B^2 + 2B
            assert np.all(np.abs(vals) <= 2 * spec.B**2 + 2 * spec.B)

    def test_min_atom_mass_lower_bound(self):
        spec = GridSpec(tau=2.0**-4, B=2.0, n=1)
        thinnest = min(cell_masses(spec).values())
        _, probs = image_pmf(1.0, 0.5, spec)
        assert probs.min() >= thinnest - 1e-15


class TestOracleQuadratic:
    """Interval sums of the image pmf against direct cell enumeration."""

    def test_matches_pmf_sum_randomized(self):
        gen = np.random.default_rng(4)
        spec = GridSpec(tau=2.0**-3, B=2.0, n=1)
        for _ in range(1000):
            a, b = gen.uniform(-1, 1, size=2)
            nu1, nu2 = np.sort(gen.normal(size=2) * 2.0)
            image = oracles.discrete_image_pmf(a, b, spec.tau, spec.B)
            direct = sum(p for v, p in image.items() if nu1 <= v <= nu2)
            vals, probs = image_pmf(a, b, spec)
            # one atom per distinct value, each the sum of its cells
            assert vals.tolist() == sorted(image)
            assert max(abs(image[v] - p) for v, p in zip(vals.tolist(), probs)) <= 1e-12
            mask = (vals >= nu1) & (vals <= nu2)
            assert direct == pytest.approx(float(probs[mask].sum()), rel=1e-10, abs=1e-13)
