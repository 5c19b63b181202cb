import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citetraj.errors import ConfigError, NumericalError
from citetraj.smoothing import (
    DEFAULT_BANDWIDTH_CANDIDATES,
    gaussian_kde,
    kde_eval_grid,
    silverman_bandwidth,
    smooth_curve,
)


def _direct_fit(x, y, x0, h):
    """(beta, smoother row) of the weighted quadratic fit at x0, from the
    3x3 normal equations."""
    u = x - x0
    w = np.exp(-0.5 * (u / h) ** 2)
    design = np.stack([np.ones_like(u), u, u ** 2], axis=1)
    rows = np.linalg.solve(design.T @ (design * w[:, None]), (design * w[:, None]).T)
    return rows @ y, rows[0]


def _gcv_direct(x, y, h):
    n = len(x)
    smoother = np.stack([_direct_fit(x, y, x0, h)[1] for x0 in x])
    rss = np.sum((y - smoother @ y) ** 2)
    return n * rss / (n - np.trace(smoother)) ** 2


class TestLocalPoly:
    def test_linear_reproduced_exactly(self):
        x = np.arange(1.0, 11.0)
        y = 2 * x + 1
        for h in (0.7, 2.0, 10.0, None):
            values, deriv, _ = smooth_curve(x, y, h)
            assert values == pytest.approx(y, rel=1e-9)
            assert deriv == pytest.approx(np.full(10, 2.0), rel=1e-9)

    def test_constant(self):
        x = np.arange(1.0, 9.0)
        values, deriv, h = smooth_curve(x, np.full(8, 5.0), 1.5)
        assert h == 1.5
        assert values == pytest.approx(np.full(8, 5.0), rel=1e-12)
        assert deriv == pytest.approx(np.zeros(8), abs=1e-9)

    def test_matches_weighted_normal_equations(self):
        rng = np.random.default_rng(3)
        x = np.arange(1.0, 16.0)
        y = np.sin(x / 3) + 0.05 * rng.standard_normal(15)
        h = 2.0
        values, deriv, _ = smooth_curve(x, y, h)
        # direct 3x3 weighted least squares at every eval point
        for i, x0 in enumerate(x):
            beta, _ = _direct_fit(x, y, x0, h)
            assert values[i] == pytest.approx(beta[0], rel=1e-12)
            assert deriv[i] == pytest.approx(beta[1], rel=1e-12)

    def test_singular_reports_eval_point(self):
        # At 50 only one point carries weight; the first five years fit fine.
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 50.0])
        with pytest.raises(NumericalError, match="eval point 50"):
            smooth_curve(x, np.arange(6.0), 0.5)

    def test_nonpositive_bandwidth(self):
        with pytest.raises(ConfigError, match="bandwidth must be positive"):
            smooth_curve(np.arange(1.0, 6.0), np.arange(5.0), 0.0)

    def test_gcv_choice_equals_fixed_fit(self):
        rng = np.random.default_rng(8)
        x = np.arange(1.0, 31.0)
        y = np.log1p(x) + 0.2 * rng.standard_normal(30)
        values, deriv, h = smooth_curve(x, y)
        fixed_values, fixed_deriv, fixed_h = smooth_curve(x, y, h)
        assert fixed_h == h
        assert values.tobytes() == fixed_values.tobytes()
        assert deriv.tobytes() == fixed_deriv.tobytes()

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=-50, max_value=50))
    def test_shift_equivariance(self, c):
        rng = np.random.default_rng(11)
        x = np.arange(1.0, 13.0)
        y = rng.standard_normal(12)
        base_v, base_d, _ = smooth_curve(x, y, 2.0)
        shift_v, shift_d, _ = smooth_curve(x, y + c, 2.0)
        scale = max(1.0, abs(c))
        assert shift_v == pytest.approx(base_v + c, rel=1e-9, abs=1e-9 * scale)
        assert shift_d == pytest.approx(base_d, rel=1e-9, abs=1e-9 * scale)


class TestGcv:
    def test_linear_data_tie_breaks_small(self):
        x = np.arange(1.0, 11.0)
        y = 3 * x - 2
        assert smooth_curve(x, y)[2] == min(DEFAULT_BANDWIDTH_CANDIDATES)

    def test_matches_recomputed_table(self):
        rng = np.random.default_rng(0)
        x = np.arange(1.0, 21.0)
        y = np.sin(x / 5) + 0.5 * rng.standard_normal(20)
        chosen = smooth_curve(x, y)[2]
        table = {h: _gcv_direct(x, y, h) for h in DEFAULT_BANDWIDTH_CANDIDATES}
        assert chosen == min(DEFAULT_BANDWIDTH_CANDIDATES, key=lambda h: table[h])
        assert chosen == 4.0  # an interior candidate, not the tie-break default

    def test_singular_candidates_skipped(self):
        # At a 10-year spacing the end points see fewer than 3 effective
        # neighbours for h <= 2, so GCV chooses among 3, 4 and 6.
        rng = np.random.default_rng(1)
        x = 10 * np.arange(1.0, 9.0)
        y = np.sin(x / 40) + 0.5 * rng.standard_normal(8)
        for h in (1.0, 1.5, 2.0):
            with pytest.raises(NumericalError, match="singular"):
                smooth_curve(x, y, h)
        chosen = smooth_curve(x, y)[2]
        table = {h: _gcv_direct(x, y, h) for h in (3.0, 4.0, 6.0)}
        assert chosen == min(table, key=table.get) == 6.0

    def test_single_survivor_returned(self):
        # At a 20-year spacing every candidate but the widest is singular.
        x = 20 * np.arange(1.0, 9.0)
        assert smooth_curve(x, x ** 2)[2] == 6.0

    def test_all_singular(self):
        x = 100 * np.arange(1.0, 9.0)
        with pytest.raises(NumericalError, match="singular"):
            smooth_curve(x, x)


class TestKde:
    def test_single_sample_analytic(self):
        est = gaussian_kde([0.0], 1.0, [0.0])
        assert est.densities[0] == pytest.approx(1 / np.sqrt(2 * np.pi), abs=1e-12)

    def test_two_samples_analytic(self):
        est = gaussian_kde([-1.0, 1.0], 1.0, [0.0])
        expected = np.exp(-0.5) / np.sqrt(2 * np.pi)
        assert est.densities[0] == pytest.approx(expected, abs=1e-12)

    def test_silverman_close_to_true_density(self):
        rng = np.random.default_rng(42)
        samples = rng.standard_normal(500)
        h = silverman_bandwidth(samples)
        grid = np.linspace(-4, 4, 401)
        est = gaussian_kde(samples, h, grid)
        truth = np.exp(-0.5 * grid ** 2) / np.sqrt(2 * np.pi)
        assert np.max(np.abs(est.densities - truth)) < 0.05
        assert est.bandwidth == pytest.approx(h)

    def test_nonnegative_and_integrates_to_one(self):
        rng = np.random.default_rng(9)
        samples = np.concatenate([rng.standard_normal(80), rng.standard_normal(40) + 5])
        h = silverman_bandwidth(samples)
        est = gaussian_kde(samples, h, kde_eval_grid(samples, h, 512))
        assert (est.densities >= 0).all()
        assert 0.98 <= est.integral() <= 1.0

    def test_zero_variance_directs_to_fixed(self):
        with pytest.raises(NumericalError, match="fixed bandwidth"):
            silverman_bandwidth(np.array([2.0, 2.0, 2.0]))

    def test_silverman_needs_two(self):
        with pytest.raises(NumericalError, match="at least 2"):
            silverman_bandwidth(np.array([1.0]))
