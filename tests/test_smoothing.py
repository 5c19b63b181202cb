import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citetraj.errors import ConfigError, NumericalError
from citetraj.smoothing import (
    gaussian_kde,
    gcv_bandwidth,
    kde_eval_grid,
    local_poly_smooth,
    silverman_bandwidth,
)


class TestLocalPoly:
    def test_linear_reproduced_exactly(self):
        x = np.arange(1.0, 11.0)
        y = 2 * x + 1
        for h in (0.7, 2.0, 10.0):
            values, deriv = local_poly_smooth(x, y, degree=1, bandwidth=h, eval_points=x)
            assert values == pytest.approx(y, rel=1e-9)
            assert deriv == pytest.approx(np.full(10, 2.0), rel=1e-9)

    def test_constant(self):
        x = np.arange(1.0, 9.0)
        values, deriv = local_poly_smooth(x, np.full(8, 5.0), 2, 1.5, x)
        assert values == pytest.approx(np.full(8, 5.0), rel=1e-12)
        assert deriv == pytest.approx(np.zeros(8), abs=1e-9)

    def test_matches_weighted_normal_equations(self):
        rng = np.random.default_rng(3)
        x = np.arange(1.0, 16.0)
        y = np.sin(x / 3) + 0.05 * rng.standard_normal(15)
        x0, h = 5.0, 2.0
        values, deriv = local_poly_smooth(x, y, 2, h, [x0])
        # direct 3x3 weighted least squares at the single eval point
        u = x - x0
        w = np.exp(-0.5 * (u / h) ** 2)
        design = np.stack([np.ones_like(u), u, u ** 2], axis=1)
        beta = np.linalg.solve(design.T @ (design * w[:, None]), design.T @ (w * y))
        assert values[0] == pytest.approx(beta[0], rel=1e-12)
        assert deriv[0] == pytest.approx(beta[1], rel=1e-12)

    def test_singular_reports_eval_point(self):
        x = np.array([1.0, 1.0, 1.0, 50.0])
        y = np.array([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(NumericalError, match="eval point 50"):
            local_poly_smooth(x, y, 2, 0.5, [50.0])

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=-50, max_value=50))
    def test_shift_equivariance(self, c):
        rng = np.random.default_rng(11)
        x = np.arange(1.0, 13.0)
        y = rng.standard_normal(12)
        base_v, base_d = local_poly_smooth(x, y, 2, 2.0, x)
        shift_v, shift_d = local_poly_smooth(x, y + c, 2, 2.0, x)
        scale = max(1.0, abs(c))
        assert shift_v == pytest.approx(base_v + c, rel=1e-9, abs=1e-9 * scale)
        assert shift_d == pytest.approx(base_d, rel=1e-9, abs=1e-9 * scale)

    def test_bad_degree(self):
        with pytest.raises(ConfigError):
            local_poly_smooth([1, 2, 3], [1, 2, 3], 3, 1.0, [2])


class TestGcv:
    def test_linear_data_tie_breaks_small(self):
        x = np.arange(1.0, 11.0)
        y = 3 * x - 2
        assert gcv_bandwidth(x, y, 1, [0.8, 2.0, 8.0]) == 0.8

    def test_matches_recomputed_table(self):
        rng = np.random.default_rng(5)
        x = np.arange(1.0, 21.0)
        y = np.sin(x / 2.5) + 0.3 * rng.standard_normal(20)
        candidates = [0.5, 2.0, 8.0]
        chosen = gcv_bandwidth(x, y, 1, candidates)

        def gcv_direct(h):
            n = len(x)
            smoother = np.empty((n, n))
            for i, x0 in enumerate(x):
                u = x - x0
                w = np.exp(-0.5 * (u / h) ** 2)
                design = np.stack([np.ones_like(u), u], axis=1)
                rows = np.linalg.solve(design.T @ (design * w[:, None]),
                                       (design * w[:, None]).T)
                smoother[i] = rows[0]
            fitted = smoother @ y
            rss = np.sum((y - fitted) ** 2)
            return n * rss / (n - np.trace(smoother)) ** 2

        table = {h: gcv_direct(h) for h in candidates}
        assert chosen == min(candidates, key=lambda h: table[h])

    def test_single_survivor_returned(self):
        # Near-zero bandwidths produce singular local fits and are skipped.
        x = np.arange(1.0, 9.0)
        y = x ** 2
        assert gcv_bandwidth(x, y, 2, [1e-8, 2.0]) == 2.0

    def test_all_singular(self):
        x = np.arange(1.0, 9.0)
        with pytest.raises(NumericalError, match="singular"):
            gcv_bandwidth(x, x, 1, [1e-9, 1e-8])


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
