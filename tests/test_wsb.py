import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citetraj import synthgen
from citetraj.data import CountTrajectory, TimeGrid
from citetraj.errors import ConfigError, DataError
from citetraj.wsb import (
    LAM_BOUNDS,
    MU_BOUNDS,
    SIGMA_BOUNDS,
    WsbParams,
    compare_models,
    fit_wsb,
    fit_wsb_corpus,
    normal_cdf,
    wsb_annual,
    wsb_cumulative,
)


def mp_phi(x):
    import mpmath

    mpmath.mp.dps = 30
    return float(mpmath.ncdf(x))


class TestNormalCdf:
    def test_zero(self):
        assert normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=-8, max_value=8))
    def test_symmetry(self, x):
        assert normal_cdf(x) + normal_cdf(-x) == pytest.approx(1.0, abs=1e-12)

    def test_quantile_point(self):
        assert normal_cdf(1.96) == pytest.approx(0.9750021048517795, abs=1e-6)

    def test_against_high_precision_oracle(self):
        xs = np.arange(-6.0, 6.0 + 1e-9, 0.01)
        ours = normal_cdf(xs)
        worst = max(abs(float(o) - mp_phi(float(x))) for x, o in zip(xs, ours))
        assert worst <= 1e-6
        assert (np.diff(ours) >= 0).all()

    def test_vector_matches_scalar(self):
        xs = np.array([-2.5, 0.0, 1.3])
        vec = normal_cdf(xs)
        assert vec == pytest.approx([normal_cdf(float(x)) for x in xs], abs=1e-15)


class TestCumulative:
    def test_zero_fitness(self):
        p = WsbParams(lam=0.0, mu=0.3, sigma=1.0, m=30.0)
        t = np.array([1.0, 5.0, 25.0])
        assert wsb_cumulative(t, p) == pytest.approx([0.0, 0.0, 0.0], abs=1e-12)

    def test_analytic_at_one(self):
        p = WsbParams(lam=1.0, mu=0.0, sigma=1.0, m=30.0)
        assert wsb_cumulative(1.0, p) == pytest.approx(30 * (math.e ** 0.5 - 1),
                                                       rel=1e-12)

    def test_large_t_limit(self):
        p = WsbParams(lam=1.0, mu=0.0, sigma=1.0, m=30.0)
        assert wsb_cumulative(1e9, p) == pytest.approx(30 * (math.e - 1), rel=1e-6)

    def test_rejects_nonpositive_t(self):
        p = WsbParams(lam=1.0, mu=0.0, sigma=1.0)
        with pytest.raises(ConfigError):
            wsb_cumulative(0.0, p)

    @settings(max_examples=30, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=10.0),
        st.floats(min_value=-2.0, max_value=4.0),
        st.floats(min_value=0.05, max_value=4.0),
    )
    def test_monotone_and_bounded(self, lam, mu, sigma):
        p = WsbParams(lam=lam, mu=mu, sigma=sigma, m=30.0)
        t = np.linspace(0.05, 60.0, 400)
        c = wsb_cumulative(t, p)
        assert (np.diff(c) >= -1e-9).all()
        ceiling = 30.0 * (math.exp(lam) - 1)
        assert (c >= -1e-12).all() and (c <= ceiling + 1e-9 * max(1, ceiling)).all()


class TestAnnual:
    def test_zero_fitness(self):
        p = WsbParams(lam=0.0, mu=0.0, sigma=1.0)
        assert wsb_annual(p, TimeGrid(6)) == pytest.approx(np.zeros(6), abs=1e-12)

    def test_telescoping(self):
        p = WsbParams(lam=1.4, mu=0.9, sigma=0.7, m=25.0)
        grid = TimeGrid(30)
        annual = wsb_annual(p, grid)
        assert annual.sum() == pytest.approx(wsb_cumulative(30.0, p), rel=1e-12)

    def test_matches_direct_differencing(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            p = WsbParams(lam=rng.uniform(0.2, 3), mu=rng.uniform(-.5, 2),
                          sigma=rng.uniform(0.2, 2), m=30.0)
            grid = TimeGrid(12)
            annual = wsb_annual(p, grid)
            direct = [wsb_cumulative(1.0, p)] + [
                wsb_cumulative(float(j), p) - wsb_cumulative(float(j - 1), p)
                for j in range(2, 13)
            ]
            assert annual == pytest.approx(direct, rel=1e-10, abs=1e-12)


class TestFit:
    def make_item(self, lam, mu, sigma, m=30.0, t=30):
        p = WsbParams(lam=lam, mu=mu, sigma=sigma, m=m)
        annual = wsb_annual(p, TimeGrid(t))
        counts = tuple(int(round(v)) for v in annual)
        return CountTrajectory("gen", counts), p, annual

    def test_self_recovery(self):
        item, truth, annual = self.make_item(1.2, 0.8, 0.6)
        fit = fit_wsb(item, m=30.0)
        assert fit.converged
        assert fit.params.lam == pytest.approx(truth.lam, rel=0.10)
        assert fit.params.mu == pytest.approx(truth.mu, rel=0.10)
        assert fit.params.sigma == pytest.approx(truth.sigma, rel=0.10)
        rounding_mse = float(np.mean((np.asarray(item.counts) - annual) ** 2))
        assert fit.mse <= rounding_mse + 0.5

    def test_single_spike(self):
        counts = (1,) + (0,) * 29
        fit = fit_wsb(CountTrajectory("spike", counts), m=30.0)
        assert fit.cumulative_fitted[0] == pytest.approx(1.0, abs=0.35)
        spread = fit.cumulative_fitted[-1] - fit.cumulative_fitted[0]
        assert spread < 0.5
        # optimizer contract: final objective beats every start point
        from citetraj.wsb import _multistart_points, _objective

        log_t = np.log(TimeGrid(30).points)
        c_obs = np.cumsum(counts).astype(float)
        for x0 in _multistart_points(1, 30.0):
            assert fit.objective <= _objective(x0[None], log_t, c_obs[None], 30.0)[0] + 1e-9

    def test_generating_m_beats_alternative(self):
        item, truth, _ = self.make_item(1.0, 0.8, 0.6, m=30.0)
        fit_true_m = fit_wsb(item, m=30.0)
        # doubled m with lam set to preserve the ultimate ceiling m(e^lam - 1)
        fit_alt_m = fit_wsb(item, m=60.0)
        assert fit_true_m.objective <= fit_alt_m.objective

    def test_all_zero_rejected(self):
        with pytest.raises(DataError, match="total"):
            fit_wsb(CountTrajectory("z", (0,) * 10), m=30.0)

    def test_corpus_keeps_zero_items_as_placeholders(self):
        y = np.array([(0,) * 10, (1, 2, 3, 2, 1, 0, 0, 0, 0, 0), (0,) * 10])
        fit = fit_wsb_corpus(y, m=30.0)
        assert all(len(column) == 3 for column in fit)
        for row in (0, 2):
            assert (fit.lam[row], fit.mu[row], fit.sigma[row]) == (0.0, math.log(2.0), 1.0)
            assert fit.mse[row] == 0.0
            assert not fit.converged[row]
            assert fit.objective[row] == math.inf
        single = fit_wsb(CountTrajectory("b", tuple(y[1])), m=30.0)
        assert (fit.lam[1], fit.mu[1], fit.sigma[1]) == (
            single.params.lam, single.params.mu, single.params.sigma)
        assert fit.objective[1] == single.objective < math.inf

    def test_corpus_needs_a_matrix(self):
        with pytest.raises(DataError, match="matrix"):
            fit_wsb_corpus(np.ones(10), m=30.0)

    def test_deterministic(self):
        item, _, _ = self.make_item(0.9, 0.5, 0.8)
        f1 = fit_wsb(item, m=30.0)
        f2 = fit_wsb(item, m=30.0)
        assert f1.params == f2.params
        assert f1.objective == f2.objective


def nelder_mead_objective(traj, m=30.0):
    """Best-of-starts scipy Nelder-Mead objective: the reference optimizer."""
    from scipy.optimize import minimize

    from citetraj.wsb import _multistart_points, _objective

    log_t = np.log(TimeGrid(len(traj.counts)).points)
    c_obs = np.cumsum(traj.counts).astype(float)[None]

    def objective(theta):
        return float(_objective(theta[None], log_t, c_obs, m)[0])

    return min(
        minimize(objective, x0, method="Nelder-Mead",
                 bounds=[LAM_BOUNDS, MU_BOUNDS, SIGMA_BOUNDS],
                 options={"maxiter": 600, "xatol": 1e-6, "fatol": 1e-8}).fun
        for x0 in _multistart_points(traj.total, m)
    )


def not_worse(f, f_reference):
    return f <= f_reference * (1 + 1e-9) + 1e-9


class TestAgainstNelderMead:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_objective_never_worse(self, seed):
        corpus, _ = synthgen.simulate_corpus(synthgen.default_spec(200, seed))
        items = [it for it in corpus.items if it.total >= 1]
        fit = fit_wsb_corpus([it.counts for it in items], m=30.0)
        worse = [(it.id, f, ref) for it, f in zip(items, fit.objective)
                 if not not_worse(f, ref := nelder_mead_objective(it))]
        assert worse == []

    def test_lam_pinned_at_upper_bound(self):
        # A rising item whose best fit wants lam beyond the box: only the
        # free coordinates (mu, sigma) may move while lam sits on its bound.
        item = synthgen.simulate_corpus(synthgen.default_spec(200, 1))[0].items[58]
        fit = fit_wsb(item, m=30.0)
        assert fit.params.lam == LAM_BOUNDS[1]
        assert fit.converged
        assert not_worse(fit.objective, nelder_mead_objective(item))


class TestBatch:
    def test_corpus_equals_single_item_and_threaded_fits(self):
        items = synthgen.simulate_corpus(synthgen.default_spec(300, 4))[0].items
        y = np.asarray([it.counts for it in items], dtype=float)
        batched = fit_wsb_corpus(y, m=30.0)
        threaded = fit_wsb_corpus(y, m=30.0, jobs=2)
        for column, other in zip(batched, threaded):
            assert np.array_equal(column, other)
        for i, item in enumerate(items):
            if item.total < 1:
                continue
            single = fit_wsb(item, m=30.0)
            assert (single.params.lam, single.params.mu, single.params.sigma) == (
                batched.lam[i], batched.mu[i], batched.sigma[i])
            assert single.objective == batched.objective[i]
            assert single.converged == batched.converged[i]
            # The batched MSE comes from the columnar curve; the one-item
            # view's curve is wsb_cumulative differenced.
            assert single.mse == batched.mse[i] == np.mean((y[i] - single.annual_fitted) ** 2)


def test_import_does_not_load_scipy_optimize():
    import os
    import subprocess
    import sys

    import citetraj

    src = os.path.dirname(os.path.dirname(citetraj.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = "import sys, citetraj.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"


class TestCompare:
    def test_identical_curves_on_diagonal(self, planted):
        mse = [f.mse for f in planted["fits"][:20]]
        table = compare_models(mse, mse)
        assert table.log10_mse_wsb == pytest.approx(table.log10_mse_fpca)

    def test_mse_floor_applied(self, planted):
        fits = planted["fits"][:3]
        table = compare_models(np.zeros(3), [f.mse for f in fits])
        assert table.log10_mse_wsb.tolist() == pytest.approx([-12.0] * 3)

    def test_mse_count_must_match_ids(self, planted):
        fits = planted["fits"][:3]
        wsb_fit = fit_wsb_corpus([it.counts for it in planted["corpus"].items[:3]], m=30.0)
        with pytest.raises(DataError, match="2 functional-fit MSEs for 3 WSB fits"):
            compare_models(wsb_fit.mse, [f.mse for f in fits[:2]])

    def test_empty_intersection(self):
        with pytest.raises(DataError):
            compare_models([], [])

    @staticmethod
    def planted_table(planted, n=120):
        wsb_fit = fit_wsb_corpus([it.counts for it in planted["corpus"].items[:n]], m=30.0)
        return compare_models(wsb_fit.mse, [f.mse for f in planted["fits"][:n]])

    def test_kde_curves_integrate_to_one(self, planted):
        table = self.planted_table(planted)
        for kde in (table.kde_wsb, table.kde_fpca):
            assert 0.98 <= kde.integral() <= 1.0

    def test_fpca_generated_corpus_favors_fpca(self, planted):
        table = self.planted_table(planted)
        assert table.median_log10_mse_fpca <= table.median_log10_mse_wsb
