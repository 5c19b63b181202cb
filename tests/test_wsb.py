import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citetraj import synthgen, wsb
from citetraj.data import CountTrajectory, TimeGrid
from citetraj.errors import DataError
from citetraj.wsb import (
    LAM_BOUNDS,
    MU_BOUNDS,
    SIGMA_BOUNDS,
    compare_models,
    fit_wsb,
    fit_wsb_corpus,
    normal_cdf,
    wsb_curve,
)


def cumulative(theta, t, m=30.0):
    """C(t) of one parameter set theta = (lam, mu, sigma) at times ``t``,
    through ``wsb_curve`` on a one-row theta."""
    return wsb_curve([theta], np.log(np.atleast_1d(t).astype(float)), m)[0]


def annual(theta, n_years, m=30.0):
    """Annual counts on the year-1 grid: first differences with C(0+) = 0."""
    return np.diff(cumulative(theta, TimeGrid(n_years).points, m), prepend=0.0)


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
        t = np.array([1.0, 5.0, 25.0])
        assert cumulative((0.0, 0.3, 1.0), t) == pytest.approx([0.0, 0.0, 0.0], abs=1e-12)

    def test_analytic_at_one(self):
        assert cumulative((1.0, 0.0, 1.0), 1.0)[0] == pytest.approx(30 * (math.e ** 0.5 - 1),
                                                                    rel=1e-12)

    def test_large_t_limit(self):
        assert cumulative((1.0, 0.0, 1.0), 1e9)[0] == pytest.approx(30 * (math.e - 1),
                                                                    rel=1e-6)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=10.0),
            st.floats(min_value=-2.0, max_value=4.0),
            st.floats(min_value=0.05, max_value=4.0),
        ),
        min_size=1, max_size=4,
    ))
    def test_monotone_and_bounded(self, theta):
        t = np.linspace(0.05, 60.0, 400)
        curves = wsb_curve(theta, np.log(t), 30.0)
        assert curves.shape == (len(theta), len(t))
        for (lam, mu, sigma), c in zip(theta, curves):
            # Each row of a multi-row theta is its own one-row curve.
            assert np.array_equal(c, cumulative((lam, mu, sigma), t))
            assert (np.diff(c) >= -1e-9).all()
            ceiling = 30.0 * (math.exp(lam) - 1)
            assert (c >= -1e-12).all() and (c <= ceiling + 1e-9 * max(1, ceiling)).all()


class TestAnnual:
    def test_zero_fitness(self):
        assert annual((0.0, 0.0, 1.0), 6) == pytest.approx(np.zeros(6), abs=1e-12)

    def test_telescoping(self):
        theta = (1.4, 0.9, 0.7)
        assert annual(theta, 30, m=25.0).sum() == pytest.approx(
            cumulative(theta, 30.0, m=25.0)[0], rel=1e-12)

    def test_matches_direct_differencing(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            theta = (rng.uniform(0.2, 3), rng.uniform(-.5, 2), rng.uniform(0.2, 2))
            direct = [cumulative(theta, 1.0)[0]] + [
                cumulative(theta, float(j))[0] - cumulative(theta, float(j - 1))[0]
                for j in range(2, 13)
            ]
            assert annual(theta, 12) == pytest.approx(direct, rel=1e-10, abs=1e-12)


class TestFit:
    def make_item(self, lam, mu, sigma, m=30.0, t=30):
        counts = annual((lam, mu, sigma), t, m)
        item = CountTrajectory("gen", tuple(int(round(v)) for v in counts))
        return item, (lam, mu, sigma), counts

    def test_self_recovery(self):
        item, (lam, mu, sigma), counts = self.make_item(1.2, 0.8, 0.6)
        fit = fit_wsb(item, m=30.0)
        assert fit.converged
        assert fit.lam == pytest.approx(lam, rel=0.10)
        assert fit.mu == pytest.approx(mu, rel=0.10)
        assert fit.sigma == pytest.approx(sigma, rel=0.10)
        rounding_mse = float(np.mean((np.asarray(item.counts) - counts) ** 2))
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

    def test_start_points_match_their_definition(self):
        from citetraj.wsb import _multistart_points

        totals = [1, 30, 5000, 1e12]
        starts = _multistart_points(totals, 30.0)
        assert starts.shape == (4, 4, 3)
        for total, rows in zip(totals, starts):
            lam0 = min(max(math.log1p(total / 30.0), LAM_BOUNDS[0]), LAM_BOUNDS[1])
            want = [(lam0, mu0, s0) for mu0 in (math.log(2.0), math.log(8.0)) for s0 in (0.5, 1.5)]
            assert np.array_equal(rows, want)
        assert np.array_equal(_multistart_points(30, 30.0), starts[1])

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
            single.lam, single.mu, single.sigma)
        assert fit.objective[1] == single.objective < math.inf

    def test_corpus_needs_a_matrix(self):
        with pytest.raises(DataError, match="matrix"):
            fit_wsb_corpus(np.ones(10), m=30.0)

    def test_deterministic(self):
        item, _, _ = self.make_item(0.9, 0.5, 0.8)
        f1 = fit_wsb(item, m=30.0)
        f2 = fit_wsb(item, m=30.0)
        assert (f1.lam, f1.mu, f1.sigma) == (f2.lam, f2.mu, f2.sigma)
        assert f1.objective == f2.objective


def items_of(corpus):
    """The corpus rows as one-item arguments of ``fit_wsb``."""
    return [CountTrajectory(i, tuple(row)) for i, row in zip(corpus.ids, corpus.counts.tolist())]


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
        items = [it for it in items_of(corpus) if it.total >= 1]
        fit = fit_wsb_corpus([it.counts for it in items], m=30.0)
        worse = [(it.id, f, ref) for it, f in zip(items, fit.objective)
                 if not not_worse(f, ref := nelder_mead_objective(it))]
        assert worse == []

    def test_lam_pinned_at_upper_bound(self):
        # A rising item whose best fit wants lam beyond the box: only the
        # free coordinates (mu, sigma) may move while lam sits on its bound.
        item = items_of(synthgen.simulate_corpus(synthgen.default_spec(200, 1))[0])[58]
        fit = fit_wsb(item, m=30.0)
        assert fit.lam == LAM_BOUNDS[1]
        assert fit.converged
        assert not_worse(fit.objective, nelder_mead_objective(item))


class TestBatch:
    def test_corpus_equals_single_item_and_threaded_fits(self):
        corpus = synthgen.simulate_corpus(synthgen.default_spec(300, 4))[0]
        items = items_of(corpus)
        y = corpus.counts.astype(float)
        batched = fit_wsb_corpus(y, m=30.0)
        threaded = fit_wsb_corpus(y, m=30.0, jobs=2)
        for column, other in zip(batched, threaded):
            assert np.array_equal(column, other)
        for i, item in enumerate(items):
            if item.total < 1:
                continue
            single = fit_wsb(item, m=30.0)
            assert (single.lam, single.mu, single.sigma) == (
                batched.lam[i], batched.mu[i], batched.sigma[i])
            assert single.objective == batched.objective[i]
            assert single.converged == batched.converged[i]
            # The one-item view's annual curve is wsb_curve differenced.
            assert single.mse == batched.mse[i] == np.mean((y[i] - single.annual_fitted) ** 2)


class TestJacobian:
    M = 30.0

    def thetas(self):
        """Random in-box (lam, mu, sigma) rows, then rows with one coordinate
        on each of its bounds."""
        rng = np.random.default_rng(5)
        lows, highs = zip(LAM_BOUNDS, MU_BOUNDS, SIGMA_BOUNDS)
        inside = rng.uniform([0.05, -1.5, 0.1], [6.0, 4.0, 3.0], size=(12, 3))
        on_bounds = inside[:6].copy()
        for j in range(3):
            on_bounds[2 * j, j], on_bounds[2 * j + 1, j] = lows[j], highs[j]
        return np.vstack([inside, on_bounds])

    def test_columns_match_central_differences(self):
        theta = self.thetas()
        log_t = np.log(TimeGrid(30).points)
        z, cdf, curve = wsb._curve(*theta.T, log_t, self.M)
        cols = wsb._jacobian(theta[:, 0], theta[:, 2], z, cdf, curve, self.M)
        # Relative to the row's largest derivative, with a floor well above
        # the differences' rounding error (about 2e-10 |C| at this h).
        tol = (1e-6 * np.abs(np.stack(cols)).max(axis=(0, 2))
               + 1e-8 * (1 + np.abs(curve).max(axis=1)))
        for j, col in enumerate(cols):
            h = 1e-6 * np.maximum(1.0, np.abs(theta[:, j]))
            up, down = theta.copy(), theta.copy()
            up[:, j] += h
            down[:, j] -= h
            numeric = ((wsb_curve(up, log_t, self.M) - wsb_curve(down, log_t, self.M))
                       / (2 * h[:, None]))
            assert (np.abs(col - numeric) <= tol[:, None]).all(), j

    def test_normal_equations_match_explicit_product(self):
        theta = self.thetas()
        log_t = np.log(TimeGrid(30).points)
        rng = np.random.default_rng(6)
        z, cdf, curve = wsb._curve(*theta.T, log_t, self.M)
        res = curve - rng.uniform(0, 50, curve.shape).cumsum(axis=1)
        cols = wsb._jacobian(theta[:, 0], theta[:, 2], z, cdf, curve, self.M)
        jtj, jtr = wsb._normal_equations(cols, res)
        jac = np.stack(cols, axis=1)  # (r, 3, T)
        want_jtj = np.einsum("rit,rjt->ijr", jac, jac)
        want_jtr = np.einsum("rit,rt->ir", jac, res)
        assert np.allclose(jtj, want_jtj, rtol=1e-12, atol=0.0)
        assert np.allclose(jtr, want_jtr, rtol=1e-12, atol=1e-12 * np.abs(want_jtr).max())
        assert np.array_equal(jtj, jtj.transpose(1, 0, 2))


def refill_mix():
    """Rows that exercise every way a start leaves the solver: a synthetic
    corpus (its row 58 sits on the lam bound), single-year spikes whose
    starts run into the step cap, and zero-total placeholder rows."""
    y = synthgen.simulate_corpus(synthgen.default_spec(200, 1))[0].counts[:80].astype(float)
    spikes = np.zeros((3, 30))
    spikes[:, 2] = (107, 487, 874)
    return np.vstack([y[:40], np.zeros((2, 30)), spikes, y[40:], np.zeros((1, 30))])


class TestRefill:
    def test_columns_do_not_depend_on_budget_or_shares(self, monkeypatch):
        y = refill_mix()
        default = fit_wsb_corpus(y, m=30.0)
        threaded = fit_wsb_corpus(y, m=30.0, jobs=2)
        monkeypatch.setattr(wsb, "_CHUNK", 7)
        small = fit_wsb_corpus(y, m=30.0)
        for name, column in default._asdict().items():
            assert np.array_equal(column, getattr(threaded, name)), name
            assert np.array_equal(column, getattr(small, name)), name
        placeholders = [40, 41, len(y) - 1]
        assert (default.objective[placeholders] == math.inf).all()
        assert not default.converged[[42, 43, 44]].any()
        assert np.isfinite(default.objective[[42, 43, 44]]).all()
        assert default.lam[45 + 58 - 40] == LAM_BOUNDS[1]

    def test_spike_starts_hit_the_step_cap(self):
        y = refill_mix()[42:45]
        log_t = np.log(TimeGrid(30).points)
        result = wsb.minimize(wsb._multistart_points(y.sum(axis=1), 30.0), log_t,
                              np.cumsum(y, axis=1), 30.0)
        assert result.x.shape == (3, 4, 3) and result.nit.shape == (3, 4)
        assert (result.nit[~result.success] == wsb._MAX_ITER).all()
        assert (result.nit == wsb._MAX_ITER).any(axis=1).all()


def test_peak_memory_is_set_by_the_budget_not_n():
    # Measured 0.82 MB for the 1600 extra items: their cumulative counts
    # (240 bytes each at T = 30), start points and per-start results.  The
    # solver's own temporaries, about 3 MB, are set by _CHUNK; building
    # every start's rows at once would add some 25 MB here.  The bound is
    # a guard: a change that breaks it fixes the memory, not the bound.
    def peak(n):
        y = synthgen.simulate_corpus(synthgen.default_spec(n, 1))[0].counts.astype(float)
        tracemalloc.start()
        try:
            fit_wsb_corpus(y, m=30.0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(2000) - peak(400) <= 1.2e6


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
        wsb_fit = fit_wsb_corpus(planted["corpus"].counts[:3], m=30.0)
        with pytest.raises(DataError, match="2 functional-fit MSEs for 3 WSB fits"):
            compare_models(wsb_fit.mse, [f.mse for f in fits[:2]])

    def test_empty_intersection(self):
        with pytest.raises(DataError):
            compare_models([], [])

    @staticmethod
    def planted_table(planted, n=120):
        wsb_fit = fit_wsb_corpus(planted["corpus"].counts[:n], m=30.0)
        return compare_models(wsb_fit.mse, [f.mse for f in planted["fits"][:n]])

    def test_kde_curves_integrate_to_one(self, planted):
        table = self.planted_table(planted)
        for kde in (table.kde_wsb, table.kde_fpca):
            assert 0.98 <= kde.integral() <= 1.0

    def test_fpca_generated_corpus_favors_fpca(self, planted):
        table = self.planted_table(planted)
        assert table.median_log10_mse_fpca <= table.median_log10_mse_wsb
