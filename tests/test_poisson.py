import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citetraj import poisson
from citetraj.data import Corpus, CountTrajectory, TimeGrid
from citetraj.errors import DataError, OverflowGuardError
from citetraj.fpca import LatentBasis
from citetraj.poisson import (
    convergence_summary,
    fit_corpus,
    fit_items,
    fit_matrix,
    loglik_grad_hess,
    poisson_loglik,
)
from citetraj.synthgen import make_basis


def basis_from(phi, t, mean=None):
    phi = np.asarray(phi, dtype=float).reshape(-1, t)
    k = phi.shape[0]
    lam = np.linspace(2.0, 1.0, k) if k else np.zeros(0)
    return LatentBasis(
        grid=TimeGrid(t),
        mean=np.zeros(t) if mean is None else np.asarray(mean, float),
        mean_derivative=np.zeros(t),
        eigenvalues=lam,
        eigenfunctions=phi,
        fve=np.linspace(0.5, 1.0, k) if k else np.zeros(0),
    )


def random_instance(rng, t=30, k=4):
    phi = make_basis(t, k, "fourier")
    mean = 0.5 + 0.3 * np.sin(np.arange(1, t + 1) / 4)
    xi = rng.standard_normal(k)
    eta = mean + xi @ phi
    counts = rng.poisson(np.exp(eta))
    return counts.astype(float), xi, basis_from(phi, t, mean)


class TestLoglik:
    def test_analytic_values(self):
        assert poisson_loglik([0, 0], [0.0, 0.0]) == pytest.approx(-2.0)
        assert poisson_loglik([1], [0.0]) == pytest.approx(-1.0)
        assert poisson_loglik([2], [np.log(2.0)]) == pytest.approx(
            2 * np.log(2.0) - 2.0
        )

    def test_overflow_guard(self):
        with pytest.raises(OverflowGuardError):
            poisson_loglik([1, 1], [0.0, 700.5])


class TestGradHess:
    def test_gradient_zero_at_constant_optimum(self):
        t = 16
        c = 4.0
        phi = np.full((1, t), 1 / np.sqrt(t))
        basis = basis_from(phi, t)
        xi = np.sqrt(t) * np.log(c)
        eta = (xi * phi[0])
        g, _ = loglik_grad_hess(np.full(t, c), eta, basis)
        assert abs(g[0]) < 1e-9

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        counts, xi, basis = random_instance(rng, t=12, k=3)
        phi = basis.eigenfunctions
        eta = basis.mean + xi @ phi
        g, h = loglik_grad_hess(counts, eta, basis)
        step = 1e-5
        for a in range(3):
            e = np.zeros(3)
            e[a] = step
            up = poisson_loglik(counts, basis.mean + (xi + e) @ phi)
            dn = poisson_loglik(counts, basis.mean + (xi - e) @ phi)
            fd = (up - dn) / (2 * step)
            assert g[a] == pytest.approx(fd, rel=1e-6, abs=1e-8)
            for b in range(3):
                eb = np.zeros(3)
                eb[b] = step
                pp = poisson_loglik(counts, basis.mean + (xi + e + eb) @ phi)
                pm = poisson_loglik(counts, basis.mean + (xi + e - eb) @ phi)
                mp = poisson_loglik(counts, basis.mean + (xi - e + eb) @ phi)
                mm = poisson_loglik(counts, basis.mean + (xi - e - eb) @ phi)
                fd2 = (pp - pm - mp + mm) / (4 * step ** 2)
                assert h[a, b] == pytest.approx(fd2, rel=1e-4, abs=1e-6)

    def test_gradient_small_at_converged_fit(self, planted):
        basis = planted["basis"]
        lookup = dict(zip(planted["corpus"].ids, planted["corpus"].counts))
        for fit in planted["fits"][:100]:
            if not fit.converged:
                continue
            counts = lookup[fit.id].astype(float)
            g, _ = loglik_grad_hess(counts, fit.eta, basis)
            assert np.abs(g).max() < 1e-8


class TestFitScores:
    def test_analytic_half_basis(self):
        t = 4
        basis = basis_from(np.full((1, t), 0.5), t)
        fit = fit_items([CountTrajectory("a", (2, 2, 2, 2))], basis)[0]
        assert fit.converged
        assert fit.scores[0] == pytest.approx(2 * np.log(2.0), abs=1e-9)
        assert fit.intensity == pytest.approx(np.full(t, 2.0), abs=1e-8)

    def test_zero_k_basis(self):
        t = 5
        mean = np.log(np.array([1.0, 2.0, 3.0, 2.0, 1.0]))
        basis = basis_from(np.zeros((0, t)), t, mean)
        fit = fit_items([CountTrajectory("a", (1, 2, 3, 2, 1))], basis)[0]
        assert fit.scores.size == 0
        assert fit.intensity == pytest.approx(np.exp(mean))
        assert fit.loglik == pytest.approx(
            poisson_loglik([1, 2, 3, 2, 1], mean)
        )
        assert fit.converged

    def test_global_optimum_on_grid(self):
        rng = np.random.default_rng(23)
        counts, _, basis = random_instance(rng, t=6, k=2)
        traj = CountTrajectory("a", tuple(int(c) for c in counts))
        fit = fit_items([traj], basis)[0]
        grid = np.linspace(-3, 3, 61)
        xs, ys = np.meshgrid(grid + fit.scores[0], grid + fit.scores[1])
        candidates = np.stack([xs.ravel(), ys.ravel()], axis=1)
        etas = basis.mean[None, :] + candidates @ basis.eigenfunctions
        lls = (counts[None, :] * etas - np.exp(etas)).sum(axis=1)
        assert fit.loglik >= lls.max() - 1e-9

    def test_loglik_nondecreasing_in_max_iter(self, planted, monkeypatch):
        # Newton with step halving is an ascent method: allowing one more
        # iteration never lowers an unridged row's log-likelihood.
        basis = planted["basis"]
        y = planted["corpus"].counts.astype(float)
        fits = []
        for j in range(9):
            monkeypatch.setattr(poisson, "_MAX_ITER", j)
            fits.append(fit_matrix(y, basis))
        unridged = ~np.any([f.ridged for f in fits], axis=0)
        assert unridged.sum() > 0.9 * len(y)
        ll = np.asarray([f.loglik for f in fits])[:, unridged]
        assert np.isfinite(ll).all()
        tol = 1e-12 * np.maximum(1.0, np.abs(ll[:-1]))
        assert (np.diff(ll, axis=0) >= -tol).all()
        assert (ll[-1] > ll[0]).any()

    def test_score_equations_at_convergence(self, planted):
        basis = planted["basis"]
        phi = basis.eigenfunctions
        lookup = dict(zip(planted["corpus"].ids, planted["corpus"].counts))
        for fit in planted["fits"]:
            if not fit.converged:
                continue
            y = lookup[fit.id].astype(float)
            residual = phi @ (y - fit.intensity)
            assert np.abs(residual).max() < 1e-6

    def test_intensity_and_mse_invariants(self, planted):
        lookup = dict(zip(planted["corpus"].ids, planted["corpus"].counts))
        for fit in planted["fits"][:200]:
            assert np.array_equal(fit.intensity, np.exp(fit.eta))
            y = lookup[fit.id].astype(float)
            assert fit.mse == pytest.approx(
                float(np.mean((y - fit.intensity) ** 2)), abs=1e-10
            )

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 6))
    def test_concavity_between_random_points(self, salt):
        rng = np.random.default_rng(salt)
        counts, _, basis = random_instance(rng, t=8, k=2)
        phi = basis.eigenfunctions
        a = rng.uniform(-2, 2, size=2)
        b = rng.uniform(-2, 2, size=2)
        mid = 0.5 * (a + b)

        def ll(xi):
            return poisson_loglik(counts, basis.mean + xi @ phi)

        assert ll(mid) >= 0.5 * (ll(a) + ll(b)) - 1e-12


class TestFitCorpus:
    def test_batch_matches_single_bitwise(self, planted):
        corpus = planted["corpus"]
        basis = planted["basis"]
        fits = planted["fits"]
        for idx in (0, 57, 255, 256, 399):
            item = CountTrajectory(corpus.ids[idx], tuple(corpus.counts[idx].tolist()))
            single = fit_items([item], basis)[0]
            assert np.array_equal(fits[idx].scores, single.scores)
            assert fits[idx].loglik == single.loglik

    def test_permutation_invariance(self, planted):
        corpus = planted["corpus"]
        basis = planted["basis"]
        rng = np.random.default_rng(3)
        order = rng.permutation(len(corpus))
        permuted = Corpus(corpus.grid, [corpus.ids[i] for i in order], corpus.counts[order])
        fits_perm = fit_corpus(permuted, basis)
        by_id = {f.id: f for f in planted["fits"]}
        for fit in fits_perm:
            assert np.array_equal(fit.scores, by_id[fit.id].scores)

    def test_fit_matrix_matches_fit_items_bitwise(self, planted):
        corpus = planted["corpus"]
        basis = planted["basis"]
        items = [CountTrajectory(i, tuple(row)) for i, row in
                 zip(corpus.ids, corpus.counts.tolist())]
        arrays = fit_matrix(corpus.counts.astype(float), basis)
        fits = fit_items(items, basis)
        assert arrays.scores.shape == (len(corpus), basis.k)
        for i, fit in enumerate(fits):
            assert fit.id == corpus.ids[i]
            assert np.array_equal(fit.scores, arrays.scores[i])
            assert fit.loglik == arrays.loglik[i]
            assert fit.mse == arrays.mse[i]
            assert fit.iterations == arrays.iterations[i]
            assert fit.converged == arrays.converged[i]
            assert fit.ridged == arrays.ridged[i]

    def test_score_recovery_correlation(self):
        from citetraj import synthgen

        spec = synthgen.GeneratorSpec(
            n_items=500, n_years=30,
            mean=synthgen.MeanSpec(a=4.0, b=1.8, c=6.5, d=0.5),
            basis_family="fourier", eigenvalues=(1.0, 0.5),
            archetypes=(synthgen.Archetype("single", 1.0, (0.0, 0.0)),),
            seed=31,
        )
        corpus, truth = synthgen.simulate_corpus(spec)
        basis = basis_from(truth.basis, spec.n_years, truth.mean)
        fits = fit_corpus(corpus, basis.truncated(2))
        est = np.asarray([f.scores for f in fits])
        for k in range(2):
            r = np.corrcoef(est[:, k], truth.scores[:, k])[0, 1]
            assert r > 0.9

    def test_summary(self, planted):
        y = planted["corpus"].counts.astype(float)
        summary = convergence_summary(fit_matrix(y, planted["basis"]))
        assert summary["n_items"] == 400
        assert summary["convergence_rate"] > 0.99


class TestKernel:
    def test_fit_matrix_independent_of_chunk_size(self, planted, monkeypatch):
        y = planted["corpus"].counts.astype(float)
        reference = fit_matrix(y, planted["basis"])
        for chunk in (1, 7):
            monkeypatch.setattr(poisson, "_CHUNK", chunk)
            fit = fit_matrix(y, planted["basis"])
            for name, column in fit._asdict().items():
                assert np.array_equal(column, getattr(reference, name)), (chunk, name)

    @pytest.mark.parametrize("k", range(7))
    def test_neg_hessian_matches_einsum_and_is_row_independent(self, k):
        from citetraj.poisson import _neg_hessian, _phi_products

        t = 30
        phi = make_basis(t, k, "poly") if k else np.zeros((0, t))
        rng = np.random.default_rng(k)
        lam = np.exp(rng.normal(1.0, 2.0, size=(37, t)))
        h = _neg_hessian(lam, phi)
        assert h.shape == (37, k, k)
        ref = np.einsum("it,kt,lt->ikl", lam, phi, phi)
        scale = np.abs(ref).max(axis=(1, 2), keepdims=True) if k else 1.0
        assert np.all(np.abs(h - ref) <= 1e-13 * scale)
        assert np.array_equal(h, np.swapaxes(h, 1, 2))
        prod = _phi_products(phi)
        for rows in (slice(0, 1), slice(0, 5), slice(3, 4), slice(5, 37)):
            assert np.array_equal(_neg_hessian(lam[rows], phi, prod), h[rows])

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_halved_steps_reach_the_score_equations(self, k):
        # A lone spike puts the projected start far from the optimum, so the
        # full Newton step overshoots and only halved steps are accepted.
        t = 30
        basis = basis_from(make_basis(t, k, "poly"), t)
        y = np.zeros((4, t))
        y[0, 3], y[1, 20], y[2, :5], y[3, -1] = 1000, 5000, 300, 80
        fit = fit_matrix(y, basis)
        assert fit.converged.all() and not fit.ridged.any()
        for i in range(4):
            grad, _ = loglik_grad_hess(y[i], basis.eta(fit.scores[i:i + 1])[0], basis)
            assert np.abs(grad).max() < 1e-7
            single = fit_matrix(y[i:i + 1], basis)
            assert np.array_equal(single.scores[0], fit.scores[i])
            assert single.iterations[0] == fit.iterations[i]

    def test_ridge_fallback_row_matches_its_one_row_fit(self, planted):
        # A count of 1e9 in year 13 of an ordinary row drives its Newton
        # iterate to a singular Hessian; the row is refit with the ridge
        # penalty from zero scores.
        y = planted["corpus"].counts[:5].astype(float)
        y[2, 12] = 1e9
        fit = fit_matrix(y, planted["basis"])
        single = fit_matrix(y[2:3], planted["basis"])
        assert fit.ridged.tolist() == [False, False, True, False, False]
        assert fit.iterations.tolist() == [3, 3, 50, 3, 4]
        assert np.isfinite(fit.mse).all()
        for name, column in fit._asdict().items():
            assert np.array_equal(column[2:3], getattr(single, name)), name

    @pytest.mark.parametrize("count", [1e307, 2.0**53 + 2, -1.0, np.inf, np.nan])
    def test_counts_outside_corpus_range_rejected(self, planted, count):
        # 1e307 once reached a ridge refit that took no step: scores 0 and
        # MSE inf, with an overflow warning.
        y = planted["corpus"].counts[:5].astype(float)
        y[2, 6] = count
        with pytest.raises(DataError, match="count"):
            fit_matrix(y, planted["basis"])


class TestMse:
    def test_perfect_fit(self):
        # a fit whose intensity equals the counts exactly has zero error
        t = 3
        basis = basis_from(np.zeros((0, t)), t)
        assert fit_items([CountTrajectory("a", (1, 1, 1))], basis)[0].mse == 0.0

    def test_arithmetic(self):
        basis = basis_from(np.zeros((0, 2)), 2)
        assert fit_items([CountTrajectory("a", (0, 2))], basis)[0].mse == pytest.approx(1.0)

    def test_matches_naive_sum(self, planted):
        y = planted["corpus"].counts[3].tolist()
        fit = planted["fits"][3]
        naive = sum((y[j] - fit.intensity[j]) ** 2 for j in range(len(y))) / len(y)
        assert fit.mse == pytest.approx(naive, rel=1e-12)


def test_basis_from_helper_is_orthonormal():
    basis = basis_from(make_basis(10, 3, "poly"), 10)
    gram = basis.eigenfunctions @ basis.eigenfunctions.T
    assert gram == pytest.approx(np.eye(3), abs=1e-10)
