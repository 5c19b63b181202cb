import numpy as np
import pytest

from citetraj import poisson, synthgen
from citetraj.data import Corpus, TimeGrid
from citetraj.errors import ConfigError, DataError, NumericalError
from citetraj.fpca import (
    LatentBasis,
    covariance_matrix,
    eigendecompose_symmetric,
    estimate_mean,
    fve_basis_size,
    select_k_loglik,
    truncate_basis,
)
from citetraj.synthgen import Archetype, GeneratorSpec, MeanSpec


def corpus_of(rows, t=None):
    t = t or len(rows[0])
    return Corpus(TimeGrid(t), [f"i{k}" for k in range(len(rows))], rows)


class TestEstimateMean:
    def test_all_zero_counts(self):
        corpus = corpus_of([[0] * 10] * 5)
        curve = estimate_mean(corpus)
        assert curve.values == pytest.approx(np.zeros(10), abs=1e-12)
        assert curve.derivative == pytest.approx(np.zeros(10), abs=1e-12)

    def test_constant_pair(self):
        corpus = corpus_of([[1] * 12, [6] * 12])  # 6 = round(e^2 - 1)
        curve = estimate_mean(corpus)
        level = 0.5 * (np.log(2.0) + np.log(7.0))
        assert np.log(2.0) < level < 0.5 * (np.log(2.0) + 2.0)
        assert curve.values == pytest.approx(np.full(12, level), rel=1e-10)

    def test_fixed_bandwidth_policy(self):
        corpus = corpus_of([[1, 2, 3, 4, 5], [2, 3, 4, 5, 6]])
        curve = estimate_mean(corpus, 2.5)
        assert curve.bandwidth == 2.5

    def test_empty_corpus(self):
        with pytest.raises(DataError):
            estimate_mean(Corpus(TimeGrid(5), (), np.zeros((0, 5), dtype=int)))

    def test_monte_carlo_expectation(self):
        """Smoothed mean tracks E[ln(1+count)] computed by quadrature."""
        spec = synthgen.default_spec(2000, seed=21)
        corpus, _ = synthgen.simulate_corpus(spec)
        curve = estimate_mean(corpus)

        grid = TimeGrid(spec.n_years)
        mu = synthgen.mean_curve(spec.mean, grid)
        phi = synthgen.make_basis(spec.n_years, spec.k, spec.basis_family)
        lam = np.asarray(spec.eigenvalues)
        v = (lam[:, None] * phi ** 2).sum(axis=0)
        nodes, weights = np.polynomial.hermite.hermgauss(21)
        y = np.arange(0, 4001)
        log_fact = np.concatenate([[0.0], np.cumsum(np.log(y[1:]))])
        ln1p = np.log1p(y)

        def expected_z(eta_mean, var):
            etas = eta_mean + np.sqrt(2 * var) * nodes
            rates = np.exp(etas)
            # E[ln(1+Y)] per quadrature node via the truncated Poisson series
            logpmf = (-rates[:, None] + y[None, :] * etas[:, None]
                      - log_fact[None, :])
            vals = (np.exp(logpmf) * ln1p[None, :]).sum(axis=1)
            return float((weights * vals).sum() / np.sqrt(np.pi))

        oracle = np.zeros(spec.n_years)
        for arche in spec.archetypes:
            eta_bar = mu + np.asarray(arche.shifts) @ phi
            oracle += arche.weight * np.asarray(
                [expected_z(eta_bar[j], v[j]) for j in range(spec.n_years)]
            )
        assert np.max(np.abs(curve.values - oracle)) < 0.1


class TestCovariance:
    def test_mirrored_pair(self):
        # with n=2 the deviations mirror around the mean by construction
        corpus = corpus_of([[3, 1, 4], [1, 5, 2]])
        z = np.log1p(np.array([[3, 1, 4], [1, 5, 2]], dtype=float))
        mean = z.mean(axis=0)
        dev = z[0] - mean
        expected = 2.0 * np.outer(dev, dev)
        assert covariance_matrix(corpus, mean) == pytest.approx(expected, abs=1e-12)

    def test_identical_items(self):
        corpus = corpus_of([[2, 3, 4]] * 6)
        z0 = np.log1p(np.array([2.0, 3.0, 4.0]))
        cov = covariance_matrix(corpus, z0)
        assert cov == pytest.approx(np.zeros((3, 3)), abs=1e-15)

    def test_matches_double_loop(self):
        rng = np.random.default_rng(2)
        rows = rng.integers(0, 30, size=(100, 5))
        corpus = corpus_of(rows.tolist())
        z = np.log1p(rows.astype(float))
        mean = z.mean(axis=0)
        n, t = z.shape
        expected = np.zeros((t, t))
        for j in range(t):
            for l in range(t):
                expected[j, l] = sum(
                    (z[i, j] - mean[j]) * (z[i, l] - mean[l]) for i in range(n)
                ) / (n - 1)
        cov = covariance_matrix(corpus, mean)
        assert cov == pytest.approx(expected, abs=1e-10)
        assert np.array_equal(cov, cov.T)

    def test_needs_two_items(self):
        with pytest.raises(DataError, match="at least 2"):
            covariance_matrix(corpus_of([[1, 2]]), np.zeros(2))


class TestEigendecompose:
    def test_identity_two_by_two(self):
        values, functions = eigendecompose_symmetric(np.eye(2))
        assert values == pytest.approx([1.0, 1.0], abs=1e-12)
        assert functions @ functions.T == pytest.approx(np.eye(2), abs=1e-12)

    def test_analytic_two_by_two(self):
        values, functions = eigendecompose_symmetric(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert values == pytest.approx([3.0, 1.0], abs=1e-12)
        r = 1 / np.sqrt(2)
        assert functions[0] == pytest.approx([r, r], abs=1e-12)
        # second eigenfunction sums to zero: tie resolves to positive first coord
        assert functions[1] == pytest.approx([r, -r], abs=1e-12)

    def test_reconstruction_and_residual(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((8, 8))
        cov = 0.5 * (a + a.T)
        values, functions = eigendecompose_symmetric(cov)
        recon = functions.T @ np.diag(values) @ functions
        assert np.max(np.abs(cov - recon)) < 1e-8
        for lam, phi in zip(values, functions):
            assert np.max(np.abs(cov @ phi - lam * phi)) < 1e-8

    def test_rejects_asymmetric(self):
        with pytest.raises(NumericalError, match="not symmetric"):
            eigendecompose_symmetric(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((12, 12))
        cov = 0.5 * (a + a.T)
        v1, f1 = eigendecompose_symmetric(cov)
        v2, f2 = eigendecompose_symmetric(cov.copy())
        assert np.array_equal(v1, v2)
        assert np.array_equal(f1, f2)
        assert all(f1[k].sum() >= 0 for k in range(12))


class TestTruncate:
    def mean_curve(self, t=4):
        from citetraj.smoothing import SmoothCurve

        return SmoothCurve(TimeGrid(t), np.zeros(t), np.zeros(t), 1.0)

    def test_fve_policy(self):
        values = np.array([4.0, 3.0, 2.0, 1.0])
        functions = np.eye(4)
        basis = truncate_basis(self.mean_curve(), values, functions,
                               fve_basis_size(values, 0.65))
        assert basis.k == 2
        assert basis.fve == pytest.approx([0.4, 0.7])

    def test_fixed_four(self):
        values = np.array([4.0, 3.0, 2.0, 1.0])
        basis = truncate_basis(self.mean_curve(), values, np.eye(4), 4)
        assert basis.k == 4
        assert basis.fve[-1] == pytest.approx(1.0)

    def test_fve_tau_one_keeps_all_positive(self):
        values = np.array([4.0, 3.0, 0.0, -1e-12])
        basis = truncate_basis(self.mean_curve(), values, np.eye(4),
                               fve_basis_size(values, 1.0))
        assert basis.k == 2
        assert basis.fve[-1] == pytest.approx(1.0)

    def test_k_exceeds_positive_count(self):
        values = np.array([4.0, 0.0, 0.0, 0.0])
        with pytest.raises(ConfigError, match="positive"):
            truncate_basis(self.mean_curve(), values, np.eye(4), 2)

    def test_negative_clamped(self):
        values = np.array([4.0, 1.0, -1e-12, -2e-11])
        basis = truncate_basis(self.mean_curve(), values, np.eye(4), 2)
        assert (basis.eigenvalues >= 0).all()

    def test_trace_preservation(self, planted):
        spectrum = planted["spectrum"]
        corpus = planted["corpus"]
        mean = planted["mean"]
        cov = covariance_matrix(corpus, mean.values)
        assert spectrum.sum() == pytest.approx(np.trace(cov), abs=1e-8)

    def test_latent_basis_validates_orthonormality(self):
        bad = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(NumericalError, match="orthonormal"):
            LatentBasis(TimeGrid(2), np.zeros(2), np.zeros(2),
                        np.array([2.0, 1.0]), bad, np.array([0.5, 1.0]))


class TestSelectK:
    def test_single_k_range(self, planted):
        table = select_k_loglik(planted["corpus"], planted["basis"], [1])
        assert len(table.rows) == 1
        assert table.recommended_k == 1

    def test_in_sample_loglik_nondecreasing(self, planted):
        table = select_k_loglik(planted["corpus"], planted["basis"], range(1, 5))
        assert all(r.n_excluded == 0 for r in table.rows)
        lls = [r.mean_loglik for r in table.rows]
        assert all(b >= a - 1e-9 for a, b in zip(lls, lls[1:]))

    def test_recovers_true_k_two(self):
        hits = 0
        for seed in range(20):
            spec = GeneratorSpec(
                n_items=400, n_years=30,
                mean=MeanSpec(a=4.0, b=1.8, c=6.5, d=0.5),
                basis_family="poly", eigenvalues=(1.0, 0.6),
                archetypes=(Archetype("single", 1.0, (0.0, 0.0)),),
                seed=100 + seed,
            )
            corpus, _ = synthgen.simulate_corpus(spec)
            mean = estimate_mean(corpus)
            cov = covariance_matrix(corpus, mean.values)
            values, functions = eigendecompose_symmetric(cov)
            basis = truncate_basis(mean, values, functions, 4)
            table = select_k_loglik(corpus, basis, range(1, 5))
            hits += table.recommended_k == 2
        assert hits >= 18  # >= 90% of 20 replications

    def test_mean_loglik_is_mean_of_in_sample_fits(self, planted):
        corpus = planted["corpus"]
        basis = planted["basis"]
        table = select_k_loglik(corpus, basis, range(0, 5))
        for row in table.rows:
            fits = poisson.fit_corpus(corpus, basis.truncated(row.k))
            assert row.n_excluded == 0
            assert row.mean_loglik == float(np.mean([f.loglik for f in fits]))

    def test_k_range_outside_basis(self, planted):
        with pytest.raises(ConfigError, match="outside"):
            select_k_loglik(planted["corpus"], planted["basis"], [5])
