import numpy as np
import pytest

from citetraj import fpca
from citetraj.data import Corpus, TimeGrid
from citetraj.errors import ConfigError, DataError
from citetraj.synthgen import (
    Archetype,
    GeneratorSpec,
    MeanSpec,
    TruthRecord,
    default_spec,
    make_basis,
    mean_curve,
    recovery_report,
    simulate_corpus,
)


class TestMakeBasis:
    def test_k1_is_constant(self):
        for family in ("poly", "fourier"):
            phi = make_basis(12, 1, family)
            assert phi == pytest.approx(np.full((1, 12), 1 / np.sqrt(12)), abs=1e-12)

    def test_orthonormality(self):
        for family in ("poly", "fourier"):
            phi = make_basis(30, 6, family)
            gram = phi @ phi.T
            assert np.max(np.abs(gram - np.eye(6))) < 1e-10

    def test_fourier_matches_direct_gram_schmidt(self):
        t = np.arange(1.0, 31.0)
        raw = [
            np.ones(30),
            np.sin(2 * np.pi * t / 30),
            np.cos(2 * np.pi * t / 30),
            np.sin(4 * np.pi * t / 30),
        ]
        expected = []
        for vec in raw:
            v = vec.astype(float)
            for prev in expected:
                v = v - (v @ prev) * prev
            expected.append(v / np.sqrt(v @ v))
        phi = make_basis(30, 4, "fourier")
        assert phi == pytest.approx(np.stack(expected), abs=1e-10)

    def test_k_cannot_exceed_t(self):
        with pytest.raises(ConfigError):
            make_basis(5, 6, "poly")


class TestSimulate:
    def test_degenerate_spec_identical_intensity(self):
        spec = GeneratorSpec(
            n_items=40, n_years=10, mean=MeanSpec(kind="flat", level=1.0),
            basis_family="poly", eigenvalues=(0.0, 0.0),
            archetypes=(Archetype("single", 1.0, (0.0, 0.0)),), seed=3,
        )
        corpus, truth = simulate_corpus(spec)
        assert truth.scores == pytest.approx(np.zeros((40, 2)))
        counts = corpus.counts
        assert counts.min() >= 0
        # all rows share one Poisson rate exp(1.0); verify via pooled mean
        assert counts.mean() == pytest.approx(np.e, abs=0.3)

    def test_fixed_seed_bitwise_identical(self):
        a_corpus, a_truth = simulate_corpus(default_spec(200, seed=9))
        b_corpus, b_truth = simulate_corpus(default_spec(200, seed=9))
        assert a_corpus.ids == b_corpus.ids
        assert np.array_equal(a_corpus.counts, b_corpus.counts)
        assert np.array_equal(a_truth.scores, b_truth.scores)
        assert a_truth.archetypes == b_truth.archetypes

    def test_counts_are_nonnegative_integers(self):
        corpus, truth = simulate_corpus(default_spec(100, seed=2))
        assert corpus.counts.dtype == np.int64 and corpus.counts.min() >= 0
        assert not corpus.counts.flags.writeable
        assert np.isfinite(truth.scores).all()

    def test_moment_oracle(self):
        spec = default_spec(5000, seed=77)
        corpus, truth = simulate_corpus(spec)
        counts = corpus.counts.astype(float)
        grid = TimeGrid(spec.n_years)
        mu = mean_curve(spec.mean, grid)
        phi = make_basis(spec.n_years, spec.k, spec.basis_family)
        lam = np.asarray(spec.eigenvalues)
        v = (lam[:, None] * phi ** 2).sum(axis=0)
        expected = np.zeros(spec.n_years)
        for arche in spec.archetypes:
            eta_bar = mu + np.asarray(arche.shifts) @ phi
            expected += arche.weight * np.exp(eta_bar + 0.5 * v)
        sample_mean = counts.mean(axis=0)
        se = counts.std(axis=0, ddof=1) / np.sqrt(len(corpus))
        assert (np.abs(sample_mean - expected) <= 3 * se).all()

    def test_eta_guard_rejects_hot_spec(self):
        spec = default_spec(50, seed=0)
        hot = GeneratorSpec(
            n_items=50, n_years=30, mean=spec.mean, basis_family="poly",
            eigenvalues=spec.eigenvalues,
            archetypes=(Archetype("hot", 1.0, (120.0, 0.0, 0.0, 0.0)),),
            seed=0,
        )
        with pytest.raises(ConfigError, match="exceeds the guard"):
            simulate_corpus(hot)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ConfigError, match="sum to 1"):
            GeneratorSpec(
                n_items=10, n_years=10, eigenvalues=(1.0,),
                archetypes=(Archetype("a", 0.4, (0.0,)),
                            Archetype("b", 0.4, (0.0,))),
            )

    def test_truth_record_roundtrip(self):
        _, truth = simulate_corpus(default_spec(50, seed=4))
        again = TruthRecord.from_json(truth.to_json())
        assert again.ids == truth.ids
        assert np.array_equal(again.scores, truth.scores)
        assert np.array_equal(again.basis, truth.basis)


class TestNoiseFloor:
    def test_identical_latent_curves_have_null_spectrum(self):
        # with all eigenvalues zero the latent curves coincide; feeding the
        # noise-free curves through the covariance stage leaves only
        # numerical-noise eigenvalues
        rows = [[3, 5, 8, 9, 7, 4, 2, 1, 1, 0]] * 50
        corpus = Corpus(TimeGrid(10), [f"i{k}" for k in range(len(rows))], rows)
        mean = np.log1p(np.asarray(rows[0], dtype=float))
        cov = fpca.covariance_matrix(corpus, mean)
        values, _ = fpca.eigendecompose_symmetric(cov)
        assert np.abs(values).max() < 1e-6 * max(np.trace(cov), 1.0)

    def test_zero_eigenvalue_corpus_has_no_dominant_direction(self):
        spec = GeneratorSpec(
            n_items=3000, n_years=20, mean=MeanSpec(kind="flat", level=1.5),
            basis_family="poly", eigenvalues=(0.0, 0.0, 0.0),
            archetypes=(Archetype("single", 1.0, (0.0, 0.0, 0.0)),), seed=6,
        )
        corpus, _ = simulate_corpus(spec)
        mean = fpca.estimate_mean(corpus)
        cov = fpca.covariance_matrix(corpus, mean.values)
        values, _ = fpca.eigendecompose_symmetric(cov)
        # Poisson observation noise spreads variance across the spectrum:
        # the leading share stays near 1/T rather than concentrating
        assert values[0] / values.sum() < 3.0 / 20


class TestRecovery:
    def test_perfect_inputs(self, planted):
        truth = planted["truth"]
        basis = fpca.LatentBasis(
            grid=TimeGrid(30),
            mean=truth.mean.copy(),
            mean_derivative=np.zeros(30),
            eigenvalues=np.asarray(sorted(truth.eigenvalues, reverse=True)),
            eigenfunctions=truth.basis.copy(),
            fve=np.linspace(0.4, 1.0, truth.basis.shape[0]),
        )
        report = recovery_report(truth, basis, truth.scores,
                                 assignments=truth.archetype_index())
        assert max(report.eigenfunction_rms) == pytest.approx(0.0, abs=1e-12)
        assert min(report.score_correlations) == pytest.approx(1.0, abs=1e-12)
        assert report.ari == pytest.approx(1.0)

    def test_ari_invariant_to_cluster_permutation(self, planted):
        truth = planted["truth"]
        idx = truth.archetype_index()
        permuted = (idx + 1) % 4
        a = recovery_report(truth, planted["basis"], assignments=idx)
        b = recovery_report(truth, planted["basis"], assignments=permuted)
        assert a.ari == pytest.approx(b.ari)

    def test_pipeline_recovery_quality(self, planted):
        report = recovery_report(planted["truth"], planted["basis"],
                                 planted["scores"])
        assert max(report.eigenfunction_rms) < 0.15
        assert min(report.score_correlations) > 0.9

    def test_score_rows_must_match_truth(self, planted):
        with pytest.raises(DataError, match="399, 4"):
            recovery_report(planted["truth"], planted["basis"], planted["scores"][:-1])
