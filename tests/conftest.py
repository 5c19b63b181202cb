import numpy as np
import pytest

from citetraj import fpca, poisson, synthgen


@pytest.fixture(scope="session")
def planted():
    """Small planted corpus with the full basis/fit stack, shared read-only."""
    corpus, truth = synthgen.simulate_corpus(synthgen.default_spec(400, seed=11))
    mean = fpca.estimate_mean(corpus)
    cov = fpca.covariance_matrix(corpus, mean.values)
    spectrum, functions = fpca.eigendecompose_symmetric(cov)
    basis = fpca.truncate_basis(mean, spectrum, functions, 4)
    fits = poisson.fit_corpus(corpus, basis)
    return {
        "corpus": corpus,
        "truth": truth,
        "mean": mean,
        "spectrum": spectrum,
        "functions": functions,
        "basis": basis,
        "fits": fits,
        "scores": np.asarray([f.scores for f in fits]),
    }
