"""Mean, covariance, and orthonormal eigenbasis of log count curves.

The latent log-intensity process is summarized by a smooth mean curve plus
orthonormal eigenfunctions of the sample covariance of z = ln(count + 1).
Downstream, per-item coordinates along this basis are refit by Poisson
maximum likelihood, so the basis only has to capture the curve geometry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .data import Corpus, TimeGrid, log_matrix
from .errors import ConfigError, DataError, NumericalError
from .smoothing import SmoothCurve, smooth_curve

__all__ = [
    "LatentBasis",
    "SelectionRow",
    "SelectionTable",
    "estimate_mean",
    "covariance_matrix",
    "eigendecompose_symmetric",
    "fve_basis_size",
    "truncate_basis",
    "select_k_loglik",
]

_ORTHO_TOL = 1e-8


@dataclass(frozen=True)
class LatentBasis:
    """Smoothed mean curve plus K orthonormal eigenfunctions on the grid.

    Eigenfunctions are rows of shape (K, T), normalized so that
    sum_j phi_k(t_j)^2 = 1 on the unit-spaced grid, with eigenvalues sorted
    descending and clamped at zero.  ``fve`` is the cumulative fraction of variance
    explained relative to the full positive spectrum the basis was cut from.
    """

    grid: TimeGrid
    mean: np.ndarray
    mean_derivative: np.ndarray
    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray
    fve: np.ndarray
    mean_bandwidth: float = 1.0

    def __post_init__(self):
        t = self.grid.n_years
        mean = np.asarray(self.mean, dtype=float)
        deriv = np.asarray(self.mean_derivative, dtype=float)
        lam = np.asarray(self.eigenvalues, dtype=float)
        phi = np.asarray(self.eigenfunctions, dtype=float).reshape(-1, t)
        fve = np.asarray(self.fve, dtype=float)
        if mean.shape != (t,) or deriv.shape != (t,):
            raise DataError("mean curve length must match the grid")
        if phi.shape[0] != lam.shape[0] or fve.shape != lam.shape:
            raise DataError("eigenvalues, eigenfunctions, and fve sizes disagree")
        if np.any(lam < 0):
            raise DataError("eigenvalues must be clamped at zero")
        if np.any(np.diff(lam) > 1e-12):
            raise DataError("eigenvalues must be sorted descending")
        if np.any(np.diff(fve) < -1e-12):
            raise DataError("fve must be nondecreasing")
        gram = phi @ phi.T
        if phi.shape[0] and np.max(np.abs(gram - np.eye(phi.shape[0]))) > _ORTHO_TOL:
            raise NumericalError("eigenfunctions are not orthonormal on the grid")
        for name, arr in (("mean", mean), ("mean_derivative", deriv),
                          ("eigenvalues", lam), ("eigenfunctions", phi), ("fve", fve)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def k(self) -> int:
        return int(self.eigenvalues.shape[0])

    def eta(self, scores) -> np.ndarray:
        """Linear predictor mean + scores @ phi, (n, K) -> (n, T); each row is
        summed on its own, so it does not depend on the rows beside it."""
        return self.mean + np.einsum("ik,kt->it", scores, self.eigenfunctions)

    def truncated(self, k: int) -> "LatentBasis":
        """Sub-basis keeping the first ``k`` eigenfunctions (nested)."""
        if not 0 <= k <= self.k:
            raise ConfigError(f"cannot truncate basis of size {self.k} to {k}")
        return LatentBasis(
            grid=self.grid,
            mean=self.mean,
            mean_derivative=self.mean_derivative,
            eigenvalues=self.eigenvalues[:k].copy(),
            eigenfunctions=self.eigenfunctions[:k].copy(),
            fve=self.fve[:k].copy(),
            mean_bandwidth=self.mean_bandwidth,
        )


def estimate_mean(corpus: Corpus, bandwidth: float | None = None) -> SmoothCurve:
    """Smooth the yearly average of ln(``corpus.counts`` + 1).

    The raw yearly average is smoothed by a local quadratic at the grid
    points (:func:`~citetraj.smoothing.smooth_curve`), so the curve's
    derivative comes from the fitted slope rather than finite differences.
    ``bandwidth`` (years) fixes the smoothing bandwidth; None picks it by
    GCV over ``DEFAULT_BANDWIDTH_CANDIDATES``.
    """
    if len(corpus) == 0:
        raise DataError("cannot estimate a mean curve from an empty corpus")
    zbar = log_matrix(corpus).mean(axis=0)
    values, deriv, h = smooth_curve(corpus.grid.points, zbar, bandwidth)
    return SmoothCurve(grid=corpus.grid, values=values, derivative=deriv, bandwidth=h)


def covariance_matrix(corpus: Corpus, mean) -> np.ndarray:
    """Sample covariance of the rows of ln(``corpus.counts`` + 1) around ``mean``.

    C(t_j, t_l) = sum_i (z_ij - mean_j)(z_il - mean_l) / (n - 1), exactly
    symmetrized to absorb BLAS rounding.
    """
    n = len(corpus)
    if n < 2:
        raise DataError(f"covariance needs at least 2 items, got {n}")
    mean = np.asarray(mean, dtype=float)
    centered = log_matrix(corpus) - mean[None, :]
    raw = centered.T @ centered / (n - 1)
    return 0.5 * (raw + raw.T)


def eigendecompose_symmetric(cov: np.ndarray):
    """Eigenpairs of the covariance operator on the unit-spaced year grid.

    Solves C v = lambda v with a symmetric solver, so sum_j phi^2 = 1, and
    fixes the sign so each eigenfunction has nonnegative grid sum (first
    nonzero coordinate positive on an exact tie).  Returns the full spectrum sorted
    descending: (eigenvalues (T,), eigenfunctions (T, T) as rows).
    """
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise DataError(f"covariance must be square, got shape {cov.shape}")
    asym = float(np.max(np.abs(cov - cov.T))) if cov.size else 0.0
    if asym > 1e-10:
        raise NumericalError(f"matrix is not symmetric (max asymmetry {asym:.3e})")
    try:
        w, v = np.linalg.eigh(cov)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition did not converge: {exc}") from exc
    # eigh returns ascending order; reverse for descending eigenvalues.
    eigenvalues = w[::-1].copy()
    phi = v[:, ::-1].T.copy()
    for k in range(phi.shape[0]):
        s = phi[k].sum()
        if s < 0:
            phi[k] = -phi[k]
        elif s == 0:
            nz = np.nonzero(phi[k])[0]
            if nz.size and phi[k, nz[0]] < 0:
                phi[k] = -phi[k]
    return eigenvalues, phi


def fve_basis_size(eigenvalues, tau: float) -> int:
    """Smallest K whose cumulative share of the positive spectrum reaches
    ``tau`` in (0, 1]; negative sample eigenvalues count as zero."""
    if not 0 < tau <= 1:
        raise ConfigError(f"fve needs tau in (0, 1], got {tau}")
    clamped = np.maximum(np.asarray(eigenvalues, dtype=float), 0.0)
    positive = int(np.count_nonzero(clamped > 0))
    if positive == 0:
        raise ConfigError("no positive eigenvalues; cannot apply an FVE policy")
    share = np.cumsum(clamped[:positive]) / float(clamped.sum())
    k = int(np.searchsorted(share, tau - 1e-12) + 1)
    return min(k, positive)


def truncate_basis(
    mean: SmoothCurve,
    eigenvalues: np.ndarray,
    eigenfunctions: np.ndarray,
    k: int,
) -> LatentBasis:
    """Cut the full spectrum down to a working basis of the first ``k``
    eigenfunctions (see :func:`fve_basis_size` to pick ``k`` by FVE).

    Negative sample eigenvalues are clamped to zero and excluded from the
    FVE denominator; ``k`` may not exceed the positive eigenvalues.
    """
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    eigenfunctions = np.asarray(eigenfunctions, dtype=float)
    clamped = np.maximum(eigenvalues, 0.0)
    positive = int(np.count_nonzero(clamped > 0))
    total = float(clamped.sum())
    if k < 0:
        raise ConfigError(f"basis size must be >= 0, got {k}")
    if k > positive:
        raise ConfigError(
            f"requested {k} eigenfunctions but only {positive} positive "
            "eigenvalues are available"
        )
    fve = (np.cumsum(clamped[:k]) / total) if total > 0 else np.zeros(k)
    return LatentBasis(
        grid=mean.grid,
        mean=np.asarray(mean.values, dtype=float).copy(),
        mean_derivative=np.asarray(mean.derivative, dtype=float).copy(),
        eigenvalues=clamped[:k].copy(),
        eigenfunctions=eigenfunctions[:k].copy(),
        fve=fve,
        mean_bandwidth=mean.bandwidth,
    )


@dataclass(frozen=True)
class SelectionRow:
    k: int
    mean_loglik: float
    aic: float
    n_excluded: int


@dataclass(frozen=True)
class SelectionTable:
    """Selection rows by K, plus each K's ``poisson.fit_matrix`` result."""

    rows: tuple[SelectionRow, ...]
    fits: dict = field(repr=False, compare=False)

    @property
    def recommended_k(self) -> int:
        best = min(row.aic for row in self.rows)
        for row in self.rows:  # rows sorted by k; ties resolve to smaller k
            if row.aic <= best:
                return row.k
        raise AssertionError("unreachable")


def select_k_loglik(
    corpus: Corpus,
    basis: LatentBasis,
    k_range: Iterable[int],
) -> SelectionTable:
    """Score nested basis sizes by in-sample per-item Poisson log-likelihood.

    For each K the rows of ``corpus.counts`` are fit (scores only) on the
    first K eigenfunctions; each contributes its own maximized log-likelihood.
    Scores are free per-item parameters, so an item's fit uses no other
    item's data: a held-out fit would equal this in-sample one.
    AIC = -2 * (mean log-likelihood) + 2K, recommended K = argmin AIC with
    ties resolved to the smaller K.  Items whose fit diverges are excluded
    from the average and counted per row.  The table keeps each K's fit
    arrays in ``fits``, so the pipeline's fit stage reuses the fit at its
    basis size instead of fitting that K again.
    """
    from . import poisson  # local import: poisson depends on this module

    ks = sorted(set(int(k) for k in k_range))
    if not ks:
        raise ConfigError("empty K range")
    if ks[0] < 0 or ks[-1] > basis.k:
        raise ConfigError(
            f"K range {ks} outside available eigenfunctions [0, {basis.k}]"
        )
    if len(corpus) == 0:
        raise DataError("cannot select K on an empty corpus")
    y = corpus.counts.astype(float)
    rows = []
    fits = {}
    for k in ks:
        fits[k] = fit = poisson.fit_matrix(y, basis.truncated(k))
        included = fit.converged & np.isfinite(fit.loglik)
        n_excluded = int(len(corpus) - included.sum())
        if not included.any():
            raise NumericalError(f"every item diverged at K={k}")
        mean_ll = float(fit.loglik[included].mean())
        rows.append(
            SelectionRow(k=k, mean_loglik=mean_ll, aic=-2.0 * mean_ll + 2.0 * k,
                         n_excluded=n_excluded)
        )
    return SelectionTable(rows=tuple(rows), fits=fits)
