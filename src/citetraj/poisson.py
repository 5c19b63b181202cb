"""Per-item maximum likelihood for the functional Poisson regression model.

Each item's annual counts y_j are modeled as independent Poisson draws with
log intensity eta_j = mean_j + sum_k xi_k * phi_k(t_j).  The score vector xi
is a free per-item parameter estimated by Newton's method with step halving;
the log-likelihood is concave in xi, so a converged fit is the global
maximum.  The additive log y! constant is dropped throughout, so reported
log-likelihoods are comparable only within this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .data import MAX_COUNT, Corpus, CountTrajectory
from .errors import ConfigError, DataError, OverflowGuardError
from .fpca import LatentBasis

__all__ = [
    "FitArrays",
    "TrajectoryFit",
    "poisson_loglik",
    "loglik_grad_hess",
    "fit_matrix",
    "fit_items",
    "fit_corpus",
    "convergence_summary",
]

# exp() overflows double precision just above exp(709); guard a bit earlier.
ETA_OVERFLOW = 700.0

# Rows are fit in fixed-size chunks, which bounds the (chunk, T) and
# (chunk, K, K) temporaries of a Newton step (0.25 MB per (chunk, T) array
# at T=30) while keeping numpy's per-call overhead small.  Results do not
# depend on the chunk size.
_CHUNK = 1024

# Newton: iteration cap; a row converges when its max absolute gradient
# falls below _GRAD_TOL, or its step below _STEP_TOL and the final gradient
# check passes; step halvings per iteration; ridge penalty of the fallback.
_MAX_ITER = 100
_GRAD_TOL = 1e-8
_STEP_TOL = 1e-10
_MAX_HALVINGS = 30
_RIDGE = 1e-6


class FitArrays(NamedTuple):
    """Row-aligned fits of an (n, T) count matrix (fields as in
    :class:`TrajectoryFit`); ``loglik`` and ``mse`` share one final eta."""

    scores: np.ndarray
    loglik: np.ndarray
    mse: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    ridged: np.ndarray


@dataclass(frozen=True)
class TrajectoryFit:
    """One item's fitted scores, intensity curve, and fit diagnostics.

    ``converged`` means the (penalized, if ``ridged``) gradient dropped
    below the tolerance; ``ridged`` marks fits that needed the ridge
    fallback after tripping the overflow guard or a singular Hessian.
    ``loglik`` is always the unpenalized Poisson log-likelihood.
    """

    id: str
    scores: np.ndarray
    eta: np.ndarray
    intensity: np.ndarray
    loglik: float
    mse: float
    iterations: int
    converged: bool
    ridged: bool = False


def _loglik_rows(y: np.ndarray, eta: np.ndarray, lam: np.ndarray | None = None) -> np.ndarray:
    """Row-wise log-likelihood sum_t (y_t * eta_t - exp(eta_t)); ``lam`` is
    exp(eta) when the caller already has it.

    Rows that overflow yield -inf instead of raising.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if lam is None:
            lam = np.exp(eta)
        ll = np.sum(y * eta - lam, axis=1)
    ll[~np.isfinite(ll)] = -np.inf
    return ll


def _gradient(y: np.ndarray, lam: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Row-wise score gradient g_ik = sum_t (y_it - lam_it) phi_k(t), lam = exp(eta)."""
    return np.einsum("it,kt->ik", y - lam, phi)


def _phi_products(phi: np.ndarray) -> np.ndarray:
    """(T, K*K) matrix with entry [t, k*K + l] = phi_k(t) * phi_l(t)."""
    k, t = phi.shape
    return (phi[:, None, :] * phi[None, :, :]).reshape(k * k, t).T


def _neg_hessian(lam: np.ndarray, phi: np.ndarray, prod: np.ndarray | None = None) -> np.ndarray:
    """Row-wise negative Hessian -H_ikl = sum_t lam_it phi_k(t) phi_l(t).

    One vector-matrix product per row against ``prod`` (``_phi_products(phi)``),
    so a row's result does not depend on the rows beside it; a plain 2-D
    ``lam @ prod`` would not promise that.
    """
    k = phi.shape[0]
    if prod is None:
        prod = _phi_products(phi)
    return (lam[:, None, :] @ prod).reshape(len(lam), k, k)


def _guard(eta: np.ndarray) -> None:
    if eta.size and float(eta.max()) > ETA_OVERFLOW:
        raise OverflowGuardError(
            f"eta exceeds the overflow guard ({float(eta.max()):.1f} > {ETA_OVERFLOW})"
        )


def poisson_loglik(counts, eta) -> float:
    """Poisson log-likelihood sum_j (y_j * eta_j - exp(eta_j)), no log y! term."""
    counts = np.asarray(counts, dtype=float)
    eta = np.asarray(eta, dtype=float)
    if counts.shape != eta.shape:
        raise ConfigError("counts and eta must have equal length")
    _guard(eta)
    return float(_loglik_rows(counts[None, :], eta[None, :])[0])


def loglik_grad_hess(counts, eta, basis: LatentBasis):
    """Gradient and Hessian of the log-likelihood with respect to the scores.

    g_k = sum_j (y_j - exp(eta_j)) phi_k(t_j)
    H_kl = -sum_j exp(eta_j) phi_k(t_j) phi_l(t_j)
    """
    counts = np.asarray(counts, dtype=float)
    eta = np.asarray(eta, dtype=float)
    _guard(eta)
    phi = basis.eigenfunctions
    lam = np.exp(eta[None, :])
    return _gradient(counts[None, :], lam, phi)[0], -_neg_hessian(lam, phi)[0]


def _newton_batch(y, basis: LatentBasis, ridge: float, s0):
    """Newton-with-step-halving over a batch of items sharing one basis.

    Every reduction runs per item (einsum, and per-row vector-matrix products
    for the Hessian), so an item's result does not depend on which batch it
    was computed in.  The current iterate's eta, exp(eta) and objective are
    those of the trial step that was accepted, not computed again.
    Accepted steps never lower the objective, yet an iterate can still sit
    beyond the overflow guard: the starting point, or a step that lands eta
    in (ETA_OVERFLOW, 709], where exp and the objective are still finite.
    Such items, and items whose starting objective is not finite (y * eta
    overflowed), are flagged for the ridge fallback before their next step
    instead of raising; so no step is taken from a -inf objective, which
    the ulp-scaled tolerance below would accept whatever its value.
    Returns (scores, iterations, converged, needs_fallback).
    """
    phi = basis.eigenfunctions
    prod = _phi_products(phi)
    m = y.shape[0]
    k = phi.shape[0]
    s = s0.copy()
    iters = np.zeros(m, dtype=int)
    converged = np.zeros(m, dtype=bool)
    fallback = np.zeros(m, dtype=bool)

    def exp(eta):
        with np.errstate(over="ignore"):
            return np.exp(eta)

    def objective(yy, scores, eta, lam):
        ll = _loglik_rows(yy, eta, lam)
        if ridge:
            with np.errstate(over="ignore"):
                ll = ll - 0.5 * ridge * np.sum(scores * scores, axis=1)
        return ll

    def gradient(yy, scores, lam):
        grad = _gradient(yy, lam, phi)
        return grad - ridge * scores if ridge else grad

    # The rows still stepping: their index, scores, eta, exp(eta), counts
    # and objective.
    idx, sa, ya = np.arange(m), s0, y
    eta = basis.eta(sa)
    lam = exp(eta)
    ll = objective(ya, sa, eta, lam)
    for _ in range(_MAX_ITER):
        if idx.size == 0:
            break
        over = (eta.max(axis=1) > ETA_OVERFLOW) | ~np.isfinite(ll)
        if over.any():
            fallback[idx[over]] = True
            keep = ~over
            idx, sa, eta, lam, ya, ll = (
                idx[keep], sa[keep], eta[keep], lam[keep], ya[keep], ll[keep],
            )
            if idx.size == 0:
                break
        grad = gradient(ya, sa, lam)
        gnorm = np.abs(grad).max(axis=1) if k else np.zeros(len(idx))
        done = gnorm < _GRAD_TOL
        if done.any():
            converged[idx[done]] = True
            keep = ~done
            idx, sa, lam, ya, ll, grad = (
                idx[keep], sa[keep], lam[keep], ya[keep], ll[keep], grad[keep],
            )
            if idx.size == 0:
                break
        # Formed only for items that still step: it is the costliest term.
        neg_hess = _neg_hessian(lam, phi, prod)
        if ridge:
            neg_hess = neg_hess + ridge * np.eye(k)[None, :, :]
        try:
            direction = np.linalg.solve(neg_hess, grad[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            direction = np.empty_like(grad)
            for row in range(len(idx)):
                try:
                    direction[row] = np.linalg.solve(neg_hess[row], grad[row])
                except np.linalg.LinAlgError:
                    direction[row] = np.nan
            bad = ~np.isfinite(direction).all(axis=1)
            fallback[idx[bad]] = True
            keep = ~bad
            idx, sa, ya, ll, direction = (
                idx[keep], sa[keep], ya[keep], ll[keep], direction[keep],
            )
            if idx.size == 0:
                break

        # Right at the optimum the objective is float-flat: the full Newton
        # step can read as a few ulps "worse" although the gradient still
        # contracts quadratically.  Accept it within an ulp-scaled tolerance;
        # halved steps must make strict progress.
        new_s = sa + direction
        new_eta = basis.eta(new_s)
        new_lam = exp(new_eta)
        new_ll = objective(ya, new_s, new_eta, new_lam)
        improved = new_ll >= ll - 1e-13 * np.maximum(1.0, np.abs(ll))
        new_s[~improved] = sa[~improved]
        alpha = 1.0
        for _halving in range(_MAX_HALVINGS):
            todo = np.nonzero(~improved)[0]
            if todo.size == 0:
                break
            alpha *= 0.5
            trial = sa[todo] + alpha * direction[todo]
            trial_eta = basis.eta(trial)
            trial_lam = exp(trial_eta)
            trial_ll = objective(ya[todo], trial, trial_eta, trial_lam)
            better = trial_ll > ll[todo]
            where = todo[better]
            new_s[where] = trial[better]
            new_eta[where] = trial_eta[better]
            new_lam[where] = trial_lam[better]
            new_ll[where] = trial_ll[better]
            improved[where] = True

        iters[idx[improved]] += 1
        step = np.abs(new_s - sa).max(axis=1) if k else np.zeros(len(idx))
        s[idx] = new_s
        tiny = improved & (step < _STEP_TOL)
        if tiny.any():
            # Final gradient check so the converged flag keeps its meaning.
            g_t = gradient(ya[tiny], new_s[tiny], new_lam[tiny])
            converged[idx[tiny]] = np.abs(g_t).max(axis=1) < _GRAD_TOL
        # Stalled items cannot improve the objective; stop them unconverged.
        keep = improved & ~tiny
        idx, sa, eta, lam, ya, ll = (
            idx[keep], new_s[keep], new_eta[keep], new_lam[keep], ya[keep], new_ll[keep],
        )

    return s, iters, converged, fallback


def fit_matrix(y, basis: LatentBasis) -> FitArrays:
    """Maximum likelihood scores for every row of an (n, T) count matrix.

    Newton's method with step halving, initialized at the projection of the
    log-transformed deviation onto the basis.  Convergence when the max
    absolute gradient drops below ``_GRAD_TOL`` (or the step shrinks below
    ``_STEP_TOL`` and the final gradient check passes); ``_MAX_ITER``
    iterations otherwise, flagged.  Rows whose start trips the overflow
    guard, or whose Hessian is singular, are refit with a ridge penalty from
    zero scores.  The reported log-likelihood is always unpenalized, even
    for ridged rows.  Counts must lie in [0, 2**53], as in a :class:`Corpus`.
    """
    y = np.asarray(y, dtype=float)
    t = basis.grid.n_years
    if y.ndim != 2 or y.shape[1] != t:
        raise DataError(f"count matrix has shape {y.shape}, basis grid has {t} years")
    # NaN fails both comparisons.
    if y.size and not (y.min() >= 0 and y.max() <= MAX_COUNT):
        raise DataError("count matrix holds a negative, non-finite or above-2**53 count")
    n, k = y.shape[0], basis.k
    fit = FitArrays(
        scores=np.zeros((n, k)), loglik=np.zeros(n), mse=np.zeros(n),
        iterations=np.zeros(n, dtype=int), converged=np.zeros(n, dtype=bool),
        ridged=np.zeros(n, dtype=bool),
    )
    for lo in range(0, n, _CHUNK):
        rows = slice(lo, lo + _CHUNK)
        yc = y[rows]
        s0 = np.einsum("it,kt->ik", np.log1p(yc) - basis.mean, basis.eigenfunctions)
        s, it, conv, fallback = _newton_batch(yc, basis, 0.0, s0)
        if fallback.any():
            # Ridge fallback restarts the flagged items from zero scores,
            # which keeps the initial linear predictor at the (safe) mean.
            idx = np.nonzero(fallback)[0]
            s2, it2, conv2, _ = _newton_batch(
                yc[idx], basis, _RIDGE, np.zeros((idx.size, k))
            )
            s[idx], conv[idx] = s2, conv2
            it[idx] += it2
        eta = basis.eta(s)
        fit.scores[rows], fit.iterations[rows] = s, it
        fit.converged[rows], fit.ridged[rows] = conv, fallback
        fit.loglik[rows] = _loglik_rows(yc, eta)
        fit.mse[rows] = np.mean((yc - np.exp(eta)) ** 2, axis=1)
    return fit


def _trajectory_fits(ids, y, basis: LatentBasis) -> list[TrajectoryFit]:
    """:func:`fit_matrix` of the count rows ``y`` as one fit per id."""
    fit = fit_matrix(y, basis)
    eta = basis.eta(fit.scores)
    intensity = np.exp(eta)
    return [
        TrajectoryFit(
            id=item_id, scores=fit.scores[i], eta=eta[i], intensity=intensity[i],
            loglik=float(fit.loglik[i]), mse=float(fit.mse[i]),
            iterations=int(fit.iterations[i]), converged=bool(fit.converged[i]),
            ridged=bool(fit.ridged[i]),
        )
        for i, item_id in enumerate(ids)
    ]


def fit_items(items: Sequence[CountTrajectory], basis: LatentBasis) -> list[TrajectoryFit]:
    """Fit a list of trajectories (see :func:`fit_matrix`), in order."""
    if not items:
        return []
    return _trajectory_fits([it.id for it in items], [it.counts for it in items], basis)


def fit_corpus(corpus: Corpus, basis: LatentBasis) -> list[TrajectoryFit]:
    """Independent per-item fits for a whole corpus, in corpus order."""
    return _trajectory_fits(corpus.ids, corpus.counts, basis)


def convergence_summary(fit: FitArrays) -> dict:
    """Counts of converged and ridged rows and the largest iteration count."""
    n = len(fit.converged)
    converged = int(fit.converged.sum())
    return {
        "n_items": n,
        "n_converged": converged,
        "n_ridged": int(fit.ridged.sum()),
        "convergence_rate": (converged / n) if n else 1.0,
        "max_iterations": int(fit.iterations.max()) if n else 0,
    }
