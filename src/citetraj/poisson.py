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

from .data import Corpus, CountTrajectory
from .errors import ConfigError, DataError, OverflowGuardError
from .fpca import LatentBasis

__all__ = [
    "FitOptions",
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
# (chunk, K, K) temporaries of a Newton step.
_CHUNK = 256


@dataclass(frozen=True)
class FitOptions:
    max_iter: int = 100
    grad_tol: float = 1e-8
    step_tol: float = 1e-10
    max_halvings: int = 30
    ridge: float = 1e-6
    record_history: bool = False


class FitArrays(NamedTuple):
    """Row-aligned fits of an (n, T) count matrix (fields as in
    :class:`TrajectoryFit`); ``loglik`` and ``mse`` share one final eta."""

    scores: np.ndarray
    loglik: np.ndarray
    mse: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    ridged: np.ndarray
    history: list[tuple[float, ...]] | None


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
    history: tuple[float, ...] | None = None


def _loglik_rows(y: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """Row-wise log-likelihood sum_t (y_t * eta_t - exp(eta_t)).

    Rows that overflow yield -inf instead of raising.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        ll = np.sum(y * eta - np.exp(eta), axis=1)
    ll[~np.isfinite(ll)] = -np.inf
    return ll


def _gradient(y: np.ndarray, lam: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Row-wise score gradient g_ik = sum_t (y_it - lam_it) phi_k(t), lam = exp(eta)."""
    return np.einsum("it,kt->ik", y - lam, phi)


def _neg_hessian(lam: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Row-wise negative Hessian -H_ikl = sum_t lam_it phi_k(t) phi_l(t)."""
    return np.einsum("it,kt,lt->ikl", lam, phi, phi)


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


def _newton_batch(y, basis: LatentBasis, opts: FitOptions, ridge: float, s0):
    """Newton-with-step-halving over a batch of items sharing one basis.

    Every reduction runs per item (einsum with fixed loop order), so an
    item's result does not depend on which batch it was computed in.
    Accepted iterates always have finite, increasing objective, so only the
    starting point can sit beyond the overflow guard; such items are flagged
    for the ridge fallback instead of raising.
    Returns (scores, iterations, converged, needs_fallback, history).
    """
    phi = basis.eigenfunctions
    m = y.shape[0]
    k = phi.shape[0]
    s = s0.copy()
    iters = np.zeros(m, dtype=int)
    converged = np.zeros(m, dtype=bool)
    fallback = np.zeros(m, dtype=bool)
    active = np.ones(m, dtype=bool)
    history: list[list[float]] | None = (
        [[] for _ in range(m)] if opts.record_history else None
    )

    def objective(yy, scores, eta):
        ll = _loglik_rows(yy, eta)
        if ridge:
            ll = ll - 0.5 * ridge * np.sum(scores * scores, axis=1)
        return ll

    def gradient(yy, scores, lam):
        grad = _gradient(yy, lam, phi)
        return grad - ridge * scores if ridge else grad

    if history is not None:
        ll0 = objective(y, s, basis.eta(s))
        for i in range(m):
            history[i].append(float(ll0[i]))

    for _ in range(opts.max_iter):
        if not active.any():
            break
        idx = np.nonzero(active)[0]
        sa = s[idx]
        eta = basis.eta(sa)
        over = eta.max(axis=1) > ETA_OVERFLOW
        if over.any():
            fallback[idx[over]] = True
            active[idx[over]] = False
            idx = idx[~over]
            if idx.size == 0:
                continue
            sa = s[idx]
            eta = eta[~over]
        ya = y[idx]
        lam = np.exp(eta)
        grad = gradient(ya, sa, lam)
        gnorm = np.abs(grad).max(axis=1) if k else np.zeros(len(idx))
        done = gnorm < opts.grad_tol
        if done.any():
            converged[idx[done]] = True
            active[idx[done]] = False
            keep = ~done
            idx, sa, eta, lam, ya, grad = (
                idx[keep], sa[keep], eta[keep], lam[keep], ya[keep], grad[keep],
            )
            if idx.size == 0:
                continue
        # Formed only for items that still step: it is the costliest term.
        neg_hess = _neg_hessian(lam, phi)
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
            active[idx[bad]] = False
            keep = ~bad
            idx, sa, eta, ya, direction = (
                idx[keep], sa[keep], eta[keep], ya[keep], direction[keep],
            )
            if idx.size == 0:
                continue
        ll = objective(ya, sa, eta)

        alpha = np.ones(len(idx))
        improved = np.zeros(len(idx), dtype=bool)
        new_s = sa.copy()
        new_ll = ll.copy()
        for _halving in range(opts.max_halvings + 1):
            todo = ~improved
            if not todo.any():
                break
            trial = sa[todo] + alpha[todo, None] * direction[todo]
            trial_ll = objective(ya[todo], trial, basis.eta(trial))
            if _halving == 0:
                # Right at the optimum the objective is float-flat: the full
                # Newton step can read as a few ulps "worse" although the
                # gradient still contracts quadratically.  Accept it within
                # an ulp-scaled tolerance; halved steps must make strict
                # progress.
                tol = 1e-13 * np.maximum(1.0, np.abs(ll[todo]))
                better = trial_ll >= ll[todo] - tol
            else:
                better = trial_ll > ll[todo]
            where = np.nonzero(todo)[0][better]
            new_s[where] = trial[better]
            new_ll[where] = trial_ll[better]
            improved[where] = True
            alpha[~improved] *= 0.5

        iters[idx[improved]] += 1
        if history is not None:
            for row in np.nonzero(improved)[0]:
                history[idx[row]].append(float(new_ll[row]))
        # Stalled items cannot improve the objective; stop them unconverged.
        stalled = ~improved
        active[idx[stalled]] = False
        step = np.abs(new_s - sa).max(axis=1) if k else np.zeros(len(idx))
        s[idx] = new_s
        tiny = improved & (step < opts.step_tol)
        if tiny.any():
            # Final gradient check so the converged flag keeps its meaning.
            s_t = new_s[tiny]
            g_t = gradient(y[idx[tiny]], s_t, np.exp(basis.eta(s_t)))
            converged[idx[tiny]] = np.abs(g_t).max(axis=1) < opts.grad_tol
            active[idx[tiny]] = False

    return s, iters, converged, fallback, history


def fit_matrix(y, basis: LatentBasis, options: FitOptions | None = None) -> FitArrays:
    """Maximum likelihood scores for every row of an (n, T) count matrix.

    Newton's method with step halving, initialized at the projection of the
    log-transformed deviation onto the basis.  Convergence when the max
    absolute gradient drops below ``grad_tol`` (or the step shrinks below
    ``step_tol`` and the final gradient check passes); ``max_iter``
    iterations otherwise, flagged.  Rows whose start trips the overflow
    guard, or whose Hessian is singular, are refit with a ridge penalty from
    zero scores.  The reported log-likelihood is always unpenalized, even
    for ridged rows.
    """
    opts = options or FitOptions()
    y = np.asarray(y, dtype=float)
    t = basis.grid.n_years
    if y.ndim != 2 or y.shape[1] != t:
        raise DataError(f"count matrix has shape {y.shape}, basis grid has {t} years")
    n, k = y.shape[0], basis.k
    fit = FitArrays(
        scores=np.zeros((n, k)), loglik=np.zeros(n), mse=np.zeros(n),
        iterations=np.zeros(n, dtype=int), converged=np.zeros(n, dtype=bool),
        ridged=np.zeros(n, dtype=bool), history=[] if opts.record_history else None,
    )
    for lo in range(0, n, _CHUNK):
        rows = slice(lo, lo + _CHUNK)
        yc = y[rows]
        s0 = np.einsum(
            "it,kt->ik", np.log1p(yc) - basis.mean, basis.eigenfunctions
        ) * basis.grid.delta
        s, it, conv, fallback, hist = _newton_batch(yc, basis, opts, 0.0, s0)
        if fallback.any():
            # Ridge fallback restarts the flagged items from zero scores,
            # which keeps the initial linear predictor at the (safe) mean.
            idx = np.nonzero(fallback)[0]
            s2, it2, conv2, _, hist2 = _newton_batch(
                yc[idx], basis, opts, opts.ridge, np.zeros((idx.size, k))
            )
            s[idx], conv[idx] = s2, conv2
            it[idx] += it2
            if hist is not None:
                for j, i in enumerate(idx):
                    hist[i] = hist2[j]
        eta = basis.eta(s)
        fit.scores[rows], fit.iterations[rows] = s, it
        fit.converged[rows], fit.ridged[rows] = conv, fallback
        fit.loglik[rows] = _loglik_rows(yc, eta)
        fit.mse[rows] = np.mean((yc - np.exp(eta)) ** 2, axis=1)
        if hist is not None:
            fit.history.extend(tuple(h) for h in hist)
    return fit


def fit_items(
    items: Sequence[CountTrajectory],
    basis: LatentBasis,
    options: FitOptions | None = None,
) -> list[TrajectoryFit]:
    """Fit a list of trajectories (see :func:`fit_matrix`), in order."""
    if not items:
        return []
    fit = fit_matrix(np.asarray([it.counts for it in items], dtype=float), basis, options)
    eta = basis.eta(fit.scores)
    intensity = np.exp(eta)
    return [
        TrajectoryFit(
            id=item.id, scores=fit.scores[i], eta=eta[i], intensity=intensity[i],
            loglik=float(fit.loglik[i]), mse=float(fit.mse[i]),
            iterations=int(fit.iterations[i]), converged=bool(fit.converged[i]),
            ridged=bool(fit.ridged[i]),
            history=fit.history[i] if fit.history is not None else None,
        )
        for i, item in enumerate(items)
    ]


def fit_corpus(
    corpus: Corpus,
    basis: LatentBasis,
    options: FitOptions | None = None,
) -> list[TrajectoryFit]:
    """Independent per-item fits for a whole corpus, in corpus order."""
    if corpus.grid.n_years != basis.grid.n_years:
        raise DataError("corpus and basis grids disagree")
    return fit_items(corpus.items, basis, options)


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
