"""WSB (Wang-Song-Barabasi) citation-model baseline.

Cumulative counts follow C(t) = m * (exp(lam * Phi((ln t - mu) / sigma)) - 1),
combining a fitness factor with lognormal aging; m is a fixed global
constant.  Parameters are fit per item by least squares on the cumulative
curve (stable and standard for this model), while the reported MSE is
computed on annual counts so comparisons against the functional Poisson
model share one error scale.  The fits take an (n, T) count matrix and
return row-aligned columns (:class:`WsbArrays`), as the Poisson fits do.
They run as one vectorized Levenberg-Marquardt over every row's start
points, with the analytic Jacobian and steps projected onto the parameter
box.  :func:`wsb_curve` is the one statement of C(t): the fits' objective
and MSE and the one-item view :func:`fit_wsb` all evaluate it, and annual
counts are its first differences with C(0+) = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from scipy.special import erf

from .data import CountTrajectory, TimeGrid
from .errors import ConfigError, DataError, NumericalError
from .smoothing import DensityEstimate, gaussian_kde, kde_eval_grid, silverman_bandwidth

__all__ = [
    "WsbFit",
    "WsbArrays",
    "MinimizeResult",
    "minimize",
    "normal_cdf",
    "wsb_curve",
    "fit_wsb",
    "fit_wsb_corpus",
    "compare_models",
    "ComparisonTable",
    "MSE_FLOOR",
]

# Box constraints for (lam, mu, sigma); optimizer candidates are clamped here.
LAM_BOUNDS = (0.0, 20.0)
MU_BOUNDS = (-2.0, 5.0)
SIGMA_BOUNDS = (0.05, 5.0)
_LOWER = np.array([LAM_BOUNDS[0], MU_BOUNDS[0], SIGMA_BOUNDS[0]])
_UPPER = np.array([LAM_BOUNDS[1], MU_BOUNDS[1], SIGMA_BOUNDS[1]])

# Rows per solver batch.  Each row carries 4 starts with a (3, T) Jacobian
# each, so the batch stays smaller than a Poisson chunk: 1024-row batches
# raised peak memory by about 3.5 MB at n=400.  Results do not depend on it.
_CHUNK = 256

# Levenberg-Marquardt: step cap; initial and least damping (the floor keeps
# the scaled normal equations well conditioned when two Jacobian columns are
# nearly parallel); the relative step and relative objective-decrease
# tolerances that mark a row converged.
_MAX_ITER = 200
_DAMPING0 = 1e-3
_DAMPING_MIN = 1e-10
_XTOL = 1e-10
_FTOL = 1e-15

# Zero-error fits are floored here before taking log10 for density plots.
MSE_FLOOR = 1e-12

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class WsbFit:
    """One item's WSB fit: fitness ``lam``, lognormal location ``mu``
    (log-years) and scale ``sigma``, with the fitted curves."""

    id: str
    lam: float
    mu: float
    sigma: float
    cumulative_fitted: np.ndarray
    annual_fitted: np.ndarray
    mse: float
    converged: bool
    objective: float
    # Always empty; kept because the benchmark's tracer (bench/tracer.py)
    # reads it from fit_wsb results.
    diagnostics: str = ""


class WsbArrays(NamedTuple):
    """Row-aligned WSB fits of an (n, T) count matrix (fields as in
    :class:`WsbFit`); ``objective`` is the winning start's least-squares
    objective on the cumulative curve."""

    lam: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray
    mse: np.ndarray
    converged: np.ndarray
    objective: np.ndarray


def normal_cdf(x):
    """Standard normal CDF via scipy's erf; exact to double precision.

    Accepts scalars or arrays; scalars come back as floats.
    """
    p = 0.5 * (1.0 + erf(np.asarray(x, dtype=float) / _SQRT2))
    return float(p) if p.ndim == 0 else p


def _curve(theta: np.ndarray, log_t: np.ndarray):
    """Per-row (lam, sigma, z, Phi(z)) for rows theta = (lam, mu, sigma),
    as (r, 1) columns and (r, T) matrices."""
    lam, mu, sigma = (theta[:, j, None] for j in range(3))
    z = (log_t[None, :] - mu) / sigma
    return lam, sigma, z, normal_cdf(z)


def wsb_curve(theta, log_t, m: float) -> np.ndarray:
    """Model cumulative counts C(t) = m * (exp(lam * Phi((ln t - mu) / sigma)) - 1).

    Row i of the (r, 3) array ``theta`` holds (lam, mu, sigma); ``log_t``
    holds the (T,) log times.  Returns the (r, T) curves.
    """
    lam, _, _, cdf = _curve(np.asarray(theta, dtype=float), np.asarray(log_t, dtype=float))
    return m * np.expm1(lam * cdf)


def _objective(theta: np.ndarray, log_t: np.ndarray, c_obs: np.ndarray, m: float) -> np.ndarray:
    """Row-wise least-squares objective sum_t (c_obs - C(t))^2 for rows
    theta (r, 3) against observed cumulative counts c_obs (r, T)."""
    res = wsb_curve(theta, log_t, m) - c_obs
    return np.einsum("rt,rt->r", res, res)


def _residual_jacobian(theta, log_t, c_obs, m):
    """Residuals C - c_obs (r, T) and their Jacobian (r, 3, T) in (lam, mu, sigma).

    With e = exp(lam * Phi(z)): dC/dlam = m e Phi(z),
    dC/dmu = -m e lam phi(z) / sigma and dC/dsigma = z * dC/dmu.
    """
    lam, sigma, z, cdf = _curve(theta, log_t)
    me = m * np.exp(lam * cdf)
    d_mu = -me * lam * _INV_SQRT_2PI * np.exp(-0.5 * z * z) / sigma
    res = m * np.expm1(lam * cdf) - c_obs
    return res, np.stack([me * cdf, d_mu, d_mu * z], axis=1)


def _multistart_points(total: int, m: float) -> list[np.ndarray]:
    lam0 = min(max(math.log1p(total / m), LAM_BOUNDS[0]), LAM_BOUNDS[1])
    return [
        np.array([lam0, mu0, s0])
        for mu0 in (math.log(2.0), math.log(8.0))
        for s0 in (0.5, 1.5)
    ]


def _projected_step(x, jtj, grad, damping):
    """Marquardt step solving (J'J + d diag(J'J)) s = -J'r row by row.

    The system is solved in the coordinates scaled by diag(J'J), where its
    matrix has a unit diagonal plus d.  A coordinate whose Jacobian column
    vanishes, or one on its box bound whose step points out of the box, is
    held for this step and the free coordinates are solved for alone, so
    the clip that follows cannot bend the free part of the step.
    """
    diag = np.einsum("rii->ri", jtj)
    held = diag < _TINY
    scale = np.sqrt(np.where(held, 1.0, diag))
    lhs = jtj / (scale[:, :, None] * scale[:, None, :]) + damping[:, None, None] * np.eye(3)
    rhs = -grad / scale

    def solve(held):
        free = ~held
        sub = lhs * free[:, :, None] * free[:, None, :] + np.eye(3) * held[:, :, None]
        return np.linalg.solve(sub, (rhs * free)[:, :, None])[:, :, 0] / scale

    step = solve(held)
    held |= ((x <= _LOWER) & (step < 0)) | ((x >= _UPPER) & (step > 0))
    return solve(held)


@dataclass(frozen=True)
class MinimizeResult:
    """Per-row outcome of :func:`minimize`: parameters ``x`` (r, 3),
    objective ``fun``, steps tried ``nit`` and ``success`` (r,); ``nfev``
    counts row evaluations of the objective over the whole batch."""

    x: np.ndarray
    fun: np.ndarray
    nit: np.ndarray
    success: np.ndarray
    nfev: int


def minimize(theta0, log_t, c_obs, m: float) -> MinimizeResult:
    """Least-squares WSB fit of every row by box-projected Levenberg-Marquardt.

    Row i starts at ``theta0[i]`` = (lam, mu, sigma), clipped to the box, and
    fits observed cumulative counts ``c_obs[i]`` at log times ``log_t``.
    Each iteration takes the Marquardt step (J'J + d diag(J'J)) s = -J'r
    from the analytic Jacobian, with coordinates on a bound held when the
    step points out of the box (see :func:`_projected_step`), then clips.
    A row accepts the step only if the objective stays finite and does not
    rise, dividing its damping d by 3; otherwise d grows tenfold.  A row
    converges, and is frozen, when the clipped step is below ``_XTOL``
    relative or an accepted step lowers the objective by at most ``_FTOL``
    relative; rows still moving after ``_MAX_ITER`` steps are unconverged.
    Every reduction is per row, so a row's result does not depend on the
    other rows of its batch.
    """
    x = np.clip(np.asarray(theta0, dtype=float), _LOWER, _UPPER)
    c_obs = np.asarray(c_obs, dtype=float)
    rows = len(x)
    f = _objective(x, log_t, c_obs, m)
    nfev = rows
    damping = np.full(rows, _DAMPING0)
    nit = np.zeros(rows, dtype=int)
    success = np.zeros(rows, dtype=bool)
    active = np.isfinite(f)
    for _ in range(_MAX_ITER):
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            break
        xa, fa, ca = x[idx], f[idx], c_obs[idx]
        res, jac = _residual_jacobian(xa, log_t, ca, m)
        step = _projected_step(
            xa,
            np.einsum("rit,rjt->rij", jac, jac),
            np.einsum("rit,rt->ri", jac, res),
            damping[idx],
        )
        trial = np.clip(xa + step, _LOWER, _UPPER)
        ft = _objective(trial, log_t, ca, m)
        nfev += idx.size
        nit[idx] += 1
        accept = np.isfinite(ft) & (ft <= fa)
        moved = np.abs(trial - xa).max(axis=1)
        done = (moved <= _XTOL * (1.0 + np.abs(xa).max(axis=1))) | (
            accept & (fa - ft <= _FTOL * fa)
        )
        x[idx[accept]] = trial[accept]
        f[idx[accept]] = ft[accept]
        damping[idx] = np.where(
            accept, np.maximum(damping[idx] / 3.0, _DAMPING_MIN), damping[idx] * 10.0
        )
        success[idx[done]] = True
        active[idx[done]] = False
    return MinimizeResult(x=x, fun=f, nit=nit, success=success, nfev=int(nfev))


def _fit_chunk(y: np.ndarray, m: float) -> WsbArrays:
    """Best-of-4-starts fits of the rows of a count matrix."""
    log_t = np.log(TimeGrid(y.shape[1]).points)
    starts = np.asarray([_multistart_points(total, m) for total in y.sum(axis=1)])
    n_starts = starts.shape[1]
    result = minimize(
        starts.reshape(-1, 3), log_t, np.repeat(np.cumsum(y, axis=1), n_starts, axis=0), m,
    )
    # argmin keeps the first start on ties.
    best = np.arange(len(y)) * n_starts + np.argmin(result.fun.reshape(-1, n_starts), axis=1)
    theta = result.x[best]
    annual = np.diff(wsb_curve(theta, log_t, m), prepend=0.0, axis=1)
    return WsbArrays(
        lam=theta[:, 0], mu=theta[:, 1], sigma=theta[:, 2],
        mse=np.mean((y - annual) ** 2, axis=1),
        converged=result.success[best], objective=result.fun[best],
    )


def fit_wsb_corpus(y, m: float = 30.0, jobs: int = 1) -> WsbArrays:
    """Least-squares WSB fits of every row of an (n, T) count matrix.

    Each row is fit from 4 starts, pairing mu in {ln 2, ln 8} with sigma in
    {0.5, 1.5}, with lam at ln(1 + total/m); the start with the lowest
    objective wins, and its annual curve gives the row's MSE.  All starts
    of up to ``_CHUNK`` rows are fit together by :func:`minimize`,
    and ``jobs`` threads map over these chunks; a fit does not depend on
    its chunk.  Rows with a total below 1 skip the solver and keep
    placeholder values rather than aborting the batch: lam 0, mu ln 2,
    sigma 1, MSE 0, unconverged, objective +inf.
    """
    from concurrent.futures import ThreadPoolExecutor

    if m <= 0:
        raise ConfigError(f"m must be positive, got {m}")
    y = np.asarray(y, dtype=float)
    if y.ndim != 2:
        raise DataError(f"WSB fits need an (n, T) count matrix, got shape {y.shape}")
    n = len(y)
    fit = WsbArrays(
        lam=np.zeros(n), mu=np.full(n, math.log(2.0)), sigma=np.ones(n), mse=np.zeros(n),
        converged=np.zeros(n, dtype=bool), objective=np.full(n, math.inf),
    )
    rows = np.nonzero(y.sum(axis=1) >= 1)[0]
    chunks = [rows[lo:lo + _CHUNK] for lo in range(0, len(rows), _CHUNK)]

    def run(chunk: np.ndarray) -> WsbArrays:
        return _fit_chunk(y[chunk], m)

    if jobs > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run, chunks))
    else:
        results = [run(chunk) for chunk in chunks]
    for chunk, part in zip(chunks, results):
        for column, values in zip(fit, part):
            column[chunk] = values
    return fit


def fit_wsb(traj: CountTrajectory, m: float = 30.0) -> WsbFit:
    """Least-squares WSB fit of one item: the one-item view of
    :func:`fit_wsb_corpus` (box-projected Levenberg-Marquardt, best of 4
    starts).  An item with no events is rejected."""
    if traj.total < 1:
        raise DataError(f"item {traj.id!r} has no events; WSB fit needs total >= 1")
    fit = fit_wsb_corpus([traj.counts], m=m)
    log_t = np.log(TimeGrid(len(traj.counts)).points)
    cumulative = wsb_curve(np.column_stack([fit.lam, fit.mu, fit.sigma]), log_t, m)[0]
    return WsbFit(
        id=traj.id, lam=float(fit.lam[0]), mu=float(fit.mu[0]), sigma=float(fit.sigma[0]),
        cumulative_fitted=cumulative, annual_fitted=np.diff(cumulative, prepend=0.0),
        mse=float(fit.mse[0]), converged=bool(fit.converged[0]),
        objective=float(fit.objective[0]),
    )


@dataclass(frozen=True)
class ComparisonTable:
    """Per-item log10 MSE pairs plus the two error densities."""

    log10_mse_wsb: np.ndarray
    log10_mse_fpca: np.ndarray
    kde_wsb: DensityEstimate
    kde_fpca: DensityEstimate

    @property
    def median_log10_mse_wsb(self) -> float:
        return float(np.median(self.log10_mse_wsb))

    @property
    def median_log10_mse_fpca(self) -> float:
        return float(np.median(self.log10_mse_fpca))


def compare_models(
    wsb_mse: Sequence[float],
    fpca_mse: Sequence[float],
    eval_points: int = 256,
) -> ComparisonTable:
    """Goodness-of-fit comparison on the shared log10 MSE scale.

    ``wsb_mse`` and ``fpca_mse`` are row-aligned per-item MSEs of the WSB
    and functional fits.  Zero MSEs are floored at 1e-12 before the log.
    The two kernel densities share one evaluation grid padded by four
    bandwidths past the pooled range.
    """
    if len(fpca_mse) != len(wsb_mse):
        raise DataError(f"{len(fpca_mse)} functional-fit MSEs for {len(wsb_mse)} WSB fits")
    if not len(wsb_mse):
        raise DataError("model comparison needs at least one item")
    lw = np.log10(np.maximum(wsb_mse, MSE_FLOOR))
    lf = np.log10(np.maximum(fpca_mse, MSE_FLOOR))
    pooled = np.concatenate([lw, lf])
    try:
        h = max(silverman_bandwidth(lw), silverman_bandwidth(lf))
    except NumericalError:
        h = 0.25  # degenerate spread; fixed fallback keeps the densities defined
    grid = kde_eval_grid(pooled, h, eval_points)
    return ComparisonTable(
        log10_mse_wsb=lw,
        log10_mse_fpca=lf,
        kde_wsb=gaussian_kde(lw, h, grid),
        kde_fpca=gaussian_kde(lf, h, grid),
    )
