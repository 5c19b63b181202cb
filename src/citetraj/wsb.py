"""WSB (Wang-Song-Barabasi) citation-model baseline.

Cumulative counts follow C(t) = m * (exp(lam * Phi((ln t - mu) / sigma)) - 1),
combining a fitness factor with lognormal aging; m is a fixed global
constant.  Parameters are fit per item by least squares on the cumulative
curve (stable and standard for this model), while the reported MSE is
computed on annual counts so comparisons against the functional Poisson
model share one error scale.  The fits take an (n, T) count matrix and
return row-aligned columns (:class:`WsbArrays`), as the Poisson fits do.

Each row is fit from 4 start points by Levenberg-Marquardt with the
analytic Jacobian and steps projected onto the parameter box (Moré, 1978).
:func:`minimize` steps all starts in flight together, keeps at most
``_CHUNK`` of them in flight, and refills that set from the waiting starts
as others finish, so no start waits on a slow one and the solver's memory
does not grow with n.  A step evaluates the curve once, at the trial
points; an accepted trial's normal equations are built from that same
evaluation, and the 3 x 3 Marquardt systems are solved in closed form.
:func:`_curve` is the one statement of C(t): the fits' objective, Jacobian
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
# The box as (3, 1) columns, against the solver's (3, r) points.
_LOWER = np.array([[LAM_BOUNDS[0]], [MU_BOUNDS[0]], [SIGMA_BOUNDS[0]]])
_UPPER = np.array([[LAM_BOUNDS[1]], [MU_BOUNDS[1]], [SIGMA_BOUNDS[1]]])

# Starts the solver keeps in flight at once (256 items of 4 starts).  A
# step's temporaries are about a dozen (_CHUNK, T) arrays of 0.25 MB each at
# T = 30, so this budget, not n, sets the solver's working memory.  Results
# do not depend on it.
_CHUNK = 1024

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
# The (mu, sigma) pairs of every item's 4 starts.
_START_GRID = np.array([(mu0, s0) for mu0 in (math.log(2.0), math.log(8.0))
                        for s0 in (0.5, 1.5)])


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
    p = erf(np.asarray(x, dtype=float) / _SQRT2)
    p += 1.0
    p *= 0.5
    return float(p) if p.ndim == 0 else p


def _curve(lam, mu, sigma, log_t: np.ndarray, m: float):
    """Pieces of C(t) for r parameter sets given as (r,) arrays ``lam``,
    ``mu`` and ``sigma``: the (r, T) matrices z = (ln t - mu) / sigma,
    Phi(z) and C(t) itself."""
    z = log_t[None, :] - mu[:, None]
    z /= sigma[:, None]
    cdf = normal_cdf(z)
    curve = lam[:, None] * cdf
    np.expm1(curve, out=curve)
    curve *= m
    return z, cdf, curve


def wsb_curve(theta, log_t, m: float) -> np.ndarray:
    """Model cumulative counts C(t) = m * (exp(lam * Phi((ln t - mu) / sigma)) - 1).

    Row i of the (r, 3) array ``theta`` holds (lam, mu, sigma); ``log_t``
    holds the (T,) log times.  Returns the (r, T) curves.
    """
    theta = np.asarray(theta, dtype=float)
    return _curve(*theta.T, np.asarray(log_t, dtype=float), m)[2]


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row dot products of two (r, T) matrices."""
    return np.einsum("rt,rt->r", a, b)


def _objective(theta: np.ndarray, log_t: np.ndarray, c_obs: np.ndarray, m: float) -> np.ndarray:
    """Row-wise least-squares objective sum_t (c_obs - C(t))^2 for rows
    theta (r, 3) against observed cumulative counts c_obs (r, T)."""
    res = wsb_curve(theta, log_t, m) - c_obs
    return _rowdot(res, res)


def _evaluate(x, log_t, c_obs, m):
    """Curve pieces z, Phi(z) and C of :func:`_curve` at points x (3, r),
    their residuals and their objective against the observed rows
    ``c_obs`` (r, T), a copy that the residuals overwrite."""
    z, cdf, curve = _curve(*x, log_t, m)
    res = np.subtract(curve, c_obs, out=c_obs)
    return z, cdf, curve, res, _rowdot(res, res)


def _jacobian(lam, sigma, z, cdf, curve, m):
    """The (r, T) Jacobian columns dC/dlam, dC/dmu and dC/dsigma of r
    parameter sets, from their ``lam`` and ``sigma`` (r,) and the z, Phi(z)
    and C that :func:`_curve` returned for them.

    With m e = m exp(lam Phi(z)) = C + m: dC/dlam = m e Phi(z),
    dC/dmu = -m e lam phi(z) / sigma and dC/dsigma = z dC/dmu.
    """
    me = curve + m
    d_mu = np.square(z)
    d_mu *= -0.5
    np.exp(d_mu, out=d_mu)
    d_mu *= me
    d_mu *= (-lam * _INV_SQRT_2PI / sigma)[:, None]
    return np.multiply(me, cdf, out=me), d_mu, d_mu * z


def _normal_equations(cols, res):
    """J'J (3, 3, r) and J'r (3, r) of the Jacobian columns ``cols`` and
    residuals ``res``, all (r, T); each entry is a per-row dot product."""
    jtj = np.empty((3, 3, len(res)))
    for i in range(3):
        for j in range(i, 3):
            jtj[i, j] = jtj[j, i] = _rowdot(cols[i], cols[j])
    return jtj, np.stack([_rowdot(col, res) for col in cols])


def _multistart_points(total, m: float) -> np.ndarray:
    """Start points (..., 4, 3) for items with event totals ``total``: lam at
    ln(1 + total/m) within its bounds, paired with every (mu, sigma) in
    {ln 2, ln 8} x {0.5, 1.5}."""
    lam0 = np.clip(np.log1p(np.asarray(total, dtype=float) / m), *LAM_BOUNDS)
    starts = np.empty(lam0.shape + (len(_START_GRID), 3))
    starts[..., 0] = lam0[..., None]
    starts[..., 1:] = _START_GRID
    return starts


def _scaled_solve(jtj, jtr, w, dd):
    """Per-row solution s of (J'J + d diag(J'J)) s = -J'r in the scaled
    coordinates s = w * u, where the matrix has a unit diagonal plus d
    (``dd`` = 1 + d), by the closed-form LDL' factorization of that 3 x 3
    symmetric positive definite system.  A coordinate with ``w`` = 0 is held
    at 0 and the free coordinates solve their own subsystem."""
    c01 = jtj[0, 1] * (w[0] * w[1])
    c02 = jtj[0, 2] * (w[0] * w[2])
    c12 = jtj[1, 2] * (w[1] * w[2])
    b0, b1, b2 = -jtr * w
    l10, l20 = c01 / dd, c02 / dd
    d1 = dd - l10 * c01
    t = c12 - l20 * c01
    l21 = t / d1
    d2 = dd - l20 * c02 - l21 * t
    y1 = b1 - l10 * b0
    u2 = (b2 - l20 * b0 - l21 * y1) / d2
    u1 = y1 / d1 - l21 * u2
    u0 = (b0 - c01 * u1 - c02 * u2) / dd
    return np.stack([u0, u1, u2]) * w


def _marquardt_step(x, jtj, jtr, damping):
    """Marquardt steps (3, r) solving (J'J + d diag(J'J)) s = -J'r for r
    points x (3, r), given J'J (3, 3, r), J'r (3, r) and damping d (r,).

    The system is solved in the coordinates scaled by diag(J'J), where its
    matrix has a unit diagonal plus d.  A coordinate whose Jacobian column
    vanishes, or one on its box bound whose step points out of the box, is
    held for this step and the free coordinates are solved for alone, so
    the clip that follows cannot bend the free part of the step.  Only
    points whose held set grows are solved a second time.
    """
    diag = jtj[[0, 1, 2], [0, 1, 2]]
    held = diag < _TINY
    w = ~held / np.sqrt(np.where(held, 1.0, diag))
    dd = 1.0 + damping
    step = _scaled_solve(jtj, jtr, w, dd)
    # A held coordinate's step is exactly 0, so only free ones can leave the box.
    grown = ((x <= _LOWER) & (step < 0)) | ((x >= _UPPER) & (step > 0))
    again = grown.any(axis=0)
    if again.any():
        step[:, again] = _scaled_solve(jtj[..., again], jtr[:, again],
                                       np.where(grown[:, again], 0.0, w[:, again]), dd[again])
    return step


@dataclass(frozen=True)
class MinimizeResult:
    """Per-start outcome of :func:`minimize`: parameters ``x``, shaped as
    the starts, and objective ``fun``, steps tried ``nit`` and ``success``,
    one per start; ``nfev`` counts row evaluations of the objective over
    all starts."""

    x: np.ndarray
    fun: np.ndarray
    nit: np.ndarray
    success: np.ndarray
    nfev: int


class _Active(NamedTuple):
    """Starts in flight, indexed along the last axis: flat start index,
    point (3, r), objective, damping, steps taken, J'J (3, 3, r) and
    J'r (3, r) at the point."""

    ids: np.ndarray
    x: np.ndarray
    f: np.ndarray
    damping: np.ndarray
    steps: np.ndarray
    jtj: np.ndarray
    jtr: np.ndarray

    def select(self, rows) -> "_Active":
        return _Active(*(column[..., rows] for column in self))


def minimize(theta0, log_t, c_obs, m: float) -> MinimizeResult:
    """Least-squares WSB fit of every start by box-projected Levenberg-Marquardt.

    ``theta0`` holds (lam, mu, sigma) start points, either one per row of
    the observed cumulative counts ``c_obs`` (n, T), as an (n, 3) array, or
    s per row, as an (n, s, 3) array; each is clipped to the box and fits
    its row of ``c_obs`` at log times ``log_t``.  Each iteration takes the
    Marquardt step (J'J + d diag(J'J)) s = -J'r from the analytic Jacobian,
    with coordinates on a bound held when the step points out of the box
    (see :func:`_marquardt_step`), then clips.  A start accepts the step
    only if the objective stays finite and does not rise, dividing its
    damping d by 3; otherwise d grows tenfold.  A start converges when the
    clipped step is below ``_XTOL`` relative or an accepted step lowers
    the objective by at most ``_FTOL`` relative; starts still moving after
    ``_MAX_ITER`` steps are unconverged, and a start whose objective is not
    finite takes no step.

    At most ``_CHUNK`` starts are in flight at once: as starts finish, the
    set is refilled from those still waiting, so the steps' working memory
    is set by ``_CHUNK`` and not by the number of starts.  Each step evaluates the curve once, at the
    trial points; an accepted trial's Jacobian is built from that same
    evaluation.  Every reduction is per start, so a start's result does not
    depend on the others or on ``_CHUNK``.
    """
    theta0 = np.asarray(theta0, dtype=float)
    c_obs = np.asarray(c_obs, dtype=float)
    if theta0.ndim not in (2, 3) or theta0.shape[-1] != 3 or len(theta0) != len(c_obs):
        raise DataError(f"start points of shape {theta0.shape} do not fit "
                        f"{len(c_obs)} observed rows")
    per_row = 1 if theta0.ndim == 2 else theta0.shape[1]
    x = np.clip(theta0.reshape(-1, 3), _LOWER.T, _UPPER.T)
    starts = len(x)
    fun = np.empty(starts)
    nit = np.zeros(starts, dtype=int)
    success = np.zeros(starts, dtype=bool)
    nfev = 0
    active = _Active(np.empty(0, dtype=int), np.empty((3, 0)), np.empty(0), np.empty(0),
                     np.empty(0, dtype=int), np.empty((3, 3, 0)), np.empty((3, 0)))
    loaded = 0
    while True:
        take = min(_CHUNK - len(active.ids), starts - loaded)
        if take > 0:
            ids = np.arange(loaded, loaded + take)
            loaded += take
            z, cdf, curve, res, f = _evaluate(x[ids].T, log_t, c_obs[ids // per_row], m)
            fun[ids] = f
            nfev += take
            ok = np.isfinite(f)
            ids, x0 = ids[ok], x[ids[ok]].T
            cols = _jacobian(x0[0], x0[2], z[ok], cdf[ok], curve[ok], m)
            fresh = _Active(ids, x0, f[ok], np.full(len(ids), _DAMPING0),
                            np.zeros(len(ids), dtype=int), *_normal_equations(cols, res[ok]))
            active = _Active(*(np.concatenate(pair, axis=-1) for pair in zip(active, fresh)))
        if not len(active.ids):
            break
        ids, xa, fa, damping, steps, jtj, jtr = active
        trial = np.clip(xa + _marquardt_step(xa, jtj, jtr, damping), _LOWER, _UPPER)
        z, cdf, curve, res, ft = _evaluate(trial, log_t, c_obs[ids // per_row], m)
        nfev += len(ids)
        steps = steps + 1
        accept = np.isfinite(ft) & (ft <= fa)
        moved = np.abs(trial - xa).max(axis=0)
        done = (moved <= _XTOL * (1.0 + np.abs(xa).max(axis=0))) | (
            accept & (fa - ft <= _FTOL * fa)
        )
        xa = np.where(accept, trial, xa)
        fa = np.where(accept, ft, fa)
        damping = np.where(accept, np.maximum(damping / 3.0, _DAMPING_MIN), damping * 10.0)
        stop = done | (steps >= _MAX_ITER)
        jtj_t, jtr_t = _normal_equations(_jacobian(trial[0], trial[2], z, cdf, curve, m), res)
        jtj = np.where(accept, jtj_t, jtj)
        jtr = np.where(accept, jtr_t, jtr)
        active = _Active(ids, xa, fa, damping, steps, jtj, jtr)
        if stop.any():
            out = ids[stop]
            x[out], fun[out], nit[out], success[out] = (
                xa[:, stop].T, fa[stop], steps[stop], done[stop])
            active = active.select(~stop)
    shape = theta0.shape[:-1]
    return MinimizeResult(x=x.reshape(theta0.shape), fun=fun.reshape(shape),
                          nit=nit.reshape(shape), success=success.reshape(shape),
                          nfev=int(nfev))


def fit_wsb_corpus(y, m: float = 30.0, jobs: int = 1) -> WsbArrays:
    """Least-squares WSB fits of every row of an (n, T) count matrix.

    Each row is fit from 4 starts, pairing mu in {ln 2, ln 8} with sigma in
    {0.5, 1.5}, with lam at ln(1 + total/m); the start with the lowest
    objective wins (the first on ties), and its annual curve gives the
    row's MSE.  The rows are split into ``jobs`` shares, and each share's
    starts are fit by one :func:`minimize` call, on its own thread when
    ``jobs`` > 1; a fit does not depend on its share.  Rows with a total
    below 1 skip the solver and keep placeholder values rather than
    aborting the batch: lam 0, mu ln 2, sigma 1, MSE 0, unconverged,
    objective +inf.
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
    totals = y.sum(axis=1)
    rows = np.nonzero(totals >= 1)[0]
    shares = [share for share in np.array_split(rows, max(jobs, 1)) if len(share)]
    log_t = np.log(TimeGrid(y.shape[1]).points)

    def run(share: np.ndarray) -> None:
        result = minimize(_multistart_points(totals[share], m), log_t,
                          np.cumsum(y[share], axis=1), m)
        best = np.arange(len(share)), np.argmin(result.fun, axis=1)
        theta = result.x[best]
        fit.lam[share], fit.mu[share], fit.sigma[share] = theta.T
        fit.converged[share] = result.success[best]
        fit.objective[share] = result.fun[best]
        # The MSE's (rows, T) temporaries are bounded by the solver's budget.
        for lo in range(0, len(share), _CHUNK):
            block = share[lo:lo + _CHUNK]
            annual = np.diff(wsb_curve(theta[lo:lo + _CHUNK], log_t, m), prepend=0.0, axis=1)
            fit.mse[block] = np.mean((y[block] - annual) ** 2, axis=1)

    if len(shares) > 1:
        with ThreadPoolExecutor(max_workers=len(shares)) as pool:
            list(pool.map(run, shares))
    else:
        for share in shares:
            run(share)
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
