"""WSB (Wang-Song-Barabasi) citation-model baseline.

Cumulative counts follow C(t) = m * (exp(lam * Phi((ln t - mu) / sigma)) - 1),
combining a fitness factor with lognormal aging; m is a fixed global
constant.  Parameters are fit per item by least squares on the cumulative
curve (stable and standard for this model), while the reported MSE is
computed on annual counts so comparisons against the functional Poisson
model share one error scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.optimize import minimize

from .data import CountTrajectory, TimeGrid, cumulative
from .errors import ConfigError, DataError, NumericalError
from .smoothing import DensityEstimate, gaussian_kde, kde_eval_grid

__all__ = [
    "WsbParams",
    "WsbFit",
    "WsbFitOptions",
    "normal_cdf",
    "wsb_cumulative",
    "wsb_annual",
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

# Zero-error fits are floored here before taking log10 for density plots.
MSE_FLOOR = 1e-12

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class WsbParams:
    """Fitness ``lam``, lognormal location ``mu`` (log-years), scale
    ``sigma``, and the fixed effective-prior constant ``m``."""

    lam: float
    mu: float
    sigma: float
    m: float = 30.0

    def __post_init__(self):
        if self.sigma <= 0:
            raise ConfigError(f"sigma must be positive, got {self.sigma}")
        if self.lam < 0:
            raise ConfigError(f"lam must be nonnegative, got {self.lam}")
        if self.m <= 0:
            raise ConfigError(f"m must be positive, got {self.m}")


@dataclass(frozen=True)
class WsbFit:
    id: str
    params: WsbParams
    cumulative_fitted: np.ndarray
    annual_fitted: np.ndarray
    mse: float
    converged: bool
    objective: float
    diagnostics: str = ""


@dataclass(frozen=True)
class WsbFitOptions:
    maxiter: int = 600
    xatol: float = 1e-6
    fatol: float = 1e-8


def normal_cdf(x):
    """Standard normal CDF via erf; exact to double precision.

    Accepts scalars or arrays; scalars come back as floats.
    """
    if np.ndim(x) == 0:
        return 0.5 * (1.0 + math.erf(float(x) / _SQRT2))
    from scipy.special import erf

    return 0.5 * (1.0 + erf(np.asarray(x, dtype=float) / _SQRT2))


def wsb_cumulative(t, p: WsbParams):
    """Model cumulative count C(t) = m * (exp(lam * Phi((ln t - mu)/sigma)) - 1)."""
    scalar = np.ndim(t) == 0
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise ConfigError("wsb_cumulative needs t > 0 (year-1 origin grid)")
    c = p.m * np.expm1(p.lam * normal_cdf((np.log(t) - p.mu) / p.sigma))
    return float(c) if scalar else c


def wsb_annual(p: WsbParams, grid: TimeGrid) -> np.ndarray:
    """Fitted annual counts: first differences of C with C(0+) = 0."""
    c = wsb_cumulative(grid.points, p)
    return np.diff(c, prepend=0.0)


def _objective(theta: np.ndarray, log_t: np.ndarray, c_obs: np.ndarray, m: float) -> float:
    lam, mu, sigma = theta
    fitted = m * np.expm1(lam * normal_cdf((log_t - mu) / sigma))
    return float(np.sum((c_obs - fitted) ** 2))


def _multistart_points(total: int, m: float) -> list[np.ndarray]:
    lam0 = min(max(math.log1p(total / m), LAM_BOUNDS[0]), LAM_BOUNDS[1])
    return [
        np.array([lam0, mu0, s0])
        for mu0 in (math.log(2.0), math.log(8.0))
        for s0 in (0.5, 1.5)
    ]


def fit_wsb(
    traj: CountTrajectory,
    m: float = 30.0,
    options: WsbFitOptions | None = None,
) -> WsbFit:
    """Least-squares WSB fit on the cumulative curve, best of 4 multistarts.

    Start points pair mu in {ln 2, ln 8} with sigma in {0.5, 1.5}; lam starts
    at ln(1 + total/m) each time.  Nelder-Mead with box clamping; starts
    with a non-finite objective are dropped, and if every start drops the
    fit is returned unconverged with diagnostics.
    """
    if traj.total < 1:
        raise DataError(f"item {traj.id!r} has no events; WSB fit needs total >= 1")
    if m <= 0:
        raise ConfigError(f"m must be positive, got {m}")
    opts = options or WsbFitOptions()
    grid = TimeGrid(len(traj.counts))
    y = np.asarray(traj.counts, dtype=float)
    c_obs = cumulative(traj).astype(float)
    log_t = np.log(grid.points)
    bounds = [LAM_BOUNDS, MU_BOUNDS, SIGMA_BOUNDS]

    best = None
    dropped = 0
    for x0 in _multistart_points(traj.total, m):
        f0 = _objective(x0, log_t, c_obs, m)
        if not math.isfinite(f0):
            dropped += 1
            continue
        res = minimize(
            _objective,
            x0,
            args=(log_t, c_obs, m),
            method="Nelder-Mead",
            bounds=bounds,
            options={"maxiter": opts.maxiter, "xatol": opts.xatol, "fatol": opts.fatol},
        )
        if not math.isfinite(res.fun):
            dropped += 1
            continue
        if best is None or res.fun < best.fun:
            best = res
    if best is None:
        params = WsbParams(lam=0.0, mu=math.log(2.0), sigma=1.0, m=m)
        return WsbFit(
            id=traj.id,
            params=params,
            cumulative_fitted=wsb_cumulative(grid.points, params),
            annual_fitted=wsb_annual(params, grid),
            mse=float(np.mean((y - wsb_annual(params, grid)) ** 2)),
            converged=False,
            objective=math.inf,
            diagnostics=f"all {dropped} starts dropped (non-finite objective)",
        )
    lam, mu, sigma = (float(v) for v in best.x)
    params = WsbParams(lam=lam, mu=mu, sigma=sigma, m=m)
    fitted_c = wsb_cumulative(grid.points, params)
    fitted_a = wsb_annual(params, grid)
    return WsbFit(
        id=traj.id,
        params=params,
        cumulative_fitted=fitted_c,
        annual_fitted=fitted_a,
        mse=float(np.mean((y - fitted_a) ** 2)),
        converged=bool(best.success),
        objective=float(best.fun),
        diagnostics=f"{dropped} starts dropped" if dropped else "",
    )


def fit_wsb_corpus(
    items: Sequence[CountTrajectory],
    m: float = 30.0,
    options: WsbFitOptions | None = None,
    jobs: int = 1,
) -> list[WsbFit]:
    """Per-item WSB fits in input order; items with zero totals are fit as
    unconverged placeholders rather than aborting the batch."""
    from concurrent.futures import ThreadPoolExecutor

    def one(traj: CountTrajectory) -> WsbFit:
        if traj.total < 1:
            params = WsbParams(lam=0.0, mu=math.log(2.0), sigma=1.0, m=m)
            grid = TimeGrid(len(traj.counts))
            return WsbFit(
                id=traj.id, params=params,
                cumulative_fitted=wsb_cumulative(grid.points, params),
                annual_fitted=wsb_annual(params, grid),
                mse=0.0, converged=False, objective=math.inf,
                diagnostics="all-zero trajectory",
            )
        return fit_wsb(traj, m=m, options=options)

    if jobs > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(one, items))
    return [one(it) for it in items]


@dataclass(frozen=True)
class ComparisonTable:
    """Per-item log10 MSE pairs plus the two error densities."""

    ids: tuple[str, ...]
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

    def rows(self) -> list[tuple[str, float, float]]:
        return [
            (i, float(w), float(f))
            for i, w, f in zip(self.ids, self.log10_mse_wsb, self.log10_mse_fpca)
        ]


def compare_models(
    ids: Sequence[str],
    fpca_mse: Sequence[float],
    wsb_fits: Sequence[WsbFit],
    eval_points: int = 256,
) -> ComparisonTable:
    """Goodness-of-fit comparison on the shared log10 MSE scale.

    ``ids`` and ``fpca_mse`` give each item's functional-fit MSE; the WSB
    fits must cover exactly the same ids.  Zero MSEs are floored at 1e-12
    before the log.  The two kernel densities share one evaluation grid
    padded by four bandwidths past the pooled range.
    """
    by_id_w = {f.id: f for f in wsb_fits}
    ids_f = list(ids)
    missing = sorted(set(ids_f) ^ set(by_id_w))
    if missing or not ids_f:
        raise DataError(
            "model comparison needs matching ids; symmetric difference: "
            f"{missing}"
        )
    if len(fpca_mse) != len(ids_f):
        raise DataError(f"{len(fpca_mse)} functional-fit MSEs for {len(ids_f)} ids")
    lw = np.log10(np.maximum([by_id_w[i].mse for i in ids_f], MSE_FLOOR))
    lf = np.log10(np.maximum(fpca_mse, MSE_FLOOR))
    pooled = np.concatenate([lw, lf])
    try:
        from .smoothing import silverman_bandwidth

        h = max(silverman_bandwidth(lw), silverman_bandwidth(lf))
    except NumericalError:
        h = 0.25  # degenerate spread; fixed fallback keeps the densities defined
    grid = kde_eval_grid(pooled, h, eval_points)
    return ComparisonTable(
        ids=tuple(ids_f),
        log10_mse_wsb=lw,
        log10_mse_fpca=lf,
        kde_wsb=gaussian_kde(lw, h, grid),
        kde_fpca=gaussian_kde(lf, h, grid),
    )
