"""Kernel smoothers: local polynomial regression and Gaussian KDE.

Local polynomial regression with a Gaussian kernel provides the smoothed
mean curve and, through the fitted slope, its first derivative.  Bandwidth
is chosen by generalized cross-validation over a candidate grid.  The KDE
backs the density comparisons of model errors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import TimeGrid
from .errors import ConfigError, NumericalError

__all__ = [
    "SmoothCurve",
    "DensityEstimate",
    "local_poly_smooth",
    "gcv_bandwidth",
    "gaussian_kde",
    "kde_eval_grid",
    "DEFAULT_BANDWIDTH_CANDIDATES",
]

DEFAULT_BANDWIDTH_CANDIDATES = (1.0, 1.5, 2.0, 3.0, 4.0, 6.0)

# Local weights below this fraction of the peak weight do not count toward
# the effective support of a local fit.
_WEIGHT_FLOOR = 1e-12


@dataclass(frozen=True)
class SmoothCurve:
    """A smoothed curve and its first derivative on the yearly grid."""

    grid: TimeGrid
    values: np.ndarray
    derivative: np.ndarray
    bandwidth: float

    def __post_init__(self):
        if self.bandwidth <= 0:
            raise ConfigError(f"bandwidth must be positive, got {self.bandwidth}")
        if not (np.all(np.isfinite(self.values)) and np.all(np.isfinite(self.derivative))):
            raise NumericalError("smooth curve contains non-finite values")


@dataclass(frozen=True)
class DensityEstimate:
    """Kernel density values on an evaluation grid."""

    eval_points: np.ndarray
    densities: np.ndarray
    bandwidth: float

    def integral(self) -> float:
        """Trapezoid integral over the evaluation grid."""
        return float(np.trapezoid(self.densities, self.eval_points))


def _local_fit(x: np.ndarray, y: np.ndarray, x0: float, degree: int, h: float):
    """Weighted polynomial fit centered at ``x0``.

    Returns the coefficient vector beta where beta[0] is the fitted value at
    x0 and beta[1] the fitted slope, plus the equivalent-kernel row giving
    the fit as a linear combination of the observations.
    """
    u = x - x0
    w = np.exp(-0.5 * (u / h) ** 2)
    if np.count_nonzero(w >= _WEIGHT_FLOOR * w.max()) < degree + 1:
        raise NumericalError(
            f"singular local fit at eval point {x0}: fewer than {degree + 1} "
            "effective points"
        )
    design = np.vander(u, degree + 1, increasing=True)
    wd = design * w[:, None]
    gram = design.T @ wd
    try:
        coef_map = np.linalg.solve(gram, wd.T)
    except np.linalg.LinAlgError:
        raise NumericalError(f"singular local fit at eval point {x0}") from None
    beta = coef_map @ y
    return beta, coef_map[0]


def local_poly_smooth(
    x,
    y,
    degree: int,
    bandwidth: float,
    eval_points,
) -> tuple[np.ndarray, np.ndarray]:
    """Local polynomial regression with Gaussian kernel weights.

    At each evaluation point x0 a degree-``degree`` polynomial is fit by
    weighted least squares with weights exp(-((x_i - x0)/h)^2 / 2); the
    returned value is the intercept and the derivative the linear
    coefficient.  Degree 2 is preferred when the derivative matters since
    local quadratics have lower boundary bias for slopes.
    """
    if degree not in (1, 2):
        raise ConfigError(f"degree must be 1 or 2, got {degree}")
    if bandwidth <= 0:
        raise ConfigError(f"bandwidth must be positive, got {bandwidth}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    eval_points = np.asarray(eval_points, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ConfigError("x and y must be 1-d arrays of equal length")
    if len(x) < degree + 1:
        raise ConfigError(f"need at least {degree + 1} points for degree {degree}")
    values = np.empty(len(eval_points))
    deriv = np.empty(len(eval_points))
    for i, x0 in enumerate(eval_points):
        beta, _ = _local_fit(x, y, float(x0), degree, bandwidth)
        values[i] = beta[0]
        deriv[i] = beta[1]
    return values, deriv


def _smoother_matrix(x: np.ndarray, y: np.ndarray, degree: int, h: float) -> np.ndarray:
    """Rows of the linear smoother evaluated at the data points themselves."""
    rows = np.empty((len(x), len(x)))
    for i, x0 in enumerate(x):
        _, row = _local_fit(x, y, float(x0), degree, h)
        rows[i] = row
    return rows


def gcv_bandwidth(x, y, degree: int, candidates) -> float:
    """Pick the candidate bandwidth minimizing the GCV score.

    GCV(h) = n * RSS(h) / (n - tr(S_h))^2 with S_h the smoother matrix on
    the data points.  Candidates whose local fits are singular (or whose
    trace reaches n) are skipped; near-ties resolve to the smaller h.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    candidates = sorted(float(h) for h in candidates)
    if len(candidates) < 1:
        raise ConfigError("need at least one candidate bandwidth")
    n = len(x)
    scores: list[tuple[float, float]] = []
    for h in candidates:
        try:
            s = _smoother_matrix(x, y, degree, h)
        except NumericalError:
            continue
        fitted = s @ y
        rss = float(np.sum((y - fitted) ** 2))
        trace = float(np.trace(s))
        if n - trace <= 0:
            continue
        scores.append((h, n * rss / (n - trace) ** 2))
    if not scores:
        raise NumericalError("all candidate bandwidths produced singular fits")
    best = min(g for _, g in scores)
    # Tie window absorbs float noise so e.g. exactly-linear data (RSS ~ 0 for
    # every h) resolves to the smallest candidate.
    tol = max(1e-12, 1e-9 * abs(best))
    for h, g in scores:  # candidates sorted ascending
        if g <= best + tol:
            return h
    raise AssertionError("unreachable")


def silverman_bandwidth(samples: np.ndarray) -> float:
    """Rule-of-thumb bandwidth 0.9 * min(sd, IQR/1.34) * n^(-1/5)."""
    n = len(samples)
    if n < 2:
        raise NumericalError(
            "silverman rule needs at least 2 samples; pass a fixed bandwidth"
        )
    sd = float(np.std(samples, ddof=1))
    q75, q25 = np.percentile(samples, [75, 25])
    iqr = float(q75 - q25)
    h = 0.9 * min(sd, iqr / 1.34) * n ** (-1 / 5)
    if h <= 0:
        raise NumericalError(
            "samples have zero spread; silverman rule degenerates, pass a "
            "fixed bandwidth"
        )
    return h


def gaussian_kde(samples, bandwidth: float, eval_points) -> DensityEstimate:
    """Gaussian kernel density estimate at the given evaluation points, with
    a positive ``bandwidth`` (see :func:`silverman_bandwidth` for a rule)."""
    samples = np.asarray(samples, dtype=float)
    eval_points = np.asarray(eval_points, dtype=float)
    if samples.size == 0:
        raise ConfigError("need at least one sample")
    h = float(bandwidth)
    if h <= 0:
        raise ConfigError(f"bandwidth must be positive, got {h}")
    u = (eval_points[:, None] - samples[None, :]) / h
    dens = np.exp(-0.5 * u * u).sum(axis=1) / (len(samples) * h * np.sqrt(2 * np.pi))
    return DensityEstimate(eval_points=eval_points, densities=dens, bandwidth=h)


def kde_eval_grid(samples, h: float, n_points: int = 256) -> np.ndarray:
    """Evaluation grid padded by 4 bandwidths past the sample range."""
    samples = np.asarray(samples, dtype=float)
    lo = samples.min() - 4 * h
    hi = samples.max() + 4 * h
    return np.linspace(lo, hi, n_points)
