"""Kernel smoothers: local quadratic regression and Gaussian KDE.

Local quadratic regression with a Gaussian kernel, evaluated at the data
points, provides the smoothed mean curve and, through the fitted slope, its
first derivative; the bandwidth is fixed or chosen by generalized
cross-validation over ``DEFAULT_BANDWIDTH_CANDIDATES``.  The KDE backs the
density comparisons of model errors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import TimeGrid
from .errors import ConfigError, NumericalError

__all__ = [
    "SmoothCurve",
    "DensityEstimate",
    "smooth_curve",
    "silverman_bandwidth",
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


def _local_quadratic(x: np.ndarray, h: float) -> np.ndarray:
    """Coefficient maps of the Gaussian-weighted local quadratic at each x.

    ``maps[i] @ y`` is the (value, slope, half curvature) of the weighted
    quadratic fit centered at x[i], so row 0 of each map is that point's
    row of the smoother matrix.
    """
    maps = np.empty((len(x), 3, len(x)))
    for i, x0 in enumerate(x):
        u = x - x0
        w = np.exp(-0.5 * (u / h) ** 2)
        if np.count_nonzero(w >= _WEIGHT_FLOOR * w.max()) < 3:
            raise NumericalError(
                f"singular local fit at eval point {x0}: fewer than 3 effective points"
            )
        design = np.vander(u, 3, increasing=True)
        wd = design * w[:, None]
        try:
            maps[i] = np.linalg.solve(design.T @ wd, wd.T)
        except np.linalg.LinAlgError:
            raise NumericalError(f"singular local fit at eval point {x0}") from None
    return maps


def smooth_curve(
    x, y, bandwidth: float | None = None
) -> tuple[np.ndarray, np.ndarray, float]:
    """Local quadratic regression of ``y`` on ``x``, evaluated at each x.

    At each x0 a quadratic is fit by weighted least squares with weights
    exp(-((x_i - x0)/h)^2 / 2); the value is its intercept and the slope its
    linear coefficient (a local quadratic has lower boundary bias for slopes
    than a local line).  Returns ``(values, slopes, h)``.

    ``bandwidth`` fixes h; None picks it from ``DEFAULT_BANDWIDTH_CANDIDATES``
    by GCV(h) = n * RSS(h) / (n - tr(S_h))^2, with S_h the smoother matrix
    on the data points.  Candidates whose local fits are singular (or whose
    trace reaches n) are skipped; near-ties resolve to the smaller h.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if bandwidth is not None:
        if bandwidth <= 0:
            raise ConfigError(f"bandwidth must be positive, got {bandwidth}")
        h = float(bandwidth)
        beta = _local_quadratic(x, h) @ y
    else:
        n = len(x)
        fits: list[tuple[float, float, np.ndarray]] = []
        for h in DEFAULT_BANDWIDTH_CANDIDATES:
            try:
                maps = _local_quadratic(x, h)
            except NumericalError:
                continue
            s = maps[:, 0]
            rss = float(np.sum((y - s @ y) ** 2))
            trace = float(np.trace(s))
            if n - trace <= 0:
                continue
            fits.append((h, n * rss / (n - trace) ** 2, maps @ y))
        if not fits:
            raise NumericalError("all candidate bandwidths produced singular fits")
        best = min(g for _, g, _ in fits)
        # Tie window absorbs float noise so e.g. exactly-linear data (RSS ~ 0
        # for every h) resolves to the smallest candidate.
        tol = max(1e-12, 1e-9 * abs(best))
        h, beta = next((h, beta) for h, g, beta in fits if g <= best + tol)
    return beta[:, 0], beta[:, 1], h


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
