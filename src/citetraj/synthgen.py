"""Synthetic corpora with known ground truth.

Items are drawn from the same model family the pipeline estimates: a mean
log-intensity curve plus scores along an orthonormal basis, with Poisson
observation noise.  Archetype mean shifts bend the intensity curves into
the canonical shapes (normal low/high, delayed, evergreen, flash), so
recovery of the basis, the scores, and the planted archetype partition is a
well-posed oracle for the whole pipeline.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .data import Corpus, TimeGrid
from .errors import ConfigError, DataError
from .fpca import LatentBasis
from .clustering import adjusted_rand_index

__all__ = [
    "Archetype",
    "MeanSpec",
    "GeneratorSpec",
    "TruthRecord",
    "RecoveryMetrics",
    "make_basis",
    "simulate_corpus",
    "recovery_report",
    "default_spec",
    "mean_curve",
]

# Upper guard on the log intensity; exp(20) annual events is already absurd
# for the intended count scales.
ETA_LIMIT = 20.0


@dataclass(frozen=True)
class MeanSpec:
    """Mean log-intensity curve: rise-peak-decay (``gamma``) or ``flat``.

    The default shape is ln(a * t^b * exp(-t/c) + d): a sharp early rise, a
    mid-grid peak, and slow decay, mimicking typical citation histories.
    The flat curve is ``level`` everywhere.
    """

    kind: str = "gamma"
    a: float = 2.0
    b: float = 1.5
    c: float = 8.0
    d: float = 0.5
    level: float = 0.0

    def __post_init__(self):
        if self.kind not in ("gamma", "flat"):
            raise ConfigError(f"unknown mean curve kind {self.kind!r}")


def mean_curve(spec: MeanSpec, grid: TimeGrid) -> np.ndarray:
    t = grid.points
    if spec.kind == "gamma":
        return np.log(spec.a * t**spec.b * np.exp(-t / spec.c) + spec.d)
    return np.full(grid.n_years, float(spec.level))


@dataclass(frozen=True)
class Archetype:
    """A named shape: mean shifts of the scores along the basis."""

    name: str
    weight: float
    shifts: tuple[float, ...]


@dataclass(frozen=True)
class GeneratorSpec:
    n_items: int = 2000
    n_years: int = 30
    mean: MeanSpec = field(default_factory=MeanSpec)
    basis_family: str = "poly"
    eigenvalues: tuple[float, ...] = (1.2, 0.7, 0.5, 0.4)
    archetypes: tuple[Archetype, ...] = ()
    seed: int = 0

    def __post_init__(self):
        if self.n_items < 1:
            raise ConfigError("need at least one item")
        if self.basis_family not in ("poly", "fourier"):
            raise ConfigError(f"unknown basis family {self.basis_family!r}")
        lam = np.asarray(self.eigenvalues, dtype=float)
        if np.any(lam < 0) or np.any(np.diff(lam) > 1e-12):
            raise ConfigError("eigenvalues must be nonnegative and descending")
        if not self.archetypes:
            object.__setattr__(
                self, "archetypes", (Archetype("single", 1.0, (0.0,) * len(lam)),)
            )
        w = sum(a.weight for a in self.archetypes)
        if abs(w - 1.0) > 1e-12:
            raise ConfigError(f"archetype weights must sum to 1, got {w}")
        for a in self.archetypes:
            if len(a.shifts) != len(lam):
                raise ConfigError(
                    f"archetype {a.name!r} has {len(a.shifts)} shifts for "
                    f"{len(lam)} eigenvalues"
                )

    @property
    def k(self) -> int:
        return len(self.eigenvalues)


def default_spec(n_items: int = 2000, seed: int = 0) -> GeneratorSpec:
    """Four-archetype default: normal-low, normal-high, delayed, evergreen.

    Shifts and weights were tuned in pilot runs so that the four intensity
    shapes survive projection onto the first four polynomial basis
    functions with margin (normals decline clearly faster than the
    evergreen tolerance, the delayed peak lands past year 15), the planted
    clusters are well separated in score space, and the between-archetype
    score covariance is diagonal to ~4e-3, keeping the population
    eigenfunctions aligned with the planted basis in descending order.
    """
    return GeneratorSpec(
        n_items=n_items,
        n_years=30,
        mean=MeanSpec(a=4.0, b=1.8, c=6.5, d=0.5),
        basis_family="poly",
        eigenvalues=(1.2, 0.9, 0.8, 0.7),
        archetypes=(
            Archetype("normal-low", 0.25, (-3.8, 0.0, -1.19, 0.0)),
            Archetype("normal-high", 0.25, (3.8, 0.0, -1.19, 0.0)),
            Archetype("delayed", 0.30, (0.0, 3.25, -4.0, 0.0)),
            Archetype("evergreen", 0.20, (0.0, 6.0, 0.0, 0.0)),
        ),
        seed=seed,
    )


def _raw_family(t: np.ndarray, k: int, family: str) -> np.ndarray:
    """Generating functions before orthonormalization, one per row."""
    big_t = float(len(t))
    rows = []
    if family == "poly":
        # Normalize the argument to [-1, 1]; spans the same nested spaces as
        # raw powers but keeps Gram-Schmidt well conditioned.
        s = (2.0 * t - (big_t + 1.0)) / (big_t - 1.0)
        for j in range(k):
            rows.append(s**j)
    else:
        rows.append(np.ones_like(t))
        harmonic = 1
        while len(rows) < k:
            rows.append(np.sin(2 * math.pi * harmonic * t / big_t))
            if len(rows) < k:
                rows.append(np.cos(2 * math.pi * harmonic * t / big_t))
            harmonic += 1
    return np.asarray(rows)


def make_basis(n_years: int, k: int, family: str = "poly") -> np.ndarray:
    """Orthonormal basis rows on the unit-spaced grid (sum phi^2 * 1 = 1).

    Modified Gram-Schmidt over the polynomial family {1, t, t^2, ...} or the
    Fourier family {1, sin(2 pi t/T), cos(2 pi t/T), sin(4 pi t/T), ...};
    deterministic, no sign normalization beyond the raw ordering.
    """
    if k > n_years:
        raise ConfigError(f"cannot build {k} orthonormal functions on {n_years} points")
    if k < 0:
        raise ConfigError("basis size must be nonnegative")
    grid = TimeGrid(n_years)
    raw = _raw_family(grid.points, k, family)
    phi = np.zeros((k, n_years))
    for i in range(k):
        v = raw[i].astype(float)
        for j in range(i):
            v = v - (v @ phi[j]) * phi[j]
        norm = math.sqrt(float(v @ v))
        if norm < 1e-10:
            raise ConfigError(
                f"family {family!r} degenerates at function {i} on this grid"
            )
        phi[i] = v / norm
    return phi


@dataclass(frozen=True)
class TruthRecord:
    """Ground truth saved next to a simulated corpus."""

    ids: tuple[str, ...]
    archetypes: tuple[str, ...]
    scores: np.ndarray
    mean: np.ndarray
    basis: np.ndarray
    eigenvalues: tuple[float, ...]
    seed: int

    def archetype_index(self) -> np.ndarray:
        names = sorted(set(self.archetypes))
        lookup = {n: i for i, n in enumerate(names)}
        return np.asarray([lookup[a] for a in self.archetypes])

    def to_json(self) -> str:
        return json.dumps(
            {
                "ids": list(self.ids),
                "archetypes": list(self.archetypes),
                "scores": self.scores.tolist(),
                "mean": self.mean.tolist(),
                "basis": self.basis.tolist(),
                "eigenvalues": list(self.eigenvalues),
                "seed": self.seed,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "TruthRecord":
        obj = json.loads(text)
        return cls(
            ids=tuple(obj["ids"]),
            archetypes=tuple(obj["archetypes"]),
            scores=np.asarray(obj["scores"], dtype=float),
            mean=np.asarray(obj["mean"], dtype=float),
            basis=np.asarray(obj["basis"], dtype=float),
            eigenvalues=tuple(obj["eigenvalues"]),
            seed=int(obj["seed"]),
        )


def simulate_corpus(spec: GeneratorSpec) -> tuple[Corpus, TruthRecord]:
    """Draw a corpus from the generator: archetype, scores, Poisson counts.

    Per item: pick an archetype by weight, draw scores from
    Normal(shift_k, eigenvalue_k), set the intensity exp(mean + scores . phi),
    and draw yearly Poisson counts.  A spec whose realized log intensity
    exceeds the guard is rejected outright.  Fixed seed implies a bitwise
    identical corpus.
    """
    grid = TimeGrid(spec.n_years)
    mu = mean_curve(spec.mean, grid)
    phi = make_basis(spec.n_years, spec.k, spec.basis_family)
    lam = np.asarray(spec.eigenvalues, dtype=float)
    sd = np.sqrt(lam)
    weights = np.asarray([a.weight for a in spec.archetypes])
    shifts = np.asarray([a.shifts for a in spec.archetypes], dtype=float)
    rng = np.random.default_rng(spec.seed)
    arch_idx = rng.choice(len(spec.archetypes), size=spec.n_items, p=weights)
    scores = shifts[arch_idx] + rng.standard_normal((spec.n_items, spec.k)) * sd
    eta = mu[None, :] + scores @ phi
    worst = float(eta.max()) if eta.size else 0.0
    if worst > ETA_LIMIT:
        raise ConfigError(
            f"spec rejected: realized log intensity {worst:.2f} exceeds the "
            f"guard {ETA_LIMIT}; shrink shifts, eigenvalues, or the mean curve"
        )
    counts = rng.poisson(np.exp(eta))
    width = len(str(spec.n_items))
    ids = tuple(f"s{i:0{width}d}" for i in range(spec.n_items))
    corpus = Corpus(grid, ids, counts, provenance=f"synthetic seed={spec.seed}")
    truth = TruthRecord(
        ids=ids,
        archetypes=tuple(spec.archetypes[a].name for a in arch_idx),
        scores=scores,
        mean=mu,
        basis=phi,
        eigenvalues=tuple(float(v) for v in lam),
        seed=spec.seed,
    )
    return corpus, truth


@dataclass(frozen=True)
class RecoveryMetrics:
    """How well estimation recovered the planted structure."""

    eigenfunction_rms: tuple[float, ...]
    eigenfunction_signs: tuple[int, ...]
    score_correlations: tuple[float, ...]
    ari: float | None


def recovery_report(
    truth: TruthRecord,
    basis: LatentBasis,
    scores=None,
    assignments=None,
) -> RecoveryMetrics:
    """Alignment of estimated basis/scores/partition against the truth.

    Per component k: RMS(estimated_phi_k - s * true_phi_k) minimized over
    the sign s, the same sign applied before correlating the estimated
    scores with the true scores, and (when assignments are given) the
    adjusted Rand index against the planted archetypes.  ``scores`` is an
    (n, K) matrix with one row per item in ``truth.ids`` order, such as
    ``FitArrays.scores`` or a model's stored scores.
    """
    k = min(basis.k, truth.basis.shape[0])
    rms = []
    signs = []
    for i in range(k):
        est = basis.eigenfunctions[i]
        tru = truth.basis[i]
        cands = [
            (float(np.sqrt(np.mean((est - s * tru) ** 2))), s) for s in (1, -1)
        ]
        best, s = min(cands)
        rms.append(best)
        signs.append(s)
    corr = []
    if scores is not None:
        est_scores = np.asarray(scores, dtype=float)
        if est_scores.ndim != 2 or len(est_scores) != len(truth.ids):
            raise DataError(
                f"score matrix of shape {est_scores.shape} for {len(truth.ids)} items"
            )
        for i in range(min(k, est_scores.shape[1])):
            t_scores = signs[i] * truth.scores[:, i]
            e = est_scores[:, i]
            denom = e.std() * t_scores.std()
            corr.append(
                float(np.mean((e - e.mean()) * (t_scores - t_scores.mean())) / denom)
                if denom > 0
                else 0.0
            )
    ari = None
    if assignments is not None:
        ari = adjusted_rand_index(truth.archetype_index(), np.asarray(assignments))
    return RecoveryMetrics(
        eigenfunction_rms=tuple(rms),
        eigenfunction_signs=tuple(signs),
        score_correlations=tuple(corr),
        ari=ari,
    )
