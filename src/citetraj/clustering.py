"""Clustering in score space plus shape-based labeling.

Three clustering families cover the robustness comparison: k-means
(k-means++ seeding, Lloyd iterations, best of restarts), PAM k-medoids
(build + swap under squared Euclidean cost; the swap is FastPAM1 of Schubert
& Rousseeuw 2019, which makes PAM's swaps), and Ward agglomeration on scipy's
``linkage``, kept as flat partitions only.  ``kmedoids`` and ``ward`` take a
list of K and share work between them: one n x n distance matrix and one
greedy BUILD (which is nested in K) for all k-medoids cells, one Ward tree
cut at every K.
k-medoids keeps that one matrix, as Ward's linkage keeps its condensed one;
it and the silhouette read distances ``_BLOCK`` rows at a time, so their
other temporaries are O(n * _BLOCK).  Cluster centroids are mapped back to
intensity curves through the latent basis and labeled by shape: evergreen
(no yearly decline beyond tolerance), delayed (late peak), or normal split
into high and low levels.  ``cluster_and_label`` is the one call that
clusters: any of ``METHODS`` by name, at a list of K, then labels; the
pipeline, the ``cluster`` command and both sensitivity sweeps go through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np
from scipy.cluster.hierarchy import fcluster, linkage
from scipy.spatial.distance import cdist

from .errors import ConfigError, DataError, NumericalError
from .fpca import LatentBasis
from .poisson import TrajectoryFit

__all__ = [
    "ClusterModel",
    "METHODS",
    "EVERGREEN_TOL",
    "cluster_and_label",
    "kmeans",
    "kmedoids",
    "ward",
    "label_clusters",
    "classify_item",
    "classify_items",
    "robustness_sweep",
    "adjusted_rand_index",
    "silhouette_mean",
    "CLUSTER_LABELS",
    "ITEM_LABELS",
]

CLUSTER_LABELS = ("evergreen", "delayed", "normal-low", "normal-high")
ITEM_LABELS = ("evergreen", "flash-in-the-pan", "delayed document", "normal document")
METHODS = ("kmeans", "kmedoids", "ward")

_MAX_LLOYD_ITER = 300
# Rows of an n x n distance matrix that ``kmedoids`` and ``silhouette_mean``
# handle at a time, so their temporaries are O(n * _BLOCK) doubles.
_BLOCK = 32

# Shape rules.  ``EVERGREEN_TOL`` is the default per-step decline tolerated
# as a fraction of the curve maximum; a perfectly flat curve therefore counts
# as evergreen (no decline).  ``_DELAYED_FRAC`` places the late-peak cutoff
# at T/2; flash-in-the-pan needs a peak within T/6 (``_FLASH_PEAK_FRAC``) and
# an endpoint below 20% of the peak (``_FLASH_END_FRAC``).
EVERGREEN_TOL = 0.05
_DELAYED_FRAC = 0.5
_FLASH_PEAK_FRAC = 1.0 / 6.0
_FLASH_END_FRAC = 0.2


@dataclass(frozen=True)
class ClusterModel:
    """A fitted clustering: centroids in score space plus assignments.

    ``within_ss`` is the summed squared Euclidean distance of points to
    their cluster's ``centroids`` row (for k-medoids the medoid points).
    ``details`` carries method diagnostics: per-iteration within_ss history
    for the winning k-means restart or the medoid indices; Ward has none.
    """

    method: str
    k: int
    centroids: np.ndarray
    assignments: np.ndarray
    within_ss: float
    seed: int
    labels: tuple[str, ...] | None = None
    details: dict = field(default_factory=dict)


def _check_points(points, ks: Sequence[int]) -> np.ndarray:
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ConfigError(f"points must be 2-d, got shape {points.shape}")
    if not np.all(np.isfinite(points)):
        raise DataError("points contain non-finite values")
    if min(ks) < 1:
        raise ConfigError(f"need K >= 1, got {min(ks)}")
    if len(points) < max(ks):
        raise ConfigError(f"cannot form {max(ks)} clusters from {len(points)} points")
    return points


def _sq_dists(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    return cdist(points, centers, "sqeuclidean")


def _within_ss(points, centers, assign) -> float:
    diff = points - centers[assign]
    return float(np.einsum("nd,nd->", diff, diff))


def _kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = len(points)
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[int(rng.integers(n))]
    d2 = _sq_dists(points, centers[:1])[:, 0]
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            pick = int(rng.integers(n))
        else:
            pick = int(rng.choice(n, p=d2 / total))
        centers[j] = points[pick]
        d2 = np.minimum(d2, _sq_dists(points, centers[j : j + 1])[:, 0])
    return centers


def _lloyd(points: np.ndarray, centers: np.ndarray):
    """Lloyd iterations until stable assignments; returns history too."""
    n, k = len(points), len(centers)
    prev = None
    history = []
    for _ in range(_MAX_LLOYD_ITER):
        d2 = _sq_dists(points, centers)
        assign = np.argmin(d2, axis=1)
        history.append(float(d2[np.arange(n), assign].sum()))
        if prev is not None and np.array_equal(assign, prev):
            # The centers did not move since d2, so this is the final state.
            return centers, assign, history[-1], history
        prev = assign
        # Each cluster's member sums in numpy's own order for a mean over
        # rows: row by row for d > 1 (as bincount adds), pairwise for d = 1.
        sizes = np.bincount(assign, minlength=k)
        if points.shape[1] > 1:
            sums = np.column_stack([np.bincount(assign, weights=col, minlength=k)
                                    for col in points.T])
        else:
            sums = np.array([[points[assign == j, 0].sum()] for j in range(k)])
        full = sizes > 0
        centers[full] = sums[full] / sizes[full, None]
        empties = np.flatnonzero(~full)
        if empties.size:
            # Re-seed each empty centroid at the point currently farthest
            # from its assigned centroid (one point per empty cluster).
            used = np.zeros(n, dtype=bool)
            gaps = d2[np.arange(n), assign].copy()
            for j in empties:
                gaps[used] = -np.inf
                far = int(np.argmax(gaps))
                centers[j] = points[far]
                used[far] = True
    d2 = _sq_dists(points, centers)
    assign = np.argmin(d2, axis=1)
    ss = float(d2[np.arange(n), assign].sum())
    return centers, assign, ss, history


def kmeans(points, k: int, seed: int = 0, restarts: int = 10) -> ClusterModel:
    """Best-of-restarts k-means with k-means++ seeding.

    Restart r draws from ``numpy.random.default_rng((seed, r))``, so a
    single user seed expands to per-restart streams by that counter scheme
    and results are exactly reproducible.  Ties between restarts go to the
    lower restart index.
    """
    points = _check_points(points, (k,))
    if restarts < 1:
        raise ConfigError(f"need at least 1 restart, got {restarts}")
    best = None
    for r in range(restarts):
        rng = np.random.default_rng((seed, r))
        centers = _kmeans_pp_init(points, k, rng)
        centers, assign, ss, history = _lloyd(points, centers.copy())
        if best is None or ss < best[0]:
            best = (ss, centers, assign, history, r)
    ss, centers, assign, history, r = best
    return ClusterModel(
        method="kmeans", k=k, centroids=centers, assignments=assign,
        within_ss=ss, seed=seed,
        details={"history": history, "restart": r, "restarts": restarts},
    )


def _blocks(n: int) -> list[slice]:
    """Consecutive slices of at most ``_BLOCK`` rows covering ``range(n)``."""
    return [slice(s, min(s + _BLOCK, n)) for s in range(0, n, _BLOCK)]


def _pam_build(d: np.ndarray, k: int) -> list[int]:
    """PAM's greedy BUILD: the 1-medoid optimum, then the medoid of largest
    gain, k picks in pick order.  Each pick depends only on the earlier
    ones, so the BUILD for K is the first K picks of any longer BUILD."""
    n = len(d)
    medoids = [int(np.argmin(d.sum(axis=1)))]
    nearest = d[medoids[0]].copy()
    gains = np.empty(n)
    while len(medoids) < k:
        for b in _blocks(n):
            gains[b] = np.maximum(nearest - d[b], 0.0).sum(axis=1)
        gains[medoids] = -np.inf
        pick = int(np.argmax(gains))
        medoids.append(pick)
        nearest = np.minimum(nearest, d[pick])
    return medoids


def _pam_swap(d: np.ndarray, medoids: list[int]) -> list[int]:
    """PAM's SWAP from ``medoids`` while the cost strictly drops (FastPAM1)."""
    n, k = len(d), len(medoids)
    medoids = sorted(medoids)
    costs = np.empty((n, k))
    while n > k:
        dm = d[:, medoids]
        order = np.argsort(dm, axis=1, kind="stable")
        d1 = dm[np.arange(n), order[:, 0]]
        d2 = dm[np.arange(n), order[:, 1]] if k > 1 else np.full(n, np.inf)
        # Column p sums a candidate's row over the points nearest position p.
        onehot = np.eye(k)[order[:, 0]]
        for b in _blocks(n):
            near = np.minimum(d[b], d1)
            far = np.minimum(d[b], d2)
            far -= near
            costs[b] = near.sum(axis=1)[:, None] + far @ onehot
        costs[medoids] = np.inf
        best_cost, best_swap = float(d1.sum()), None
        for pos in range(k):
            h = int(np.argmin(costs[:, pos]))
            if costs[h, pos] < best_cost - 1e-12:
                best_cost, best_swap = float(costs[h, pos]), (pos, h)
        if best_swap is None:
            break
        medoids[best_swap[0]] = best_swap[1]
        medoids = sorted(medoids)
    return medoids


def kmedoids(points, ks: Iterable[int]) -> dict[int, ClusterModel]:
    """PAM (build + swap) k-medoids under squared Euclidean cost, per K in ``ks``.

    Each swap pass scores every (medoid, candidate) pair at once with
    FastPAM1 (Schubert & Rousseeuw, "Faster k-Medoids Clustering", SISAP
    2019 / Information Systems 2021).  With d1, d2 each point's distances to
    its nearest and second-nearest medoid, swapping medoid m for x costs
    sum_o min(d[o, x], d1[o]) plus, over the points o nearest to m,
    min(d[o, x], d2[o]) - min(d[o, x], d1[o]); those per-medoid sums are one
    product of each block of rows with the one-hot nearest-medoid matrix, so
    a pass is O(n^2) rather than PAM's O(k n^2).  Like PAM (Kaufman &
    Rousseeuw 1990), build adds the medoid of largest gain and each pass
    applies the best strict improvement, ties to the first medoid position
    and then the smallest candidate index, so in exact arithmetic (e.g.
    integer points) the medoids are PAM's.  On other data, swaps that tie
    exactly can be ordered differently by rounding.  BUILD adds one medoid at a time, so one BUILD to max(ks)
    serves every K: each K swaps from its first K picks, and its model is
    the one a call with ``(k,)`` gives.  Memory is the one n x n distance
    matrix, freed on return, plus O(n * _BLOCK).
    """
    ks = sorted({int(k) for k in ks})
    if not ks:
        return {}
    points = _check_points(points, ks)
    # Exactly symmetric (each pair is summed in the same order both ways),
    # so row x holds the distances to candidate x: blocks are whole rows.
    d = _sq_dists(points, points)
    build = _pam_build(d, ks[-1])
    models = {}
    for k in ks:
        med_arr = np.asarray(_pam_swap(d, build[:k]))
        assign = np.argmin(d[:, med_arr], axis=1)
        centroids = points[med_arr]
        models[k] = ClusterModel(
            method="kmedoids", k=k, centroids=centroids, assignments=assign,
            within_ss=_within_ss(points, centroids, assign), seed=0,
            details={"medoid_indices": [int(m) for m in med_arr]},
        )
    return models


def ward(points, ks: Iterable[int]) -> dict[int, ClusterModel]:
    """Agglomerative clustering with Ward linkage, cut at each K in ``ks``.

    The hierarchy is scipy's ``linkage(points, "ward")``: Lance-Williams
    merges from pairwise squared Euclidean distances.  It is built once and
    cut at every K: the K clusters are those left after its first n - K
    merges, numbered by smallest member.  ``details`` is empty.
    """
    ks = sorted({int(k) for k in ks})
    if not ks:
        return {}
    points = _check_points(points, ks)
    n = len(points)
    assigns = {k: np.zeros(n, dtype=int) for k in ks}
    if n > 1:
        z = linkage(points, "ward")
        # Row r's monocrit is r, so the flat clusters for K are the subtrees
        # formed by rows 0 .. n-K-1.
        monocrit = np.arange(n - 1.0)
        for k in ks:
            flat = fcluster(z, n - k - 1, criterion="monocrit", monocrit=monocrit)
            _, first, inv = np.unique(flat, return_index=True, return_inverse=True)
            assigns[k] = np.argsort(np.argsort(first))[inv]
    models = {}
    for k in ks:
        assign = assigns[k]
        centroids = np.stack([points[assign == j].mean(axis=0) for j in range(k)])
        models[k] = ClusterModel(
            method="ward", k=k, centroids=centroids, assignments=assign,
            within_ss=_within_ss(points, centroids, assign), seed=0,
        )
    return models


def _standardized(scores: np.ndarray, basis: LatentBasis | None, standardize: bool):
    if not standardize:
        return scores
    if np.any(basis.eigenvalues <= 0):
        raise NumericalError("cannot standardize: basis has zero eigenvalues")
    return scores / np.sqrt(basis.eigenvalues)


def cluster_and_label(method: str, scores, ks: Iterable[int], basis: LatentBasis | None,
                      seed: int = 0, restarts: int = 10, standardize: bool = False,
                      evergreen_tol: float = EVERGREEN_TOL) -> dict[int, ClusterModel]:
    """Cluster per-item scores with ``method`` (one of ``METHODS``) at each K
    in ``ks`` and label each cluster by its shape; ``{k: ClusterModel}`` for
    the sorted, de-duplicated K.

    Each K's model is the one a call with ``(k,)`` gives: k-means runs per
    K, k-medoids and Ward share their matrix, BUILD or tree across K.  A
    k-medoids model echoes ``seed``; Ward has none and stores 0.
    ``standardize`` clusters the scores divided by the square root of each
    basis eigenvalue; the centroids stay in that space.  Labels come from
    raw-score centroids, the mean scores of each cluster's members (an
    empty cluster maps its centroid back), with ``evergreen_tol`` as in
    :func:`label_clusters`.  Without a basis, no labels.
    """
    scores = np.asarray(scores, dtype=float)
    points = _standardized(scores, basis, standardize)
    ks = sorted({int(k) for k in ks})
    if method == "kmeans":
        models = {k: kmeans(points, k, seed=seed, restarts=restarts) for k in ks}
    elif method == "kmedoids":
        models = {k: replace(m, seed=seed) for k, m in kmedoids(points, ks).items()}
    elif method == "ward":
        models = ward(points, ks)
    else:
        raise ConfigError(f"unknown clustering methods: {[method]}")
    if basis is None:
        return models
    scale = np.sqrt(basis.eigenvalues) if standardize else 1.0
    for k, model in models.items():
        raw = model.centroids * scale
        for j in np.unique(model.assignments):
            raw[j] = scores[model.assignments == j].mean(axis=0)
        models[k] = replace(model, labels=label_clusters(raw, basis, evergreen_tol))
    return models


def _evergreen(curves: np.ndarray, rel_tol: float) -> np.ndarray:
    """Rows of (n, T) curves that never drop by more than rel_tol * max."""
    eps = rel_tol * curves.max(axis=1)
    return np.all(np.diff(curves, axis=1) >= -eps[:, None], axis=1)


def label_clusters(centroids, basis: LatentBasis,
                   evergreen_tol: float = EVERGREEN_TOL) -> tuple[str, ...]:
    """Shape labels for each row of ``centroids`` (scores in the basis's
    raw space), applied in rule order.

    (1) evergreen when the centroid intensity never drops between
    consecutive years by more than ``evergreen_tol`` times its maximum;
    (2) delayed when the peak year is past T/2; (3) otherwise normal, split
    into high/low by whether the curve's mean level exceeds the median of
    the normal clusters' means.
    """
    cents = np.asarray(centroids, dtype=float)
    if cents.shape[1] != basis.k:
        raise ConfigError(
            f"centroid dimension {cents.shape[1]} does not match basis K={basis.k}"
        )
    curves = np.exp(basis.eta(cents))
    evergreen = _evergreen(curves, evergreen_tol)
    peak_year = basis.grid.points[np.argmax(curves, axis=1)]
    delayed = ~evergreen & (peak_year > _DELAYED_FRAC * basis.grid.n_years)
    level = curves.mean(axis=1)
    normal = ~evergreen & ~delayed
    med = float(np.median(level[normal])) if normal.any() else 0.0
    return tuple(
        "evergreen" if e else "delayed" if d else "normal-high" if m > med else "normal-low"
        for e, d, m in zip(evergreen, delayed, level)
    )


def classify_items(intensity, evergreen_tol: float = EVERGREEN_TOL) -> list[str]:
    """Item-level taxonomy for each row of an (n, T) fitted intensity matrix.

    Evergreen (no yearly decline beyond ``evergreen_tol`` times the maximum)
    takes precedence, then flash-in-the-pan (early peak, endpoint below a
    fraction of the peak), then delayed document (late peak), else normal
    document.
    """
    curves = np.asarray(intensity, dtype=float)
    t = curves.shape[1]
    peak_year = np.argmax(curves, axis=1) + 1
    early_fall = curves[:, -1] < _FLASH_END_FRAC * curves.max(axis=1)
    rule = np.select([_evergreen(curves, evergreen_tol),
                      (peak_year <= _FLASH_PEAK_FRAC * t) & early_fall,
                      peak_year > _DELAYED_FRAC * t], [0, 1, 2], default=3)
    return [ITEM_LABELS[r] for r in rule]


def classify_item(fit: TrajectoryFit, evergreen_tol: float = EVERGREEN_TOL) -> str:
    """One item's label: :func:`classify_items` on its fitted intensity."""
    return classify_items(np.asarray(fit.intensity, dtype=float)[None, :], evergreen_tol)[0]


def adjusted_rand_index(a, b) -> float:
    """Chance-corrected agreement between two partitions of the same items."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ConfigError("partitions must label the same items")
    n = len(a)
    if n == 0:
        raise ConfigError("empty partitions")
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1))
    np.add.at(table, (ai, bi), 1)

    def comb2(x):
        return x * (x - 1) / 2.0

    sum_ij = comb2(table).sum()
    sum_a = comb2(table.sum(axis=1)).sum()
    sum_b = comb2(table.sum(axis=0)).sum()
    total = comb2(n)
    expected = sum_a * sum_b / total if total else 0.0
    max_index = 0.5 * (sum_a + sum_b)
    if max_index == expected:
        return 1.0
    return float((sum_ij - expected) / (max_index - expected))


def silhouette_mean(points, assignments) -> float:
    """Mean silhouette coefficient with Euclidean distances.

    Singleton clusters contribute 0 for their point; K=1 is undefined and
    raises.
    """
    labels, own = np.unique(assignments, return_inverse=True)
    if len(labels) < 2:
        raise ConfigError("silhouette needs at least 2 clusters")
    n = len(points)
    rows = np.arange(n)
    # Summed distance from each point to every cluster, one block of rows
    # (a matmul of its distances with the one-hot labels) at a time.
    onehot = np.eye(len(labels))[own]
    sums = np.empty((n, len(labels)))
    for b in _blocks(n):
        sums[b] = cdist(points[b], points) @ onehot
    sizes = np.bincount(own)
    a = sums[rows, own] / np.maximum(sizes[own] - 1, 1)
    means = sums / sizes
    means[rows, own] = np.inf
    b = means.min(axis=1)
    # A singleton's silhouette is 0.
    scores = np.divide(b - a, np.maximum(a, b), out=np.zeros(n), where=sizes[own] > 1)
    return float(scores.mean())


def robustness_sweep(
    scores,
    k_values: Iterable[int],
    methods: Sequence[str],
    seed: int = 0,
    restarts: int = 10,
    basis: LatentBasis | None = None,
    evergreen_tol: float = EVERGREEN_TOL,
    standardize: bool = False,
) -> tuple[dict, dict[tuple[str, int], ClusterModel]]:
    """Run every (K, method) cell and summarize agreement between methods.

    Returns the report and the models keyed by (method, K).  A method named
    twice runs once, at its first place in ``methods``.  Each method is
    one :func:`cluster_and_label` call over every K (arguments as there), so
    Ward builds one tree and cuts it at every K, and k-medoids builds one
    distance matrix and one BUILD to the largest K and frees the matrix
    before the next method runs.  Each cell reports within_ss, mean
    silhouette, cluster sizes, and (when a basis is supplied) shape labels;
    for each K the pairwise adjusted Rand index between methods quantifies
    robustness of the partition.
    """
    scores = np.asarray(scores, dtype=float)
    points = _standardized(scores, basis, standardize)
    k_values = sorted(set(int(k) for k in k_values))
    methods = list(dict.fromkeys(methods))
    bad = [m for m in methods if m not in METHODS]
    if bad:
        raise ConfigError(f"unknown clustering methods: {bad}")
    models: dict[tuple[str, int], ClusterModel] = {}
    cells: dict[str, dict[str, dict]] = {m: {} for m in methods}
    for method in methods:
        fitted = cluster_and_label(method, scores, k_values, basis, seed, restarts,
                                   standardize, evergreen_tol)
        for k, model in fitted.items():
            models[(method, k)] = model
            sizes = np.bincount(model.assignments, minlength=k)
            cells[method][str(k)] = {
                "within_ss": model.within_ss,
                "silhouette": silhouette_mean(points, model.assignments)
                if k >= 2
                else None,
                "sizes": [int(s) for s in sizes],
                "labels": list(model.labels) if model.labels else None,
            }
    ari: dict[str, dict[str, float]] = {}
    for k in k_values:
        ari[str(k)] = {}
        for i, ma in enumerate(methods):
            for mb in methods[i + 1 :]:
                key = f"{ma}|{mb}"
                ari[str(k)][key] = adjusted_rand_index(
                    models[(ma, k)].assignments, models[(mb, k)].assignments
                )
    report = {
        "methods": list(methods),
        "k_values": k_values,
        "seed": seed,
        "cells": cells,
        "ari": ari,
    }
    return report, models
