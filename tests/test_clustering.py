import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citetraj import clustering
from citetraj.clustering import (
    adjusted_rand_index,
    classify_item,
    classify_items,
    cluster_and_label,
    kmeans,
    kmedoids,
    label_clusters,
    robustness_sweep,
    silhouette_mean,
    ward,
)
from citetraj.errors import ConfigError


def brute_force_kmeans_ss(points, k):
    """Minimum within-cluster sum of squares over every labeling."""
    n = len(points)
    best = np.inf
    for labels in itertools.product(range(k), repeat=n):
        present = set(labels)
        if len(present) < k:
            continue
        ss = 0.0
        for j in present:
            members = points[[i for i, lab in enumerate(labels) if lab == j]]
            centroid = members.mean(axis=0)
            ss += ((members - centroid) ** 2).sum()
        best = min(best, ss)
    return best


class TestKmeans:
    def test_two_separated_points(self):
        points = np.array([[0.0, 0.0], [10.0, 10.0]])
        model = kmeans(points, 2, seed=0, restarts=4)
        assert model.within_ss == pytest.approx(0.0, abs=1e-12)
        assert len(set(model.assignments.tolist())) == 2

    def test_identical_points_single_cluster(self):
        points = np.ones((5, 3)) * 2.5
        model = kmeans(points, 1, seed=0)
        assert model.centroids[0] == pytest.approx([2.5, 2.5, 2.5])
        assert model.within_ss == pytest.approx(0.0, abs=1e-12)

    def test_k1_grand_mean_and_total_variance(self):
        rng = np.random.default_rng(0)
        points = rng.standard_normal((40, 3))
        model = kmeans(points, 1, seed=0)
        assert model.centroids[0] == pytest.approx(points.mean(axis=0), abs=1e-12)
        total = ((points - points.mean(axis=0)) ** 2).sum()
        assert model.within_ss == pytest.approx(total, rel=1e-12)

    def test_matches_exhaustive_optimum(self):
        rng = np.random.default_rng(19)
        points = rng.uniform(-5, 5, size=(8, 2))
        model = kmeans(points, 2, seed=0, restarts=20)
        assert model.within_ss == pytest.approx(
            brute_force_kmeans_ss(points, 2), rel=1e-9
        )

    def test_lloyd_history_nonincreasing(self):
        rng = np.random.default_rng(2)
        points = rng.standard_normal((60, 4))
        model = kmeans(points, 4, seed=1, restarts=3)
        history = np.asarray(model.details["history"])
        assert (np.diff(history) <= 1e-12 * np.abs(history[:-1])).all()

    def test_assignments_are_nearest_centroid(self):
        rng = np.random.default_rng(5)
        points = rng.standard_normal((50, 3))
        model = kmeans(points, 3, seed=0)
        dists = ((points[:, None, :] - model.centroids[None]) ** 2).sum(axis=2)
        assert np.array_equal(model.assignments, dists.argmin(axis=1))
        assert model.within_ss == pytest.approx(
            dists[np.arange(50), model.assignments].sum(), rel=1e-12
        )

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(1)
        points = rng.standard_normal((30, 2))
        a = kmeans(points, 3, seed=42, restarts=5)
        b = kmeans(points, 3, seed=42, restarts=5)
        assert np.array_equal(a.assignments, b.assignments)
        assert np.array_equal(a.centroids, b.centroids)

    def test_n_less_than_k(self):
        with pytest.raises(ConfigError):
            kmeans(np.zeros((2, 2)), 3)


def reference_lloyd(points, centers, reseeds=None):
    """Lloyd iterations with a per-cluster mean loop, the oracle for
    ``clustering._lloyd``; appends each re-seeded cluster to ``reseeds``."""
    n, k = len(points), len(centers)
    prev = None
    history = []
    for _ in range(clustering._MAX_LLOYD_ITER):
        d2 = clustering._sq_dists(points, centers)
        assign = np.argmin(d2, axis=1)
        history.append(float(d2[np.arange(n), assign].sum()))
        if prev is not None and np.array_equal(assign, prev):
            break
        prev = assign
        used = np.zeros(n, dtype=bool)
        for j in range(k):
            members = points[assign == j]
            if len(members):
                centers[j] = members.mean(axis=0)
        empties = [j for j in range(k) if not np.any(assign == j)]
        if empties:
            gaps = d2[np.arange(n), assign].copy()
            for j in empties:
                gaps[used] = -np.inf
                far = int(np.argmax(gaps))
                centers[j] = points[far]
                used[far] = True
                if reseeds is not None:
                    reseeds.append(j)
    d2 = clustering._sq_dists(points, centers)
    assign = np.argmin(d2, axis=1)
    ss = float(d2[np.arange(n), assign].sum())
    return centers, assign, ss, history


def lloyd_inputs():
    """Lattices with fewer distinct points than K (clusters empty out) and
    Gaussian sets, including one-dimensional ones."""
    for seed in range(6):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 200))
        yield rng.integers(0, 2, size=(n, 2)).astype(float)
        yield rng.integers(-1, 2, size=(n, 1)).astype(float)
        yield rng.standard_normal((n, 1 + seed % 3))


class TestLloyd:
    def test_kmeans_matches_reference_loop(self, monkeypatch):
        runs = []
        for points in lloyd_inputs():
            for k in range(1, 8):
                runs.append((points, k, kmeans(points, k, seed=k, restarts=3)))
        reseeds = []
        monkeypatch.setattr(clustering, "_lloyd",
                            lambda p, c: reference_lloyd(p, c, reseeds))
        for points, k, model in runs:
            ref = kmeans(points, k, seed=k, restarts=3)
            assert np.array_equal(model.centroids, ref.centroids)
            assert np.array_equal(model.assignments, ref.assignments)
            assert model.within_ss == ref.within_ss
            assert model.details == ref.details
        assert reseeds  # the lattices re-seed empty clusters

    def test_matches_reference_from_any_start(self):
        # Starts with duplicated and far-off centers empty clusters out.
        reseeded = 0
        for i, points in enumerate(lloyd_inputs()):
            rng = np.random.default_rng(i)
            k = min(6, len(points))
            start = points[rng.integers(0, len(points), k)].copy()
            start[-1] = 1e3
            reseeds = []
            got = clustering._lloyd(points, start.copy())
            ref = reference_lloyd(points, start.copy(), reseeds)
            assert np.array_equal(got[0], ref[0])
            assert np.array_equal(got[1], ref[1])
            assert got[2:] == ref[2:]
            reseeded += bool(reseeds)
        assert reseeded >= 10


def reference_pam(points, k):
    """Plain PAM (build + swap) used as the oracle for ``kmedoids``.

    Each swap pass scores every (medoid position, candidate) pair with a
    full O(n) sum.  In exact arithmetic it makes the swaps that ``kmedoids``
    makes; on points whose distances round (e.g. 0.1-scaled lattices) swaps
    that tie exactly can be ordered differently, so rounded inputs are
    compared only where no swaps tie, as on fitted scores.
    """
    n = len(points)
    d = ((points[:, None, :] - points[None]) ** 2).sum(axis=2)
    medoids = [int(np.argmin(d.sum(axis=1)))]
    nearest = d[:, medoids[0]].copy()
    while len(medoids) < k:
        gains = np.maximum(nearest[:, None] - d, 0.0).sum(axis=0)
        gains[medoids] = -np.inf
        pick = int(np.argmax(gains))
        medoids.append(pick)
        nearest = np.minimum(nearest, d[:, pick])
    medoids = sorted(medoids)
    while True:
        dm = d[:, medoids]
        order = np.argsort(dm, axis=1, kind="stable")
        d1 = dm[np.arange(n), order[:, 0]]
        d2 = dm[np.arange(n), order[:, 1]] if k > 1 else np.full(n, np.inf)
        best_cost, best_swap = float(d1.sum()), None
        candidates = np.setdiff1d(np.arange(n), medoids)
        if candidates.size == 0:
            break
        for pos in range(k):
            removed_nearest = np.where(order[:, 0] == pos, d2, d1)
            costs = np.minimum(removed_nearest[:, None], d[:, candidates]).sum(axis=0)
            best_h = int(np.argmin(costs))
            if costs[best_h] < best_cost - 1e-12:
                best_cost = float(costs[best_h])
                best_swap = (pos, int(candidates[best_h]))
        if best_swap is None:
            break
        medoids[best_swap[0]] = best_swap[1]
        medoids = sorted(medoids)
    return medoids, np.argmin(d[:, medoids], axis=1)


def pam_inputs():
    """Integer lattices (exact arithmetic, many ties) and Gaussian sets."""
    for seed in range(8):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 60))
        yield rng.integers(0, 3, size=(n, 2)).astype(float)
        yield rng.integers(-4, 5, size=(n, 3)).astype(float)
        yield rng.standard_normal((n, 1 + seed % 4))


class TestKmedoids:
    def test_matches_reference_pam(self, planted):
        for points in [*pam_inputs(), planted["scores"]]:
            for k in range(1, 7):
                model = kmedoids(points, [k])[k]
                medoids, assign = reference_pam(points, k)
                assert model.details["medoid_indices"] == medoids
                assert np.array_equal(model.assignments, assign)

    def test_block_size_does_not_change_results(self, monkeypatch):
        rng = np.random.default_rng(4)
        points = rng.standard_normal((150, 3))
        labels = rng.integers(0, 4, 150)
        runs = []
        for block in (clustering._BLOCK, 1, 7):
            monkeypatch.setattr(clustering, "_BLOCK", block)
            runs.append((kmedoids(points, [5])[5], silhouette_mean(points, labels)))
        (base, base_sil), rest = runs[0], runs[1:]
        for model, sil in rest:
            assert model.details == base.details
            assert np.array_equal(model.assignments, base.assignments)
            assert model.within_ss == base.within_ss
            assert sil == pytest.approx(base_sil, rel=1e-12)

    def test_k_equals_n(self):
        rng = np.random.default_rng(7)
        points = rng.standard_normal((5, 2))
        model = kmedoids(points, [5])[5]
        assert model.within_ss == pytest.approx(0.0, abs=1e-12)
        assert sorted(model.details["medoid_indices"]) == [0, 1, 2, 3, 4]

    def test_two_tight_triples(self):
        points = np.array(
            [[0, 0], [0.1, 0], [0, 0.1], [9, 9], [9.1, 9], [9, 9.1]], dtype=float
        )
        model = kmedoids(points, [2])[2]
        medoids = model.details["medoid_indices"]
        assert len({m < 3 for m in medoids}) == 2  # one medoid per triple

    def test_matches_exhaustive_pairs(self):
        rng = np.random.default_rng(23)
        points = rng.uniform(-4, 4, size=(7, 2))
        model = kmedoids(points, [2])[2]
        d = ((points[:, None, :] - points[None]) ** 2).sum(axis=2)
        best = min(
            np.minimum(d[:, a], d[:, b]).sum()
            for a, b in itertools.combinations(range(7), 2)
        )
        assert model.within_ss == pytest.approx(best, rel=1e-12)


def assert_same_model(a, b):
    assert (a.method, a.k, a.seed, a.labels) == (b.method, b.k, b.seed, b.labels)
    assert np.array_equal(a.centroids, b.centroids)
    assert np.array_equal(a.assignments, b.assignments)
    assert a.within_ss == b.within_ss
    assert a.details == b.details


class TestSharedAcrossK:
    """One call for many K gives, per K, the model of a call for that K alone."""

    KS = (1, 2, 3, 5, 6)

    def inputs(self, planted):
        yield from pam_inputs()
        yield planted["scores"]
        yield planted["scores"][:97] / np.sqrt(planted["basis"].eigenvalues)

    @pytest.mark.parametrize("method", ["kmedoids", "ward"])
    def test_each_k_matches_its_own_call(self, planted, method):
        run = {"kmedoids": kmedoids, "ward": ward}[method]
        for points in self.inputs(planted):
            models = run(points, self.KS)
            assert list(models) == list(self.KS)
            for k in self.KS:
                assert_same_model(models[k], run(points, [k])[k])

    def test_ks_are_deduplicated_and_sorted(self):
        points = np.random.default_rng(0).standard_normal((30, 2))
        for run in (kmedoids, ward):
            models = run(points, [4, 2, 4])
            assert list(models) == [2, 4]
            assert run(points, []) == {}

    def test_build_for_k_is_a_prefix_of_the_longest_build(self, planted):
        for points in self.inputs(planted):
            d = clustering._sq_dists(points, points)
            kmax = min(8, len(points))
            longest = clustering._pam_build(d, kmax)
            assert len(set(longest)) == kmax
            for k in range(1, kmax):
                assert clustering._pam_build(d, k) == longest[:k]

    def test_invalid_ks(self):
        points = np.zeros((3, 2))
        for run in (kmedoids, ward):
            with pytest.raises(ConfigError):
                run(points, [2, 4])
            with pytest.raises(ConfigError):
                run(points, [0, 2])


def reference_ward_merges(points, k):
    """Independent Lance-Williams implementation used as the oracle."""
    n = len(points)
    d2 = ((points[:, None, :] - points[None]) ** 2).sum(axis=2).astype(float)
    sizes = {i: 1 for i in range(n)}
    active = set(range(n))
    merges = []
    while len(active) > k:
        best = None
        for i in sorted(active):
            for j in sorted(active):
                if j <= i:
                    continue
                if best is None or d2[i, j] < best[2] - 1e-15:
                    best = (i, j, d2[i, j])
        i, j, dist = best
        merges.append((i, j, dist))
        for v in sorted(active - {i, j}):
            ni, nj, nv = sizes[i], sizes[j], sizes[v]
            d2[i, v] = d2[v, i] = (
                (ni + nv) * d2[i, v] + (nj + nv) * d2[j, v] - nv * dist
            ) / (ni + nj + nv)
        sizes[i] = sizes[i] + sizes[j]
        active.remove(j)
    return merges


def replay_merges(n, merges):
    """The partition left by ``merges`` of (i, j, height) on smallest members,
    numbered by smallest member."""
    owner = list(range(n))
    for i, j, _ in merges:
        assert owner[i] == i and owner[j] == j
        owner = [i if o == j else o for o in owner]
    firsts = sorted(set(owner))
    return [firsts.index(o) for o in owner]


class TestWard:
    def test_k_equals_n_trivial(self):
        points = np.arange(8, dtype=float).reshape(4, 2)
        model = ward(points, [4])[4]
        assert sorted(model.assignments.tolist()) == [0, 1, 2, 3]
        assert model.within_ss == pytest.approx(0.0, abs=1e-12)

    def test_far_pairs_merge_first(self):
        points = np.array([[0, 0], [0.2, 0], [50, 50], [50.2, 50]], dtype=float)
        model = ward(points, [2])[2]
        assert model.assignments[0] == model.assignments[1]
        assert model.assignments[2] == model.assignments[3]

    def test_matches_reference_partitions(self):
        rng = np.random.default_rng(29)
        points = rng.uniform(-3, 3, size=(6, 2))
        models = ward(points, range(1, 7))
        merges = reference_ward_merges(points, 1)
        for k, model in models.items():
            assert model.assignments.tolist() == replay_merges(6, merges[: 6 - k])

    def test_single_point(self):
        model = ward(np.array([[1.5, -2.0]]), [1])[1]
        assert model.assignments.tolist() == [0]
        assert model.centroids.tolist() == [[1.5, -2.0]]
        assert model.within_ss == 0.0
        assert model.details == {}

    def test_tie_heavy_lattice_partitions_nest(self):
        # Tie-heavy lattice: many zero-distance and equal-height merges.
        rng = np.random.default_rng(3)
        points = rng.integers(0, 3, size=(24, 2)).astype(float)
        _, row_kind = np.unique(points, axis=0, return_inverse=True)
        row_kind = row_kind.ravel()
        n_distinct = row_kind.max() + 1
        models = ward(points, range(1, 25))
        for k, model in models.items():
            assign = model.assignments.tolist()
            # numbered by smallest member
            assert list(dict.fromkeys(assign)) == list(range(k))
            if k > 1:
                coarser = models[k - 1].assignments.tolist()
                assert len(set(zip(assign, coarser))) == k
            if k <= n_distinct:
                # duplicated rows merge first, at height 0
                assert len(set(zip(row_kind.tolist(), assign))) == n_distinct


@pytest.mark.parametrize("kernel", ["kmedoids", "silhouette_mean", "ward"])
def test_peak_memory_is_quadratic_without_dimension_factor(kernel):
    # An n x n x d temporary would need d * n^2 doubles; allow 6 n^2.
    n, d = 1500, 12
    rng = np.random.default_rng(0)
    points = rng.standard_normal((n, d))
    labels = np.arange(n) % 4
    run = {
        "kmedoids": lambda: kmedoids(points, [4])[4],
        "silhouette_mean": lambda: silhouette_mean(points, labels),
        "ward": lambda: ward(points, [4])[4],
    }[kernel]
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 6 * n * n * 8


@pytest.mark.parametrize("kernel, bound", [("kmedoids", 1.5), ("silhouette_mean", 0.25)])
def test_peak_memory_is_one_distance_matrix_plus_blocks(kernel, bound):
    # kmedoids keeps one n x n matrix and silhouette_mean none; both read
    # distances in blocks of rows, so the rest is O(n * block).
    n, d = 1500, 12
    rng = np.random.default_rng(0)
    points = rng.standard_normal((n, d))
    labels = np.arange(n) % 4
    run = {
        "kmedoids": lambda: kmedoids(points, [4])[4],
        "silhouette_mean": lambda: silhouette_mean(points, labels),
    }[kernel]
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound * n * n * 8


def test_sweep_peak_memory_is_one_distance_matrix():
    # The k-medoids matrix is freed before Ward's linkage and the
    # silhouettes run, so the whole sweep peaks near one n x n matrix.
    n, d = 1500, 12
    points = np.random.default_rng(0).standard_normal((n, d))
    tracemalloc.start()
    try:
        robustness_sweep(points, range(2, 7), list(clustering.METHODS), seed=0, restarts=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * n * n * 8


def synthetic_curve_fit(intensity):
    """Minimal stand-in carrying just the fitted intensity curve."""
    from citetraj.poisson import TrajectoryFit

    curve = np.asarray(intensity, dtype=float)
    return TrajectoryFit(
        id="x", scores=np.zeros(1), eta=np.log(np.maximum(curve, 1e-12)),
        intensity=curve, loglik=0.0, mse=0.0, iterations=1, converged=True,
    )


def exact_poly_basis(t_years=30):
    """Basis whose span contains every polynomial log curve of degree <= 3."""
    from citetraj.data import TimeGrid
    from citetraj.fpca import LatentBasis
    from citetraj.synthgen import make_basis

    phi = make_basis(t_years, 4, "poly")
    return LatentBasis(
        grid=TimeGrid(t_years),
        mean=np.zeros(t_years),
        mean_derivative=np.zeros(t_years),
        eigenvalues=np.array([4.0, 3.0, 2.0, 1.0]),
        eigenfunctions=phi,
        fve=np.array([0.4, 0.7, 0.9, 1.0]),
    )


class TestLabels:
    def test_label_rules(self):
        basis = exact_poly_basis()
        t = basis.grid.points
        phi = basis.eigenfunctions
        # log curves inside the polynomial span realize exactly
        rising = 0.08 * t
        peak20 = -0.5 * ((t - 20.0) / 3.0) ** 2
        cents = np.stack([phi @ rising, phi @ peak20])
        labels = label_clusters(cents, basis)
        realized = np.exp(cents[0] @ phi)
        assert (np.diff(realized) >= -0.05 * realized.max()).all()
        assert labels[0] == "evergreen"
        assert labels[1] == "delayed"

    def test_normal_split_by_level(self):
        basis = exact_poly_basis()
        t = basis.grid.points
        phi = basis.eigenfunctions
        # humps peak at year 10 and decline sharply past the tolerance
        log_low = -0.5 * ((t - 10.0) / 2.5) ** 2
        log_high = log_low + np.log(6.0)
        cents = np.stack([phi @ log_low, phi @ log_high])
        labels = label_clusters(cents, basis)
        assert labels == ("normal-low", "normal-high")

    def test_label_invariant_to_index_permutation(self, planted):
        basis = planted["basis"]
        centroids = kmeans(planted["scores"], 4, seed=3).centroids
        labels = label_clusters(centroids, basis)
        perm = np.array([2, 0, 3, 1])
        assert label_clusters(centroids[perm], basis) == tuple(labels[j] for j in perm)

    def test_matches_loop_reference(self, planted):
        basis = planted["basis"]
        t = basis.grid.n_years
        for k in (2, 3, 4, 5, 6):
            model = kmeans(planted["scores"], k, seed=k)
            labels, normal = [], {}
            for j, curve in enumerate(np.exp(basis.eta(model.centroids))):
                eps = 0.05 * float(curve.max())
                if np.all(np.diff(curve) >= -eps):
                    labels.append("evergreen")
                elif int(np.argmax(curve)) + 1 > 0.5 * t:
                    labels.append("delayed")
                else:
                    labels.append(None)
                    normal[j] = float(curve.mean())
            med = float(np.median(list(normal.values()))) if normal else 0.0
            for j, m in normal.items():
                labels[j] = "normal-high" if m > med else "normal-low"
            assert label_clusters(model.centroids, basis) == tuple(labels)

    def test_centroid_dimension_mismatch(self, planted):
        centroids = kmeans(planted["scores"][:, :2], 2, seed=0).centroids
        with pytest.raises(ConfigError, match="dimension"):
            label_clusters(centroids, planted["basis"])


class TestClassifyItem:
    def test_monotone_increasing_is_evergreen(self):
        t = np.arange(1, 31.0)
        assert classify_item(synthetic_curve_fit(0.2 * t + 1)) == "evergreen"

    def test_flat_is_evergreen(self):
        assert classify_item(synthetic_curve_fit(np.full(30, 3.0))) == "evergreen"

    def test_flash_in_the_pan(self):
        t = np.arange(1, 31.0)
        curve = 10 * np.exp(-0.5 * ((t - 3) / 1.5) ** 2) + 0.01
        label = classify_item(synthetic_curve_fit(curve))
        assert label == "flash-in-the-pan"

    def test_delayed_document(self):
        t = np.arange(1, 31.0)
        curve = 10 * np.exp(-0.5 * ((t - 20) / 4.0) ** 2) + 0.2
        assert classify_item(synthetic_curve_fit(curve)) == "delayed document"

    def test_normal_document(self):
        t = np.arange(1, 31.0)
        curve = 10 * np.exp(-0.5 * ((t - 9) / 2.0) ** 2) + 3.0
        assert classify_item(synthetic_curve_fit(curve)) == "normal document"

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=0.01, max_value=100.0))
    def test_scale_invariance(self, scale):
        t = np.arange(1, 31.0)
        for curve in (
            0.2 * t + 1,
            10 * np.exp(-0.5 * ((t - 3) / 1.5) ** 2) + 0.01,
            10 * np.exp(-0.5 * ((t - 20) / 4.0) ** 2) + 0.2,
        ):
            a = classify_item(synthetic_curve_fit(curve))
            b = classify_item(synthetic_curve_fit(scale * curve))
            assert a == b


def reference_item_label(curve, evergreen_tol=0.05):
    """Scalar statement of the item rules, in order, for one curve."""
    t = len(curve)
    peak = curve.max()
    if np.all(np.diff(curve) >= -evergreen_tol * peak):
        return "evergreen"
    peak_year = int(np.argmax(curve)) + 1
    if peak_year <= 1.0 / 6.0 * t and curve[-1] < 0.2 * peak:
        return "flash-in-the-pan"
    if peak_year > 0.5 * t:
        return "delayed document"
    return "normal document"


def spike(peak_years, base, t=30):
    curve = np.full(t, base)
    curve[np.asarray(peak_years) - 1] = 5.0
    return curve


class TestClassifyItems:
    def check(self, curves, *evergreen_tol):
        curves = np.asarray(curves, dtype=float)
        batch = classify_items(curves, *evergreen_tol)
        rows = [classify_item(synthetic_curve_fit(c), *evergreen_tol) for c in curves]
        assert batch == rows == [reference_item_label(c, *evergreen_tol) for c in curves]
        return batch

    def test_planted_fits(self, planted):
        labels = self.check([f.intensity for f in planted["fits"]])
        assert len(set(labels)) >= 3

    def test_edge_curves(self):
        # T = 30: the flash cutoff is year 5, the delayed cutoff year 15.
        labels = self.check([
            np.full(30, 3.0),            # flat
            spike([3, 20], 1.0),         # tied maxima: the first one counts
            spike([16, 25], 1.0),        # tied maxima past the delayed cutoff
            spike([5], 0.5),             # peak exactly at the flash cutoff
            spike([6], 0.5),             # one year past it
            spike([3], 1.0),             # endpoint exactly 20% of the peak
            spike([15], 1.0),            # peak exactly at the delayed cutoff
            spike([16], 1.0),            # one year past it
        ])
        assert labels == [
            "evergreen", "normal document", "delayed document", "flash-in-the-pan",
            "normal document", "normal document", "normal document", "delayed document",
        ]

    def test_decline_exactly_at_evergreen_tolerance(self):
        at = np.array([4.0, 3.0] + [3.0] * 28)
        past = np.array([4.0, 2.5] + [2.5] * 28)
        assert self.check([at, past], 0.25) == ["evergreen", "normal document"]


class TestMetrics:
    def test_ari_identical_partitions(self):
        assert adjusted_rand_index([0, 0, 1, 1], [1, 1, 0, 0]) == pytest.approx(1.0)

    def test_ari_hand_computed(self):
        # independent pair-counting evaluation of the adjusted index
        a = [0, 0, 0, 1, 1, 1]
        b = [0, 0, 1, 1, 1, 1]
        same_a = {(i, j) for i in range(6) for j in range(i + 1, 6) if a[i] == a[j]}
        same_b = {(i, j) for i in range(6) for j in range(i + 1, 6) if b[i] == b[j]}
        n = 15
        sum_ij = len(same_a & same_b)
        expected = len(same_a) * len(same_b) / n
        max_index = 0.5 * (len(same_a) + len(same_b))
        reference = (sum_ij - expected) / (max_index - expected)
        assert adjusted_rand_index(a, b) == pytest.approx(reference, rel=1e-12)

    def test_ari_permutation_invariant(self):
        rng = np.random.default_rng(3)
        a = rng.integers(0, 4, 50)
        b = rng.integers(0, 4, 50)
        relabeled = (b + 2) % 4
        assert adjusted_rand_index(a, b) == pytest.approx(
            adjusted_rand_index(a, relabeled), rel=1e-12
        )

    def test_silhouette_direct_formula(self):
        for points, labels in (
            ([[0.0], [1.0], [10.0], [11.0]], [0, 0, 1, 1]),
            ([[0.0], [1.0], [10.0], [11.0], [30.0]], [0, 0, 1, 1, 2]),  # singleton
        ):
            points = np.asarray(points)
            labels = np.asarray(labels)
            n = len(points)
            # for each point: a = mean dist to own cluster, b = nearest other
            # cluster's mean dist; a singleton scores 0
            expected = []
            for i in range(n):
                own = [j for j in range(n) if labels[j] == labels[i] and j != i]
                if not own:
                    expected.append(0.0)
                    continue
                a = np.mean([abs(points[i, 0] - points[j, 0]) for j in own])
                b = min(
                    np.mean([abs(points[i, 0] - points[j, 0])
                             for j in range(n) if labels[j] == other])
                    for other in set(labels.tolist()) - {labels[i]}
                )
                expected.append((b - a) / max(a, b))
            assert silhouette_mean(points, labels) == pytest.approx(np.mean(expected))

    def test_silhouette_needs_two_clusters(self):
        with pytest.raises(ConfigError):
            silhouette_mean(np.zeros((4, 2)), np.zeros(4, dtype=int))


class TestSweep:
    def test_single_cell_matches_direct_call(self, planted):
        points = planted["scores"]
        report, models = robustness_sweep(points, [2], ["kmeans"], seed=5, restarts=4)
        direct = kmeans(points, 2, seed=5, restarts=4)
        model = models[("kmeans", 2)]
        assert np.array_equal(model.assignments, direct.assignments)
        assert report["cells"]["kmeans"]["2"]["within_ss"] == pytest.approx(
            direct.within_ss
        )

    @pytest.mark.parametrize("standardize", [False, True])
    def test_cells_match_cluster_and_label(self, planted, standardize):
        # Each K of one call over many K is bitwise that K's call alone, and
        # the sweep's cell is that model.
        scores, basis = planted["scores"], planted["basis"]
        ks = (5, 2, 4, 2)
        args = (basis, 3, 2, standardize, 0.1)
        _, grid = robustness_sweep(scores, ks, list(clustering.METHODS), seed=3, restarts=2,
                                   basis=basis, evergreen_tol=0.1, standardize=standardize)
        for method in clustering.METHODS:
            models = cluster_and_label(method, scores, ks, *args)
            assert list(models) == [2, 4, 5]
            for k, model in models.items():
                assert len(model.labels) == k
                assert_same_model(model, cluster_and_label(method, scores, (k,), *args)[k])
                assert_same_model(grid[(method, k)], model)

    def test_within_ss_nonincreasing_in_k(self, planted):
        points = planted["scores"]
        report, _ = robustness_sweep(points, [2, 3, 4, 5], ["kmeans"], seed=0)
        ss = [report["cells"]["kmeans"][str(k)]["within_ss"] for k in (2, 3, 4, 5)]
        assert all(b <= a + 1e-9 for a, b in zip(ss, ss[1:]))

    def test_planted_archetypes_recovered_by_all_methods(self, planted):
        points = planted["scores"]
        truth = planted["truth"].archetype_index()
        report, models = robustness_sweep(points, [4], ["kmeans", "kmedoids", "ward"],
                                          seed=0, basis=planted["basis"])
        for method in ("kmeans", "kmedoids", "ward"):
            model = models[(method, 4)]
            assert adjusted_rand_index(model.assignments, truth) >= 0.8
        for k, cell in report["ari"].items():
            for pair, value in cell.items():
                assert value >= 0.8

    def test_methods_named_twice_run_once(self, planted, monkeypatch):
        scores, ks = planted["scores"], (2, 3)
        once, _ = robustness_sweep(scores, ks, ["kmeans", "ward"], restarts=2)
        calls = []
        real = clustering.kmeans
        monkeypatch.setattr(clustering, "kmeans",
                            lambda points, k, **kw: calls.append(k) or real(points, k, **kw))
        report, models = robustness_sweep(scores, ks, ["kmeans", "ward", "kmeans"], restarts=2)
        assert calls == [2, 3]
        assert report["methods"] == ["kmeans", "ward"]
        assert all(list(pairs) == ["kmeans|ward"] for pairs in report["ari"].values())
        assert report == once
        assert sorted(models) == [("kmeans", 2), ("kmeans", 3), ("ward", 2), ("ward", 3)]

    def test_unknown_method(self, planted):
        with pytest.raises(ConfigError, match="unknown"):
            robustness_sweep(planted["scores"], [2], ["dbscan"])
        with pytest.raises(ConfigError, match="unknown"):
            cluster_and_label("dbscan", planted["scores"], (2,), planted["basis"])
