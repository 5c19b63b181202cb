"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `criterion N: PASS ...` line (visible with `pytest -s`
or in the captured output).  Timings are wall-clock, single-threaded unless
a criterion says otherwise.
"""

import itertools
import json
import time

import numpy as np
import pytest

from citetraj import clustering as clus
from citetraj import fpca, poisson, synthgen, wsb
from citetraj.data import Corpus, CountTrajectory, TimeGrid, write_corpus
from citetraj.pipeline import (
    PipelineConfig,
    model_fingerprint,
    run_pipeline,
    save_model,
    sensitivity,
)
from citetraj.synthgen import make_basis


def report(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number} failed: {detail}"


@pytest.fixture(scope="module")
def planted2000():
    """Fixed-seed default corpus with the fitted pipeline artifacts."""
    corpus, truth = synthgen.simulate_corpus(synthgen.default_spec(2000, seed=0))
    mean = fpca.estimate_mean(corpus)
    cov = fpca.covariance_matrix(corpus, mean.values)
    spectrum, functions = fpca.eigendecompose_symmetric(cov, corpus.grid.delta)
    basis = fpca.truncate_basis(mean, spectrum, functions,
                                fpca.BasisPolicy("fixed", k=4))
    fits = poisson.fit_corpus(corpus, basis)
    return {
        "corpus": corpus,
        "truth": truth,
        "mean": mean,
        "spectrum": spectrum,
        "functions": functions,
        "basis": basis,
        "fits": fits,
        "scores": np.asarray([f.scores for f in fits]),
    }


def random_poisson_instance(rng, t, k):
    phi = make_basis(t, k, "fourier")
    mean = 0.5 + 0.3 * np.sin(np.arange(1, t + 1) / 4.0)
    xi = 0.5 * rng.standard_normal(k)
    eta = mean + xi @ phi
    counts = rng.poisson(np.exp(eta)).astype(float)
    basis = fpca.LatentBasis(
        grid=TimeGrid(t), mean=mean, mean_derivative=np.zeros(t),
        eigenvalues=np.linspace(2.0, 1.0, k), eigenfunctions=phi,
        fve=np.linspace(0.5, 1.0, k),
    )
    return counts, xi, basis


def test_criterion_1_gradient_hessian_match_finite_differences():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        counts, xi, basis = random_poisson_instance(rng, t=30, k=4)
        phi = basis.eigenfunctions
        eta = basis.mean + xi @ phi
        grad, hess = poisson.loglik_grad_hess(counts, eta, basis)

        def ll(v):
            return poisson.poisson_loglik(counts, basis.mean + v @ phi)

        h = 1e-5
        for a in range(4):
            e = np.zeros(4)
            e[a] = h
            fd = (ll(xi + e) - ll(xi - e)) / (2 * h)
            rel = abs(grad[a] - fd) / max(1.0, abs(grad[a]), abs(fd))
            worst = max(worst, rel)
        h2 = 3e-4
        for a in range(4):
            ea = np.zeros(4)
            ea[a] = h2
            for b in range(4):
                eb = np.zeros(4)
                eb[b] = h2
                fd2 = (
                    ll(xi + ea + eb) - ll(xi + ea - eb)
                    - ll(xi - ea + eb) + ll(xi - ea - eb)
                ) / (4 * h2 ** 2)
                rel = abs(hess[a, b] - fd2) / max(1.0, abs(hess[a, b]), abs(fd2))
                worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    report(
        1,
        worst < 1e-6 and elapsed < 5.0,
        f"100 instances, worst relative gap {worst:.2e} (< 1e-6), "
        f"{elapsed:.2f}s (< 5s)",
    )


def test_criterion_2_newton_beats_grid():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    worst_gap = -np.inf
    for _ in range(50):
        counts, _, basis = random_poisson_instance(rng, t=6, k=2)
        traj = CountTrajectory("x", tuple(int(c) for c in counts))
        fit = poisson.fit_items([traj], basis)[0]
        offsets = np.linspace(-3.0, 3.0, 61)
        xs, ys = np.meshgrid(fit.scores[0] + offsets, fit.scores[1] + offsets)
        grid = np.stack([xs.ravel(), ys.ravel()], axis=1)
        etas = basis.mean[None, :] + grid @ basis.eigenfunctions
        lls = (counts[None, :] * etas - np.exp(etas)).sum(axis=1)
        worst_gap = max(worst_gap, float(lls.max() - fit.loglik))
    elapsed = time.perf_counter() - start
    report(
        2,
        worst_gap <= 1e-9 and elapsed < 10.0,
        f"50 instances, max grid advantage {worst_gap:.2e} (<= 1e-9), "
        f"{elapsed:.2f}s (< 10s)",
    )


def test_criterion_3_eigenbasis_correctness():
    rng = np.random.default_rng(303)
    worst_recon = 0.0
    worst_ortho = 0.0
    for _ in range(50):
        t = int(rng.integers(2, 31))
        a = rng.standard_normal((t, t))
        cov = 0.5 * (a + a.T)
        values, functions = fpca.eigendecompose_symmetric(cov)
        recon = functions.T @ np.diag(values) @ functions
        worst_recon = max(worst_recon, float(np.abs(cov - recon).max()))
        gram = functions @ functions.T
        worst_ortho = max(worst_ortho, float(np.abs(gram - np.eye(t)).max()))
    analytic, _ = fpca.eigendecompose_symmetric(np.array([[2.0, 1.0], [1.0, 2.0]]))
    exact = max(abs(analytic[0] - 3.0), abs(analytic[1] - 1.0))
    report(
        3,
        worst_recon < 1e-8 and worst_ortho < 1e-8 and exact < 1e-12,
        f"50 matrices: reconstruction {worst_recon:.2e} (< 1e-8), "
        f"orthonormality {worst_ortho:.2e} (< 1e-8), 2x2 case {exact:.2e} (< 1e-12)",
    )


def test_criterion_4_synthetic_recovery(planted2000):
    start = time.perf_counter()
    rec = synthgen.recovery_report(
        planted2000["truth"], planted2000["basis"], planted2000["fits"]
    )
    rms = max(rec.eigenfunction_rms)
    corr = min(rec.score_correlations)
    hits = 0
    for seed in range(20):
        corpus, _ = synthgen.simulate_corpus(synthgen.default_spec(2000, seed=seed))
        mean = fpca.estimate_mean(corpus)
        cov = fpca.covariance_matrix(corpus, mean.values)
        spectrum, functions = fpca.eigendecompose_symmetric(cov)
        sel = fpca.truncate_basis(mean, spectrum, functions,
                                  fpca.BasisPolicy("fixed", k=6))
        table = fpca.select_k_loglik(corpus, sel, range(1, 7))
        hits += table.recommended_k == 4
    elapsed = time.perf_counter() - start
    report(
        4,
        rms < 0.15 and corr > 0.9 and hits >= 18 and elapsed < 60.0,
        f"eigenfunction RMS {rms:.3f} (< 0.15), score corr {corr:.3f} (> 0.9), "
        f"AIC picked K=4 in {hits}/20 seeds (>= 18), {elapsed:.1f}s (< 60s)",
    )


def test_criterion_5_clustering_oracles():
    rng = np.random.default_rng(505)
    points8 = rng.uniform(-5, 5, size=(8, 2))
    km = clus.kmeans(points8, 2, seed=0, restarts=20)
    best = np.inf
    for labels in itertools.product(range(2), repeat=8):
        if len(set(labels)) < 2:
            continue
        ss = 0.0
        for j in set(labels):
            members = points8[[i for i, lab in enumerate(labels) if lab == j]]
            ss += ((members - members.mean(axis=0)) ** 2).sum()
        best = min(best, ss)
    kmeans_ok = abs(km.within_ss - best) <= 1e-9 * max(1.0, best)

    points7 = rng.uniform(-5, 5, size=(7, 2))
    pam = clus.kmedoids(points7, 2)
    d = ((points7[:, None, :] - points7[None]) ** 2).sum(axis=2)
    pam_best = min(
        np.minimum(d[:, a], d[:, b]).sum()
        for a, b in itertools.combinations(range(7), 2)
    )
    pam_ok = abs(pam.within_ss - pam_best) <= 1e-9 * max(1.0, pam_best)

    lloyd_ok = True
    for k in (2, 3, 4):
        model = clus.kmeans(rng.standard_normal((80, 3)), k, seed=1, restarts=3)
        history = np.asarray(model.details["history"])
        lloyd_ok &= bool(
            (np.diff(history) <= 1e-12 * np.abs(history[:-1])).all()
        )
    report(
        5,
        kmeans_ok and pam_ok and lloyd_ok,
        f"kmeans within_ss {km.within_ss:.6f} == exhaustive {best:.6f}; "
        f"PAM cost {pam.within_ss:.6f} == best pair {pam_best:.6f}; "
        f"Lloyd monotone per iteration: {lloyd_ok}",
    )


def test_criterion_6_four_archetype_discovery(planted2000):
    truth = planted2000["truth"]
    basis = planted2000["basis"]
    scores = planted2000["scores"]
    km = clus.kmeans(scores, 4, seed=0, restarts=10)
    ari = clus.adjusted_rand_index(km.assignments, truth.archetype_index())
    labels = clus.label_clusters(km, basis)
    arch = np.asarray(truth.archetypes)
    evergreen_ok = False
    for j in range(4):
        names, counts = np.unique(arch[km.assignments == j], return_counts=True)
        if names[np.argmax(counts)] == "evergreen":
            evergreen_ok = labels[j] == "evergreen"
    all_labels = set(labels) == {"evergreen", "delayed", "normal-low", "normal-high"}
    report(
        6,
        ari >= 0.8 and all_labels and evergreen_ok,
        f"ARI {ari:.3f} (>= 0.8), labels {sorted(set(labels))}, "
        f"planted rising archetype labeled evergreen: {evergreen_ok}",
    )


def test_criterion_7_wsb_baseline(planted2000):
    truth_params = wsb.WsbParams(lam=1.2, mu=0.8, sigma=0.6, m=30.0)
    annual = wsb.wsb_annual(truth_params, TimeGrid(30))
    item = CountTrajectory("gen", tuple(int(round(v)) for v in annual))
    fit = wsb.fit_wsb(item, m=30.0)
    rel = max(
        abs(fit.params.lam - truth_params.lam) / truth_params.lam,
        abs(fit.params.mu - truth_params.mu) / truth_params.mu,
        abs(fit.params.sigma - truth_params.sigma) / truth_params.sigma,
    )

    items = planted2000["corpus"].items[:400]
    fits = planted2000["fits"][:400]
    wsb_fit = wsb.fit_wsb_corpus([it.counts for it in items], m=30.0)
    table = wsb.compare_models(wsb_fit.mse, [f.mse for f in fits])
    med_ok = table.median_log10_mse_fpca <= table.median_log10_mse_wsb
    integrals = (table.kde_wsb.integral(), table.kde_fpca.integral())
    kde_ok = all(0.98 <= v <= 1.0 for v in integrals)
    report(
        7,
        rel <= 0.10 and med_ok and kde_ok,
        f"param recovery worst rel err {rel:.3f} (<= 0.10); median log10 MSE "
        f"fpca {table.median_log10_mse_fpca:.3f} <= wsb "
        f"{table.median_log10_mse_wsb:.3f}: {med_ok}; KDE integrals "
        f"{integrals[0]:.3f}, {integrals[1]:.3f} in [0.98, 1]",
    )


def test_criterion_8_robustness_sweeps(planted2000, tmp_path):
    start = time.perf_counter()
    scores = planted2000["scores"]
    sweep = clus.robustness_sweep(
        scores, range(2, 7), ["kmeans", "kmedoids", "ward"], seed=0,
        basis=planted2000["basis"],
    )
    cells = sweep.report["cells"]
    grid_complete = all(
        str(k) in cells[m] for m in ("kmeans", "kmedoids", "ward") for k in range(2, 7)
    )
    min_ari4 = min(sweep.report["ari"]["4"].values())

    corpus = planted2000["corpus"]
    path = tmp_path / "corpus.jsonl"
    write_corpus(corpus, str(path), "jsonl")
    model = run_pipeline(
        PipelineConfig(input=str(path), seed=0, baseline=False), corpus=corpus
    )
    swept = sensitivity(model, thresholds=(0, 10), k_values=(4,), methods=("kmeans",))
    ari_threshold = swept.data["thresholds"]["runs"]["10"]["ari_vs_base"]
    elapsed = time.perf_counter() - start
    report(
        8,
        grid_complete and min_ari4 >= 0.8 and ari_threshold >= 0.7
        and elapsed < 120.0,
        f"3x5 grid complete: {grid_complete}; min pairwise ARI at K=4 "
        f"{min_ari4:.3f} (>= 0.8); threshold {{0,10}} ARI {ari_threshold:.3f} "
        f"(>= 0.7); {elapsed:.1f}s (< 2min)",
    )


def test_criterion_9_determinism(tmp_path):
    corpus, _ = synthgen.simulate_corpus(synthgen.default_spec(300, seed=5))
    path = tmp_path / "corpus.jsonl"
    write_corpus(corpus, str(path), "jsonl")
    cfg_serial = PipelineConfig(input=str(path), seed=5, jobs=1)
    cfg_parallel = PipelineConfig(input=str(path), seed=5, jobs=4)
    serial = run_pipeline(cfg_serial)
    parallel = run_pipeline(cfg_parallel)
    fp_equal = model_fingerprint(serial) == model_fingerprint(parallel)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_model(serial, a)
    save_model(parallel, b)
    da, db = json.loads(a.read_text()), json.loads(b.read_text())
    da.pop("created_at")
    db.pop("created_at")
    bytes_equal = json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)
    report(
        9,
        fp_equal and bytes_equal,
        f"serial vs parallel fingerprints equal: {fp_equal}; bytes identical "
        f"excluding timestamp: {bytes_equal}",
    )


def test_criterion_10_end_to_end_scale(tmp_path):
    corpus, _ = synthgen.simulate_corpus(synthgen.default_spec(2000, seed=1))
    path = tmp_path / "corpus.jsonl"
    write_corpus(corpus, str(path), "jsonl")

    start = time.perf_counter()
    run_pipeline(PipelineConfig(input=str(path), seed=1, baseline=False))
    no_wsb = time.perf_counter() - start

    start = time.perf_counter()
    run_pipeline(PipelineConfig(input=str(path), seed=1, baseline=True))
    with_wsb = time.perf_counter() - start
    report(
        10,
        no_wsb < 10.0 and with_wsb < 120.0,
        f"n=2000 pipeline {no_wsb:.1f}s excluding WSB (< 10s), "
        f"{with_wsb:.1f}s including WSB (< 2min)",
    )
