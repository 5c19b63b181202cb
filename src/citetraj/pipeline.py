"""End-to-end orchestration: ingest, basis, fits, baseline, clusters, labels.

The single artifact is the model file: a self-contained JSON document from
which every plot and table can be regenerated without recomputation.  The
file carries a schema version and a sha256 checksum over its canonical
payload (timestamp excluded), so equal inputs, config, and seed produce a
byte-identical model up to the timestamp field.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field, asdict
from datetime import datetime, timezone
from typing import Sequence

import numpy as np

from . import clustering as clus
from . import fpca, poisson, wsb
from .data import Corpus, CountTrajectory, TimeGrid, counts_matrix, filter_by_total, parse_corpus
from .errors import ConfigError, DataError, StageError
from .smoothing import SmoothCurve

__all__ = [
    "PipelineConfig",
    "ModelFile",
    "SCHEMA_VERSION",
    "run_pipeline",
    "baseline_stage",
    "cluster_stage",
    "sensitivity",
    "save_model",
    "load_model",
]

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class PipelineConfig:
    """Echoed verbatim into the model file; flags > config file > defaults."""

    input: str | None = None
    format: str | None = None
    output_dir: str = "out"
    seed: int = 0
    k_basis: int = 4
    fve: float | None = None
    k_clusters: int = 4
    method: str = "kmeans"
    restarts: int = 10
    min_total: int = 0
    m_wsb: float = 30.0
    standardize: bool = False
    eval_grid: int = 256
    jobs: int = 1  # threads over WSB row chunks
    baseline: bool = True
    select_k_max: int = 6
    bandwidth: float | None = None
    evergreen_tol: float = 0.05

    def __post_init__(self):
        if self.method not in clus.METHODS:
            raise ConfigError(f"unknown clustering method {self.method!r}")
        if self.k_basis < 0:
            raise ConfigError("k-basis must be >= 0")
        if self.k_clusters < 1:
            raise ConfigError("k-clusters must be >= 1")
        if self.fve is not None and not 0 < self.fve <= 1:
            raise ConfigError("fve must be in (0, 1]")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        if self.eval_grid < 8:
            raise ConfigError("eval-grid must be >= 8")


@dataclass
class ModelFile:
    """Dict-backed model document; see ``save_model`` for the disk format."""

    data: dict

    @property
    def grid(self) -> TimeGrid:
        return TimeGrid(int(self.data["grid"]["n_years"]))

    def corpus(self) -> Corpus:
        c = self.data["corpus"]
        items = tuple(
            CountTrajectory(i, tuple(int(x) for x in row))
            for i, row in zip(c["ids"], c["counts"])
        )
        return Corpus(self.grid, items, c.get("provenance", ""))

    def basis(self) -> fpca.LatentBasis:
        b = self.data["basis"]
        m = self.data["mean"]
        return fpca.LatentBasis(
            grid=self.grid,
            mean=np.asarray(m["values"], dtype=float),
            mean_derivative=np.asarray(m["derivative"], dtype=float),
            eigenvalues=np.asarray(b["eigenvalues"], dtype=float),
            eigenfunctions=np.asarray(b["eigenfunctions"], dtype=float).reshape(
                len(b["eigenvalues"]), -1
            )
            if b["eigenvalues"]
            else np.zeros((0, self.grid.n_years)),
            fve=np.asarray(b["fve"], dtype=float),
            mean_bandwidth=float(m["bandwidth"]),
        )

    def scores(self) -> np.ndarray:
        return np.asarray(self.data["fits"]["scores"], dtype=float).reshape(
            len(self.data["corpus"]["ids"]), -1
        )

    def intensities(self) -> np.ndarray:
        return np.exp(self.basis().eta(self.scores()))

    def cluster_entry(self, method: str | None = None, k: int | None = None) -> dict:
        clusters = self.data.get("clusters") or {}
        method = method or self.data["config"].get("method", "kmeans")
        k = k if k is not None else self.data["config"].get("k_clusters", 4)
        try:
            return clusters[method][str(k)]
        except KeyError:
            raise DataError(f"model has no clustering for ({method}, K={k})") from None


def _canonical_bytes(data: dict) -> bytes:
    # Strict JSON: non-finite floats are stored as null (see ``_floats``).
    return json.dumps(
        data, sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")


def _checksum(data: dict) -> str:
    body = {k: v for k, v in data.items() if k not in ("checksum", "created_at")}
    return hashlib.sha256(_canonical_bytes(body)).hexdigest()


def save_model(model: ModelFile, path) -> None:
    """Write the model as canonical JSON with an embedded checksum.

    Floats serialize via shortest round-trip repr, so save -> load -> save
    is byte-identical (the stored timestamp is preserved as-is).  The bytes
    go to a temporary file beside ``path`` that then replaces it, so an
    interrupted write leaves any previous file intact.
    """
    data = dict(model.data)
    data["schema_version"] = SCHEMA_VERSION
    data.setdefault("created_at", _now())
    data["checksum"] = _checksum(data)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(_canonical_bytes(data) + b"\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load_model(path) -> ModelFile:
    """Read and verify a model file (schema version, then checksum)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        data = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"corrupt model file {path}: {exc}") from exc
    if not isinstance(data, dict) or "schema_version" not in data:
        raise DataError(f"corrupt model file {path}: missing schema_version")
    if data["schema_version"] != SCHEMA_VERSION:
        raise DataError(
            f"model schema version {data['schema_version']} unsupported "
            f"(expected {SCHEMA_VERSION})"
        )
    stored = data.get("checksum")
    if stored != _checksum(data):
        raise DataError(f"checksum mismatch in {path}: file is corrupt or edited")
    # Files written before K selection lost its fold loop echo ``folds``.
    data["config"].pop("folds", None)
    return ModelFile(data)


def model_fingerprint(model: ModelFile) -> str:
    """Checksum of the model content, timestamp excluded."""
    return _checksum(model.data)


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _floats(arr) -> list:
    """JSON-ready floats; non-finite values become None (null)."""
    return [v if math.isfinite(v) else None for v in map(float, arr)]


def _stage(name: str):
    class _Ctx:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            if exc is not None and not isinstance(exc, StageError):
                raise StageError(name, exc) from exc
            return False

    return _Ctx()


def detect_format(path: str, override: str | None) -> str:
    if override:
        return override
    if str(path).endswith(".jsonl"):
        return "jsonl"
    return "csv"


def _shape_thresholds(config: PipelineConfig) -> clus.ShapeThresholds:
    return clus.ShapeThresholds(evergreen_rel_tol=config.evergreen_tol)


def baseline_stage(counts, fpca_mse: Sequence[float],
                   config: PipelineConfig) -> tuple[dict, dict]:
    """The model's ``wsb`` and ``comparison`` blocks: WSB fits of the rows of
    the (n, T) count matrix ``counts`` set against the functional fits'
    row-aligned MSEs ``fpca_mse``."""
    fit = wsb.fit_wsb_corpus(counts, m=config.m_wsb, jobs=config.jobs)
    wsb_block = {
        "m": float(config.m_wsb),
        "lam": _floats(fit.lam),
        "mu": _floats(fit.mu),
        "sigma": _floats(fit.sigma),
        "mse": _floats(fit.mse),
        "converged": fit.converged.tolist(),
        "objective": _floats(fit.objective),
    }
    table = wsb.compare_models(fit.mse, fpca_mse, eval_points=config.eval_grid)
    comparison = {
        "log10_mse_wsb": _floats(table.log10_mse_wsb),
        "log10_mse_fpca": _floats(table.log10_mse_fpca),
        "kde_eval": _floats(table.kde_wsb.eval_points),
        "kde_wsb": _floats(table.kde_wsb.densities),
        "kde_fpca": _floats(table.kde_fpca.densities),
        "kde_bandwidth": float(table.kde_wsb.bandwidth),
    }
    return wsb_block, comparison


def cluster_stage(scores: np.ndarray, basis: fpca.LatentBasis,
                  config: PipelineConfig) -> tuple[dict | None, str | None]:
    """The model's cluster entry for (``config.method``, ``config.k_clusters``),
    or None and the reason clustering is refused."""
    if basis.k < 1:
        return None, "clustering refused: zero-dimensional scores (k-basis is 0)"
    if len(scores) < config.k_clusters:
        return None, (
            f"clustering refused: {len(scores)} items cannot form "
            f"{config.k_clusters} clusters"
        )
    model = clus.cluster_and_label(
        config.method, scores, config.k_clusters, basis, config.seed,
        config.restarts, config.standardize, _shape_thresholds(config),
    )
    return {
        "centroids": [_floats(c) for c in model.centroids],
        "assignments": [int(a) for a in model.assignments],
        "within_ss": float(model.within_ss),
        "seed": int(model.seed),
        "method": model.method,
        "labels": list(model.labels),
    }, None


def run_pipeline(config: PipelineConfig, corpus: Corpus | None = None) -> ModelFile:
    """Execute the full pipeline and return the assembled model.

    Stage order: ingest, filter, mean, covariance/eigenbasis, basis size
    selection table, per-item Poisson fits, WSB baseline plus comparison
    (unless disabled), clustering, labels.  The fit stage reuses the
    selection's fit at the basis size, fitting anew only outside 1..k_top.
    Stage failures surface as :class:`StageError` naming the stage.
    """
    with _stage("ingest"):
        if corpus is None:
            if not config.input:
                raise ConfigError("no corpus given: set input path")
            corpus = parse_corpus(
                config.input, detect_format(config.input, config.format)
            )
    with _stage("filter"):
        result = filter_by_total(corpus, config.min_total)
        corpus = result.corpus
        if len(corpus) < 2:
            raise DataError(
                f"only {len(corpus)} items left after min_total={config.min_total}"
            )
    with _stage("mean"):
        policy = (
            fpca.BandwidthPolicy("fixed", value=config.bandwidth)
            if config.bandwidth
            else fpca.BandwidthPolicy()
        )
        mean = fpca.estimate_mean(corpus, policy)
    with _stage("eigenbasis"):
        cov = fpca.covariance_matrix(corpus, mean.values)
        spectrum, functions = fpca.eigendecompose_symmetric(cov, corpus.grid.delta)
        n_positive = int(np.count_nonzero(np.maximum(spectrum, 0.0) > 0))
        if config.fve is not None:
            basis = fpca.truncate_basis(
                mean, spectrum, functions, fpca.BasisPolicy("fve", tau=config.fve)
            )
        else:
            basis = fpca.truncate_basis(
                mean, spectrum, functions, fpca.BasisPolicy("fixed", k=config.k_basis)
            )
    with _stage("selection"):
        selection = None
        selection_fits = {}
        k_top = min(config.select_k_max, n_positive)
        if k_top >= 1:
            sel_basis = fpca.truncate_basis(
                mean, spectrum, functions, fpca.BasisPolicy("fixed", k=k_top)
            )
            table = fpca.select_k_loglik(corpus, sel_basis, range(1, k_top + 1))
            selection = {
                "rows": [asdict(r) for r in table.rows],
                "recommended_k": table.recommended_k,
            }
            selection_fits = table.fits
    with _stage("fit"):
        # The selection basis nests this one: its fit at K is a fresh fit's.
        fit = selection_fits.get(basis.k)
        if fit is None:
            fit = poisson.fit_matrix(counts_matrix(corpus), basis)
        fit_summary = poisson.convergence_summary(fit)
    wsb_block = comparison = item_labels = None
    if config.baseline:
        with _stage("baseline"):
            wsb_block, comparison = baseline_stage(counts_matrix(corpus), fit.mse, config)
    with _stage("cluster"):
        entry, cluster_refusal = cluster_stage(fit.scores, basis, config)
        clusters = {config.method: {str(config.k_clusters): entry}} if entry else {}
    with _stage("label"):
        if basis.k >= 1:
            item_labels = clus.classify_items(
                np.exp(basis.eta(fit.scores)), _shape_thresholds(config)
            )
    config_echo = asdict(config)
    # Execution knobs that cannot change model content stay out of the
    # persisted echo, keeping equal-config runs byte-identical across
    # serial and parallel execution.
    config_echo.pop("jobs")
    config_echo.pop("output_dir")
    data = {
        "schema_version": SCHEMA_VERSION,
        "created_at": _now(),
        "config": config_echo,
        "grid": {"n_years": corpus.grid.n_years},
        "corpus": {
            "ids": list(corpus.ids),
            "counts": [list(map(int, it.counts)) for it in corpus.items],
            "provenance": corpus.provenance,
        },
        "filter": {
            "min_total": config.min_total,
            "kept": result.kept,
            "dropped": result.dropped,
        },
        "mean": {
            "values": _floats(mean.values),
            "derivative": _floats(mean.derivative),
            "bandwidth": float(mean.bandwidth),
        },
        "spectrum": _floats(spectrum),
        "basis": {
            "k": basis.k,
            "eigenvalues": _floats(basis.eigenvalues),
            "eigenfunctions": [_floats(row) for row in basis.eigenfunctions],
            "fve": _floats(basis.fve),
        },
        "selection": selection,
        "fits": {
            "scores": [_floats(row) for row in fit.scores],
            "loglik": _floats(fit.loglik),
            "mse": _floats(fit.mse),
            "iterations": fit.iterations.tolist(),
            "converged": fit.converged.tolist(),
            "ridged": fit.ridged.tolist(),
        },
        "fit_summary": fit_summary,
        "wsb": wsb_block,
        "comparison": comparison,
        "clusters": clusters,
        "cluster_refusal": cluster_refusal,
        "item_labels": item_labels,
        "robustness": None,
        "thresholds": None,
    }
    return ModelFile(data)


def sensitivity(
    model: ModelFile,
    thresholds: Sequence[int] = (0, 10),
    k_values: Sequence[int] = (2, 3, 4, 5, 6),
    methods: Sequence[str] = clus.METHODS,
    config: PipelineConfig | None = None,
) -> ModelFile:
    """Robustness sweeps on an already-fit model; returns an updated copy.

    The (method, K) grid reclusters the fitted scores per cell.  The
    citation-floor sweep reclusters the items whose totals reach each
    threshold and reports the adjusted Rand index against the first
    threshold's run on the common items, plus persistence of evergreen
    cluster membership.  The sweeps use ``config`` (default: the model's
    stored config) and leave the stored config as it is.
    """
    cfg = config or PipelineConfig(**model.data["config"])
    basis = model.basis()
    if basis.k < 1:
        raise ConfigError("sensitivity needs a model with a nonempty basis")
    scores = model.scores()
    th_cfg = _shape_thresholds(cfg)
    sweep = clus.robustness_sweep(
        scores, k_values, list(methods), seed=cfg.seed, restarts=cfg.restarts,
        basis=basis, thresholds=th_cfg, standardize=cfg.standardize,
    )

    totals = counts_matrix(model.corpus()).sum(axis=1)
    k = cfg.k_clusters
    runs = {}
    for tau in thresholds:
        mask = totals >= tau
        runs[int(tau)] = mask, (clus.cluster_and_label(
            cfg.method, scores[mask], k, basis, cfg.seed, cfg.restarts,
            cfg.standardize, th_cfg,
        ) if mask.sum() >= k else None)
    base_tau = int(thresholds[0])
    base_mask, base = runs[base_tau]
    threshold_report = {"base_threshold": base_tau, "method": cfg.method, "k": k, "runs": {}}
    for tau, (mask, run) in runs.items():
        entry: dict = {"kept": int(mask.sum())}
        if run is not None and base is not None:
            common = base_mask & mask
            if common.any():
                a = base.assignments[common[base_mask]]
                b = run.assignments[common[mask]]
                entry["ari_vs_base"] = clus.adjusted_rand_index(a, b)
                ever_b = np.isin(a, [j for j, lab in enumerate(base.labels) if lab == "evergreen"])
                ever_r = np.isin(b, [j for j, lab in enumerate(run.labels) if lab == "evergreen"])
                entry["evergreen_persistence"] = (
                    int((ever_b & ever_r).sum()) / int(ever_b.sum()) if ever_b.any() else None
                )
            entry["labels"] = list(run.labels)
        threshold_report["runs"][str(tau)] = entry

    data = dict(model.data)
    data["robustness"] = sweep.report
    data["thresholds"] = threshold_report
    return ModelFile(data)
