import json
import os

import numpy as np
import pytest

from citetraj import clustering, fpca, poisson, synthgen
from citetraj.data import write_corpus
from citetraj.errors import ConfigError, DataError, StageError
from citetraj.pipeline import (
    ModelFile,
    PipelineConfig,
    load_model,
    model_fingerprint,
    run_pipeline,
    save_model,
    sensitivity,
)
from citetraj.pipeline import (
    SCHEMA_VERSION, _canonical_bytes, _checksum, _float_rows, _floats,
)


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "corpus.jsonl"
    corpus, _ = synthgen.simulate_corpus(synthgen.default_spec(300, seed=8))
    write_corpus(corpus, str(path), "jsonl")
    return str(path)


@pytest.fixture(scope="module")
def model(corpus_path):
    return run_pipeline(PipelineConfig(input=corpus_path, seed=8))


@pytest.fixture(scope="module")
def tuned(corpus_path):
    """A run with the user-set bandwidth, FVE and evergreen tolerance away
    from their defaults."""
    return run_pipeline(PipelineConfig(input=corpus_path, seed=8, baseline=False,
                                       bandwidth=2.5, fve=0.9, evergreen_tol=0.25))


class TestRunPipeline:
    def test_basis_invariants_hold(self, model):
        basis = model.basis()  # construction re-validates orthonormality
        assert basis.k == 4
        assert (np.diff(basis.fve) >= -1e-12).all()

    def test_fit_block_consistency(self, model):
        fits = model.data["fits"]
        n = len(model.data["corpus"]["ids"])
        assert len(fits["loglik"]) == n
        intensities = model.intensities()
        counts = np.asarray(model.data["corpus"]["counts"], dtype=float)
        mse = ((counts - intensities) ** 2).mean(axis=1)
        assert mse.tolist() == fits["mse"]

    def test_fit_block_matches_fit_corpus_bitwise(self, model):
        fits = model.data["fits"]
        reference = poisson.fit_corpus(model.corpus(), model.basis())
        assert fits["scores"] == [f.scores.tolist() for f in reference]
        assert fits["loglik"] == [f.loglik for f in reference]
        assert fits["iterations"] == [f.iterations for f in reference]
        assert fits["converged"] == [f.converged for f in reference]
        assert fits["ridged"] == [f.ridged for f in reference]

    @pytest.mark.parametrize("extra, refits", [
        ({}, 0),
        ({"k_basis": 6}, 0),
        ({"k_basis": 0}, 1),
        ({"k_basis": 8}, 1),
        ({"k_basis": 3, "select_k_max": 2}, 1),
    ])
    def test_one_poisson_pass_per_k(self, corpus_path, monkeypatch, extra, refits):
        fit_matrix = poisson.fit_matrix
        calls = []

        def counted(y, basis, *args, **kwargs):
            calls.append(basis.k)
            return fit_matrix(y, basis, *args, **kwargs)

        monkeypatch.setattr(poisson, "fit_matrix", counted)
        cfg = PipelineConfig(input=corpus_path, seed=8, baseline=False, **extra)
        model = run_pipeline(cfg)
        k_top = len(model.data["selection"]["rows"])
        assert len(calls) == k_top + refits
        assert calls[:k_top] == list(range(1, k_top + 1))

    def test_selection_table_present(self, model):
        sel = model.data["selection"]
        assert sel["recommended_k"] == 4
        assert [r["k"] for r in sel["rows"]] == [1, 2, 3, 4, 5, 6]

    def test_cluster_block(self, model):
        entry = model.cluster_entry()
        assert set(entry["labels"]) == {
            "evergreen", "delayed", "normal-low", "normal-high",
        }
        assert len(entry["assignments"]) == len(model.data["corpus"]["ids"])

    def test_comparison_block(self, model):
        comp = model.data["comparison"]
        assert np.median(comp["log10_mse_fpca"]) <= np.median(comp["log10_mse_wsb"])

    def test_zero_k_basis_refuses_clustering(self, corpus_path):
        cfg = PipelineConfig(input=corpus_path, seed=8, k_basis=0, baseline=False)
        model0 = run_pipeline(cfg)
        assert "zero-dimensional" in model0.data["cluster_refusal"]
        assert model0.data["clusters"] == {}
        intensities = model0.intensities()
        expected = np.exp(np.asarray(model0.data["mean"]["values"]))
        assert intensities[0] == pytest.approx(expected, rel=1e-12)

    def test_min_total_filter_recorded(self, corpus_path):
        cfg = PipelineConfig(input=corpus_path, seed=8, min_total=50, baseline=False)
        filtered = run_pipeline(cfg)
        block = filtered.data["filter"]
        assert block["min_total"] == 50
        assert block["kept"] + block["dropped"] == 300
        assert len(filtered.data["corpus"]["ids"]) == block["kept"]

    def test_stage_error_names_stage(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,y1,y2\np1,0,1\np2,1\n")
        with pytest.raises(StageError, match="ingest"):
            run_pipeline(PipelineConfig(input=str(bad)))

    def test_missing_input(self):
        with pytest.raises(StageError, match="ingest"):
            run_pipeline(PipelineConfig(input=None))


class TestDeterminism:
    def test_rerun_identical(self, corpus_path, model):
        again = run_pipeline(PipelineConfig(input=corpus_path, seed=8))
        assert model_fingerprint(again) == model_fingerprint(model)

    def test_parallel_identical(self, corpus_path, model):
        par = run_pipeline(PipelineConfig(input=corpus_path, seed=8, jobs=3))
        assert model_fingerprint(par) == model_fingerprint(model)

    def test_bytes_identical_modulo_timestamp(self, corpus_path, model, tmp_path):
        par = run_pipeline(PipelineConfig(input=corpus_path, seed=8, jobs=3))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_model(model, a)
        save_model(par, b)
        da = json.loads(a.read_text())
        db = json.loads(b.read_text())
        ts_a = da.pop("created_at")
        ts_b = db.pop("created_at")
        assert _canonical_bytes(da) == _canonical_bytes(db)
        # and nothing but the timestamp differed
        da["created_at"] = ts_b
        db["created_at"] = ts_b
        assert _canonical_bytes(da) == _canonical_bytes(db)


class TestPersistence:
    def test_non_finite_values_are_strict_json_null(self, corpus_path, tmp_path, monkeypatch):
        fit_matrix = poisson.fit_matrix

        def diverged_first(*args, **kwargs):
            fit = fit_matrix(*args, **kwargs)
            fit.loglik[0] = -np.inf
            return fit

        monkeypatch.setattr(poisson, "fit_matrix", diverged_first)
        path = tmp_path / "model.json"
        save_model(run_pipeline(PipelineConfig(input=corpus_path, seed=8, baseline=False)), path)

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        data = json.loads(path.read_text(), parse_constant=reject)
        assert data["fits"]["loglik"][0] is None
        assert load_model(path).data["fits"]["loglik"][0] is None

    def test_save_writes_the_canonical_encoding(self, model, tmp_path):
        path = tmp_path / "m.json"
        save_model(model, path)
        data = {**model.data, "schema_version": SCHEMA_VERSION}
        expected = _canonical_bytes({**data, "checksum": _checksum(data)}) + b"\n"
        assert path.read_bytes() == expected

    def test_float_rows_store_non_finite_values_as_null(self):
        rows = np.array([[1.5, np.nan], [-np.inf, -0.0]])
        assert _float_rows(rows) == [[1.5, None], [None, -0.0]]
        assert _float_rows(rows[:, :0]) == [[], []]
        finite = np.array([[0.1, -2.0], [1e300, 5e-324]])
        assert _float_rows(finite) == [_floats(row) for row in finite]

    def test_save_load_save_identical_bytes(self, model, tmp_path):
        p1 = tmp_path / "m1.json"
        p2 = tmp_path / "m2.json"
        save_model(model, p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_interrupted_save_keeps_previous_file(self, model, tmp_path, monkeypatch):
        path = tmp_path / "model.json"
        save_model(model, path)
        before = path.read_bytes()

        class Interrupted(Exception):
            pass

        real_open = open

        def failing_open(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            real_write = fh.write

            def write(data):
                real_write(data[: len(data) // 2])
                fh.flush()
                raise Interrupted

            fh.write = write
            return fh

        import citetraj.pipeline as pipeline_module

        monkeypatch.setattr(pipeline_module, "open", failing_open, raising=False)
        with pytest.raises(Interrupted):
            save_model(model, path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["model.json"]

    def test_numeric_roundtrip_exact(self, model, tmp_path):
        path = tmp_path / "m.json"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.scores(), model.scores())
        assert loaded.data["mean"]["values"] == model.data["mean"]["values"]

    def test_truncated_file_fails(self, model, tmp_path):
        path = tmp_path / "m.json"
        save_model(model, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 500])
        with pytest.raises(DataError, match="corrupt"):
            load_model(path)

    def test_bitflip_fails_checksum(self, model, tmp_path):
        path = tmp_path / "m.json"
        save_model(model, path)
        data = json.loads(path.read_text())
        data["fits"]["loglik"][0] += 1.0
        path.write_text(json.dumps(data, sort_keys=True, separators=(",", ":")))
        with pytest.raises(DataError, match="checksum"):
            load_model(path)

    def test_version_mismatch(self, model, tmp_path):
        path = tmp_path / "m.json"
        data = dict(model.data)
        data["schema_version"] = SCHEMA_VERSION + 1
        data["checksum"] = _checksum(data)
        path.write_bytes(_canonical_bytes(data))
        with pytest.raises(DataError, match="schema version"):
            load_model(path)


class TestSensitivity:
    def test_sweep_bundle(self, model):
        swept = sensitivity(model, thresholds=(0, 10), k_values=(2, 3, 4),
                            methods=("kmeans", "ward"))
        rob = swept.data["robustness"]
        assert set(rob["cells"]) == {"kmeans", "ward"}
        assert set(rob["cells"]["kmeans"]) == {"2", "3", "4"}
        th = swept.data["thresholds"]
        assert th["runs"]["0"]["ari_vs_base"] == pytest.approx(1.0)
        assert th["runs"]["10"]["ari_vs_base"] >= 0.7
        persistence = th["runs"]["10"]["evergreen_persistence"]
        assert persistence is None or persistence >= 0.0

    def test_threshold_zero_only_matches_pipeline_clustering(self, model):
        swept = sensitivity(model, thresholds=(0,), k_values=(4,),
                            methods=("kmeans",))
        cell = swept.data["robustness"]["cells"]["kmeans"]["4"]
        assert cell["within_ss"] == pytest.approx(
            model.cluster_entry("kmeans", 4)["within_ss"]
        )

    @pytest.mark.parametrize("seed, n, method, k, standardize", [
        (2, 300, "kmeans", 4, True),
        (5, 250, "kmedoids", 2, False),
    ])
    def test_sweep_cell_labels_match_pipeline_clustering(self, seed, n, method, k,
                                                          standardize):
        # Both label the raw-score centroids: standardized k-means centroids
        # and k-medoids medoids are not read as raw scores.
        corpus, _ = synthgen.simulate_corpus(synthgen.default_spec(n, seed=seed))
        model = run_pipeline(PipelineConfig(seed=seed, method=method, k_clusters=k,
                                            standardize=standardize, baseline=False),
                             corpus=corpus)
        swept = sensitivity(model, thresholds=(0,), k_values=(k,), methods=(method,))
        cell = swept.data["robustness"]["cells"][method][str(k)]
        assert cell["labels"] == model.cluster_entry()["labels"]
        assert cell["labels"] == swept.data["thresholds"]["runs"]["0"]["labels"]

    @pytest.fixture
    def recluster_calls(self, monkeypatch):
        """(method, items, K) of each cluster_and_label call that the floor
        sweep makes; calls from inside the (method, K) grid are not counted."""
        calls, in_grid = [], []
        real_call, real_sweep = clustering.cluster_and_label, clustering.robustness_sweep

        def counted(method, scores, ks, *args):
            if not in_grid:
                calls.append((method, len(scores), tuple(ks)))
            return real_call(method, scores, ks, *args)

        def grid(*args, **kwargs):
            in_grid.append(True)
            try:
                return real_sweep(*args, **kwargs)
            finally:
                in_grid.pop()

        monkeypatch.setattr(clustering, "cluster_and_label", counted)
        monkeypatch.setattr(clustering, "robustness_sweep", grid)
        return calls

    def test_full_floor_reuses_the_grid_cell(self, model, recluster_calls):
        # Every item of this corpus has a total of at least 10, so both
        # floors keep every item and reuse the (kmeans, 4) cell.
        reused = sensitivity(model, thresholds=(0, 10), k_values=(4,), methods=("kmeans",))
        assert recluster_calls == []
        # Without a kmeans cell in the grid, the floors recluster.
        fresh = sensitivity(model, thresholds=(0, 10), k_values=(4,), methods=("ward",))
        assert recluster_calls == [("kmeans", 300, (4,)), ("kmeans", 300, (4,))]
        assert reused.data["thresholds"] == fresh.data["thresholds"]

    def test_floor_that_drops_items_reclusters(self, model, recluster_calls):
        # No total in this corpus is below 300, so the floors come from the
        # totals: the lowest keeps every item, one more drops some.
        totals = np.asarray(model.data["corpus"]["counts"]).sum(axis=1)
        low = int(totals.min())
        kept = int((totals >= low + 1).sum())
        assert kept < 300
        swept = sensitivity(model, thresholds=(low, low + 1), k_values=(3, 4),
                            methods=("kmeans",))
        assert recluster_calls == [("kmeans", kept, (4,))]
        runs = swept.data["thresholds"]["runs"]
        assert runs[str(low + 1)]["kept"] == kept
        # The reclustered floor is the cluster_and_label run on the kept items.
        cfg = PipelineConfig(**model.data["config"])
        mask = totals >= low + 1
        k = cfg.k_clusters
        run = clustering.cluster_and_label(
            cfg.method, model.scores()[mask], (k,), model.basis(), cfg.seed,
            cfg.restarts, cfg.standardize, cfg.evergreen_tol)[k]
        assert runs[str(low + 1)]["labels"] == list(run.labels)

    def test_requires_nonempty_basis(self, corpus_path):
        cfg = PipelineConfig(input=corpus_path, seed=8, k_basis=0, baseline=False)
        model0 = run_pipeline(cfg)
        with pytest.raises(ConfigError, match="basis"):
            sensitivity(model0)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            PipelineConfig(method="spectral")
        with pytest.raises(ConfigError):
            PipelineConfig(fve=1.5)
        with pytest.raises(ConfigError):
            PipelineConfig(k_clusters=0)

    def test_bandwidth_reaches_mean_stage(self, tuned):
        # 2.5 is not a GCV candidate.
        assert tuned.data["mean"]["bandwidth"] == 2.5

    def test_fve_reaches_eigenbasis_stage(self, tuned):
        k = fpca.fve_basis_size(tuned.data["spectrum"], 0.9)
        assert tuned.basis().k == k
        assert k != PipelineConfig().k_basis

    def test_evergreen_tol_reaches_label_stages(self, tuned):
        intensity = tuned.intensities()
        labels = clustering.classify_items(intensity, evergreen_tol=0.25)
        assert tuned.data["item_labels"] == labels
        assert labels != clustering.classify_items(intensity)
        cfg = PipelineConfig(**tuned.data["config"])
        k = cfg.k_clusters
        args = (cfg.method, tuned.scores(), (k,), tuned.basis(), cfg.seed,
                cfg.restarts, cfg.standardize)
        entry = tuned.cluster_entry()
        assert entry["labels"] == list(clustering.cluster_and_label(*args, 0.25)[k].labels)
        assert entry["labels"] != list(clustering.cluster_and_label(*args)[k].labels)

    def test_fve_policy_used(self, corpus_path):
        cfg = PipelineConfig(input=corpus_path, seed=8, fve=0.5, baseline=False)
        m = run_pipeline(cfg)
        basis = m.basis()
        assert basis.fve[-1] >= 0.5
        if basis.k > 1:
            assert basis.fve[-2] < 0.5
