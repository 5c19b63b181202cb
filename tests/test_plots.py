import filecmp
import os

import numpy as np
import pytest

from citetraj import synthgen
from citetraj.data import write_corpus
from citetraj.errors import ConfigError, DataError
from citetraj.pipeline import PipelineConfig, load_model, run_pipeline, save_model, sensitivity
from citetraj.plots import FIGURES, emit_plots


@pytest.fixture(scope="module")
def model(tmp_path_factory):
    path = tmp_path_factory.mktemp("c") / "corpus.jsonl"
    corpus, _ = synthgen.simulate_corpus(synthgen.default_spec(200, seed=14))
    write_corpus(corpus, str(path), "jsonl")
    return run_pipeline(PipelineConfig(input=str(path), seed=14))


def test_gof_scatter_csv_columns(model, tmp_path):
    emit_plots(model, ["gof_scatter"], str(tmp_path))
    header = (tmp_path / "gof_scatter.csv").read_text().splitlines()[0]
    assert header == "id,log10_mse_wsb,log10_mse_fpca"


def test_eigenfunctions_csv_shape(model, tmp_path):
    emit_plots(model, ["eigenfunctions"], str(tmp_path))
    lines = (tmp_path / "eigenfunctions.csv").read_text().splitlines()
    k = model.data["basis"]["k"]
    assert lines[0].split(",") == ["t"] + [f"phi{i + 1}" for i in range(k)]
    assert len(lines) == 1 + 30  # header plus one row per grid year
    assert all(len(line.split(",")) == k + 1 for line in lines[1:])


def test_cluster_curves_svg_polyline_count(model, tmp_path):
    emit_plots(model, ["cluster_curves"], str(tmp_path))
    svg = (tmp_path / "cluster_curves.svg").read_text()
    k = int(model.data["config"]["k_clusters"])
    assert svg.count("<polyline") == k


def test_gof_scatter_svg_has_one_circle_per_item(model, tmp_path):
    emit_plots(model, ["gof_scatter"], str(tmp_path))
    svg = (tmp_path / "gof_scatter.svg").read_text()
    assert svg.count("<circle") == len(model.data["corpus"]["ids"])
    assert svg.count('stroke-dasharray="4 3"') == 1
    assert "<polyline" not in svg


def test_line_figures_draw_one_polyline_per_series(model, tmp_path):
    swept = sensitivity(model, thresholds=(0, 10), k_values=(2, 3, 4),
                        methods=("kmeans", "ward"))
    emit_plots(swept, None, str(tmp_path))
    # One series per CSV column after the first, except in these figures.
    n_series = {"k_selection": 2, "robustness": 2, "thresholds": 1}
    for fig in FIGURES:
        if fig == "gof_scatter":
            continue
        svg = (tmp_path / f"{fig}.svg").read_text()
        header = (tmp_path / f"{fig}.csv").read_text().splitlines()[0].split(",")
        assert "<circle" not in svg, fig
        assert svg.count("<polyline") == n_series.get(fig, len(header) - 1), fig


def test_missing_stage_error_names_stage(model, tmp_path):
    with pytest.raises(DataError, match="sensitivity"):
        emit_plots(model, ["robustness"], str(tmp_path))


def test_unknown_figure_rejected(model, tmp_path):
    with pytest.raises(ConfigError, match="unknown figures"):
        emit_plots(model, ["spectrogram"], str(tmp_path))


def test_all_figures_after_sensitivity(model, tmp_path):
    swept = sensitivity(model, thresholds=(0, 10), k_values=(2, 3, 4),
                        methods=("kmeans", "ward"))
    written = emit_plots(swept, None, str(tmp_path))
    names = {os.path.basename(p) for p in written}
    for fig in FIGURES:
        assert f"{fig}.csv" in names
        assert f"{fig}.svg" in names


def test_plots_from_loaded_model_identical(model, tmp_path):
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    emit_plots(model, None, str(dir_a))
    emit_plots(loaded, None, str(dir_b))
    files_a = sorted(os.listdir(dir_a))
    assert files_a == sorted(os.listdir(dir_b))
    for name in files_a:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


def test_csv_values_recomputable_from_model(model, tmp_path):
    emit_plots(model, ["cluster_curves"], str(tmp_path))
    lines = (tmp_path / "cluster_curves.csv").read_text().splitlines()[1:]
    basis = model.basis()
    entry = model.cluster_entry()
    centroids = np.asarray(entry["centroids"], dtype=float)
    expected = np.stack(
        [np.exp(basis.mean + c @ basis.eigenfunctions) for c in centroids]
    )
    for j, line in enumerate(lines):
        values = [float(v) for v in line.split(",")[1:]]
        assert values == pytest.approx(expected[:, j], rel=1e-12)
