import json
import os

import pytest

from citetraj.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_NUMERIC,
    EXIT_OK,
    build_parser,
    main,
    read_config_file,
)
from citetraj.errors import ConfigError
from citetraj.pipeline import PipelineConfig, run_pipeline, save_model


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    rc = main(["simulate", "--n-items", "150", "--seed", "2",
               "--output-dir", str(d)])
    assert rc == EXIT_OK
    return d


@pytest.fixture(scope="module")
def small_corpus(workspace, tmp_path_factory):
    """The first 40 items of the workspace corpus, so WSB fits stay quick."""
    lines = (workspace / "corpus.jsonl").read_text().splitlines()[:40]
    path = tmp_path_factory.mktemp("small") / "corpus.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_run_end_to_end(workspace):
    rc = main(["run", "--input", str(workspace / "corpus.jsonl"),
               "--output-dir", str(workspace), "--seed", "2"])
    assert rc == EXIT_OK
    assert (workspace / "model.json").exists()
    plot_dir = workspace / "plots"
    assert (plot_dir / "gof_scatter.csv").exists()


def test_ingest_reports_counts(workspace, capsys):
    rc = main(["ingest", "--input", str(workspace / "corpus.jsonl"),
               "--output-dir", str(workspace), "--min-total", "10"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "kept" in out and "dropped" in out


def test_label_and_assignments_csv(workspace):
    rc = main(["label", "--output-dir", str(workspace)])
    assert rc == EXIT_OK
    lines = (workspace / "assignments.csv").read_text().splitlines()
    assert lines[0] == "id,cluster,label"
    assert len(lines) == 1 + 150


def test_sensitivity_and_plots(workspace):
    rc = main(["sensitivity", "--output-dir", str(workspace),
               "--thresholds", "0,5", "--k-range", "2:4",
               "--methods", "kmeans,ward"])
    assert rc == EXIT_OK
    rc = main(["plot", "--output-dir", str(workspace),
               "--figures", "robustness,thresholds"])
    assert rc == EXIT_OK
    assert (workspace / "plots" / "robustness.svg").exists()


def test_missing_input_is_data_error(tmp_path, capsys):
    rc = main(["ingest", "--input", str(tmp_path / "ghost.csv"),
               "--output-dir", str(tmp_path)])
    assert rc == EXIT_DATA
    assert "cannot read" in capsys.readouterr().err


def test_malformed_csv_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("id,y1,y2\np1,0,1\np2,7\n")
    rc = main(["ingest", "--input", str(bad), "--output-dir", str(tmp_path)])
    assert rc == EXIT_DATA
    assert "line 3" in capsys.readouterr().err


def test_config_error_exit_code(tmp_path, capsys):
    rc = main(["fit", "--input", "whatever.csv", "--output-dir", str(tmp_path),
               "--fve", "1.5"])
    assert rc == EXIT_CONFIG


def test_numerical_failure_exit_code(workspace, tmp_path, capsys):
    rc = main(["fit", "--input", str(workspace / "corpus.jsonl"),
               "--output-dir", str(tmp_path), "--bandwidth", "1e-9"])
    assert rc == EXIT_NUMERIC
    assert "mean" in capsys.readouterr().err


def test_unknown_figure_is_config_error(workspace, capsys):
    rc = main(["plot", "--output-dir", str(workspace), "--figures", "nope"])
    assert rc == EXIT_CONFIG


def test_cluster_requires_model(tmp_path, capsys):
    rc = main(["cluster", "--output-dir", str(tmp_path)])
    assert rc == EXIT_DATA
    assert "fit" in capsys.readouterr().err


def test_cluster_adds_method(workspace):
    rc = main(["cluster", "--output-dir", str(workspace), "--method", "ward",
               "--k-clusters", "3"])
    assert rc == EXIT_OK
    data = json.loads((workspace / "model.json").read_text())
    assert "3" in data["clusters"]["ward"]


def test_cluster_accepts_model_with_stored_folds(workspace, tmp_path):
    # Model files written while K selection ran a fold loop echo `folds`.
    model = run_pipeline(PipelineConfig(input=str(workspace / "corpus.jsonl"), seed=2,
                                        baseline=False))
    model.data["config"]["folds"] = 5
    save_model(model, tmp_path / "model.json")
    rc = main(["cluster", "--output-dir", str(tmp_path), "--method", "ward",
               "--k-clusters", "3"])
    assert rc == EXIT_OK
    data = json.loads((tmp_path / "model.json").read_text())
    assert "3" in data["clusters"]["ward"]
    assert "folds" not in data["config"]


def test_cluster_honours_restarts(small_corpus, tmp_path):
    assert main(["fit", "--no-baseline", "--input", str(small_corpus),
                 "--output-dir", str(tmp_path), "--seed", "2"]) == EXIT_OK
    assert main(["cluster", "--output-dir", str(tmp_path), "--seed", "2",
                 "--restarts", "1"]) == EXIT_OK
    data = json.loads((tmp_path / "model.json").read_text())
    assert data["config"]["restarts"] == 1
    ref = run_pipeline(PipelineConfig(input=str(small_corpus), seed=2, restarts=1,
                                      baseline=False))
    assert data["clusters"]["kmeans"]["4"] == ref.data["clusters"]["kmeans"]["4"]


def test_stage_commands_keep_stored_config_unless_typed(small_corpus, tmp_path):
    out = ["--output-dir", str(tmp_path)]
    assert main(["fit", "--no-baseline", "--input", str(small_corpus), "--seed", "2",
                 "--restarts", "5"] + out) == EXIT_OK
    fitted = json.loads((tmp_path / "model.json").read_text())
    assert main(["cluster"] + out) == EXIT_OK
    data = json.loads((tmp_path / "model.json").read_text())
    assert (data["config"]["seed"], data["config"]["restarts"]) == (2, 5)
    assert data["clusters"] == fitted["clusters"]
    conf = tmp_path / "sweep.conf"
    conf.write_text("evergreen-tol = 0.2\n")
    assert main(["sensitivity", "--seed", "4", "--k-clusters", "3", "--config", str(conf),
                 "--k-range", "2:3"] + out) == EXIT_OK
    data = json.loads((tmp_path / "model.json").read_text())
    assert data["robustness"]["seed"] == 4
    assert data["thresholds"]["k"] == 3
    assert data["config"] == fitted["config"]
    assert main(["label"] + out) == EXIT_OK
    assert main(["baseline"] + out) == EXIT_OK
    assert main(["baseline", "--m-wsb", "25"] + out) == EXIT_OK
    data = json.loads((tmp_path / "model.json").read_text())
    assert data["config"]["m_wsb"] == data["wsb"]["m"] == 25.0


def test_baseline_adds_its_blocks_and_keeps_the_rest(small_corpus, tmp_path):
    common = ["--output-dir", str(tmp_path), "--seed", "2"]
    assert main(["fit", "--no-baseline", "--input", str(small_corpus)] + common) == EXIT_OK
    assert main(["cluster", "--method", "ward", "--k-clusters", "3"] + common) == EXIT_OK
    assert main(["sensitivity"] + common) == EXIT_OK
    assert main(["baseline"] + common) == EXIT_OK
    data = json.loads((tmp_path / "model.json").read_text())
    ref = run_pipeline(PipelineConfig(input=str(small_corpus), seed=2, baseline=True))
    assert data["wsb"] == ref.data["wsb"]
    assert data["comparison"] == ref.data["comparison"]
    assert data["config"]["baseline"] is True
    assert data["clusters"]["kmeans"]["4"] == ref.data["clusters"]["kmeans"]["4"]
    assert "3" in data["clusters"]["ward"]
    assert data["robustness"] is not None and data["thresholds"] is not None


def test_stage_commands_run_no_other_fits(small_corpus, tmp_path, monkeypatch):
    from citetraj import cli, poisson, wsb

    with_wsb, without_wsb = tmp_path / "with", tmp_path / "without"
    for out, extra in ((with_wsb, []), (without_wsb, ["--no-baseline"])):
        assert main(["fit", "--input", str(small_corpus), "--output-dir", str(out),
                     "--seed", "2"] + extra) == EXIT_OK

    def refuse(*args, **kwargs):
        raise AssertionError("a stage command re-ran a fit")

    fit_wsb_corpus = wsb.fit_wsb_corpus
    for module, name in ((cli, "run_pipeline"), (poisson, "fit_matrix"),
                         (wsb, "fit_wsb_corpus")):
        monkeypatch.setattr(module, name, refuse)
    assert main(["cluster", "--output-dir", str(with_wsb), "--method", "ward",
                 "--k-clusters", "3"]) == EXIT_OK
    monkeypatch.setattr(wsb, "fit_wsb_corpus", fit_wsb_corpus)
    assert main(["baseline", "--output-dir", str(without_wsb)]) == EXIT_OK
    data = json.loads((without_wsb / "model.json").read_text())
    assert data["wsb"] is not None and data["comparison"] is not None


def test_fit_encodes_the_model_twice(small_corpus, tmp_path, monkeypatch):
    # One canonical encode hashes the body, one writes the file.
    from citetraj import pipeline

    calls = []
    encode = pipeline._canonical_bytes
    monkeypatch.setattr(pipeline, "_canonical_bytes",
                        lambda data: calls.append(1) or encode(data))
    assert main(["fit", "--no-baseline", "--input", str(small_corpus),
                 "--output-dir", str(tmp_path)]) == EXIT_OK
    assert len(calls) == 2
    pipeline.load_model(tmp_path / "model.json")


def _edit_stored_counts(out):
    path = out / "model.json"
    data = json.loads(path.read_text())
    data["corpus"]["counts"][0][0] += 1
    path.write_text(json.dumps(data))


def _csv(header_years, rows):
    head = "id," + ",".join(f"y{j}" for j in range(1, header_years + 1))
    return "\n".join([head] + [f"p{i}," + ",".join(map(str, r)) for i, r in enumerate(rows)])


# (corpus: "head4" for the first 4 items of the small corpus, or CSV text;
#  whether a `fit --no-baseline` model is written first; an edit to that
#  model; the failing command; its exit code; a fragment of its stderr).
_FAILURES = {
    "edited_model": ("head4", True, _edit_stored_counts, ["cluster"], EXIT_DATA,
                     "checksum mismatch"),
    "all_zero_corpus": (_csv(5, [(0,) * 5] * 6), False, None, ["fit", "--no-baseline"],
                        EXIT_CONFIG, "stage 'eigenbasis'"),
    "two_year_grid": (_csv(2, [(i, i + 1) for i in range(6)]), False, None, ["fit"],
                      EXIT_NUMERIC, "stage 'mean'"),
    "more_clusters_than_items": ("head4", True, None, ["cluster", "--k-clusters", "5"],
                                 EXIT_CONFIG, "4 items cannot form 5 clusters"),
    "bad_k_range": ("head4", True, None, ["sensitivity", "--k-range", "2:x"],
                    EXIT_CONFIG, "'2:x'"),
    "empty_k_range": ("head4", True, None, ["sensitivity", "--k-range", "6:2"],
                      EXIT_CONFIG, "need at least one K value"),
}


@pytest.mark.parametrize("case", list(_FAILURES))
def test_failure_exit_codes(case, small_corpus, tmp_path, capsys):
    corpus, fit_first, edit, command, code, message = _FAILURES[case]
    if corpus == "head4":
        path = tmp_path / "corpus.jsonl"
        path.write_text("\n".join(small_corpus.read_text().splitlines()[:4]) + "\n")
    else:
        path = tmp_path / "corpus.csv"
        path.write_text(corpus + "\n")
    out = ["--output-dir", str(tmp_path / "out")]
    if fit_first:
        assert main(["fit", "--no-baseline", "--input", str(path)] + out) == EXIT_OK
    if edit:
        edit(tmp_path / "out")
    capsys.readouterr()
    assert main(command + ["--input", str(path)] + out) == code
    assert message in capsys.readouterr().err


class TestConfigFile:
    def test_parse_and_precedence(self, tmp_path):
        cfg = tmp_path / "opts.conf"
        cfg.write_text(
            "# options\n"
            "seed = 7\n"
            "k-clusters = 3\n"
            "standardize = true\n"
            "m_wsb = 25.5\n"
        )
        opts = read_config_file(str(cfg))
        assert opts == {"seed": 7, "k_clusters": 3, "standardize": True,
                        "m_wsb": 25.5}
        parser = build_parser()
        args = parser.parse_args(["fit", "--config", str(cfg), "--seed", "9",
                                  "--input", "x.csv"])
        from citetraj.cli import _merge_config

        merged = _merge_config(args)
        assert merged.seed == 9          # flag beats file
        assert merged.k_clusters == 3    # file beats default
        assert merged.standardize is True
        assert merged.m_wsb == 25.5
        assert merged.jobs == 1          # default

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "opts.conf"
        cfg.write_text("mystery = 1\n")
        with pytest.raises(ConfigError, match="unknown config keys"):
            read_config_file(str(cfg))

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            read_config_file("/nonexistent/opts.conf")

    def test_malformed_line(self, tmp_path):
        cfg = tmp_path / "opts.conf"
        cfg.write_text("just some words\n")
        with pytest.raises(ConfigError, match="key = value"):
            read_config_file(str(cfg))
