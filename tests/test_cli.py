import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import citetraj
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


# scipy subpackages the command line does not need; each one would add to
# the start-up time of every command.
UNUSED_SCIPY = ("scipy.stats", "scipy.optimize", "scipy.interpolate", "scipy.integrate",
                "scipy.signal", "scipy.ndimage")


def test_cli_import_leaves_unused_scipy_unloaded():
    src = str(Path(citetraj.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = f"import sys, citetraj.cli; print([m for m in {UNUSED_SCIPY!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


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


def test_plot_without_any_floor_ari(small_corpus, tmp_path):
    # A floor no item reaches leaves every run, the base included, without
    # an ARI, so the thresholds chart has no finite y to draw.
    out = ["--output-dir", str(tmp_path)]
    assert main(["fit", "--no-baseline", "--input", str(small_corpus)] + out) == EXIT_OK
    assert main(["sensitivity", "--thresholds", "10000000"] + out) == EXIT_OK
    assert main(["plot"] + out) == EXIT_OK
    plots = tmp_path / "plots"
    assert (plots / "thresholds.csv").exists()
    svg = (plots / "thresholds.svg").read_text()
    assert "nan" not in svg.lower()
    assert svg.count("<polyline") == 1


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
    # Model files written while K selection ran a fold loop echo `folds`, and
    # those written before bandwidths were checked may echo a GCV run's 0.
    model = run_pipeline(PipelineConfig(input=str(workspace / "corpus.jsonl"), seed=2,
                                        baseline=False))
    model.data["config"].update(folds=5, bandwidth=0.0)
    save_model(model, tmp_path / "model.json")
    rc = main(["cluster", "--output-dir", str(tmp_path), "--method", "ward",
               "--k-clusters", "3"])
    assert rc == EXIT_OK
    data = json.loads((tmp_path / "model.json").read_text())
    assert "3" in data["clusters"]["ward"]
    assert "folds" not in data["config"]
    assert data["config"]["bandwidth"] is None


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


def test_config_file_keys_reach_sensitivity(small_corpus, tmp_path, monkeypatch):
    from citetraj import pipeline

    out = ["--output-dir", str(tmp_path)]
    assert main(["fit", "--no-baseline", "--input", str(small_corpus)] + out) == EXIT_OK
    seen = []
    sensitivity = pipeline.sensitivity

    def recording(*args):
        seen.append(args[-1])
        return sensitivity(*args)

    monkeypatch.setattr(pipeline, "sensitivity", recording)
    conf = tmp_path / "sweep.conf"
    conf.write_text("evergreen-tol = 0.2\nseed = 5\nrestarts = 3\n")
    assert main(["sensitivity", "--config", str(conf), "--seed", "4", "--k-range", "2:3",
                 "--thresholds", "0"] + out) == EXIT_OK
    assert [(c.evergreen_tol, c.seed, c.restarts) for c in seen] == [(0.2, 4, 3)]


def test_interrupt_in_a_stage_propagates(small_corpus, tmp_path, monkeypatch):
    from citetraj import fpca

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(fpca, "estimate_mean", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["fit", "--no-baseline", "--input", str(small_corpus),
              "--output-dir", str(tmp_path)])


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


def test_fit_encodes_the_model_once(small_corpus, tmp_path, monkeypatch):
    # The checksum and the file share one encode of each member, so the
    # bytes encoded during `fit` barely exceed the file (two encodes: 2x).
    from citetraj import pipeline

    encoded = []
    encode = pipeline._canonical_bytes

    def counting(data):
        out = encode(data)
        encoded.append(len(out))
        return out

    monkeypatch.setattr(pipeline, "_canonical_bytes", counting)
    assert main(["fit", "--no-baseline", "--input", str(small_corpus),
                 "--output-dir", str(tmp_path)]) == EXIT_OK
    size = (tmp_path / "model.json").stat().st_size
    assert 0 < sum(encoded) <= 1.01 * size
    pipeline.load_model(tmp_path / "model.json")


def _edit_stored_counts(out):
    path = out / "model.json"
    data = json.loads(path.read_text())
    data["corpus"]["counts"][0][0] += 1
    path.write_text(json.dumps(data))


def _csv(header_years, rows):
    head = "id," + ",".join(f"y{j}" for j in range(1, header_years + 1))
    return "\n".join([head] + [f"p{i}," + ",".join(map(str, r)) for i, r in enumerate(rows)])


_JSONL_A = '{"id": "a", "counts": [1, 2]}\n'

# (corpus: "head4" for the first 4 items of the small corpus, or CSV or JSONL text;
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
    "empty_methods": ("head4", True, None, ["sensitivity", "--methods", " , "], EXIT_CONFIG,
                      "need at least one clustering method"),
    "zero_bandwidth": ("head4", False, None, ["fit", "--bandwidth", "0"], EXIT_CONFIG,
                       "bandwidth must be > 0"),
    "count_beyond_int64": (_csv(5, [(1,) * 5, (1, 2, 99999999999999999999, 0, 0)]), False,
                           None, ["fit"], EXIT_DATA,
                           "line 3: item 'p1': count 99999999999999999999 exceeds 2**53"),
    "jsonl_int_counts": (_JSONL_A + '{"id": "b", "counts": 5}', False, None, ["fit"],
                         EXIT_DATA, "stage 'ingest': line 2: expected object with 'id' and "
                         "a 'counts' list"),
    "jsonl_string_counts": (_JSONL_A + '{"id": "b", "counts": "12"}', False, None, ["ingest"],
                            EXIT_DATA, "line 2: expected object with 'id' and a 'counts' list"),
    # A negative count on line 1 is reported before invalid JSON on line 5.
    "jsonl_first_fault_by_line": ('{"id": "a", "counts": [1, -2]}\n'
                                  + "".join('{"id": "%s", "counts": [1, 2]}\n' % i for i in "bcd")
                                  + "not json", False, None, ["ingest"], EXIT_DATA,
                                  "line 1: item 'a': negative count -2"),
}


@pytest.mark.parametrize("case", list(_FAILURES))
def test_failure_exit_codes(case, small_corpus, tmp_path, capsys):
    corpus, fit_first, edit, command, code, message = _FAILURES[case]
    if corpus == "head4":
        path = tmp_path / "corpus.jsonl"
        path.write_text("\n".join(small_corpus.read_text().splitlines()[:4]) + "\n")
    else:
        path = tmp_path / ("corpus.jsonl" if corpus.startswith("{") else "corpus.csv")
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
        from citetraj.cli import _resolve_options

        merged, given = _resolve_options(args)
        assert merged.seed == 9          # flag beats file
        assert merged.k_clusters == 3    # file beats default
        assert merged.standardize is True
        assert merged.m_wsb == 25.5
        assert merged.jobs == 1          # default
        assert given == {"seed": 9, "k_clusters": 3, "standardize": True, "m_wsb": 25.5,
                         "input": "x.csv"}

    @pytest.mark.parametrize("file_line, flags, baseline", [
        ("", [], True),
        ("baseline = off\n", [], False),
        ("baseline = yes\n", ["--no-baseline"], False),
    ], ids=["defaults", "file_off", "flag_beats_file"])
    def test_untyped_flags_keep_file_values(self, tmp_path, file_line, flags, baseline):
        from citetraj.cli import _resolve_options

        cfg = tmp_path / "opts.conf"
        cfg.write_text(file_line)
        args = build_parser().parse_args(["fit", "--config", str(cfg)] + flags)
        merged, given = _resolve_options(args)
        assert merged.baseline is baseline
        assert ("baseline" in given) == bool(file_line)

    def test_none_leaves_baseline_unset_and_non_bool_is_rejected(self, tmp_path, capsys):
        from citetraj.cli import _resolve_options

        cfg = tmp_path / "opts.conf"
        cfg.write_text("baseline = none\nseed = none\n")
        merged, given = _resolve_options(build_parser().parse_args(["fit", "--config", str(cfg)]))
        assert merged.baseline is True and merged.seed == 0
        assert given == {}
        for line in ("baseline = maybe\n", "standardize = 2\n"):
            cfg.write_text(line)
            assert main(["fit", "--config", str(cfg)]) == 2
            assert "must be true or false" in capsys.readouterr().err

    def test_values_take_their_field_types(self, tmp_path):
        cfg = tmp_path / "opts.conf"
        cfg.write_text("seed = 1\nk_clusters = 0\nm_wsb = 30\nstandardize = 1\n"
                       "output_dir = 2020\nfve = none\n")
        opts = read_config_file(str(cfg))
        assert opts == {"seed": 1, "k_clusters": 0, "m_wsb": 30.0, "standardize": True,
                        "output_dir": "2020", "fve": None}
        assert [type(opts[k]) for k in ("seed", "k_clusters", "m_wsb", "output_dir")] == [
            int, int, float, str]

    def test_numeric_seed_matches_the_flag(self, small_corpus, tmp_path):
        # "1" once read as True: the model stored "seed": true and its
        # checksum differed from the --seed 1 run.
        cfg = tmp_path / "opts.conf"
        cfg.write_text("seed = 1\n")
        common = ["fit", "--no-baseline", "--input", str(small_corpus),
                  "--output-dir", str(tmp_path / "out")]
        checksums = []
        for extra in (["--config", str(cfg)], ["--seed", "1"]):
            assert main(common + extra) == EXIT_OK
            model = json.loads((tmp_path / "out" / "model.json").read_text())
            assert model["config"]["seed"] == 1 and model["config"]["seed"] is not True
            checksums.append(model["checksum"])
        assert checksums[0] == checksums[1]

    def test_bad_value_exits_2_before_any_stage(self, small_corpus, tmp_path, capsys,
                                                monkeypatch):
        from citetraj import cli

        def refuse(*args, **kwargs):
            raise AssertionError("a stage ran on a bad config")

        monkeypatch.setattr(cli, "run_pipeline", refuse)
        cfg = tmp_path / "opts.conf"
        for line in ("k_clusters = 2.5\n", "seed = abc\n", "m_wsb = yes\n"):
            cfg.write_text(line)
            rc = main(["fit", "--input", str(small_corpus), "--output-dir",
                       str(tmp_path / "out"), "--config", str(cfg)])
            assert rc == EXIT_CONFIG
            assert line.split(" =")[0] in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_numeric_output_dir_is_a_path(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "opts.conf").write_text("output_dir = 2020\n")
        assert main(["simulate", "--n-items", "5", "--config", "opts.conf"]) == EXIT_OK
        assert (tmp_path / "2020" / "corpus.jsonl").exists()

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
