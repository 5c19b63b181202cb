"""Tests of the benchmark itself (not of citetraj).

    python3 -m pytest -q bench/tests

The workloads run here at a few hundred items, so that the whole file takes
seconds; the sizes the benchmark measures are in ``workloads.py``.
"""

from __future__ import annotations

import importlib
import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import tracer as tr  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402

SMALL = {"run_20k": 300, "wsb_400": 12, "sweep_1k": 150}
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture
def small(monkeypatch):
    for name, n in SMALL.items():
        monkeypatch.setitem(wl.WORKLOADS, name, replace(wl.WORKLOADS[name], n_items=n))


def _setup(name: str, seed: int, where: Path) -> dict:
    return worker.setup({"workload": name, "seed": seed, "src": str(ROOT / "src"),
                         "dir": str(where)})


def test_same_seed_gives_byte_identical_corpus(small, tmp_path):
    a = _setup("run_20k", 5, tmp_path / "a")
    b = _setup("run_20k", 5, tmp_path / "b")
    c = _setup("run_20k", 6, tmp_path / "c")
    corpus = Path("input") / "corpus.jsonl"
    assert (tmp_path / "a" / corpus).read_bytes() == (tmp_path / "b" / corpus).read_bytes()
    assert a["corpus_sha256"] == b["corpus_sha256"] != c["corpus_sha256"]


def test_benchmark_json_matches_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (w.name, w.why) for w in wl.WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] == [
        (m.name, m.unit, m.better, m.bound) for m in wl.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        m[:3] for m in tr.per_layer_metrics()]
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    names += [w["name"] for w in doc["workloads"]]
    assert len(names) == len(set(names))
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert NAME.match(m["name"]), m
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]), m
        assert m["better"] in ("lower", "higher"), m
    for m in doc["end_to_end"]:
        assert 0 < m["bound"] <= 0.25, m
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def _originals() -> dict:
    return {
        (mod, attr): getattr(importlib.import_module(f"citetraj.{mod}"), attr)
        for _, _, sites, _ in tr.SITES for mod, attr in sites
    }


def test_every_site_that_holds_a_traced_function_is_wrapped():
    import citetraj  # noqa: F401

    originals = _originals()
    wrapped = set(originals)
    targets = {id(fn) for fn in originals.values()}
    # Holders the command line never calls through: the defining module of a
    # name that callers import by name, and the generator's own ARI import.
    exempt = {("data", "parse_corpus"), ("data", "filter_by_total"), ("data", "counts_matrix"),
              ("pipeline", "run_pipeline"), ("pipeline", "save_model"),
              ("pipeline", "load_model"), ("synthgen", "adjusted_rand_index")}
    for mod_name, module in list(sys.modules.items()):
        if not mod_name.startswith("citetraj."):
            continue
        short = mod_name.split(".", 1)[1]
        for attr, value in vars(module).items():
            if id(value) in targets and (short, attr) not in wrapped | exempt:
                pytest.fail(f"citetraj.{short}.{attr} holds a traced function but is not wrapped")


@pytest.mark.parametrize("name", list(SMALL))
def test_wrappers_fire_on_their_workload_and_are_removed(small, tmp_path, name):
    originals = _originals()
    _setup(name, 3, tmp_path / "setup")
    for mode in ("spans", "alloc"):
        res = worker.sample({"workload": name, "seed": 3, "src": str(ROOT / "src"),
                             "trace": mode, "dir": str(tmp_path / mode),
                             "setup_dir": str(tmp_path / "setup")})
        assert [c["rc"] for c in res["commands"]] == [0] * len(wl.WORKLOADS[name].commands)
        for (mod, attr), fn in originals.items():
            assert getattr(importlib.import_module(f"citetraj.{mod}"), attr) is fn
    values = tr.layer_metrics(res["spans"], res["counters"], 1.0, 1.0, res["alloc_peak"])
    for metric, _, _, _, on in tr.per_layer_metrics():
        if name in on and metric.endswith((".calls", ".alloc_peak_mb")):
            assert values[metric] > 0, metric
    if name == "wsb_400":
        assert values["wsb.minimize.nfev"] > 0
    if name == "run_20k":
        assert values["poisson.fit_items.items"] > 0
        assert values["poisson.newton_iterations"] > 0


def test_self_time_excludes_children_and_uncovered_time_is_reported():
    spans = [
        ["cli.main", 0.0, 10.0, -1],
        ["pipeline.run_pipeline", 1.0, 9.0, 0],
        ["fpca.select_k_loglik", 2.0, 6.0, 1],
        ["poisson.fit_items", 2.5, 5.5, 2],
    ]
    values = tr.layer_metrics(spans, {}, 12.0, 11.0, {})
    assert values["cli.main.s"] == pytest.approx(2.0)
    assert values["cli.main.total_s"] == pytest.approx(10.0)
    assert values["pipeline.run_pipeline.s"] == pytest.approx(4.0)
    assert values["fpca.select_k_loglik.s"] == pytest.approx(1.0)
    assert values["poisson.fit_items.s"] == pytest.approx(3.0)
    assert values["trace.uncovered_s"] == pytest.approx(2.0)
    assert values["trace.overhead_s"] == pytest.approx(1.0)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "run_20k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
