"""Golden-model regression test.

``golden/corpus.csv`` is ``synthgen.default_spec(150, 3)`` written as CSV,
and ``golden/model_view.json`` holds the compared content of the model that
``citetraj fit --seed 3`` followed by ``citetraj sensitivity`` builds from it.
Discrete results must match exactly; floating-point results match at
rtol 1e-9; each item's WSB objective may not be worse than the golden one by
more than 1e-9 relative (plus 1e-9 absolute), so a better optimizer passes
and a worse one fails.  The gate fails on any float change above rtol and
deliberately does not compare bitwise: computing the same quantity by an
equivalent formula moves it by a few ulps, and that is not a change of
model content.  A deliberate change of model content rewrites the
golden view in the same change:

    PYTHONPATH=src python tests/test_golden.py
"""

import copy
import json
from pathlib import Path

import numpy as np

from citetraj.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "golden"
RTOL = 1e-9
EXACT = ("recommended_k", "assignments", "cluster_labels", "item_labels",
         "converged", "ridged", "sweep")
CLOSE = ("eigenvalues", "scores", "loglik", "mse")


def build_model(out_dir) -> dict:
    """fit -> sensitivity on the golden corpus; returns the model JSON."""
    common = ["--output-dir", str(out_dir), "--seed", "3"]
    assert main(["fit", "--input", str(GOLDEN / "corpus.csv")] + common) == EXIT_OK
    assert main(["sensitivity"] + common) == EXIT_OK
    return json.loads((Path(out_dir) / "model.json").read_text())


def golden_view(data: dict) -> dict:
    """The compared fields of a model."""
    entry = data["clusters"][data["config"]["method"]][str(data["config"]["k_clusters"])]
    cells = data["robustness"]["cells"]
    return {
        "recommended_k": data["selection"]["recommended_k"],
        "assignments": entry["assignments"],
        "cluster_labels": entry["labels"],
        "item_labels": data["item_labels"],
        "converged": data["fits"]["converged"],
        "ridged": data["fits"]["ridged"],
        "sweep": {
            "cells": {m: {k: {"sizes": c["sizes"], "labels": c["labels"]}
                          for k, c in by_k.items()} for m, by_k in cells.items()},
            "threshold_labels": {tau: run.get("labels")
                                 for tau, run in data["thresholds"]["runs"].items()},
        },
        "eigenvalues": data["basis"]["eigenvalues"],
        "scores": data["fits"]["scores"],
        "loglik": data["fits"]["loglik"],
        "mse": data["fits"]["mse"],
        "wsb_objective": data["wsb"]["objective"],
    }


def mismatches(got: dict, want: dict) -> list[str]:
    """Every field of ``got`` that the golden ``want`` does not admit."""
    bad = [name for name in EXACT if got[name] != want[name]]
    for name in CLOSE:
        a, b = np.asarray(got[name], dtype=float), np.asarray(want[name], dtype=float)
        if a.shape != b.shape or not np.allclose(a, b, rtol=RTOL, atol=0.0):
            bad.append(name)
    f, f_golden = (np.asarray(v, dtype=float) for v in (got["wsb_objective"],
                                                         want["wsb_objective"]))
    if f.shape != f_golden.shape or not (f <= f_golden * (1 + RTOL) + RTOL).all():
        bad.append("wsb_objective")
    return bad


def load_golden() -> dict:
    return json.loads((GOLDEN / "model_view.json").read_text())


def test_model_matches_golden(tmp_path):
    assert mismatches(golden_view(build_model(tmp_path)), load_golden()) == []


def test_comparison_catches_planted_changes():
    want = load_golden()
    assert mismatches(want, want) == []

    score = copy.deepcopy(want)
    score["scores"][7][1] *= 1 + 10 * RTOL
    assert mismatches(score, want) == ["scores"]

    label = copy.deepcopy(want)
    labels = label["cluster_labels"]
    labels[0], labels[1] = labels[1], labels[0]
    assert mismatches(label, want) == ["cluster_labels"]

    worse = copy.deepcopy(want)
    worse["wsb_objective"][3] *= 1 + 10 * RTOL
    assert mismatches(worse, want) == ["wsb_objective"]
    better = copy.deepcopy(want)
    better["wsb_objective"][3] *= 0.5
    assert mismatches(better, want) == []


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        view = golden_view(build_model(tmp))
    (GOLDEN / "model_view.json").write_text(json.dumps(view, sort_keys=True, indent=1) + "\n")
