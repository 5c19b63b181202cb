"""Child process of the benchmark: one set-up or one timed sample per process.

    python3 bench/worker.py '<job json>'

A job names its ``mode`` (``setup`` or ``sample``), the workload, the seed,
the source root and run directory, and the file to write the result to.
Every sample starts from a fresh interpreter, as a command-line user does,
and times ``citetraj.cli.main`` in-process.  The output checks run after the
timed commands, on the files the commands wrote.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402


def _import_citetraj(src: str):
    sys.path.insert(0, src)
    import citetraj.cli

    if not os.path.realpath(citetraj.cli.__file__).startswith(os.path.realpath(src) + os.sep):
        raise RuntimeError(f"citetraj imported from {citetraj.cli.__file__}, not {src}")
    return citetraj


def _cli(citetraj, argv: list[str]) -> int:
    # Look ``main`` up at call time so that a traced sample goes through its wrapper.
    with contextlib.redirect_stdout(io.StringIO()):
        return citetraj.cli.main(argv)


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def setup(job: dict) -> dict:
    """Generate the corpus (and for a stored-model workload, the model)."""
    w = wl.WORKLOADS[job["workload"]]
    seed = job["seed"]
    citetraj = _import_citetraj(job["src"])
    from citetraj import synthgen
    from citetraj.data import write_corpus

    run_dir = job["dir"]
    os.makedirs(os.path.join(run_dir, "input"), exist_ok=True)
    corpus_path = os.path.join(run_dir, "input", "corpus.jsonl")
    corpus, truth = synthgen.simulate_corpus(synthgen.default_spec(w.n_items, seed=seed))
    write_corpus(corpus, corpus_path, format="jsonl")
    # The planted truth stays with the benchmark; the program only sees the corpus.
    with open(os.path.join(run_dir, "truth.json"), "w", encoding="utf-8") as fh:
        json.dump({"ids": list(truth.ids), "archetypes": list(truth.archetypes)}, fh)
    result = {"corpus_sha256": _sha256(corpus_path), "model_checksum": None}
    if w.model_build is not None:
        model_dir = os.path.join(run_dir, "model")
        rc = _cli(citetraj, wl.fill(w.model_build, corpus_path, model_dir, seed))
        if rc != 0:
            raise RuntimeError(f"model build exited {rc}")
        result["model_checksum"] = citetraj.pipeline.load_model(
            os.path.join(model_dir, "model.json")).data["checksum"]
    result["setup_s"] = time.perf_counter() - T_START
    import numpy
    import scipy

    result["env"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    return result


def _ari(a, b) -> float:
    """Adjusted Rand index, kept apart from the program's own implementation."""
    import numpy as np

    _, ai = np.unique(np.asarray(a), return_inverse=True)
    _, bi = np.unique(np.asarray(b), return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1))
    np.add.at(table, (ai, bi), 1)
    pairs = lambda x: float((x * (x - 1) / 2.0).sum())  # noqa: E731
    sum_ij, sum_a, sum_b = pairs(table), pairs(table.sum(1)), pairs(table.sum(0))
    expected = sum_a * sum_b / (len(ai) * (len(ai) - 1) / 2.0)
    return (sum_ij - expected) / (0.5 * (sum_a + sum_b) - expected)


def _median_log10(values) -> float:
    import numpy as np

    return float(np.median(np.log10(np.maximum(np.asarray(values, dtype=float), 1e-12))))


def _check_model(citetraj, out: str, truth: dict, quality: dict) -> list[str]:
    """Checks on a written model; fills ``quality`` with what it measures."""
    model = citetraj.pipeline.load_model(os.path.join(out, "model.json"))  # verifies the checksum
    data = model.data
    problems = []
    if data["corpus"]["ids"] != truth["ids"]:
        return ["model items differ from the corpus"]
    quality["fit_converged_frac"] = float(data["fit_summary"]["convergence_rate"])
    quality["fpca_median_log10_mse"] = _median_log10(data["fits"]["mse"])
    assign = data["clusters"]["kmeans"]["4"]["assignments"]
    quality["ari_planted"] = _ari(assign, truth["archetypes"])
    if quality["ari_planted"] < wl.MIN_ARI_PLANTED:
        problems.append(f"ari_planted {quality['ari_planted']:.3f} < {wl.MIN_ARI_PLANTED}")
    if data.get("wsb"):
        quality["wsb_median_log10_mse"] = _median_log10(data["wsb"]["mse"])
        quality["wsb_converged_frac"] = sum(data["wsb"]["converged"]) / len(data["wsb"]["converged"])
        if quality["fpca_median_log10_mse"] > quality["wsb_median_log10_mse"]:
            problems.append("fpca median log10 MSE above the WSB median")
    if data.get("robustness"):
        problems += _check_sweep(data, quality)
    return problems


def _check_sweep(data: dict, quality: dict) -> list[str]:
    problems = []
    cells = data["robustness"]["cells"]
    for m in wl.SWEEP_METHODS:
        for k in wl.SWEEP_K:
            if str(k) not in cells.get(m, {}):
                problems.append(f"sweep cell ({m}, K={k}) missing")
    ari_k4 = data["robustness"]["ari"].get("4", {})
    if len(ari_k4) != 3:
        return problems + ["sweep has no ARI for every method pair at K=4"]
    quality["sweep_min_ari_k4"] = min(ari_k4.values())
    if quality["sweep_min_ari_k4"] < wl.MIN_SWEEP_ARI_K4:
        problems.append(f"sweep_min_ari_k4 {quality['sweep_min_ari_k4']:.3f} < {wl.MIN_SWEEP_ARI_K4}")
    runs = data["thresholds"]["runs"]
    floor = str(wl.SWEEP_THRESHOLDS[-1])
    quality["threshold_ari"] = runs.get(floor, {}).get("ari_vs_base", 0.0)
    if quality["threshold_ari"] < wl.MIN_THRESHOLD_ARI:
        problems.append(f"threshold_ari {quality['threshold_ari']:.3f} < {wl.MIN_THRESHOLD_ARI}")
    return problems


def _check(citetraj, command: str, out: str, truth: dict, quality: dict) -> list[str]:
    if command in ("run", "sensitivity"):
        problems = _check_model(citetraj, out, truth, quality)
        if command == "sensitivity" and "sweep_min_ari_k4" not in quality:
            problems.append("sensitivity wrote no sweep")
        if command == "run" and not os.listdir(os.path.join(out, "plots")):
            problems.append("run wrote no plots")
        return problems
    if command == "plot":
        written = set(os.listdir(os.path.join(out, "plots")))
        wanted = {"robustness.csv", "thresholds.csv"}
        return [f"plot did not write {sorted(wanted - written)}"] if wanted - written else []
    return [f"no check for command {command!r}"]


def sample(job: dict) -> dict:
    """Time the workload's commands once, then check what they wrote."""
    w = wl.WORKLOADS[job["workload"]]
    seed = job["seed"]
    citetraj = _import_citetraj(job["src"])
    setup_dir = job["setup_dir"]
    corpus_path = os.path.join(setup_dir, "input", "corpus.jsonl")
    out = os.path.join(job["dir"], "out")
    os.makedirs(out, exist_ok=True)
    if w.model_build is not None:
        shutil.copy(os.path.join(setup_dir, "model", "model.json"), out)
    with open(os.path.join(setup_dir, "truth.json"), encoding="utf-8") as fh:
        truth = json.load(fh)

    mode = job["trace"]  # "off", "spans" or "alloc"
    tracer = tr.Tracer(alloc=mode == "alloc")
    commands = []
    with tr.installed(tracer) if mode != "off" else contextlib.nullcontext():
        for argv in w.commands:
            args = wl.fill(argv, corpus_path, out, seed)
            t0 = time.perf_counter()
            try:
                rc, error = _cli(citetraj, args), None
            except Exception as exc:  # the command raised: a failed command
                rc, error = None, "".join(traceback.format_exception_only(exc)).strip()
            commands.append({"command": args[0], "rc": rc, "wall_s": time.perf_counter() - t0,
                             "error": error})
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    quality: dict = {}
    for cmd in commands:
        if cmd["rc"] != 0:
            cmd["problems"] = [cmd["error"] or f"exit code {cmd['rc']}"]
            continue
        try:
            cmd["problems"] = _check(citetraj, cmd["command"], out, truth, quality)
        except Exception as exc:  # a malformed output is a failed check
            cmd["problems"] = ["check raised " + "".join(
                traceback.format_exception_only(exc)).strip()]
    result = {
        "commands": commands,
        "wall_s": sum(c["wall_s"] for c in commands),
        "peak_rss_mb": peak_rss_mb,
        "quality": quality,
    }
    if mode != "off":
        result["spans"] = tracer.spans
        result["counters"] = dict(tracer.counters)
        result["alloc_peak"] = dict(tracer.alloc_peak)
    return result


def main() -> None:
    job = json.loads(sys.argv[1])
    result = setup(job) if job["mode"] == "setup" else sample(job)
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
