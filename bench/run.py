"""citetraj benchmark: end-to-end metrics per workload, per-layer metrics traced.

    python3 bench/run.py --workload run_20k --seed 1 --seconds 16 --trace 0

Run it from the root of a source tree (``src/citetraj`` next to ``bench/``).
Each run times the workload's commands in a fresh child process per sample
until ``--seconds`` of command time have passed, with at least two samples,
and reports medians.  It sets up (corpus generation and write, plus the
model build where the workload reads one) before the first sample and again
after each of the next ones, and reports the median set-up time; spreading
the set-ups over the run keeps one burst of host load from setting it.  Every sample's output is checked; a failed command or
check counts in ``failed``.  ``--trace 1`` instead times an untraced, a
span-traced, a second untraced and an allocation-traced sample and reports
the per-layer metrics; the tracing overhead is the traced wall time minus
the mean of the two untraced walls around it.  ``--workload all`` runs every
workload in turn, untraced, within one deadline.

Stdout ends with one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit).  The line before it holds the details:
environment, every sample, and the workload-specific quality metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer as tr
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 3
MIN_SAMPLES = 2
TRACE_MODES = ("off", "spans", "off", "alloc")
# Hard limit on one invocation, below the 180 s a run may take; with
# ``--workload all`` the workloads share it.
RUN_DEADLINE_S = 165.0
# Pinned so that the load stays inside one core per process and run-to-run
# spread is not set by BLAS thread scheduling.
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONDONTWRITEBYTECODE": "1",
    "PYTHONHASHSEED": "0",
}


class ChildFailed(RuntimeError):
    pass


def _child(job: dict, deadline: float) -> dict:
    """Run one worker process and return its result; it is always reaped."""
    result_path = Path(job["dir"]) / f"{job['mode']}-result.json"
    job = {**job, "result": str(result_path), "src": str(ROOT / "src")}
    Path(job["dir"]).mkdir(parents=True, exist_ok=True)
    env = {**os.environ, **CHILD_ENV}
    timeout = max(deadline - time.monotonic(), 1.0)
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), json.dumps(job)],
            stdout=subprocess.DEVNULL, env=env, cwd=str(ROOT), timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{job['mode']} timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0 or not result_path.exists():
        raise ChildFailed(f"{job['mode']} exited with code {proc.returncode}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def _environment(versions: dict) -> dict:
    """What a result must carry so that results from different hosts or
    sources are never compared by mistake."""
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        **versions,
        "blas_threads": CHILD_ENV["OPENBLAS_NUM_THREADS"],
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
    }


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _sample(workload: str, seed: int, run_dir: Path, index: int, trace: str,
            deadline: float) -> dict:
    job = {"mode": "sample", "workload": workload, "seed": seed, "trace": trace,
           "dir": str(run_dir / f"sample{index}"), "setup_dir": str(run_dir / "setup")}
    try:
        res = _child(job, deadline)
    except ChildFailed as exc:
        n = len(wl.WORKLOADS[workload].commands)
        res = {"commands": [{"command": "?", "rc": None, "wall_s": None,
                             "problems": [str(exc)]}] * n,
               "wall_s": None, "peak_rss_mb": None, "quality": {}}
    shutil.rmtree(run_dir / f"sample{index}", ignore_errors=True)
    return res


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 deadline: float) -> tuple[dict, dict]:
    """One benchmark run; returns (details, result line)."""
    started = time.monotonic()
    w = wl.WORKLOADS[name]
    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"{name}-s{seed}-p{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    setups, samples = [], []

    def set_up():
        # Always the same place: the model echoes its input path, so only
        # set-ups at one path can be compared byte for byte.
        shutil.rmtree(run_dir / "setup", ignore_errors=True)
        setups.append(_child({"mode": "setup", "workload": name, "seed": seed,
                              "dir": str(run_dir / "setup")}, deadline))

    try:
        set_up()
        measured = 0.0
        while True:
            if trace:
                if len(samples) == len(TRACE_MODES):
                    break
                mode = TRACE_MODES[len(samples)]
            else:
                if len(samples) >= MIN_SAMPLES and measured >= seconds:
                    break
                last = samples[-1]["wall_s"] if samples else 0.0
                if samples and (last is None or time.monotonic() + 1.5 * last > deadline):
                    break
                mode = "off"
            samples.append(_sample(name, seed, run_dir, len(samples), mode, deadline))
            measured += samples[-1]["wall_s"] or 0.0
            if len(setups) < SETUP_REPEATS:
                set_up()
        while len(setups) < SETUP_REPEATS:
            set_up()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    problems = [f"set-up is not deterministic: {key} differs between repeats"
                for key in ("corpus_sha256", "model_checksum")
                if len({r[key] for r in setups}) != 1]

    commands = [c for s in samples for c in s["commands"]]
    failed = sum(bool(c["problems"]) for c in commands)
    attempted = len(commands)
    walls = [s["wall_s"] for s in samples]
    quality_names = sorted({k for s in samples for k in s["quality"]})
    quality = {k: _median([s["quality"].get(k) for s in samples]) for k in quality_names}
    details = {
        "workload": name,
        "seed": seed,
        "n_items": w.n_items,
        "env": _environment(setups[0]["env"]),
        "setup_s": [r["setup_s"] for r in setups],
        "samples": [{"wall_s": s["wall_s"], "peak_rss_mb": s["peak_rss_mb"],
                     "commands": [{k: c.get(k) for k in ("command", "rc", "wall_s", "problems")}
                                  for c in s["commands"]]} for s in samples],
        "problems": problems + [p for c in commands for p in c["problems"]],
        "quality": quality,
        "failed_frac": failed / attempted if attempted else 1.0,
        "run_s": time.monotonic() - started,
    }
    if trace:
        off1, spans, off2, alloc = samples
        values = tr.layer_metrics(spans.get("spans", []), spans.get("counters", {}),
                                  spans["wall_s"] or 0.0,
                                  _median([off1["wall_s"], off2["wall_s"]]),
                                  alloc.get("alloc_peak", {}))
        metrics = {m[0]: {"value": values[m[0]], "unit": m[1]} for m in tr.per_layer_metrics()}
        (WORK / f"spans-{name}.json").write_text(json.dumps(spans.get("spans", [])))
    else:
        wall = _median(walls)
        values = {
            "wall_s": wall,
            "items_per_s": w.n_items / wall if wall else 0.0,
            "peak_rss_mb": _median(s["peak_rss_mb"] for s in samples),
            "setup_s": _median(r["setup_s"] for r in setups),
            "ok_frac": 1.0 - details["failed_frac"],
            **{k: quality.get(k, 0.0) for k in
               ("ari_planted", "fit_converged_frac", "fpca_median_log10_mse")},
        }
        metrics = {m.name: {"value": values[m.name], "unit": m.unit} for m in wl.END_TO_END}
        details["wall_s_samples"] = len([v for v in walls if v is not None])
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return details, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all" and args.trace:
        # Three traced runs take longer than one invocation may.
        parser.error("--trace 1 takes a single workload")
    deadline = time.monotonic() + RUN_DEADLINE_S
    # Turn SIGTERM into an exception, so that the running child is killed and
    # reaped and the run directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "citetraj" / "cli.py").is_file():
        print(f"no citetraj sources under {ROOT / 'src'}; run from a source tree",
              file=sys.stderr)
        return 2
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            details, result = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                           deadline)
        except ChildFailed as exc:
            print(f"{name}: set-up failed: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(details, sort_keys=True))
        if len(names) > 1:
            print(json.dumps({"workload": name, **result}))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        combined["metrics"].update({prefix + k: v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
