"""Repeat the benchmark over seeds and summarise every metric.

    python3 bench/baseline.py --seeds 1-10 --trace-seeds 1-3 --out bench/baseline.json

Runs ``bench/run.py`` once per (workload, seed), one run at a time, and
writes, per workload and metric, the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the sample count and the
spread (quartile distance over the median).  The raw per-run values are kept
so that a later baseline can be compared run by run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import tracer as tr
import workloads as wl

BENCH = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    out = {"n": len(values), "median": statistics.median(values), "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3,
                   spread=(q3 - q1) / abs(out["median"]) if out["median"] else None)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace-seeds", default="")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    seconds = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"]
    report = {"run_seconds": seconds, "end_to_end": {}, "per_layer": {},
              "quality": {}, "failed": 0, "attempted": 0}
    for name in wl.WORKLOADS:
        for trace, seeds, key in ((0, args.seeds, "end_to_end"), (1, args.trace_seeds, "per_layer")):
            runs = {}
            quality = {}
            for seed in _seeds(seeds) if seeds else []:
                details, result = _run(name, seed, seconds, trace)
                report["env"] = details["env"]
                report.setdefault("run_s", {}).setdefault(f"{name}/trace{trace}", []).append(
                    details["run_s"])
                report["failed"] += result["failed"]
                report["attempted"] += result["attempted"]
                for metric, v in result["metrics"].items():
                    runs.setdefault(metric, []).append(v["value"])
                for metric, v in details["quality"].items():
                    quality.setdefault(metric, []).append(v)
                print(name, seed, trace, result["correct"],
                      {k: round(v["value"], 4) for k, v in result["metrics"].items()
                       if key == "end_to_end"}, file=sys.stderr, flush=True)
            if runs:
                report[key][name] = {m: summarise(v) for m, v in runs.items()}
            if quality and trace == 0:
                report["quality"][name] = {m: summarise(v) for m, v in quality.items()}
    report["per_layer_targets"] = {
        name: {"moves": target, "on": list(on)}
        for name, _, _, target, on in tr.per_layer_metrics() if target
    }
    text = json.dumps(report, indent=1, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
    for name, metrics in report["end_to_end"].items():
        print(name, {m: (round(s["median"], 4), round(s.get("spread") or 0, 4))
                     for m, s in metrics.items()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
