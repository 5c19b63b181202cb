"""Per-layer tracing for the benchmark's traced run.

The program is not edited: the traced run replaces citetraj's public
functions with wrappers from outside, at every module attribute through
which the command line looks them up, and puts the originals back when the
run ends.  A wrapper records a span (name, start, end, parent) and the
counts it can read from the call's result.  Spans stay in memory until the
run ends; ``layer_metrics`` folds them into self times, call counts and
counters.
"""

from __future__ import annotations

import importlib
import os
import re
import statistics
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

_DROPPED = re.compile(r"(\d+) starts dropped")


def _fits(counters, fits):
    counters["poisson.newton_iterations"] += sum(int(f.iterations) for f in fits)
    counters["poisson.ridged"] += sum(bool(f.ridged) for f in fits)


def _fit_items(counters, result, args, kwargs):
    counters["poisson.fit_items.items"] += len(result)
    _fits(counters, result)


def _fit_corpus(counters, result, args, kwargs):
    _fits(counters, result)


def _fit_wsb(counters, result, args, kwargs):
    counters["wsb.converged"] += bool(result.converged)
    match = _DROPPED.search(result.diagnostics or "")
    counters["wsb.dropped_starts"] += int(match.group(1)) if match else 0


def _minimize(counters, result, args, kwargs):
    counters["wsb.minimize.nfev"] += int(result.nfev)


def _save_model(counters, result, args, kwargs):
    path = args[1] if len(args) > 1 else kwargs["path"]
    counters["pipeline.model_bytes"] = max(
        counters["pipeline.model_bytes"], os.path.getsize(path)
    )


def _emit_plots(counters, result, args, kwargs):
    counters["plots.files_written"] += len(result)


RUN, WSB, SWEEP = "run_20k", "wsb_400", "sweep_1k"
ALL = (RUN, WSB, SWEEP)

# (span name, result counter, sites, workloads whose wall_s it should move).
# A site is a (module, attribute) pair through which the command line reaches
# the function: names imported with ``from x import f`` are looked up in the
# importing module, and calls to a module global (``robustness_sweep`` ->
# ``kmeans``, ``fit_wsb_corpus`` -> ``fit_wsb``) in the defining module.
SITES = (
    ("cli.main", None, (("cli", "main"),), ALL),
    ("data.parse_corpus", None, (("pipeline", "parse_corpus"), ("cli", "parse_corpus")), (RUN,)),
    ("data.filter_by_total", None,
     (("pipeline", "filter_by_total"), ("cli", "filter_by_total")), (RUN,)),
    ("data.counts_matrix", None,
     (("pipeline", "counts_matrix"), ("plots", "counts_matrix")), (SWEEP,)),
    ("fpca.estimate_mean", None, (("fpca", "estimate_mean"),), (RUN,)),
    ("fpca.covariance_matrix", None, (("fpca", "covariance_matrix"),), (RUN,)),
    ("fpca.eigendecompose_symmetric", None, (("fpca", "eigendecompose_symmetric"),), (RUN,)),
    ("fpca.select_k_loglik", None, (("fpca", "select_k_loglik"),), (RUN,)),
    ("poisson.fit_items", _fit_items, (("poisson", "fit_items"),), (RUN,)),
    ("poisson.fit_corpus", _fit_corpus, (("poisson", "fit_corpus"),), (RUN,)),
    ("wsb.fit_wsb_corpus", None, (("wsb", "fit_wsb_corpus"),), (WSB,)),
    ("wsb.fit_wsb", _fit_wsb, (("wsb", "fit_wsb"),), (WSB,)),
    ("wsb.minimize", _minimize, (("wsb", "minimize"),), (WSB,)),
    ("wsb.compare_models", None, (("wsb", "compare_models"),), (WSB,)),
    ("clustering.kmeans", None, (("clustering", "kmeans"),), (SWEEP, RUN)),
    ("clustering.kmedoids", None, (("clustering", "kmedoids"),), (SWEEP,)),
    ("clustering.ward", None, (("clustering", "ward"),), (SWEEP,)),
    ("clustering.silhouette_mean", None, (("clustering", "silhouette_mean"),), (SWEEP,)),
    ("clustering.robustness_sweep", None, (("clustering", "robustness_sweep"),), (SWEEP,)),
    ("clustering.adjusted_rand_index", None,
     (("clustering", "adjusted_rand_index"),), (SWEEP,)),
    ("clustering.classify_item", None, (("clustering", "classify_item"),), (RUN,)),
    ("clustering.label_clusters", None, (("clustering", "label_clusters"),), (RUN,)),
    ("pipeline.run_pipeline", None, (("cli", "run_pipeline"),), (RUN,)),
    ("pipeline.save_model", _save_model, (("cli", "save_model"),), (RUN, SWEEP)),
    ("pipeline.load_model", None, (("cli", "load_model"),), (SWEEP,)),
    ("pipeline.sensitivity", None, (("pipeline", "sensitivity"),), (SWEEP,)),
    ("plots.emit_plots", _emit_plots, (("plots", "emit_plots"),), ALL),
)

# Spans whose allocation peak is measured, with tracemalloc, in a sample of
# its own because tracemalloc slows every allocation it sees.  Only the first
# call of each is measured: tracemalloc slows ward's merge loop about 20x,
# and within one workload every call sees the same number of points.
ALLOC_SPANS = (
    "fpca.select_k_loglik",
    "clustering.ward",
    "clustering.kmedoids",
    "clustering.silhouette_mean",
)

# Spans whose children hold most of their work; their inclusive time is
# reported next to the self time.
TOTAL_SPANS = (
    "cli.main",
    "fpca.select_k_loglik",
    "wsb.fit_wsb_corpus",
    "clustering.robustness_sweep",
    "pipeline.run_pipeline",
    "pipeline.sensitivity",
)

# (name, unit, better, end-to-end metric it should move, workloads)
COUNTERS = (
    ("poisson.fit_items.items", "count", "lower", "wall_s", (RUN,)),
    ("poisson.newton_iterations", "count", "lower", "fit_converged_frac", (RUN,)),
    ("poisson.ridged", "count", "lower", "fit_converged_frac", (RUN,)),
    ("wsb.minimize.nfev", "count", "lower", "wall_s", (WSB,)),
    ("wsb.dropped_starts", "count", "lower", "wall_s", (WSB,)),
    ("pipeline.model_bytes", "bytes", "lower", "wall_s", (RUN, SWEEP)),
    ("plots.files_written", "count", "higher", "wall_s", ALL),
    ("wsb.fit_wsb.p50_ms", "ms", "lower", "wall_s", (WSB,)),
    # Reported with the workload's other quality metrics in the details line.
    ("wsb.converged_frac", "fraction", "higher", "wsb_median_log10_mse", (WSB,)),
)


def per_layer_metrics() -> list[tuple[str, str, str, str | None, tuple[str, ...]]]:
    """Every per-layer metric the traced run reports:
    (name, unit, better, end-to-end metric it should move, on which workloads)."""
    out = []
    for span, _, _, workloads in SITES:
        out.append((f"{span}.s", "s", "lower", "wall_s", workloads))
        out.append((f"{span}.calls", "count", "lower", "wall_s", workloads))
        if span in TOTAL_SPANS:
            out.append((f"{span}.total_s", "s", "lower", "wall_s", workloads))
        if span in ALLOC_SPANS:
            out.append((f"{span}.alloc_peak_mb", "MB", "lower", "peak_rss_mb", workloads))
    out.extend(COUNTERS)
    for name in ("wall_s", "untraced_wall_s", "overhead_s", "uncovered_s"):
        out.append((f"trace.{name}", "s", "lower", None, ()))
    return out


class Tracer:
    """Span recorder for one single-threaded traced sample."""

    def __init__(self, alloc: bool = False):
        self.alloc = alloc
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: dict[str, float] = defaultdict(float)
        self.alloc_peak: dict[str, int] = {}
        self._open: list[int] = []

    def wrap(self, name, fn, counter):
        track_alloc = self.alloc and name in ALLOC_SPANS

        def wrapper(*args, **kwargs):
            own_alloc = (track_alloc and name not in self.alloc_peak
                         and not tracemalloc.is_tracing())
            if own_alloc:
                tracemalloc.start()
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None,
                               self._open[-1] if self._open else -1])
            self._open.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[idx][2] = time.perf_counter()
                self._open.pop()
                if own_alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.alloc_peak[name] = peak
            if counter is not None:
                counter(self.counters, result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper


@contextmanager
def installed(tracer: Tracer):
    """Replace every site in ``SITES`` with a tracing wrapper; restore on exit."""
    saved = []
    try:
        for span, counter, sites, _ in SITES:
            modules = [importlib.import_module(f"citetraj.{m}") for m, _ in sites]
            originals = {id(getattr(mod, attr)) for mod, (_, attr) in zip(modules, sites)}
            if len(originals) != 1:
                raise RuntimeError(f"sites of {span} hold different functions")
            wrapper = tracer.wrap(span, getattr(modules[0], sites[0][1]), counter)
            for mod, (_, attr) in zip(modules, sites):
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, wrapper)
        yield tracer
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)


def layer_metrics(spans: list, counters: dict, wall_s: float, untraced_wall_s: float,
                  alloc_peak: dict) -> dict[str, float]:
    """Fold the spans and counters of one traced sample into the per-layer
    metrics; ``alloc_peak`` (bytes per span) comes from the allocation sample."""
    children = defaultdict(float)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent] += end - start
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    calls = defaultdict(int)
    durations = defaultdict(list)
    root_s = 0.0
    for idx, (name, start, end, parent) in enumerate(spans):
        dur = end - start
        self_s[name] += dur - children[idx]
        total_s[name] += dur
        calls[name] += 1
        durations[name].append(dur)
        if parent < 0:
            root_s += dur
    c = defaultdict(float, counters)
    fit_wsb = durations["wsb.fit_wsb"]
    values = {
        "wsb.fit_wsb.p50_ms": statistics.median(fit_wsb) * 1e3 if fit_wsb else 0.0,
        "wsb.converged_frac": c["wsb.converged"] / len(fit_wsb) if fit_wsb else 0.0,
        "trace.wall_s": wall_s,
        "trace.untraced_wall_s": untraced_wall_s,
        "trace.overhead_s": wall_s - untraced_wall_s,
        "trace.uncovered_s": max(wall_s - root_s, 0.0),
    }
    for name, *_ in COUNTERS:
        values.setdefault(name, c[name])
    for span, _, _, _ in SITES:
        values[f"{span}.s"] = self_s[span]
        values[f"{span}.calls"] = calls[span]
        values[f"{span}.total_s"] = total_s[span]
        values[f"{span}.alloc_peak_mb"] = alloc_peak.get(span, 0) / 2**20
    return {m[0]: values[m[0]] for m in per_layer_metrics()}
