"""Workload definitions and the end-to-end metrics the benchmark reports.

Each workload drives the real ``citetraj`` command line on a fixed-seed
synthetic corpus from ``synthgen.default_spec``.  The sizes are chosen so that
the known hotspots land in different modules: Poisson basis selection and
fits on ``run_20k``, the WSB baseline on ``wsb_400``, and the clustering
sweep on ``sweep_1k``.  One workload alone cannot show all of them.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    n_items: int
    # Argument lists for ``citetraj.cli.main``; ``{corpus}``, ``{out}`` and
    # ``{seed}`` are filled in per run.
    commands: tuple[tuple[str, ...], ...]
    # Set-up command that builds the model the timed commands read, if any.
    model_build: tuple[str, ...] | None
    why: str


_RUN = ("--input", "{corpus}", "--output-dir", "{out}", "--jobs", "1", "--seed", "{seed}")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="run_20k",
            n_items=20000,
            commands=(("run", "--no-baseline") + _RUN,),
            model_build=None,
            why="full run without WSB at n=20000: ingest, fpca basis, K selection, "
            "Poisson fits, k-means, labels, model write and plots",
        ),
        Workload(
            name="wsb_400",
            n_items=400,
            commands=(("run",) + _RUN,),
            model_build=None,
            why="full run with the WSB baseline at n=400, where the per-item WSB fit "
            "is almost all of the time and its fit quality shows",
        ),
        Workload(
            name="sweep_1k",
            n_items=1000,
            commands=(
                ("sensitivity", "--output-dir", "{out}", "--jobs", "1"),
                ("plot", "--output-dir", "{out}", "--jobs", "1"),
            ),
            model_build=("fit", "--no-baseline") + _RUN,
            why="sensitivity sweep (3 methods x K 2..6, floors 0,10) and plots on a "
            "stored n=1000 model: clustering and model-file I/O, no fitting",
        ),
    )
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float


# End-to-end metrics, reported on every workload.  ``wall_s`` and
# ``items_per_s`` come from the medians of the timed samples; the quality
# metrics are deterministic for a fixed seed.  The time bounds are wide
# because on a shared 2-core host the speed of a fixed CPU-bound loop swings
# between about 0.75x and 1.2x of its median for seconds to minutes at a time.
END_TO_END = (
    Metric("wall_s", "s", "lower", 0.25),
    Metric("items_per_s", "1/s", "higher", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("ok_frac", "fraction", "higher", 0.05),
    Metric("ari_planted", "ARI", "higher", 0.1),
    Metric("fit_converged_frac", "fraction", "higher", 0.05),
    Metric("fpca_median_log10_mse", "log10", "lower", 0.1),
)

# Quality bars every sample must meet; a miss counts as a failed command.
# The sweep's bars sit just under what the unchanged tree gives over seeds
# 1-10 (``sweep_min_ari_k4`` 0.950-0.991, ``threshold_ari`` 1.0): on
# ``sweep_1k`` the bounded quality metrics are those of the set-up model,
# so these bars are all that guards the sweep's own quality.
MIN_ARI_PLANTED = 0.8
MIN_SWEEP_ARI_K4 = 0.9
MIN_THRESHOLD_ARI = 0.9
SWEEP_METHODS = ("kmeans", "kmedoids", "ward")
SWEEP_K = (2, 3, 4, 5, 6)
SWEEP_THRESHOLDS = (0, 10)


def fill(argv: tuple[str, ...], corpus: str, out: str, seed: int) -> list[str]:
    return [a.format(corpus=corpus, out=out, seed=seed) for a in argv]
