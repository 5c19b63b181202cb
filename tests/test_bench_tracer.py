"""The benchmark's traced run wraps program functions by module attribute.

``bench/`` is not part of this suite, so this guard checks here that every
site the tracer names still resolves, that the sites of one span still hold
one function, and that entering and leaving the tracer wraps and restores
each of them.  A site lost in a refactor would otherwise only show when
``bench/run.py --trace 1`` is run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_site_is_wrapped_and_restored():
    tracer = load_tracer()
    sites = [
        (importlib.import_module(f"citetraj.{mod}"), attr)
        for _, _, span_sites, _ in tracer.SITES
        for mod, attr in span_sites
    ]
    originals = [getattr(mod, attr) for mod, attr in sites]
    with tracer.installed(tracer.Tracer()):
        for (mod, attr), original in zip(sites, originals):
            wrapped = getattr(mod, attr)
            assert wrapped is not original, (mod.__name__, attr)
            assert wrapped.__wrapped__ is original, (mod.__name__, attr)
    for (mod, attr), original in zip(sites, originals):
        assert getattr(mod, attr) is original, (mod.__name__, attr)


def test_sensitivity_reaches_the_clustering_spans():
    # The sweep must still call each clustering kernel through the module
    # attribute the tracer wraps, or its spans go dark on the benchmark.
    from citetraj import pipeline, synthgen

    corpus, _ = synthgen.simulate_corpus(synthgen.default_spec(120, seed=3))
    model = pipeline.run_pipeline(pipeline.PipelineConfig(seed=3, baseline=False),
                                  corpus=corpus)
    tracer = load_tracer()
    with tracer.installed(tracer.Tracer()) as recorder:
        pipeline.sensitivity(model, k_values=(2, 3))
    fired = {name for name, *_ in recorder.spans}
    assert {
        "pipeline.sensitivity",
        "clustering.robustness_sweep",
        "clustering.kmeans",
        "clustering.kmedoids",
        "clustering.ward",
        "clustering.silhouette_mean",
        "clustering.label_clusters",
        "clustering.adjusted_rand_index",
    } <= fired
