"""Command-line front end.

Subcommands: simulate, ingest, fit, baseline, cluster, label, sensitivity,
plot, and run (all-in-one).  Stage commands share one artifact, the model
JSON at <output-dir>/model.json: ``fit`` and ``run`` write it, and
``baseline``, ``cluster`` and ``sensitivity`` run only their own stage on
the stored corpus, scores and fits and update their own blocks in place,
without recomputing the rest.  Options resolve as flags > config file >
defaults; the config file is flat ``key = value`` lines using the long flag
names with dashes or underscores.  A stage command runs with the model's
stored config, overridden only by its own fields that the user typed or
the config file sets; ``baseline`` and ``cluster`` store those overrides
with the blocks they recompute, and ``sensitivity`` stores none.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
failure.  Diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import csv
import os
import statistics
import sys
from dataclasses import fields as dc_fields

from . import pipeline, plots, synthgen
from .clustering import METHODS
from .data import filter_by_total, parse_corpus, write_corpus
from .errors import CitetrajError, ConfigError, DataError, NumericalError, StageError
from .pipeline import ModelFile, PipelineConfig, load_model, run_pipeline, save_model

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

_CONFIG_FIELDS = {f.name for f in dc_fields(PipelineConfig)}

_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


def _parse_scalar(raw: str):
    raw = raw.strip().strip('"').strip("'")
    low = raw.lower()
    if low in _BOOL_TRUE:
        return True
    if low in _BOOL_FALSE:
        return False
    if low in ("none", "null"):
        return None
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


def read_config_file(path: str) -> dict:
    """Flat ``key = value`` file; keys use flag names (dashes ok)."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ConfigError(f"{path}:{line_no}: expected key = value")
            key, raw = body.split("=", 1)
            key = key.strip().replace("-", "_")
            out[key] = _parse_scalar(raw)
    unknown = sorted(set(out) - _CONFIG_FIELDS)
    if unknown:
        raise ConfigError(f"{path}: unknown config keys {unknown}")
    return out


def _int_list(raw: str) -> list[int]:
    try:
        return [int(tok) for tok in raw.split(",") if tok.strip() != ""]
    except ValueError:
        raise ConfigError(f"expected comma-separated integers, got {raw!r}") from None


def _k_range(raw: str) -> list[int]:
    if ":" in raw:
        lo, hi = raw.split(":", 1)
        try:
            return list(range(int(lo), int(hi) + 1))
        except ValueError:
            raise ConfigError(f"expected a K range like 2:6, got {raw!r}") from None
    return _int_list(raw)


def _add_global_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help="flat key=value options file")
    p.add_argument("--input", default=None, help="corpus file (csv or jsonl)")
    p.add_argument("--format", default=None, choices=["csv", "jsonl"])
    p.add_argument("--output-dir", default=None, help="artifact directory (default out)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--k-basis", type=int, default=None, help="basis functions kept (default 4)")
    p.add_argument("--fve", type=float, default=None,
                   help="keep smallest K reaching this variance share instead of --k-basis")
    p.add_argument("--k-clusters", type=int, default=None, help="clusters (default 4)")
    p.add_argument("--method", default=None, choices=METHODS)
    p.add_argument("--min-total", type=int, default=None, help="citation floor (default 0)")
    p.add_argument("--m-wsb", type=float, default=None, help="WSB m constant (default 30)")
    p.add_argument("--standardize", action="store_true", default=None,
                   help="divide score dimension k by sqrt(eigenvalue k) before clustering")
    p.add_argument("--eval-grid", type=int, default=None,
                   help="evaluation points for density curves (default 256)")
    p.add_argument("--jobs", type=int, default=None,
                   help="threads over WSB row chunks (default 1)")
    p.add_argument("--restarts", type=int, default=None, help="k-means restarts (default 10)")
    p.add_argument("--no-baseline", action="store_true", default=False,
                   help="skip the WSB baseline stage")
    p.add_argument("--bandwidth", type=float, default=None,
                   help="fixed mean-curve bandwidth (default: GCV)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="citetraj",
        description="Cluster annual count trajectories with a functional "
        "Poisson regression model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, helptext):
        p = sub.add_parser(name, help=helptext)
        _add_global_flags(p)
        return p

    p = cmd("simulate", "generate a synthetic corpus with ground truth")
    p.add_argument("--n-items", type=int, default=2000)
    p.add_argument("--n-years", type=int, default=30)
    p.add_argument("--out-format", default="jsonl", choices=["csv", "jsonl"])

    cmd("ingest", "validate a corpus file and write the normalized copy")
    cmd("fit", "estimate the basis and per-item scores; writes model.json")
    cmd("baseline", "add per-item WSB fits and the model comparison")
    cmd("cluster", "cluster fitted scores; adds the result to model.json")
    cmd("label", "label clusters and items by trajectory shape")

    p = cmd("sensitivity", "robustness sweeps over K, methods, and count floors")
    p.add_argument("--thresholds", default="0,10", help="comma-separated count floors")
    p.add_argument("--k-range", default="2:6", help="K values, e.g. 2:6 or 2,4,6")
    p.add_argument("--methods", default=",".join(METHODS))

    p = cmd("plot", "emit figure CSVs and SVGs from model.json")
    p.add_argument("--figures", default="all",
                   help="comma-separated figure ids or 'all'")

    cmd("run", "full pipeline: ingest, fit, baseline, cluster, label, plot")
    return parser


def _given_options(args: argparse.Namespace) -> dict:
    """Config fields the user set: typed flags over config-file keys."""
    file_opts = read_config_file(args.config) if args.config else {}
    given = {k: v for k, v in file_opts.items() if v is not None and k != "baseline"}
    for f in dc_fields(PipelineConfig):
        cli_val = getattr(args, f.name, None)
        if f.name != "baseline" and cli_val is not None:
            given[f.name] = cli_val
    if args.no_baseline:
        given["baseline"] = False
    elif "baseline" in file_opts:
        given["baseline"] = bool(file_opts["baseline"])
    return given


def _merge_config(args: argparse.Namespace) -> PipelineConfig:
    try:
        return PipelineConfig(**{"output_dir": "out", **_given_options(args)})
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


# The stored config fields that each stage command reads.  ``baseline`` and
# ``cluster`` store the values the user changed, since they recompute the
# blocks that depend on them; ``sensitivity`` only runs with them.  Item
# labels depend on ``evergreen_tol`` and only ``fit`` and ``run`` compute
# them, so ``cluster`` leaves that field as stored.
_BASELINE_FIELDS = ("m_wsb", "eval_grid")
_CLUSTER_FIELDS = ("method", "k_clusters", "seed", "restarts", "standardize")
_SENSITIVITY_FIELDS = _CLUSTER_FIELDS + ("evergreen_tol",)


def _stage_config(model: ModelFile, args, fields: tuple[str, ...],
                  config: PipelineConfig) -> tuple[PipelineConfig, dict]:
    """The model's stored config with ``fields`` replaced where the user
    typed the flag or the config file sets the key, and the replaced fields
    whose value differs from the stored one.  ``jobs`` is never stored and
    comes from ``config``.  The model is not changed."""
    stored = model.data["config"]
    given = _given_options(args)
    changed = {k: given[k] for k in fields if k in given and given[k] != stored[k]}
    return PipelineConfig(**{**stored, **changed, "jobs": config.jobs}), changed


def _model_path(config: PipelineConfig) -> str:
    return os.path.join(config.output_dir, "model.json")


def _load_for_stage(config: PipelineConfig, stage: str) -> ModelFile:
    path = _model_path(config)
    if not os.path.exists(path):
        raise DataError(f"{stage} needs {path}; run 'citetraj fit' first")
    return load_model(path)


def _cmd_simulate(args, config: PipelineConfig) -> int:
    spec = synthgen.default_spec(n_items=args.n_items, seed=config.seed)
    if args.n_years != spec.n_years:
        raise ConfigError("the default generator is defined on a 30-year grid")
    corpus, truth = synthgen.simulate_corpus(spec)
    os.makedirs(config.output_dir, exist_ok=True)
    corpus_path = os.path.join(config.output_dir, f"corpus.{args.out_format}")
    write_corpus(corpus, corpus_path, format=args.out_format)
    truth_path = os.path.join(config.output_dir, "truth.json")
    with open(truth_path, "w", encoding="utf-8") as fh:
        fh.write(truth.to_json() + "\n")
    print(f"wrote {corpus_path} ({len(corpus)} items) and {truth_path}")
    return EXIT_OK


def _cmd_ingest(args, config: PipelineConfig) -> int:
    if not config.input:
        raise ConfigError("ingest needs --input")
    corpus = parse_corpus(config.input, pipeline.detect_format(config.input, config.format))
    result = filter_by_total(corpus, config.min_total)
    os.makedirs(config.output_dir, exist_ok=True)
    out_path = os.path.join(config.output_dir, "corpus.jsonl")
    write_corpus(result.corpus, out_path, format="jsonl")
    print(
        f"ingested {len(corpus)} items (T={corpus.grid.n_years}); "
        f"kept {result.kept}, dropped {result.dropped} below total "
        f"{config.min_total}; wrote {out_path}"
    )
    return EXIT_OK


def _cmd_fit(args, config: PipelineConfig) -> int:
    model = run_pipeline(config)
    os.makedirs(config.output_dir, exist_ok=True)
    save_model(model, _model_path(config))
    sel = model.data.get("selection")
    rec = sel["recommended_k"] if sel else "n/a"
    print(
        f"fit {len(model.data['corpus']['ids'])} items; basis K="
        f"{model.data['basis']['k']}; selection recommends K={rec}; "
        f"wrote {_model_path(config)}"
    )
    if model.data.get("cluster_refusal"):
        print(model.data["cluster_refusal"], file=sys.stderr)
    return EXIT_OK


def _cmd_baseline(args, config: PipelineConfig) -> int:
    model = _load_for_stage(config, "baseline")
    data = model.data
    cfg, changed = _stage_config(model, args, _BASELINE_FIELDS, config)
    if data["config"]["baseline"] and data.get("wsb") and not changed:
        print("model already has the baseline stage; nothing to do")
        return EXIT_OK
    data["config"].update(changed, baseline=True)
    data["wsb"], data["comparison"] = pipeline.baseline_stage(
        data["corpus"]["counts"], data["fits"]["mse"], cfg
    )
    save_model(model, _model_path(config))
    comp = data["comparison"]
    print(
        "baseline added: median log10 MSE wsb=%.3f fpca=%.3f"
        % (statistics.median(comp["log10_mse_wsb"]), statistics.median(comp["log10_mse_fpca"]))
    )
    return EXIT_OK


def _cmd_cluster(args, config: PipelineConfig) -> int:
    model = _load_for_stage(config, "cluster")
    data = model.data
    cfg, changed = _stage_config(model, args, _CLUSTER_FIELDS, config)
    entry, refusal = pipeline.cluster_stage(model.scores(), model.basis(), cfg)
    if refusal:
        raise ConfigError(refusal)
    data["config"].update(changed)
    data["clusters"].setdefault(cfg.method, {})[str(cfg.k_clusters)] = entry
    data["cluster_refusal"] = None
    save_model(model, _model_path(config))
    print(
        f"clustered with {cfg.method} K={cfg.k_clusters}: within_ss="
        f"{entry['within_ss']:.3f}, labels={entry['labels']}"
    )
    return EXIT_OK


def _cmd_label(args, config: PipelineConfig) -> int:
    model = _load_for_stage(config, "label")
    if not model.data.get("clusters"):
        raise DataError("label needs a clustered model; run 'citetraj cluster' first")
    entry = model.cluster_entry()
    labels = entry.get("labels")
    print("cluster labels:", labels)
    item_labels = model.data.get("item_labels") or []
    from collections import Counter

    print("item taxonomy:", dict(Counter(item_labels)))
    path = os.path.join(config.output_dir, "assignments.csv")
    ids = model.data["corpus"]["ids"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "cluster", "label"])
        for i, a in zip(ids, entry["assignments"]):
            writer.writerow([i, a, labels[a] if labels else ""])
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_sensitivity(args, config: PipelineConfig) -> int:
    model = _load_for_stage(config, "sensitivity")
    thresholds = _int_list(args.thresholds)
    if not thresholds:
        raise ConfigError("need at least one threshold")
    k_values = _k_range(args.k_range)
    if not k_values:
        raise ConfigError(f"need at least one K value, got {args.k_range!r}")
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    cfg, _ = _stage_config(model, args, _SENSITIVITY_FIELDS, config)
    new_model = pipeline.sensitivity(model, thresholds, k_values, methods, cfg)
    save_model(new_model, _model_path(config))
    import json as _json

    bundle_path = os.path.join(config.output_dir, "sensitivity.json")
    with open(bundle_path, "w", encoding="utf-8") as fh:
        _json.dump(
            {
                "robustness": new_model.data["robustness"],
                "thresholds": new_model.data["thresholds"],
            },
            fh, sort_keys=True, indent=1,
        )
        fh.write("\n")
    print(f"sensitivity sweeps written to {bundle_path} and model.json")
    return EXIT_OK


def _cmd_plot(args, config: PipelineConfig) -> int:
    model = _load_for_stage(config, "plot")
    which = None if args.figures == "all" else [
        f.strip() for f in args.figures.split(",") if f.strip()
    ]
    out_dir = os.path.join(config.output_dir, "plots")
    written = plots.emit_plots(model, which, out_dir)
    print(f"wrote {len(written)} files to {out_dir}")
    return EXIT_OK


def _cmd_run(args, config: PipelineConfig) -> int:
    model = run_pipeline(config)
    os.makedirs(config.output_dir, exist_ok=True)
    save_model(model, _model_path(config))
    out_dir = os.path.join(config.output_dir, "plots")
    written = plots.emit_plots(model, None, out_dir)
    summary = model.data["fit_summary"]
    print(
        f"pipeline done: {summary['n_items']} items, convergence "
        f"{summary['convergence_rate']:.3f}; model at {_model_path(config)}; "
        f"{len(written)} plot files in {out_dir}"
    )
    if model.data.get("cluster_refusal"):
        print(model.data["cluster_refusal"], file=sys.stderr)
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "ingest": _cmd_ingest,
    "fit": _cmd_fit,
    "baseline": _cmd_baseline,
    "cluster": _cmd_cluster,
    "label": _cmd_label,
    "sensitivity": _cmd_sensitivity,
    "plot": _cmd_plot,
    "run": _cmd_run,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _merge_config(args)
        return _COMMANDS[args.command](args, config)
    except StageError as exc:
        print(f"error in stage '{exc.stage}': {exc.cause}", file=sys.stderr)
        cause = exc.cause
        if isinstance(cause, ConfigError):
            return EXIT_CONFIG
        if isinstance(cause, NumericalError):
            return EXIT_NUMERIC
        return EXIT_DATA
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DataError, CitetrajError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
