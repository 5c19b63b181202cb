"""Figure emission: one CSV of plot-ready series plus one SVG per figure.

Every number written here comes from model-file fields (or quantities
recomputable from them); nothing is re-estimated.  Each figure function
returns its CSV header and rows, its chart series and its chart labels;
``_render`` writes both files.  CSVs are canonical, SVGs are a built-in
convenience rendering.
"""

from __future__ import annotations

import os
from typing import Iterable

import numpy as np

from .data import counts_matrix
from .errors import ConfigError, DataError
from .pipeline import ModelFile
from .svgplot import chart

__all__ = ["FIGURES", "emit_plots"]


def _write_csv(path: str, header: list[str], rows: Iterable[Iterable]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
            fh.write("\n")


def _need(model: ModelFile, key: str, stage: str):
    value = model.data.get(key)
    if value is None:
        raise DataError(f"cannot plot: model is missing the {stage!r} stage output")
    return value


def _fig_mean_deriv(model: ModelFile):
    m = _need(model, "mean", "mean")
    t = model.grid.points
    return (
        ["t", "mean", "derivative"],
        zip(t.tolist(), m["values"], m["derivative"]),
        [("mean", t, m["values"]), ("derivative", t, m["derivative"])],
        dict(title="Smoothed mean of log counts and its derivative",
             xlabel="years since origin", ylabel="log scale"),
    )


def _fig_eigenfunctions(model: ModelFile):
    b = _need(model, "basis", "eigenbasis")
    if not b["eigenvalues"]:
        raise DataError("cannot plot eigenfunctions: basis is empty")
    t = model.grid.points
    k = len(b["eigenvalues"])
    rows = [
        [float(t[j])] + [b["eigenfunctions"][i][j] for i in range(k)]
        for j in range(model.grid.n_years)
    ]
    return (
        ["t"] + [f"phi{i + 1}" for i in range(k)],
        rows,
        [(f"phi{i + 1}", t, b["eigenfunctions"][i]) for i in range(k)],
        dict(title="Leading eigenfunctions", xlabel="years since origin", ylabel="value"),
    )


def _fig_k_selection(model: ModelFile):
    sel = _need(model, "selection", "selection")
    ks = [r["k"] for r in sel["rows"]]
    return (
        ["k", "mean_loglik", "aic", "n_excluded"],
        [(r["k"], r["mean_loglik"], r["aic"], r["n_excluded"]) for r in sel["rows"]],
        [("AIC", ks, [r["aic"] for r in sel["rows"]]),
         ("-2 mean loglik", ks, [-2 * r["mean_loglik"] for r in sel["rows"]])],
        dict(title=f"Basis size selection (recommended K={sel['recommended_k']})",
             xlabel="number of basis functions K", ylabel="criterion"),
    )


def _fig_gof_kde(model: ModelFile):
    comp = _need(model, "comparison", "baseline")
    return (
        ["log10_mse", "density_wsb", "density_fpca"],
        zip(comp["kde_eval"], comp["kde_wsb"], comp["kde_fpca"]),
        [("WSB", comp["kde_eval"], comp["kde_wsb"]),
         ("functional Poisson", comp["kde_eval"], comp["kde_fpca"])],
        dict(title="Error densities", xlabel="log10 MSE", ylabel="density"),
    )


def _fig_gof_scatter(model: ModelFile):
    comp = _need(model, "comparison", "baseline")
    return (
        ["id", "log10_mse_wsb", "log10_mse_fpca"],
        zip(model.data["corpus"]["ids"], comp["log10_mse_wsb"], comp["log10_mse_fpca"]),
        [("items", comp["log10_mse_wsb"], comp["log10_mse_fpca"])],
        dict(title="Per-item errors: WSB vs functional Poisson",
             xlabel="log10 MSE (WSB)", ylabel="log10 MSE (functional Poisson)",
             scatter=True),
    )


def _fig_cluster_curves(model: ModelFile):
    if model.data.get("cluster_refusal"):
        raise DataError(f"cannot plot clusters: {model.data['cluster_refusal']}")
    if not model.data.get("clusters"):
        raise DataError("cannot plot: model is missing the 'cluster' stage output")
    entry = model.cluster_entry()
    basis = model.basis()
    t = model.grid.points
    curves = np.exp(basis.eta(np.asarray(entry["centroids"], dtype=float)))
    labels = entry.get("labels") or [f"cluster {j}" for j in range(len(curves))]
    names = [f"{lab} (c{j})" for j, lab in enumerate(labels)]
    rows = [
        [float(t[i])] + [float(curve[i]) for curve in curves]
        for i in range(len(t))
    ]
    return (
        ["t"] + names,
        rows,
        [(names[j], t, curves[j]) for j in range(len(curves))],
        dict(title="Cluster centroid intensity curves",
             xlabel="years since origin", ylabel="annual intensity"),
    )


def _fig_robustness(model: ModelFile):
    rob = _need(model, "robustness", "sensitivity")
    rows = []
    for method, per_k in rob["cells"].items():
        for k, cell in per_k.items():
            rows.append(
                (method, int(k), cell["within_ss"],
                 cell["silhouette"] if cell["silhouette"] is not None else "",
                 "|".join(cell["labels"]) if cell.get("labels") else "")
            )
    rows.sort(key=lambda r: (r[0], r[1]))
    series = []
    for method in rob["methods"]:
        ks = sorted(int(k) for k in rob["cells"][method])
        series.append(
            (method, ks, [rob["cells"][method][str(k)]["within_ss"] for k in ks])
        )
    return (
        ["method", "k", "within_ss", "silhouette", "labels"],
        rows,
        series,
        dict(title="Within-cluster dispersion by K and method",
             xlabel="K", ylabel="within-cluster sum of squares"),
    )


def _fig_thresholds(model: ModelFile):
    th = _need(model, "thresholds", "sensitivity")
    rows = []
    for tau, entry in sorted(th["runs"].items(), key=lambda kv: int(kv[0])):
        rows.append(
            (int(tau), entry["kept"],
             entry.get("ari_vs_base", ""),
             entry.get("evergreen_persistence", ""),
             "|".join(entry.get("labels", [])))
        )
    taus = [r[0] for r in rows]
    aris = [r[2] if r[2] != "" else float("nan") for r in rows]
    return (
        ["threshold", "kept", "ari_vs_base", "evergreen_persistence", "labels"],
        rows,
        [("ARI vs base", taus, aris)],
        dict(title="Cluster stability across citation floors",
             xlabel="minimum total count", ylabel="adjusted Rand index"),
    )


def _fig_exemplars(model: ModelFile):
    labels = model.data.get("item_labels")
    if labels is None:
        raise DataError("cannot plot exemplars: model is missing the 'label' stage output")
    corpus = model.data["corpus"]
    mse = np.asarray(model.data["fits"]["mse"], dtype=float)
    t = model.grid.points
    chosen: dict[str, int] = {}
    for taxon in ("flash-in-the-pan", "normal document", "delayed document", "evergreen"):
        idx = [i for i, lab in enumerate(labels) if lab == taxon]
        if idx:
            # The best-fit item of its type is the cleanest exemplar.
            chosen[taxon] = int(min(idx, key=lambda i: mse[i]))
    if not chosen:
        raise DataError("no labeled items to exemplify")
    names = [f"{taxon} ({corpus['ids'][i]})" for taxon, i in chosen.items()]
    # Only the chosen rows are read from the stored counts.
    counts = counts_matrix([corpus["counts"][i] for i in chosen.values()])
    return (
        ["t"] + names,
        [[float(t[j])] + counts[:, j].tolist() for j in range(model.grid.n_years)],
        [(name, t, row) for name, row in zip(names, counts)],
        dict(title="Exemplar annual count trajectories",
             xlabel="years since origin", ylabel="annual count"),
    )


# Figure name -> function; the order is the order ``emit_plots`` renders in.
_FIGURES = {
    "mean_deriv": _fig_mean_deriv,
    "eigenfunctions": _fig_eigenfunctions,
    "k_selection": _fig_k_selection,
    "gof_kde": _fig_gof_kde,
    "gof_scatter": _fig_gof_scatter,
    "cluster_curves": _fig_cluster_curves,
    "robustness": _fig_robustness,
    "thresholds": _fig_thresholds,
    "exemplar_trajectories": _fig_exemplars,
}
FIGURES = tuple(_FIGURES)


def _render(name: str, model: ModelFile, out: str) -> list[str]:
    """Write ``<name>.csv`` and ``<name>.svg`` into ``out``; returns both paths."""
    header, rows, series, labels = _FIGURES[name](model)
    csv = os.path.join(out, f"{name}.csv")
    svg = os.path.join(out, f"{name}.svg")
    _write_csv(csv, header, rows)
    chart(series, svg, **labels)
    return [csv, svg]


def emit_plots(model: ModelFile, which: Iterable[str] | None = None,
               out_dir: str = "plots") -> list[str]:
    """Render the requested figures; returns the written file paths.

    ``which`` defaults to every figure whose stage output is present.
    Requesting a figure whose stage is missing raises, naming the stage.
    """
    os.makedirs(out_dir, exist_ok=True)
    if which is None:
        written = []
        for name in FIGURES:
            try:
                written.extend(_render(name, model, out_dir))
            except DataError:
                continue
        return written
    names = list(which)
    unknown = [n for n in names if n not in _FIGURES]
    if unknown:
        raise ConfigError(f"unknown figures {unknown}; available: {list(FIGURES)}")
    written = []
    for name in names:
        written.extend(_render(name, model, out_dir))
    return written
