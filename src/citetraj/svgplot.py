"""Minimal standalone SVG charts: one writer for line and scatter charts.

CSV files are the canonical plot output; these SVGs are a dependency-free
convenience.  Data series are rendered exclusively as <polyline> (lines)
or <circle> (scatter) elements, axes and ticks as <line>/<text>, so
emitted files are easy to assert against in tests.  Points with a
non-finite y are left out.
"""

from __future__ import annotations

import math
from typing import Sequence

__all__ = ["chart"]

PALETTE = ("#d62728", "#1f77b4", "#9467bd", "#2ca02c", "#ff7f0e", "#8c564b",
           "#e377c2", "#7f7f7f")

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 64, 20, 36, 48
_TICKS = 5  # target number of ticks per axis


def _nice_ticks(lo: float, hi: float) -> list[float]:
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return [0.0, 1.0]
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / _TICKS
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(v) < 1e-12 else v)
        v += step
    return ticks or [lo, hi]


def _fmt(v: float) -> str:
    if v == int(v) and abs(v) < 1e6:
        return str(int(v))
    return f"{v:.4g}"


class _Frame:
    def __init__(self, xlo, xhi, ylo, yhi):
        if xhi <= xlo:
            xhi = xlo + 1.0
        if yhi <= ylo:
            yhi = ylo + 1.0
        pad_x = 0.03 * (xhi - xlo)
        pad_y = 0.06 * (yhi - ylo)
        self.xlo, self.xhi = xlo - pad_x, xhi + pad_x
        self.ylo, self.yhi = ylo - pad_y, yhi + pad_y

    def px(self, x: float) -> float:
        return _ML + (x - self.xlo) / (self.xhi - self.xlo) * (_W - _ML - _MR)

    def py(self, y: float) -> float:
        return _H - _MB - (y - self.ylo) / (self.yhi - self.ylo) * (_H - _MT - _MB)


def _header(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.0f}" y="22" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
    ]


def _axes(frame: _Frame, xlabel: str, ylabel: str) -> list[str]:
    parts = []
    x0, x1 = _ML, _W - _MR
    y0, y1 = _H - _MB, _MT
    parts.append(
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>'
    )
    for t in _nice_ticks(frame.xlo, frame.xhi):
        px = frame.px(t)
        if px < x0 - 0.5 or px > x1 + 0.5:
            continue
        parts.append(f'<line x1="{px:.1f}" y1="{y0}" x2="{px:.1f}" y2="{y0 + 5}" stroke="black"/>')
        parts.append(
            f'<text x="{px:.1f}" y="{y0 + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>'
        )
    for t in _nice_ticks(frame.ylo, frame.yhi):
        py = frame.py(t)
        if py > y0 + 0.5 or py < y1 - 0.5:
            continue
        parts.append(f'<line x1="{x0 - 5}" y1="{py:.1f}" x2="{x0}" y2="{py:.1f}" stroke="black"/>')
        parts.append(
            f'<text x="{x0 - 8}" y="{py + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>'
        )
    parts.append(
        f'<text x="{(x0 + x1) / 2:.0f}" y="{_H - 10}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{xlabel}</text>'
    )
    parts.append(
        f'<text x="16" y="{(y0 + y1) / 2:.0f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {(y0 + y1) / 2:.0f})">{ylabel}</text>'
    )
    return parts


def _legend(names: Sequence[str]) -> list[str]:
    parts = []
    x = _W - _MR - 150
    y = _MT + 10
    for i, name in enumerate(names):
        color = PALETTE[i % len(PALETTE)]
        parts.append(
            f'<line x1="{x}" y1="{y + 16 * i}" x2="{x + 22}" y2="{y + 16 * i}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{x + 28}" y="{y + 16 * i + 4}" font-family="sans-serif" '
            f'font-size="11">{name}</text>'
        )
    return parts


def chart(series, path, title: str = "", xlabel: str = "", ylabel: str = "",
          scatter: bool = False) -> None:
    """Write a chart of ``series``, a list of (name, xs, ys).

    A line chart draws one polyline per series.  ``scatter`` draws one
    circle per point instead, on one shared x/y range with the dashed
    diagonal y = x.  A chart with no finite y gets a unit y range.
    """
    points = [
        [(float(x), float(y)) for x, y in zip(xs, ys) if math.isfinite(float(y))]
        for _, xs, ys in series
    ]
    xs_all = [float(x) for _, xs, _ in series for x in xs]
    ys_all = [y for pts in points for _, y in pts]
    if scatter:
        lo = min(xs_all + ys_all)
        hi = max(xs_all + ys_all)
        frame = _Frame(lo, hi, lo, hi)
    else:
        ylo, yhi = (min(ys_all), max(ys_all)) if ys_all else (0.0, 1.0)
        frame = _Frame(min(xs_all), max(xs_all), ylo, yhi)
    parts = _header(title) + _axes(frame, xlabel, ylabel)
    if scatter:
        parts.append(
            f'<line x1="{frame.px(lo):.1f}" y1="{frame.py(lo):.1f}" '
            f'x2="{frame.px(hi):.1f}" y2="{frame.py(hi):.1f}" '
            f'stroke="#999999" stroke-dasharray="4 3"/>'
        )
    for i, pts in enumerate(points):
        color = PALETTE[i % len(PALETTE)]
        if scatter:
            parts += [
                f'<circle cx="{frame.px(x):.1f}" cy="{frame.py(y):.1f}" '
                f'r="2.2" fill="{color}" fill-opacity="0.6"/>'
                for x, y in pts
            ]
        else:
            coords = " ".join(f"{frame.px(x):.1f},{frame.py(y):.1f}" for x, y in pts)
            parts.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.8" '
                f'points="{coords}"/>'
            )
    if len(series) > 1:
        parts += _legend([name for name, _, _ in series])
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
