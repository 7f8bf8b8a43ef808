"""Experiment report persistence: deterministic CSV tables and static SVG
polyline plots, each row stamped with the configuration hash and version.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field

from . import __version__


def config_hash(config: dict) -> str:
    """Stable short hash of a JSON-serializable configuration."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


@dataclass
class EstimateReport:
    """Rows of named values from one experiment, plus its configuration."""

    name: str
    config: dict
    columns: list
    rows: list = field(default_factory=list)

    def add(self, **kwargs):
        missing = [c for c in self.columns if c not in kwargs]
        if missing:
            raise ValueError(f"row missing columns {missing}")
        self.rows.append([kwargs[c] for c in self.columns])

    def write_csv(self, path) -> None:
        h = config_hash(self.config)
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(list(self.columns) + ["config_hash", "version"])
            for row in self.rows:
                w.writerow([_fmt(v) for v in row] + [h, __version__])


def _fmt(v):
    if isinstance(v, float):
        return repr(v)
    return v


def read_report_csv(path):
    """(columns, rows) of a report CSV; the stamp columns are kept."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# static SVG polyline plots
# ---------------------------------------------------------------------------

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_SIZE = (640, 420)      # width and height of every plot, in pixels


def svg_plot(path, series, title: str = "", xlabel: str = "",
             ylabel: str = "") -> None:
    """Write a plot of (label, xs, ys) series as a standalone SVG file."""
    (width, height), margin = _SIZE, 60
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    if not xs_all:
        raise ValueError("nothing to plot")
    x0, x1 = min(xs_all), max(xs_all)
    y0, y1 = min(ys_all), max(ys_all)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    iw, ih = width - 2 * margin, height - 2 * margin

    def X(x):
        return margin + iw * (x - x0) / (x1 - x0)

    def Y(y):
        return height - margin - ih * (y - y0) / (y1 - y0)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
    ]
    for t in range(5):
        xv = x0 + (x1 - x0) * t / 4
        yv = y0 + (y1 - y0) * t / 4
        parts.append(
            f'<text x="{X(xv):.1f}" y="{height - margin + 18}" '
            f'font-size="11" text-anchor="middle">{xv:.3g}</text>')
        parts.append(
            f'<text x="{margin - 6}" y="{Y(yv):.1f}" font-size="11" '
            f'text-anchor="end" dominant-baseline="middle">{yv:.3g}</text>')
    for k, (label, xs, ys) in enumerate(series):
        color = _COLORS[k % len(_COLORS)]
        pts = " ".join(f"{X(x):.2f},{Y(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        if label:
            parts.append(
                f'<text x="{width - margin - 4}" y="{margin + 16 * (k + 1)}" '
                f'font-size="12" text-anchor="end" fill="{color}">'
                f'{label}</text>')
    if title:
        parts.append(f'<text x="{width / 2}" y="24" font-size="14" '
                     f'text-anchor="middle">{title}</text>')
    if xlabel:
        parts.append(f'<text x="{width / 2}" y="{height - 12}" '
                     f'font-size="12" text-anchor="middle">{xlabel}</text>')
    if ylabel:
        parts.append(
            f'<text x="16" y="{height / 2}" font-size="12" '
            f'text-anchor="middle" transform="rotate(-90 16 {height / 2})">'
            f'{ylabel}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))
