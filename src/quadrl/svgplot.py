"""Dependency-free SVG line chart for training metrics.

Draws episode/generation returns and the running best as two polylines
with labeled axes. The output is a plain SVG document, so training
curves can be inspected without any plotting stack.
"""

from __future__ import annotations

import csv
import math

from .train import GRADIENT_HEADER

WIDTH, HEIGHT = 800, 480
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 70, 20, 20, 45


def read_metrics(path: str) -> tuple[list[float], list[float], list[float]]:
    """Read GRADIENT_HEADER's columns; refuse a short, long or non-finite row."""
    with open(path, encoding="ascii", newline="") as fh:
        reader = csv.DictReader(fh)
        required = GRADIENT_HEADER.split(",")
        if reader.fieldnames is None or not set(required) <= set(reader.fieldnames):
            raise ValueError(f"{path!r} is not a metrics CSV")
        xs, ys, bests = columns = [], [], []
        for row in reader:
            if None in row:  # DictReader files the extra cells under None
                raise ValueError(f"{path!r} line {reader.line_num}: "
                                 f"{len(row[None])} more cells than the header")
            for name, column in zip(required, columns):
                column.append(float(row[name] or "nan"))  # a missing cell is None
                if not math.isfinite(column[-1]):
                    raise ValueError(f"{path!r} line {reader.line_num}: {name} is "
                                     f"{row[name]!r}, not a finite number")
    if not xs:
        raise ValueError(f"{path!r} has no metric rows")
    return xs, ys, bests


def _scale(values: list[float], lo_px: float, hi_px: float):
    lo, hi = min(values), max(values)
    if hi == lo:
        hi = lo + 1.0
    span = hi - lo
    return lambda v: lo_px + (v - lo) / span * (hi_px - lo_px), lo, hi


def _polyline(points: list[tuple[float, float]], color: str) -> str:
    coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
    return (f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{coords}"/>')


def render_curve(xs: list[float], ys: list[float], bests: list[float]) -> str:
    x_map, x_lo, x_hi = _scale(xs, MARGIN_LEFT, WIDTH - MARGIN_RIGHT)
    all_y = ys + bests
    y_map, y_lo, y_hi = _scale(all_y, HEIGHT - MARGIN_BOTTOM, MARGIN_TOP)
    axis_x = HEIGHT - MARGIN_BOTTOM
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<line x1="{MARGIN_LEFT}" y1="{axis_x}" x2="{WIDTH - MARGIN_RIGHT}" '
        f'y2="{axis_x}" stroke="black"/>',
        f'<line x1="{MARGIN_LEFT}" y1="{MARGIN_TOP}" x2="{MARGIN_LEFT}" '
        f'y2="{axis_x}" stroke="black"/>',
        _polyline(list(zip(map(x_map, xs), map(y_map, ys))), "#4682b4"),
        _polyline(list(zip(map(x_map, xs), map(y_map, bests))), "#b44646"),
        f'<text x="{MARGIN_LEFT}" y="{HEIGHT - 8}" font-size="12">{x_lo:g}</text>',
        f'<text x="{WIDTH - MARGIN_RIGHT}" y="{HEIGHT - 8}" font-size="12" '
        f'text-anchor="end">{x_hi:g}</text>',
        f'<text x="{MARGIN_LEFT - 6}" y="{axis_x}" font-size="12" '
        f'text-anchor="end">{y_lo:.6g}</text>',
        f'<text x="{MARGIN_LEFT - 6}" y="{MARGIN_TOP + 10}" font-size="12" '
        f'text-anchor="end">{y_hi:.6g}</text>',
        f'<text x="{(MARGIN_LEFT + WIDTH) / 2}" y="{HEIGHT - 8}" font-size="12" '
        f'text-anchor="middle">episode / generation</text>',
        f'<text x="{WIDTH - MARGIN_RIGHT}" y="{MARGIN_TOP + 12}" font-size="12" '
        f'text-anchor="end" fill="#4682b4">training return</text>',
        f'<text x="{WIDTH - MARGIN_RIGHT}" y="{MARGIN_TOP + 28}" font-size="12" '
        f'text-anchor="end" fill="#b44646">best so far</text>',
        "</svg>",
    ]
    return "\n".join(parts) + "\n"


def plot_metrics(metrics_path: str, out_path: str) -> None:
    xs, ys, bests = read_metrics(metrics_path)
    svg = render_curve(xs, ys, bests)
    with open(out_path, "w", encoding="ascii") as fh:
        fh.write(svg)
