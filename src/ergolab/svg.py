"""Minimal self-contained SVG line charts (polyline + axes + log scales).

Plots are conveniences; the CSV artifacts are the contract.  No plotting
dependency, deterministic output bytes.
"""

from __future__ import annotations

import math
from typing import Sequence

WIDTH = 640
HEIGHT = 420
MARGIN = 54

PALETTE = ("#1f6fb2", "#d1495b", "#3a7d44", "#8a5ab8", "#c98a00", "#444444")


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _ticks(lo: float, hi: float, log_scale: bool) -> list[float]:
    if log_scale:
        lo_e = math.floor(math.log10(lo))
        hi_e = math.ceil(math.log10(hi))
        step = max(1, (hi_e - lo_e) // 6)
        return [10.0 ** e for e in range(lo_e, hi_e + 1, step)]
    span = hi - lo
    if span <= 0:
        return [lo]
    raw = span / 5
    mag = 10.0 ** math.floor(math.log10(raw))
    step = mag * min(s for s in (1, 2, 5, 10) if raw / mag <= s)
    start = math.ceil(lo / step) * step
    out = []
    t = start
    while t <= hi + 1e-12 * span:
        out.append(t)
        t += step
    return out


def _label(x: float) -> str:
    return f"{x:.4g}"


def _axis(lo: float, hi: float, log_scale: bool, place):
    """Pixel position of a value on an axis from lo to hi: ``place`` of the
    fraction of the way it lies, on a linear or a log10 scale."""
    scale = math.log10 if log_scale else float
    lo, hi = scale(lo), scale(hi)
    return lambda v: place((scale(v) - lo) / (hi - lo))


def line_chart(
    path,
    xs: Sequence[float],
    series: Sequence[tuple[str, Sequence[float]]],
    title: str = "",
    log_x: bool = False,
    log_y: bool = False,
) -> None:
    """Write one chart with shared x values and one polyline per series.

    Nonpositive values are dropped on log axes, consistent with the rate
    fits; empty charts still render axes so artifacts always open.
    """
    points = []
    for name, ys in series:
        for x, y in zip(xs, ys):
            if log_x and x <= 0:
                continue
            if log_y and y <= 0:
                continue
            points.append((float(x), float(y)))
    if points:
        x_lo = min(p[0] for p in points)
        x_hi = max(p[0] for p in points)
        y_lo = min(p[1] for p in points)
        y_hi = max(p[1] for p in points)
    else:
        x_lo, x_hi, y_lo, y_hi = 1.0, 10.0, 1.0, 10.0
    if x_lo == x_hi:
        x_hi = x_lo + 1.0
    if y_lo == y_hi:
        y_hi = y_lo * 10.0 if log_y and y_lo > 0 else y_lo + 1.0

    sx = _axis(x_lo, x_hi, log_x, lambda t: MARGIN + t * (WIDTH - 2 * MARGIN))
    sy = _axis(y_lo, y_hi, log_y, lambda t: HEIGHT - MARGIN - t * (HEIGHT - 2 * MARGIN))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="monospace" font-size="11">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH // 2}" y="20" text-anchor="middle" font-size="13">{title}</text>',
        f'<line x1="{MARGIN}" y1="{HEIGHT - MARGIN}" x2="{WIDTH - MARGIN}" '
        f'y2="{HEIGHT - MARGIN}" stroke="black"/>',
        f'<line x1="{MARGIN}" y1="{MARGIN}" x2="{MARGIN}" y2="{HEIGHT - MARGIN}" stroke="black"/>',
    ]
    for t in _ticks(x_lo, x_hi, log_x):
        if t < x_lo or t > x_hi:
            continue
        px = sx(t)
        parts.append(
            f'<line x1="{_fmt(px)}" y1="{HEIGHT - MARGIN}" x2="{_fmt(px)}" '
            f'y2="{HEIGHT - MARGIN + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_fmt(px)}" y="{HEIGHT - MARGIN + 18}" text-anchor="middle">{_label(t)}</text>'
        )
    for t in _ticks(y_lo, y_hi, log_y):
        if t < y_lo or t > y_hi:
            continue
        py = sy(t)
        parts.append(
            f'<line x1="{MARGIN - 5}" y1="{_fmt(py)}" x2="{MARGIN}" y2="{_fmt(py)}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{MARGIN - 8}" y="{_fmt(py + 4)}" text-anchor="end">{_label(t)}</text>'
        )
    for idx, (name, ys) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        coords = [
            f"{_fmt(sx(float(x)))},{_fmt(sy(float(y)))}"
            for x, y in zip(xs, ys)
            if not (log_x and x <= 0) and not (log_y and y <= 0)
        ]
        if coords:
            parts.append(
                f'<polyline points="{" ".join(coords)}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
        parts.append(
            f'<text x="{WIDTH - MARGIN}" y="{MARGIN + 14 * idx}" text-anchor="end" '
            f'fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
