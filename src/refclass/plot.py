"""Hand-emitted SVG rendering of uplift curves.

No plotting stack: the chart is a few hundred primitives, and writing them
directly keeps the output byte-stable and dependency-free. The raw
quantiles are drawn as a step curve, the smoothed fit as a line with its
confidence band behind it, and the requested certainty levels as labelled
markers.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence

from .formatting import certainty_percent, signed_percent
from .reference_class import UpliftCurve

_WIDTH = 720
_HEIGHT = 440
_MARGIN_LEFT = 64
_MARGIN_RIGHT = 24
_MARGIN_TOP = 32
_MARGIN_BOTTOM = 48

_COLORS = {
    "axis": "#444444",
    "grid": "#dddddd",
    "raw": "#2b6cb0",
    "smooth": "#c05621",
    "band": "#f6ad55",
    "marker": "#1a202c",
}


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _nice_step(span: float, target_ticks: int = 6) -> float:
    if span <= 0:
        return 0.1
    raw = span / target_ticks
    magnitude = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * magnitude:
            return mult * magnitude
    return 10.0 * magnitude


def curve_svg(
    curve: UpliftCurve,
    markers: Sequence[float] = (0.5, 0.8),
    title: str = "uplift curve",
) -> str:
    """Render the curve to an SVG document string."""

    raw = curve.points
    smoothed = curve.smoothed or ()

    y_values = [v for _, v in raw]
    y_values += [lo for _, _, lo, _ in smoothed]
    y_values += [hi for _, _, _, hi in smoothed]
    y_min, y_max = min(y_values), max(y_values)
    if y_max == y_min:
        y_min -= 0.1
        y_max += 0.1
    pad = 0.05 * (y_max - y_min)
    y_min -= pad
    y_max += pad

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def sx(p: float) -> float:
        return _MARGIN_LEFT + p * plot_w

    def sy(v: float) -> float:
        return _MARGIN_TOP + (y_max - v) / (y_max - y_min) * plot_h

    parts: list[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">'
    )
    parts.append(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>')
    parts.append(
        f'<text x="{_fmt(_WIDTH / 2)}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14" fill="{_COLORS["axis"]}">{title}</text>'
    )

    # gridlines and ticks
    step = _nice_step(y_max - y_min)
    tick = math.ceil(y_min / step) * step
    while tick <= y_max:
        y = sy(tick)
        parts.append(
            f'<line x1="{_fmt(sx(0.0))}" y1="{_fmt(y)}" x2="{_fmt(sx(1.0))}" y2="{_fmt(y)}" '
            f'stroke="{_COLORS["grid"]}" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(sx(0.0) - 8)}" y="{_fmt(y + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11" fill="{_COLORS["axis"]}">{tick * 100:+.0f}%</text>'
        )
        tick = round(tick + step, 12)
    for i in range(0, 11, 2):
        p = i / 10
        x = sx(p)
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{_fmt(_MARGIN_TOP + plot_h)}" x2="{_fmt(x)}" '
            f'y2="{_fmt(_MARGIN_TOP + plot_h + 5)}" stroke="{_COLORS["axis"]}" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(_MARGIN_TOP + plot_h + 20)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11" fill="{_COLORS["axis"]}">{p:.1f}</text>'
        )

    # confidence band (drawn first so the lines sit on top)
    if smoothed:
        forward = [f"{_fmt(sx(p))},{_fmt(sy(hi))}" for p, _, _, hi in smoothed]
        backward = [f"{_fmt(sx(p))},{_fmt(sy(lo))}" for p, _, lo, _ in reversed(smoothed)]
        parts.append(
            f'<polygon points="{" ".join(forward + backward)}" fill="{_COLORS["band"]}" '
            f'fill-opacity="0.35" stroke="none"/>'
        )

    # raw step curve
    if raw:
        p0, v0 = raw[0]
        path = [f"M {_fmt(sx(p0))} {_fmt(sy(v0))}"]
        for p, v in raw[1:]:
            path.append(f"H {_fmt(sx(p))}")
            path.append(f"V {_fmt(sy(v))}")
        parts.append(
            f'<path d="{" ".join(path)}" fill="none" stroke="{_COLORS["raw"]}" stroke-width="1.5"/>'
        )

    # smoothed line
    if smoothed:
        line = " ".join(f"{_fmt(sx(p))},{_fmt(sy(fit))}" for p, fit, _, _ in smoothed)
        parts.append(
            f'<polyline points="{line}" fill="none" stroke="{_COLORS["smooth"]}" stroke-width="2"/>'
        )

    # certainty markers, read off the raw quantiles
    raw_only = dataclasses.replace(curve, smoothed=None)
    for p in markers:
        try:
            value = raw_only.value_at(p)
        except ValueError:
            continue
        x, y = sx(p), sy(value)
        label = f"P{certainty_percent(p)} {signed_percent(value)}"
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{_fmt(_MARGIN_TOP)}" x2="{_fmt(x)}" '
            f'y2="{_fmt(_MARGIN_TOP + plot_h)}" stroke="{_COLORS["marker"]}" '
            f'stroke-width="1" stroke-dasharray="4,3"/>'
        )
        parts.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="4" fill="{_COLORS["marker"]}"/>'
        )
        parts.append(
            f'<text x="{_fmt(x + 6)}" y="{_fmt(y - 8)}" font-family="sans-serif" '
            f'font-size="12" fill="{_COLORS["marker"]}">{label}</text>'
        )

    # axes
    parts.append(
        f'<line x1="{_fmt(sx(0.0))}" y1="{_fmt(_MARGIN_TOP)}" x2="{_fmt(sx(0.0))}" '
        f'y2="{_fmt(_MARGIN_TOP + plot_h)}" stroke="{_COLORS["axis"]}" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{_fmt(sx(0.0))}" y1="{_fmt(_MARGIN_TOP + plot_h)}" x2="{_fmt(sx(1.0))}" '
        f'y2="{_fmt(_MARGIN_TOP + plot_h)}" stroke="{_COLORS["axis"]}" stroke-width="1"/>'
    )
    parts.append(
        f'<text x="{_fmt(sx(0.5))}" y="{_fmt(_HEIGHT - 10)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" fill="{_COLORS["axis"]}">certainty</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
