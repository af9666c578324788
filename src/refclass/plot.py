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
from .registry import DEFAULT_P_LEVELS

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


def _nice_step(span: float) -> float:
    raw = span / 6  # about six ticks
    magnitude = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * magnitude:
            return mult * magnitude
    return 10.0 * magnitude


def curve_svg(
    curve: UpliftCurve,
    markers: Sequence[float] = DEFAULT_P_LEVELS,
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

    def line(x1: float, y1: float, x2: float, y2: float, color: str, dashed: bool = False) -> None:
        dash = ' stroke-dasharray="4,3"' if dashed else ""
        parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{_COLORS[color]}" stroke-width="1"{dash}/>'
        )

    def text(x: float, y: float | str, anchor: str, size: int, color: str, body: str) -> None:
        # The title's y is written as given; a blank anchor writes none.
        y_text = y if isinstance(y, str) else _fmt(y)
        anchor = f' text-anchor="{anchor}"' if anchor else ""
        parts.append(
            f'<text x="{_fmt(x)}" y="{y_text}"{anchor} '
            f'font-family="sans-serif" font-size="{size}" fill="{_COLORS[color]}">{body}</text>'
        )

    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">'
    )
    parts.append(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>')
    text(_WIDTH / 2, "20", "middle", 14, "axis", title)

    # gridlines and ticks
    bottom = _MARGIN_TOP + plot_h
    step = _nice_step(y_max - y_min)
    tick, previous = math.ceil(y_min / step) * step, -math.inf
    # Rounding swallows the tiny step of a near-flat fit; stop if it does.
    while previous < tick <= y_max:
        y = sy(tick)
        line(sx(0.0), y, sx(1.0), y, "grid")
        text(sx(0.0) - 8, y + 4, "end", 11, "axis", f"{tick * 100:+.0f}%")
        previous, tick = tick, round(tick + step, 12)
    for i in range(0, 11, 2):
        p = i / 10
        x = sx(p)
        line(x, bottom, x, bottom + 5, "axis")
        text(x, bottom + 20, "middle", 11, "axis", f"{p:.1f}")

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
        fit_line = " ".join(f"{_fmt(sx(p))},{_fmt(sy(fit))}" for p, fit, _, _ in smoothed)
        parts.append(
            f'<polyline points="{fit_line}" fill="none" stroke="{_COLORS["smooth"]}" stroke-width="2"/>'
        )

    # certainty markers, read off the raw quantiles
    raw_only = dataclasses.replace(curve, smoothed=None)
    for p in markers:
        try:
            value = raw_only.value_at(p)
        except ValueError:
            continue
        x, y = sx(p), sy(value)
        line(x, _MARGIN_TOP, x, bottom, "marker", dashed=True)
        parts.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="4" fill="{_COLORS["marker"]}"/>'
        )
        text(x + 6, y - 8, "", 12, "marker", f"P{certainty_percent(p)} {signed_percent(value)}")

    # axes
    line(sx(0.0), _MARGIN_TOP, sx(0.0), bottom, "axis")
    line(sx(0.0), bottom, sx(1.0), bottom, "axis")
    text(sx(0.5), _HEIGHT - 10, "middle", 12, "axis", "certainty")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
