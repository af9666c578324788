"""Small deterministic formatting helpers shared by reports and the CLI."""

from __future__ import annotations

import math


def round_half_away(x: float) -> int:
    """Round to the nearest integer, ties away from zero."""

    if x >= 0:
        return int(math.floor(x + 0.5))
    return -int(math.floor(-x + 0.5))


def signed_percent(fraction: float) -> str:
    """Format an overrun fraction as a signed whole-percent string: +18%."""

    return f"{round_half_away(fraction * 100.0):+d}%"


def yes_no(flag: bool) -> str:
    return "yes" if flag else "no"


def _on_percent_grid(p: float) -> bool:
    return round(p * 100) / 100 == p


def certainty_text(p: float) -> str:
    """A certainty level as a label: two decimals on the 0.01 grid (0.50),
    else the shortest decimal that reads back as the same float (0.501), so
    distinct levels never share a label."""

    if _on_percent_grid(p):
        return f"{p:.2f}"
    from decimal import Decimal  # only an off-grid level needs it

    return format(Decimal(repr(p)), "f")


def certainty_percent(p: float) -> str:
    """A certainty level in percent: whole on the 0.01 grid (50), else the
    shortest decimal of the level with its point moved two places (50.1)."""

    if _on_percent_grid(p):
        return f"{round(p * 100):d}"
    from decimal import Decimal

    return format(Decimal(repr(p)).scaleb(2).normalize(), "f")


def level_token(p: float) -> str:
    return f"p{certainty_percent(p)}"
