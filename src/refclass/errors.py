"""Exception hierarchy shared across the toolkit.

Every error raised on purpose derives from RefclassError so the CLI can map
failures onto its exit-code contract in one place. ``shortened`` is how an
error message echoes a value.
"""

from __future__ import annotations


class RefclassError(Exception):
    """Base class for all toolkit errors."""


class DataFormatError(RefclassError):
    """A source file is malformed: bad header, bad cell, bad structure."""


class RecordConsistencyError(DataFormatError):
    """A parsed record violates a registry invariant (violations are fatal
    in strict parsing; the lenient path reports them as data instead)."""


class DeflatorCoverageError(RefclassError):
    """A requested year falls outside the deflator series."""


class EmptyClassError(RefclassError):
    """A reference class has no observations after filtering."""


class InsufficientDataError(RefclassError):
    """Too few observations for the requested analysis."""


class NonMonotoneCurveError(RefclassError):
    """An uplift curve is not non-decreasing where monotonicity is required."""


def shortened(value: str | int, show=repr) -> str:
    """``show(value)``; a value of more than 40 characters shows only its
    first 40 and its length, so that an error line which echoes a value
    stays short however long the value is."""

    limit = 40
    text = str(value)
    if len(text) <= limit:
        return show(value)
    head = repr(text[:limit]) if isinstance(value, str) else text[:limit]
    return f"{head}... ({len(text)} characters)"
