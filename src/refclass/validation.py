"""Leave-one-out validation of a reference class.

Each project is held out in turn, the uplift curve is rebuilt from the
remaining n - 1 outcomes, and the held-out project's actual overrun is
compared with the uplift it would have been given. An overrun is counted as
prevented when the actual outcome does not exceed the uplift (the boundary
case counts as covered: funding exactly met the outcome).

With distinct values the hit count follows from n and p, not the data.
Under INF it is the smallest k with k / (n - 1) >= p. Under INTERPOLATED,
with h = (n - 2) p + 1, it is floor(h) or floor(h) + 1: only the project
ranked floor(h) + 1 (counting from 1) can go either way. So a hit rate
near p shows the quantile convention at work, not that the class is
calibrated.
"""

from __future__ import annotations

import csv
from bisect import bisect_left
from dataclasses import dataclass
from typing import IO, Sequence

from .errors import InsufficientDataError
from .formatting import certainty_percent, signed_percent, yes_no
from .reference_class import QuantileMethod, ReferenceClass, empirical_quantile

DEFAULT_P_LEVELS = (0.5, 0.8)


@dataclass(frozen=True)
class LoovRow:
    """One held-out project: the uplifts the rest of the class implies for
    it, its actual overrun, and whether funding at each level covered it."""

    project_id: str
    uplift_at: dict[float, float]
    actual: float
    prevented_at: dict[float, bool]


@dataclass(frozen=True)
class LoovSummary:
    p_level: float
    hits: int
    n: int
    rate: float


class _WithoutPosition(Sequence[float]):
    """A sorted sample with one position left out, read in O(1) per item:
    item k is ``ordered[k]`` before the gap and ``ordered[k + 1]`` after."""

    def __init__(self, ordered: Sequence[float], gap: int) -> None:
        self._ordered = ordered
        self._gap = gap

    def __len__(self) -> int:
        return len(self._ordered) - 1

    def __getitem__(self, k: int) -> float:
        if k < 0:
            k += len(self)
        return self._ordered[k if k < self._gap else k + 1]


class _ReadPositions(Sequence[float]):
    """A sample of ``n`` zeros that records which positions are read."""

    def __init__(self, n: int) -> None:
        self._n = n
        self.read: set[int] = set()

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, k: int) -> float:
        self.read.add(k % self._n)
        return 0.0


def leave_one_out(
    reference: ReferenceClass,
    p_levels: Sequence[float] = DEFAULT_P_LEVELS,
    method: QuantileMethod = QuantileMethod.INTERPOLATED,
) -> list[LoovRow]:
    """One row per class member, in class input order."""

    if reference.n < 2:
        raise InsufficientDataError(
            f"leave-one-out needs at least 2 observations, got {reference.n}"
        )
    if not p_levels:
        raise ValueError("at least one certainty level is required")
    levels = sorted(set(p_levels))

    # The class's values are sorted once, stably, so entry i sits at sorted
    # position rank[i]; dropping that one position leaves exactly the sorted
    # rest of the class.
    ordered = reference.values
    order = sorted(range(reference.n), key=lambda i: reference.entries[i].value)
    rank = [0] * reference.n
    for position, i in enumerate(order):
        rank[i] = position

    # empirical_quantile reads the rest at positions fixed by its length and
    # p alone, at most two adjacent ones. Leaving out sorted position g
    # shifts exactly the read positions >= g, so each level has at most
    # three answers: one per number of read positions shifted.
    answers = {}
    for p in levels:
        probe = _ReadPositions(reference.n - 1)
        empirical_quantile(probe, p, method)
        read = sorted(probe.read)
        # Gap read[j] shifts read[j:]; a gap past the last read shifts none.
        answers[p] = read, [
            empirical_quantile(_WithoutPosition(ordered, gap), p, method)
            for gap in read + [read[-1] + 1]
        ]

    rows: list[LoovRow] = []
    for i, held_out in enumerate(reference.entries):
        uplifts = {p: uplift[bisect_left(read, rank[i])] for p, (read, uplift) in answers.items()}
        prevented = {p: held_out.value <= uplifts[p] for p in levels}
        rows.append(
            LoovRow(
                project_id=held_out.project_id,
                uplift_at=uplifts,
                actual=held_out.value,
                prevented_at=prevented,
            )
        )
    return rows


def loov_summary(rows: Sequence[LoovRow], p_level: float) -> LoovSummary:
    if not rows:
        raise ValueError("no rows to summarize")
    try:
        hits = sum(1 for row in rows if row.prevented_at[p_level])
    except KeyError:
        raise ValueError(f"rows carry no certainty level {p_level}") from None
    return LoovSummary(p_level=p_level, hits=hits, n=len(rows), rate=hits / len(rows))


def _level_token(p: float) -> str:
    return f"p{certainty_percent(p)}"


def write_loov_csv(rows: Sequence[LoovRow], sink: IO[str]) -> None:
    """CSV report; uplifts and actuals appear as whole percentages, the way
    they are read in review meetings, while the prevented flags were decided
    on the unrounded values."""

    if not rows:
        raise ValueError("no rows to write")
    levels = sorted(rows[0].uplift_at)
    header = ["project"]
    header += [f"{_level_token(p)}_uplift" for p in levels]
    header += ["actual"]
    header += [f"{_level_token(p)}_prevented" for p in levels]
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        cells = [row.project_id]
        cells += [signed_percent(row.uplift_at[p]) for p in levels]
        cells += [signed_percent(row.actual)]
        cells += [yes_no(row.prevented_at[p]) for p in levels]
        writer.writerow(cells)
