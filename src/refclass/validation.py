"""Leave-one-out validation of a reference class.

Each project is held out in turn, the uplift curve is rebuilt from the
remaining n - 1 outcomes, and the held-out project's actual overrun is
compared with the uplift it would have been given. An overrun is counted as
prevented when the actual outcome does not exceed the uplift (the boundary
case counts as covered: funding exactly met the outcome).

The held-out uplift is read from the sorted rest at the order statistics
``reference_class.rank_position`` gives for n - 1 values, the one place
the quantile rule lives. Which of them shift depends only on where the
held-out project ranks, so each level needs at most three quantiles.

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
from .formatting import level_token, signed_percent, yes_no
from .reference_class import QuantileMethod, ReferenceClass, empirical_quantile, rank_position
from .registry import DEFAULT_METHOD, DEFAULT_P_LEVELS


@dataclass(frozen=True, slots=True)
class LoovRow:
    """One held-out project: the uplifts the rest of the class implies for
    it, its actual overrun, and whether funding at each level covered it."""

    project_id: str
    uplift_at: dict[float, float]
    actual: float
    prevented_at: dict[float, bool]


@dataclass(frozen=True, slots=True)
class LoovSummary:
    p_level: float
    hits: int
    n: int
    rate: float


def leave_one_out(
    reference: ReferenceClass,
    p_levels: Sequence[float] = DEFAULT_P_LEVELS,
    method: QuantileMethod = DEFAULT_METHOD,
) -> list[LoovRow]:
    """One row per class member, in class input order."""

    if reference.n < 2:
        raise InsufficientDataError(
            f"leave-one-out needs at least 2 observations, got {reference.n}"
        )
    if not p_levels:
        raise ValueError("at least one certainty level is required")
    levels = sorted(set(p_levels))

    # Entry i sits at sorted position rank[i]; dropping that one position
    # leaves exactly the sorted rest of the class.
    ordered = reference.values
    rank = [0] * reference.n
    for position, i in enumerate(reference.order):
        rank[i] = position

    # The rest is read at position start (and start + 1 when interpolating),
    # which rank_position fixes from n - 1 and p alone. Leaving out sorted
    # position g shifts exactly the read positions >= g, so each level has
    # at most three answers: one per number of read positions shifted.
    answers = []
    for p in levels:
        start, frac = rank_position(reference.n - 1, p, method)
        read = [start, start + 1] if frac else [start]
        # Gap read[j] shifts read[j:]; a gap past the last read shifts none.
        answers.append((p, read, [
            empirical_quantile(ordered[:g] + ordered[g + 1:], p, method)
            for g in read + [read[-1] + 1]
        ]))

    rows: list[LoovRow] = []
    for held_out, held_rank in zip(reference.entries, rank):
        actual = held_out.value
        uplifts = {}
        prevented = {}
        for p, read, uplift in answers:
            uplifts[p] = answer = uplift[bisect_left(read, held_rank)]
            prevented[p] = actual <= answer
        rows.append(LoovRow(held_out.project_id, uplifts, actual, prevented))
    return rows


def loov_summary(rows: Sequence[LoovRow], p_level: float) -> LoovSummary:
    if not rows:
        raise ValueError("no rows to summarize")
    try:
        hits = sum(1 for row in rows if row.prevented_at[p_level])
    except KeyError:
        raise ValueError(f"rows carry no certainty level {p_level}") from None
    return LoovSummary(p_level=p_level, hits=hits, n=len(rows), rate=hits / len(rows))


def write_loov_csv(rows: Sequence[LoovRow], sink: IO[str]) -> None:
    """CSV report; uplifts and actuals appear as whole percentages, the way
    they are read in review meetings, while the prevented flags were decided
    on the unrounded values."""

    if not rows:
        raise ValueError("no rows to write")
    levels = sorted(rows[0].uplift_at)
    header = ["project"]
    header += [f"{level_token(p)}_uplift" for p in levels]
    header += ["actual"]
    header += [f"{level_token(p)}_prevented" for p in levels]
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        cells = [row.project_id]
        cells += [signed_percent(row.uplift_at[p]) for p in levels]
        cells += [signed_percent(row.actual)]
        cells += [yes_no(row.prevented_at[p]) for p in levels]
        writer.writerow(cells)
