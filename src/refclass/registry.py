"""Project registry: proforma parsing, validation, and benchmark constants.

Three file-backed inputs feed the toolkit:

* ``projects.csv`` -- one wide row per completed project (the standard
  proforma): approval-stage dates and estimates, outturn, disbursements.
* ``deflators.csv`` -- a contiguous year -> price-index series.
* ``benchmark.json`` -- published summary constants for external comparison.

Both CSV files keep one set of rules, held by one table reader: a header of
exactly the file's column names, rows of as many cells, blank rows skipped.
Each benchmark constant's JSON kind and range sit on its own field.

The command line's choices (enums), every option default and the valid ranges
live here too, so its options are built without loading an analysis module.

Money is carried as integer thousands of HKD exactly as ingested; fractional
money appears only in derived figures downstream.
"""

from __future__ import annotations

import csv
import enum
import math
import re
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field, fields
from datetime import date
from typing import IO, NamedTuple

from .errors import DataFormatError, DeflatorCoverageError, RecordConsistencyError, shortened

# Relative tolerance for money bookkeeping checks (approved vs base +
# contingency, disbursement sum vs outturn).
CONSISTENCY_TOLERANCE = 0.005

#: Largest money magnitude accepted (HKD thousands): the largest integer a
#: float holds exactly, so the ratio and tolerance checks stay exact.
MAX_MONEY = 2**53

DAYS_PER_YEAR = 365.25

_ID_PATTERN = re.compile(r"^[A-Za-z0-9_.-]+$")
_INT_PATTERN = re.compile(r"^[+-]?[0-9]+$")
_YEAR_PATTERN = re.compile(r"^[0-9]{4}$")


class Stage(enum.IntEnum):
    """Approval categories in upgrade order: C, then B, then A."""

    C = 0
    B = 1
    A = 2

    def __str__(self) -> str:
        return self.name


# The stages in order, for the per-record loops: iterating the enum itself
# costs a generator per loop.
_STAGES = tuple(Stage)


class Metric(enum.Enum):
    COST = "cost"
    SCHEDULE = "schedule"

    def __str__(self) -> str:
        return self.value


class QuantileMethod(enum.Enum):
    INF = "inf"
    INTERPOLATED = "interp"

    def __str__(self) -> str:
        return self.value


# The option defaults and valid ranges: the command line and the modules that apply them read these.

#: Estimates approved on or after this date follow the tightened procedure;
#: earlier projects are excluded from reference classes by default.
DEFAULT_ERA_CUTOFF = date(1993, 7, 1)

#: Default outturn threshold for class membership: HKD 100 million, in
#: integer HKD thousands.
DEFAULT_MIN_OUTTURN = 100_000

#: Certainty levels reported when none are named.
DEFAULT_P_LEVELS = (0.5, 0.8)

#: The quantile convention; published uplift tables round to it.
DEFAULT_METHOD = QuantileMethod.INTERPOLATED

#: Loess span fraction and degree, and the step of an uplift curve's certainty grid.
DEFAULT_SPAN = 0.75
DEFAULT_DEGREE = 2
DEFAULT_GRID_STEP = 0.01

#: The loess degrees, each with the fewest points a fit of it takes, and the grid
#: step's closed range: its top is the grid's last point below 1, and its floor
#: keeps the grid and its fit small (a step below 5e-11 would round every point to 0).
LOESS_MIN_POINTS = {1: 3, 2: 4}
MIN_GRID_STEP = 0.0001
MAX_GRID_STEP = 0.99

#: Contingency tiers as (name, certainty). Delegation guidance puts the contract
#: tier between P50 and P55; the preset pins the top of that range.
DEFAULT_TIERS = (("contract", 0.55), ("project", 0.60), ("portfolio", 0.80))

#: The benchmark file's entry compared against when no label is named.
DEFAULT_BENCHMARK_LABEL = "international-roads"


@dataclass(frozen=True, slots=True)
class StageEstimate:
    """Everything the proforma records about one approval stage.

    All fields are optional: a project may enter the registry at any stage.
    Money is integer thousands of HKD; ``base`` excludes ``contingency`` and
    ``approved`` should equal their sum.
    """

    upgrade_date: date | None = None
    base: int | None = None
    contingency: int | None = None
    approved: int | None = None
    planned_completion: date | None = None
    price_level_year: int | None = None


@dataclass(frozen=True, slots=True)
class ProjectRecord:
    """One completed project as recorded in the registry proforma."""

    id: str
    stages: Mapping[Stage, StageEstimate] = field(default_factory=dict)
    construction_start: date | None = None
    actual_completion: date | None = None
    outturn_nominal: int | None = None
    disbursements: Mapping[int, int] | None = None

    def __post_init__(self) -> None:
        # Every record carries all three stages; absent ones are blank.
        stages = dict(self.stages)
        for stage in _STAGES:
            if stage not in stages:
                stages[stage] = StageEstimate()
        object.__setattr__(self, "stages", stages)


@dataclass(frozen=True, slots=True)
class Violation:
    """One registry-invariant failure, reported as data rather than raised."""

    code: str
    message: str
    stage: Stage | None = None


@dataclass(frozen=True, slots=True)
class DeflatorSeries:
    """Contiguous year -> price-index series, normalized so that
    ``index(first year) == 1.0``.

    Only index ratios matter downstream, so the normalization is
    presentational.
    """

    start_year: int
    values: tuple[float, ...]

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, float]]) -> "DeflatorSeries":
        items = sorted(pairs)
        if not items:
            raise DataFormatError("deflator series is empty")
        years = [y for y, _ in items]
        if len(set(years)) != len(years):
            dup = next(y for i, y in enumerate(years) if y in years[:i])
            raise DataFormatError(f"duplicate deflator year {dup}")
        for prev, cur in zip(years, years[1:]):
            if cur != prev + 1:
                raise DataFormatError(f"deflator series is missing year {prev + 1}")
        for year, value in items:
            if not 0 < value < math.inf:
                raise DataFormatError(
                    f"deflator index for {year} must be a positive finite number, got {value}"
                )
        base_value = items[0][1]
        values = tuple(value / base_value for _, value in items)
        for year, value in zip(years, values):
            # Both indexes are positive and finite, but their ratio can
            # underflow to 0 or overflow to inf.
            if not 0 < value < math.inf:
                raise DataFormatError(
                    f"deflator index for {year} over base year {years[0]} must be a positive "
                    f"finite ratio, got {value}"
                )
        return cls(start_year=years[0], values=values)

    def covers(self, year: int) -> bool:
        return self.start_year <= year < self.start_year + len(self.values)

    def index(self, year: int) -> float:
        if not self.covers(year):
            last = self.start_year + len(self.values) - 1
            raise DeflatorCoverageError(
                f"year {year} outside deflator coverage {self.start_year}-{last}"
            )
        return self.values[year - self.start_year]


# A numeric benchmark constant's field metadata: the JSON kind the file must
# give it (the types accepted, their name, and the conversion; a bool is an int
# to Python, but never a number in the file), then its range rule (the words a
# refusal quotes, and a test that NaN fails).
_INTEGER = {"types": (int,), "kind": "an integer", "convert": int}
_NUMBER = {"types": (int, float), "kind": "a number", "convert": float}
_FINITE = {**_NUMBER, "rule": "be finite", "holds": math.isfinite}
_SHARE = {**_NUMBER, "rule": "lie in [0, 1]", "holds": lambda value: 0 <= value <= 1}
_NON_NEGATIVE = {**_NUMBER, "rule": "be a non-negative finite number", "holds": lambda value: 0 <= value < math.inf}


@dataclass(frozen=True, slots=True)
class BenchmarkConstants:
    """Published summary statistics for an external comparison group. Each
    field after ``label`` states its JSON kind and range in its metadata."""

    label: str
    n_projects: int = field(metadata={**_INTEGER, "rule": "be >= 1", "holds": lambda value: value >= 1})
    mean_cost_overrun: float = field(metadata=_FINITE)
    cost_overrun_frequency: float = field(metadata=_SHARE)
    cost_overrun_sd: float = field(metadata=_NON_NEGATIVE)
    mean_schedule_overrun: float = field(metadata=_FINITE)
    schedule_overrun_frequency: float = field(metadata=_SHARE)
    schedule_overrun_sd: float = field(metadata=_NON_NEGATIVE)
    mean_duration_years: float = field(
        metadata={**_NUMBER, "rule": "be a positive finite number", "holds": lambda value: 0 < value < math.inf}
    )

    def __post_init__(self) -> None:
        for f in fields(self)[1:]:
            value = getattr(self, f.name)
            if not f.metadata["holds"](value):
                raise ValueError(
                    f"benchmark {shortened(self.label)}: {f.name} must {f.metadata['rule']}, got {value}"
                )


# Each cell parser takes the cell's text and the dict of the values its
# parse has made so far. A date or year equal to one made before is
# returned as that object, so a parse keeps one object per distinct date
# and year; the dict is keyed by parsed value, so a cell never gets a value
# of another type because its text matched.
def _parse_id(text: str, _shared: dict) -> str:
    if not _ID_PATTERN.match(text):
        raise ValueError(f"invalid project id {shortened(text)}")
    return text


def _parse_money(text: str, _shared: dict) -> int:
    if not _INT_PATTERN.match(text):
        raise ValueError(f"invalid money amount {shortened(text)} (integer HKD thousands expected)")
    # int() refuses a string past 4300 digits; a cell that long is out of
    # range unless zero-padded, and is rejected either way.
    value = int(text) if len(text) < 4300 else MAX_MONEY + 1
    if abs(value) > MAX_MONEY:
        raise ValueError(f"money amount exceeds {MAX_MONEY} in magnitude")
    return value


def _parse_year(text: str, shared: dict) -> int:
    if not _YEAR_PATTERN.match(text):
        raise ValueError(f"invalid year {shortened(text)}")
    year = int(text)
    return shared.setdefault(year, year)


def _parse_date(text: str, shared: dict) -> date:
    try:
        value = date.fromisoformat(text)
    except ValueError:
        raise ValueError(f"invalid ISO date {shortened(text)}") from None
    return shared.setdefault(value, value)


def _parse_disbursements(text: str, shared: dict) -> dict[int, int]:
    spent: dict[int, int] = {}
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError("empty disbursement entry")
        year_text, sep, amount_text = chunk.partition(":")
        if not sep:
            raise ValueError(f"disbursement entry {shortened(chunk)} is not year:amount")
        year = _parse_year(year_text.strip(), shared)
        amount = _parse_money(amount_text.strip(), shared)
        if year in spent:
            raise ValueError(f"duplicate disbursement year {year}")
        spent[year] = amount
    return spent


class _Column(NamedTuple):
    """One proforma column: where its value lives and how its cell parses.

    ``stage`` is None for a column of the record itself; otherwise
    ``attribute`` names a field of that stage's StageEstimate.
    """

    name: str
    stage: Stage | None
    attribute: str
    parse: Callable[[str, dict], object]


#: The proforma layout, in file order. Header check, parsing and writing
#: are all driven by this one table.
_COLUMNS: tuple[_Column, ...] = (
    _Column("id", None, "id", _parse_id),
    _Column("date_c", Stage.C, "upgrade_date", _parse_date),
    _Column("date_b", Stage.B, "upgrade_date", _parse_date),
    _Column("date_a", Stage.A, "upgrade_date", _parse_date),
    _Column("base_c", Stage.C, "base", _parse_money),
    _Column("cont_c", Stage.C, "contingency", _parse_money),
    _Column("approved_c", Stage.C, "approved", _parse_money),
    _Column("planned_completion_c", Stage.C, "planned_completion", _parse_date),
    _Column("base_b", Stage.B, "base", _parse_money),
    _Column("cont_b", Stage.B, "contingency", _parse_money),
    _Column("approved_b", Stage.B, "approved", _parse_money),
    _Column("planned_completion_b", Stage.B, "planned_completion", _parse_date),
    _Column("base_a", Stage.A, "base", _parse_money),
    _Column("cont_a", Stage.A, "contingency", _parse_money),
    _Column("approved_a", Stage.A, "approved", _parse_money),
    _Column("planned_completion_a", Stage.A, "planned_completion", _parse_date),
    _Column("price_level_year_c", Stage.C, "price_level_year", _parse_year),
    _Column("price_level_year_b", Stage.B, "price_level_year", _parse_year),
    _Column("price_level_year_a", Stage.A, "price_level_year", _parse_year),
    _Column("construction_start", None, "construction_start", _parse_date),
    _Column("actual_completion", None, "actual_completion", _parse_date),
    _Column("outturn_nominal", None, "outturn_nominal", _parse_money),
    _Column("disbursements", None, "disbursements", _parse_disbursements),
)

PROJECT_COLUMNS: tuple[str, ...] = tuple(column.name for column in _COLUMNS)


def validate_record(record: ProjectRecord) -> list[Violation]:
    """Check every registry invariant, reporting failures as data.

    Total by design: any syntactically well-formed record yields a report.
    An empty report means the record is internally consistent.
    """

    problems: list[Violation] = []

    def report(code: str, message: str, stage: Stage | None = None) -> None:
        problems.append(Violation(code, f"{record.id}: {message}", stage=stage))

    if record.actual_completion is None:
        report("missing-completion", "actual completion date is missing")
    if record.outturn_nominal is None:
        report("missing-outturn", "nominal outturn is missing")
    elif record.outturn_nominal <= 0:
        report("non-positive-outturn", f"outturn must be positive, got {record.outturn_nominal}")

    dated = [(s, record.stages[s].upgrade_date) for s in _STAGES if record.stages[s].upgrade_date is not None]
    for (s0, d0), (s1, d1) in zip(dated, dated[1:]):
        if d1 < d0:
            report("stage-order", f"{s1} upgrade ({d1.isoformat()}) precedes {s0} upgrade ({d0.isoformat()})", s1)

    for stage in _STAGES:
        est = record.stages[stage]
        for label, amount, floor in (
            ("base", est.base, 1),
            ("contingency", est.contingency, 0),  # a zero contingency is legal
            ("approved", est.approved, 1),
        ):
            if amount is not None and amount < floor:
                report("non-positive-money",
                       f"{label} at Category {stage} must be at least {floor}, got {amount}", stage)
        if est.base is not None and est.price_level_year is None:
            report("missing-price-year", f"base estimate at Category {stage} has no price-level year", stage)
        if est.base is not None and est.contingency is not None and est.approved is not None:
            expected = est.base + est.contingency
            if expected > 0 and abs(est.approved - expected) > CONSISTENCY_TOLERANCE * expected:
                report("estimate-consistency", f"Category {stage} approved estimate {est.approved} differs from "
                       f"base + contingency = {expected} by more than {CONSISTENCY_TOLERANCE:.1%}", stage)
        if est.upgrade_date is None:
            continue
        if record.actual_completion is not None and record.actual_completion < est.upgrade_date:
            report("completion-before-upgrade", f"actual completion {record.actual_completion.isoformat()} "
                   f"precedes Category {stage} upgrade {est.upgrade_date.isoformat()}", stage)
        if est.planned_completion is not None and est.planned_completion <= est.upgrade_date:
            report("non-positive-planned-duration", f"Category {stage} planned completion "
                   f"{est.planned_completion.isoformat()} does not follow the upgrade date "
                   f"{est.upgrade_date.isoformat()}", stage)

    if record.disbursements is not None:
        for year, amount in sorted(record.disbursements.items()):
            if amount <= 0:
                report("non-positive-disbursement", f"disbursement for {year} must be positive, got {amount}")
        if record.outturn_nominal is not None and record.outturn_nominal > 0:
            total = sum(record.disbursements.values())
            if abs(total - record.outturn_nominal) > CONSISTENCY_TOLERANCE * record.outturn_nominal:
                report("disbursement-sum", f"disbursements sum to {total}, outturn is {record.outturn_nominal} "
                       f"(difference exceeds {CONSISTENCY_TOLERANCE:.1%})")

    return problems


def _row_to_record(row: Sequence[str], row_number: int, shared: dict) -> ProjectRecord:
    record_fields: dict[str, object] = {}
    stage_fields: dict[Stage, dict[str, object]] = {stage: {} for stage in _STAGES}
    for column, cell in zip(_COLUMNS, row):
        text = cell.strip()
        if text == "":
            if column.attribute == "id":
                raise DataFormatError(f"row {row_number}, column {column.name!r}: project id is missing")
            continue
        try:
            value = column.parse(text, shared)
        except ValueError as exc:
            raise DataFormatError(f"row {row_number}, column {column.name!r}: {exc}") from None
        owner = record_fields if column.stage is None else stage_fields[column.stage]
        owner[column.attribute] = value
    stages = {stage: StageEstimate(**values) for stage, values in stage_fields.items()}
    return ProjectRecord(stages=stages, **record_fields)


def _table_rows(
    source: Iterable[str] | IO[str], what: str, names: tuple[str, ...]
) -> Iterator[tuple[int, list[str]]]:
    """The data rows of the ``what`` CSV file, each with its row number (the
    header is row 1), skipping blank rows. The file's one contract: a header
    of exactly ``names``, then rows of as many cells. A breach, or a row the
    csv module refuses (a cell past its field size limit, say), raises
    DataFormatError when its row is reached."""

    rows = enumerate(csv.reader(source), start=1)
    row_number = 0
    try:
        row_number, header = next(rows, (0, None))
        if header is None:
            raise DataFormatError(f"{what} file is empty (header row required)")
        if tuple(cell.strip() for cell in header) != names:
            raise DataFormatError(f"unexpected {what} header: expected exactly {','.join(names)}")
        for row_number, row in rows:
            if not row or all(cell.strip() == "" for cell in row):
                continue
            if len(row) != len(names):
                raise DataFormatError(f"row {row_number}: expected {len(names)} columns, got {len(row)}")
            yield row_number, row
    except csv.Error as exc:
        raise DataFormatError(f"row {row_number + 1}: {exc}") from None


def _read_records(source: Iterable[str] | IO[str]) -> Iterator[ProjectRecord]:
    """The proforma's records in file order. Structural problems (bad
    header, bad cell, duplicate id) raise DataFormatError when their row is
    reached; record-level consistency is left to the caller."""

    seen: set[str] = set()
    shared: dict = {}  # this parse's dates and years, each once
    for row_number, row in _table_rows(source, "projects", PROJECT_COLUMNS):
        record = _row_to_record(row, row_number, shared)
        if record.id in seen:
            raise DataFormatError(f"row {row_number}: duplicate project id {shortened(record.id)}")
        seen.add(record.id)
        yield record


def parse_project_records_lenient(
    source: Iterable[str] | IO[str],
) -> tuple[list[ProjectRecord], dict[str, list[Violation]]]:
    """Parse the proforma, reporting invariant violations instead of raising.

    Structural problems (bad header, bad cell, duplicate id) still raise
    DataFormatError; only record-level consistency is deferred to the report.
    """

    records = list(_read_records(source))
    return records, {record.id: validate_record(record) for record in records}


def parse_project_records(source: Iterable[str] | IO[str]) -> list[ProjectRecord]:
    """Parse the proforma strictly: any registry-invariant violation raises.

    The whole file is read first, so a structural problem anywhere in it
    wins; otherwise the first inconsistent record's violations are raised.
    """

    records: list[ProjectRecord] = []
    problems: list[Violation] = []
    for record in _read_records(source):
        records.append(record)
        if not problems:
            problems = validate_record(record)
    if problems:
        raise RecordConsistencyError("; ".join(v.message for v in problems))
    return records


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, str)):
        return str(value)
    if isinstance(value, date):
        return value.isoformat()
    return ";".join(f"{year}:{amount}" for year, amount in sorted(value.items()))


def record_to_row(record: ProjectRecord) -> list[str]:
    cells = []
    for column in _COLUMNS:
        owner = record if column.stage is None else record.stages[column.stage]
        cells.append(_format_cell(getattr(owner, column.attribute)))
    return cells


def write_project_records(records: Sequence[ProjectRecord], sink: IO[str]) -> None:
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(PROJECT_COLUMNS)
    for record in records:
        writer.writerow(record_to_row(record))


def parse_deflator_series(source: Iterable[str] | IO[str]) -> DeflatorSeries:
    pairs: list[tuple[int, float]] = []
    years: dict = {}
    for row_number, (year_text, index_text) in _table_rows(source, "deflators", ("year", "index")):
        try:
            year = _parse_year(year_text.strip(), years)
        except ValueError as exc:
            raise DataFormatError(f"row {row_number}, column 'year': {exc}") from None
        index_text = index_text.strip()
        try:
            value = float(index_text)
        except ValueError:
            raise DataFormatError(
                f"row {row_number}, column 'index': invalid number {shortened(index_text)}"
            ) from None
        pairs.append((year, value))
    return DeflatorSeries.from_pairs(pairs)


def parse_benchmark_constants(source: str | IO[str]) -> dict[str, BenchmarkConstants]:
    """Parse benchmark.json: a mapping from label to summary constants."""

    import json  # only check and benchmark read this file

    text = source if isinstance(source, str) else source.read()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"benchmark file is not valid JSON: {exc}") from None
    except ValueError:  # int() refuses a number past its digit limit
        raise DataFormatError("benchmark file holds a number with too many digits") from None
    except RecursionError:
        raise DataFormatError("benchmark file nests arrays or objects too deeply") from None
    if not isinstance(payload, dict):
        raise DataFormatError("benchmark file must hold an object keyed by label")
    numeric = fields(BenchmarkConstants)[1:]
    result: dict[str, BenchmarkConstants] = {}
    for label, body in payload.items():
        if not isinstance(body, dict):
            raise DataFormatError(f"benchmark {shortened(label)}: entry must be an object")
        missing = [f.name for f in numeric if f.name not in body]
        if missing:
            raise DataFormatError(f"benchmark {shortened(label)}: missing fields {', '.join(missing)}")
        values = {}
        for f in numeric:
            value, kind = body[f.name], f.metadata
            if isinstance(value, bool) or not isinstance(value, kind["types"]):
                shown = shortened(json.dumps(value), show=str)
                raise DataFormatError(f"benchmark {shortened(label)}: {f.name} must be {kind['kind']}, got {shown}")
            try:
                values[f.name] = kind["convert"](value)
            except OverflowError as exc:
                raise DataFormatError(f"benchmark {shortened(label)}: {f.name}: {exc}") from None
        try:
            result[label] = BenchmarkConstants(label=label, **values)
        except ValueError as exc:
            # The constants' own checks already name the label.
            raise DataFormatError(str(exc)) from None
    return result
