"""Command-line interface.

Each command takes the settings it reads and the file settings; a file
setting it does not read is accepted but never parsed. A setting can come
from three places, in priority order: the command line flag, a flat
key=value config file named by --config, then the built-in default.
Either way its option type hands the command the value it uses (``--stage
C`` is ``Stage.C``), and an error echoes at most 40 characters of a
rejected value. File outputs land under the --out directory and are
byte-stable: the same inputs always produce the same bytes.

Exit codes: 0 success, 1 usage error, 2 data error, 3 empty reference
class, 4 non-monotone curve where monotonicity is required.
"""

from __future__ import annotations

import io
import math
import os
import sys
from datetime import date
from pathlib import Path

import click

# Only what the option definitions need is imported here. Each command
# imports the modules it runs, so no command loads another command's modules.
from .errors import DataFormatError, EmptyClassError, NonMonotoneCurveError, RefclassError, shortened
from .registry import DEFAULT_BENCHMARK_LABEL, DEFAULT_DEGREE, DEFAULT_ERA_CUTOFF, DEFAULT_GRID_STEP, DEFAULT_METHOD
from .registry import DEFAULT_MIN_OUTTURN, DEFAULT_P_LEVELS, DEFAULT_SPAN, DEFAULT_TIERS, LOESS_MIN_POINTS
from .registry import MAX_GRID_STEP, MAX_MONEY, MIN_GRID_STEP, Metric, QuantileMethod, Stage


class _OptionType(click.ParamType):
    """How every option type rejects a value: as ``shortened(value)`` and
    what the type ``expects``."""

    def reject(self, value, param, ctx):
        self.fail(f"{shortened(value)} is not {self.expects}", param, ctx)

    def convert(self, value, param, ctx):
        try:
            return super().convert(value, param, ctx)
        except click.BadParameter:
            self.reject(value, param, ctx)


class _IsoDate(_OptionType):
    """A calendar date in ISO form, from a flag or a config file alike."""

    name = "date"
    expects = "an ISO date"

    def convert(self, value, param, ctx):
        if isinstance(value, date):
            return value
        try:
            return date.fromisoformat(value)
        except ValueError:
            self.reject(value, param, ctx)


class _Range(_OptionType):
    """A number range, which expects ``kind`` between its bounds."""

    @property
    def expects(self) -> str:
        low = "" if self.min is None else f"{self.min}{'<' if self.min_open else '<='}"
        high = "" if self.max is None else f"{'<' if self.max_open else '<='}{self.max}"
        return f"{self.kind} in the range {low}x{high}"


class _FloatRange(_Range, click.FloatRange):
    """A float range that also rejects NaN, which no bound comparison catches."""

    kind = "a number"

    def convert(self, value, param, ctx):
        value = super().convert(value, param, ctx)
        if math.isnan(value):
            self.reject(value, param, ctx)
        return value


class _IntRange(_Range, click.IntRange):
    kind = "an integer"


class _Choice(_OptionType, click.Choice):
    """A choice of enum members, each by its token (the ``str`` the outputs
    print), and of ``extra`` tokens; converted to the member or extra value."""

    def __init__(self, members, case_sensitive: bool = True, **extra):
        self.values = {str(member): member for member in members} | extra
        super().__init__(list(self.values), case_sensitive)
        self.expects = "one of " + ", ".join(map(repr, self.values)) + "."  # click's own words

    def convert(self, value, param, ctx):
        # click.Choice returns the token as declared, whatever case was given.
        return self.values[super().convert(value, param, ctx)]


_DEFAULT_OUT = "out"

#: The settings, keyed by config-file key; each is also the option ``--<key>``
#: (``-`` for ``_``) of each command that takes it. A config-file value reaches
#: the command through click's default map, so it is parsed and validated by
#: the same type as the flag, and a flag given on the command line wins.
_SETTINGS: dict[str, dict] = {
    "projects": dict(help="Project registry CSV."),
    "deflators": dict(help="Deflator series CSV."),
    "benchmark": dict(help="Benchmark constants JSON."),
    "era_cutoff": dict(type=_IsoDate(), default=DEFAULT_ERA_CUTOFF,
                       help="Exclude projects whose Category C upgrade predates this ISO date."),
    "min_outturn": dict(type=_IntRange(max=MAX_MONEY), default=DEFAULT_MIN_OUTTURN,
                        help="Smallest outturn (HKD thousands) admitted to a class."),
    "method": dict(type=_Choice(QuantileMethod, case_sensitive=False),
                   default=str(DEFAULT_METHOD), help=f"Quantile convention (default {DEFAULT_METHOD})."),
    "span": dict(type=_FloatRange(0, 1, min_open=True), default=DEFAULT_SPAN,
                 help="Loess span fraction."),
    "degree": dict(type=_IntRange(min(LOESS_MIN_POINTS), max(LOESS_MIN_POINTS)), default=DEFAULT_DEGREE,
                   help="Loess degree."),
    "grid_step": dict(type=_FloatRange(MIN_GRID_STEP, MAX_GRID_STEP), default=DEFAULT_GRID_STEP,
                      help="Certainty grid step."),
    "out": dict(type=click.Path(file_okay=False), default=_DEFAULT_OUT, metavar="DIRECTORY",
                help=f"Output directory (default ./{_DEFAULT_OUT})."),
}
#: Every command takes these, so that one config file serves all commands.
_FILE_SETTINGS = ("projects", "deflators", "benchmark", "out")
#: What uplift, curve and tiers read.
_CURVE_SETTINGS = tuple(key for key in _SETTINGS if key != "benchmark")


def _os_error_text(exc: OSError) -> str:
    """``str(exc)``, with the file names it echoes shortened."""

    if exc.filename is None:
        return str(exc)
    names = (shortened(name) for name in (exc.filename, exc.filename2) if name is not None)
    return f"[Errno {exc.errno}] {exc.strerror}: {' -> '.join(names)}"


def _read_config(ctx: click.Context, _param, path: str | None) -> None:
    """Load a flat ``key = value`` file as the command's default map."""

    if path is None:
        return
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise click.UsageError(f"cannot read config file: {_os_error_text(exc)}")
    except UnicodeDecodeError:
        raise click.UsageError(f"config file {shortened(path, show=str)} is not UTF-8 text")
    defaults: dict[str, str] = {}
    for line_number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise click.UsageError(f"config line {line_number}: expected key = value")
        key = key.strip()
        if key not in _SETTINGS:
            raise click.UsageError(f"config line {line_number}: unknown key {shortened(key)}")
        if "\0" in value:
            # No path or number holds one; the OS would refuse it as a path.
            raise click.UsageError(f"config line {line_number}: {key} holds a NUL character")
        defaults[key] = value.strip()
    ctx.default_map = defaults


def _parse_p_list(_ctx, _param, value):
    if value is None:
        return DEFAULT_P_LEVELS
    levels = []
    for token in value.split(","):
        token = token.strip()
        try:
            p = float(token)
        except ValueError:
            raise click.UsageError(f"invalid certainty {shortened(token)} in --p")
        if not 0.0 < p <= 1.0:
            raise click.UsageError(f"certainty {p} in --p outside (0, 1]")
        levels.append(p)
    return tuple(levels)


def _parse_scheme(_ctx, _param, value):
    from .contingency import DEFAULT_TIER_SCHEME, TierScheme

    if value is None:
        return DEFAULT_TIER_SCHEME
    tiers = []
    for token in value.split(","):
        name, sep, certainty = token.strip().partition(":")
        if not sep:
            raise click.UsageError(f"tier {shortened(token)} is not name:certainty")
        try:
            tiers.append((name.strip(), float(certainty)))
        except ValueError:
            raise click.UsageError(f"tier {shortened(token)} has a non-numeric certainty")
    try:
        return TierScheme(tiers=tuple(tiers))
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _settings(*read: str, **overrides: dict):
    """Give a command ``--config`` and, as parameters, the settings it reads.
    A file setting it does not read is accepted, with its help, but neither
    parsed nor passed on; any other is no option of the command.
    ``overrides`` replaces a setting's attributes."""

    def decorate(command):
        for key, attributes in reversed(_SETTINGS.items()):
            if key in read:
                attributes = {**attributes, **overrides.get(key, {})}
            elif key in _FILE_SETTINGS:
                attributes = dict(help=attributes["help"], metavar=attributes.get("metavar"),
                                  expose_value=False)
            else:
                continue
            command = click.option("--" + key.replace("_", "-"), **attributes)(command)
        # Eager, so the file is read before any setting looks up its default.
        return click.option("--config", is_eager=True, expose_value=False, callback=_read_config,
                            help="Flat key = value settings file.")(command)

    return decorate


_STAGE_OPTION = click.option("--stage", type=_Choice(Stage), required=True, help="Approval category.")
_METRIC_OPTION = click.option("--metric", type=_Choice(Metric), required=True, help="Overrun metric.")
_P_OPTION = click.option(
    "--p", "levels", type=str, default=None, callback=_parse_p_list,
    help=f"Comma-separated certainty levels (default {','.join(map(str, DEFAULT_P_LEVELS))}).",
)


@click.group()
def cli() -> None:
    """Reference-class forecasting over a registry of completed projects."""


def _required(path: str | None, key: str) -> str:
    if path is None:
        raise click.UsageError(f"no {key} file given (use --{key} or a config file)")
    return path


def _parse_file(path: str, parse, newline: str | None = None):
    """Parse the UTF-8 text file at ``path``; undecodable bytes are a data error."""

    with open(path, encoding="utf-8", newline=newline) as handle:
        try:
            return parse(handle)
        except UnicodeDecodeError:
            raise DataFormatError(f"{shortened(path, show=str)} is not UTF-8 text") from None


def _observations(projects: str | None, deflators: str | None, era_cutoff: date):
    from .normalization import derive_all_observations
    from .registry import parse_deflator_series, parse_project_records

    records = _parse_file(_required(projects, "projects"), parse_project_records, newline="")
    series = _parse_file(_required(deflators, "deflators"), parse_deflator_series, newline="")
    return records, derive_all_observations(records, series, era_cutoff)


def _reference_class(projects, deflators, era_cutoff, stage, metric, min_outturn):
    """The registry's class of ``stage`` and ``metric``, which must not be empty."""

    from .reference_class import ClassFilter, build_class

    _, observations = _observations(projects, deflators, era_cutoff)
    reference = build_class(observations, ClassFilter(stage=stage, metric=metric, min_outturn=min_outturn))
    if reference.is_empty:
        raise EmptyClassError(f"reference class is empty: stage {stage}, metric {metric}, "
                              f"min outturn {shortened(min_outturn)}")
    return reference


def _curve_grid(grid_step: float, degree: int, levels=(), option: str = "") -> tuple[float, ...]:
    """The certainty grid of a smoothed curve, checked to hold enough points
    for a loess fit of ``degree`` and to cover ``levels``."""

    from .reference_class import default_probability_grid

    grid = default_probability_grid(grid_step)
    if len(grid) < LOESS_MIN_POINTS[degree]:
        raise click.UsageError(
            f"--grid-step {grid_step} leaves {len(grid)} grid points; "
            f"a loess fit of degree {degree} needs at least {LOESS_MIN_POINTS[degree]}"
        )
    if levels and min(levels) < grid[0]:
        raise click.UsageError(
            f"certainty {min(levels)} in {option} is below the curve's first grid point {grid[0]}"
        )
    return grid


def _smoothed_curve(reference, grid, method, span, degree, isotonic=True):
    """``reference``'s uplift curve over ``grid``, loess-smoothed, then made monotone if ``isotonic``."""

    from .reference_class import isotonic_adjust, smooth_curve, uplift_curve

    curve = smooth_curve(uplift_curve(reference, grid, method), span=span, degree=degree)
    return isotonic_adjust(curve) if isotonic else curve


def _emit(out: str, filename: str, text: str, echo: bool = True) -> None:
    """Write ``text`` to ``filename`` under ``out`` and, if ``echo``, to stdout."""

    directory = Path(out)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / filename).write_text(text, encoding="utf-8")
    if echo:
        click.echo(text, nl=False)


@cli.command("overruns")
@_settings("projects", "deflators", "era_cutoff", "out")
@_STAGE_OPTION
@_METRIC_OPTION
def cmd_overruns(stage: Stage, metric: Metric, projects, deflators, era_cutoff, out) -> None:
    """Normalized overrun observations for one stage and metric."""

    from .formatting import yes_no

    _, observations = _observations(projects, deflators, era_cutoff)
    selected = [o for o in observations if o.stage is stage and o.metric is metric]
    buffer = io.StringIO()
    buffer.write("project,stage,metric,value,reference_date,pre_era,outturn_nominal\n")
    for o in selected:
        buffer.write(
            f"{o.project_id},{o.stage},{o.metric},{o.value:.6f},"
            f"{o.reference_date.isoformat()},{yes_no(o.pre_era)},{o.outturn_nominal}\n"
        )
    _emit(out, f"overruns_{stage}_{metric}.csv", buffer.getvalue())


@cli.command("uplift")
@_settings(*_CURVE_SETTINGS, method=dict(type=_Choice(
    QuantileMethod, case_sensitive=False, both=(QuantileMethod.INTERPOLATED, QuantileMethod.INF))))
@_STAGE_OPTION
@_METRIC_OPTION
@_P_OPTION
@click.option("--smooth", is_flag=True, help="Also report the smoothed, monotone uplift.")
def cmd_uplift(stage: Stage, metric: Metric, levels, smooth: bool, projects, deflators, era_cutoff,
               min_outturn, method, span, degree, grid_step, out) -> None:
    """Required uplifts at chosen certainty levels."""

    from .formatting import certainty_text
    from .reference_class import uplift as class_uplift

    methods = method if isinstance(method, tuple) else (method,)
    grid = _curve_grid(grid_step, degree, levels, "--p") if smooth else None
    reference = _reference_class(projects, deflators, era_cutoff, stage, metric, min_outturn)
    smoothed_curve = _smoothed_curve(reference, grid, methods[0], span, degree) if smooth else None

    buffer = io.StringIO()
    header = ["p"] + [f"uplift_{m}" for m in methods]
    if smoothed_curve is not None:
        header.append("uplift_smoothed")
    buffer.write(",".join(header) + "\n")
    for p in levels:
        cells = [certainty_text(p)] + [f"{class_uplift(reference, p, m):.6f}" for m in methods]
        if smoothed_curve is not None:
            cells.append(f"{smoothed_curve.value_at(p):.6f}")
        buffer.write(",".join(cells) + "\n")
    _emit(out, f"uplift_{stage}_{metric}.csv", buffer.getvalue())


@cli.command("validate")
@_settings("projects", "deflators", "era_cutoff", "min_outturn", "method", "out")
@_STAGE_OPTION
@_METRIC_OPTION
@_P_OPTION
def cmd_validate(stage: Stage, metric: Metric, levels, projects, deflators, era_cutoff, min_outturn,
                 method: QuantileMethod, out) -> None:
    """Leave-one-out check: would the uplift have covered each project?"""

    from .formatting import level_token, round_half_away
    from .validation import leave_one_out, loov_summary, write_loov_csv

    reference = _reference_class(projects, deflators, era_cutoff, stage, metric, min_outturn)
    rows = leave_one_out(reference, levels, method)
    buffer = io.StringIO()
    write_loov_csv(rows, buffer)
    _emit(out, f"loov_{stage}_{metric}.csv", buffer.getvalue())
    for p in sorted(set(levels)):
        summary = loov_summary(rows, p)
        click.echo(
            f"# {level_token(p)}: {summary.hits}/{summary.n} prevented "
            f"({round_half_away(summary.rate * 100):d}%)"
        )


@cli.command("benchmark")
@_settings("projects", "deflators", "benchmark", "era_cutoff", "min_outturn", "out")
@click.option("--benchmark-label", type=str, default=None,
              help=f"Which label to use from the benchmark file (default: {DEFAULT_BENCHMARK_LABEL}, else first).")
def cmd_benchmark(benchmark_label, projects, deflators, benchmark, era_cutoff, min_outturn,
                  out) -> None:
    """Descriptive comparison of every class against benchmark constants."""

    from .benchmarking import benchmark_report, phase_breakdown, write_benchmark_csv, write_benchmark_json
    from .reference_class import ClassFilter, build_class
    from .registry import parse_benchmark_constants

    # A missing input file, then the label, before any registry error.
    projects, deflators = _required(projects, "projects"), _required(deflators, "deflators")
    available = {} if benchmark is None else _parse_file(benchmark, parse_benchmark_constants)
    if benchmark_label is None:
        default = DEFAULT_BENCHMARK_LABEL
        benchmark_label = default if default in available else min(available, default=None)
    elif benchmark_label not in available:
        _required(benchmark, "benchmark")
        raise click.UsageError(f"label {shortened(benchmark_label)} not in benchmark file "
                               f"(has: {', '.join(sorted(available)) or 'no labels'})")
    constants = available.get(benchmark_label)

    records, observations = _observations(projects, deflators, era_cutoff)
    # The report leaves out an empty class itself, and refuses to be empty.
    classes = {
        (stage, metric): build_class(observations, ClassFilter(stage=stage, metric=metric, min_outturn=min_outturn))
        for stage in Stage
        for metric in Metric
    }
    durations = [row.total_years for row in phase_breakdown(records)[0]]
    report = benchmark_report(classes, constants=constants, durations_years=durations)

    csv_buffer = io.StringIO()
    write_benchmark_csv(report, csv_buffer)
    json_buffer = io.StringIO()
    write_benchmark_json(report, json_buffer)
    _emit(out, "benchmark.json", json_buffer.getvalue(), echo=False)
    _emit(out, "benchmark.csv", csv_buffer.getvalue())


@cli.command("curve")
@_settings(*_CURVE_SETTINGS)
@_STAGE_OPTION
@_METRIC_OPTION
def cmd_curve(stage: Stage, metric: Metric, projects, deflators, era_cutoff, min_outturn,
              method: QuantileMethod, span, degree, grid_step, out) -> None:
    """Full uplift curve: raw quantiles, smoothed fit, confidence band."""

    from .formatting import certainty_text
    from .plot import curve_svg

    grid = _curve_grid(grid_step, degree)
    reference = _reference_class(projects, deflators, era_cutoff, stage, metric, min_outturn)
    smoothed = _smoothed_curve(reference, grid, method, span, degree)

    buffer = io.StringIO()
    buffer.write("p,uplift_raw,uplift_smoothed,ci_low,ci_high\n")
    for (p, raw_value), (_, fit, lo, hi) in zip(smoothed.points, smoothed.smoothed):
        buffer.write(f"{certainty_text(p)},{raw_value:.6f},{fit:.6f},{lo:.6f},{hi:.6f}\n")
    svg = curve_svg(smoothed, title=f"uplift curve: Category {stage}, {metric}")
    _emit(out, f"curve_{stage}_{metric}.svg", svg, echo=False)
    _emit(out, f"curve_{stage}_{metric}.csv", buffer.getvalue())


@cli.command("tiers")
@_settings(*_CURVE_SETTINGS)
@_STAGE_OPTION
@_METRIC_OPTION
@click.option("--base", type=_IntRange(1, MAX_MONEY), required=True,
              help="Base estimate (HKD thousands).")
@click.option("--scheme", type=str, default=None, callback=_parse_scheme,
              help=f"Tiers as name:certainty,... (default {','.join(f'{n}:{p:.2f}' for n, p in DEFAULT_TIERS)}).")
@click.option("--no-isotonic", is_flag=True,
              help="Skip the monotone adjustment of the smoothed curve (may fail with exit 4).")
def cmd_tiers(stage: Stage, metric: Metric, base: int, scheme, no_isotonic: bool, projects, deflators,
              era_cutoff, min_outturn, method: QuantileMethod, span, degree, grid_step, out) -> None:
    """Tiered contingency allocation along the smoothed uplift curve."""

    from .contingency import tier_allocation, write_allocation_json

    grid = _curve_grid(
        grid_step, degree, [certainty for _, certainty in scheme.tiers], "--scheme"
    )
    reference = _reference_class(projects, deflators, era_cutoff, stage, metric, min_outturn)
    curve = _smoothed_curve(reference, grid, method, span, degree, isotonic=not no_isotonic)

    buffer = io.StringIO()
    write_allocation_json(tier_allocation(base, curve, scheme), buffer)
    _emit(out, f"tiers_{stage}_{metric}.json", buffer.getvalue())


@cli.command("check")
@_settings("projects", "deflators", "benchmark")
def cmd_check(projects, deflators, benchmark) -> None:
    """Registry validation only: report every consistency violation."""

    from .registry import parse_benchmark_constants, parse_deflator_series, parse_project_records_lenient

    records, reports = _parse_file(
        _required(projects, "projects"), parse_project_records_lenient, newline=""
    )

    problem_count = 0
    for record in records:
        for violation in reports[record.id]:
            problem_count += 1
            click.echo(f"{violation.code}: {violation.message}")

    if deflators is not None:
        _parse_file(deflators, parse_deflator_series, newline="")
    if benchmark is not None:
        _parse_file(benchmark, parse_benchmark_constants)

    if problem_count:
        click.echo(f"{problem_count} violation(s) in {len(records)} record(s)")
        raise click.exceptions.Exit(2)
    click.echo(f"registry OK ({len(records)} records)")


def main(argv: list[str] | None = None) -> int:
    """Run the CLI, mapping failures onto the exit-code contract."""

    try:
        # Click returns an Exit's code instead of raising when not standalone.
        result = cli.main(args=argv, prog_name="refclass", standalone_mode=False)
        if isinstance(result, int):
            return result
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.ClickException as exc:
        exc.show()
        return 1
    except OSError as exc:
        print(f"error: {_os_error_text(exc)}", file=sys.stderr)
        return 2
    except RefclassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return {EmptyClassError: 3, NonMonotoneCurveError: 4}.get(type(exc), 2)
    return 0


def entrypoint() -> None:
    """Run the CLI as its own process, on one BLAS thread.

    numpy's bundled OpenBLAS reads this variable when numpy is first
    imported, and by default starts a worker thread that spins while numpy
    loads. No fit here is large enough for a second thread to pay, so the
    process asks for one unless the user has set a count. ``main`` leaves
    the environment alone for in-process callers.
    """

    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.exit(main())
