"""Command-line interface.

Every setting can come from three places, in priority order: the command
line flag, a flat key=value config file named by --config, then the
built-in default. File outputs land under the --out directory and are
byte-stable: the same inputs always produce the same bytes.

Exit codes: 0 success, 1 usage error, 2 data error, 3 empty reference
class, 4 non-monotone curve where monotonicity is required.
"""

from __future__ import annotations

import io
import math
import sys
from datetime import date
from pathlib import Path

import click

# Only what the option definitions need is imported here. Each command
# imports the modules it runs, so no command loads another command's modules.
from .errors import DataFormatError, EmptyClassError, NonMonotoneCurveError, RefclassError
from .registry import DEFAULT_ERA_CUTOFF, DEFAULT_MIN_OUTTURN, DEFAULT_P_LEVELS, MAX_MONEY


class _IsoDate(click.ParamType):
    """A calendar date in ISO form, from a flag or a config file alike."""

    name = "date"

    def convert(self, value, param, ctx):
        if isinstance(value, date):
            return value
        try:
            return date.fromisoformat(value)
        except ValueError:
            self.fail(f"{value!r} is not an ISO date", param, ctx)


class _FloatRange(click.FloatRange):
    """A float range that also rejects NaN, which no bound comparison catches."""

    def convert(self, value, param, ctx):
        value = super().convert(value, param, ctx)
        if math.isnan(value):
            self.fail(f"{value} is not a number", param, ctx)
        return value


#: The settings every command takes, keyed by config-file key; each is also
#: the option ``--<key>`` with ``-`` for ``_``. A config-file value reaches
#: the command through click's default map, so it is parsed and validated by
#: the same type as the flag, and a flag given on the command line wins.
_SETTINGS: dict[str, dict] = {
    "projects": dict(help="Project registry CSV."),
    "deflators": dict(help="Deflator series CSV."),
    "benchmark": dict(help="Benchmark constants JSON."),
    "era_cutoff": dict(type=_IsoDate(), default=DEFAULT_ERA_CUTOFF,
                       help="Exclude projects whose Category C upgrade predates this ISO date."),
    "min_outturn": dict(type=int, default=DEFAULT_MIN_OUTTURN,
                        help="Smallest outturn (HKD thousands) admitted to a class."),
    "method": dict(type=click.Choice(["inf", "interp", "both"], case_sensitive=False),
                   default="interp", help="Quantile convention (default interp)."),
    "span": dict(type=_FloatRange(0, 1, min_open=True), default=0.75,
                 help="Loess span fraction."),
    "degree": dict(type=click.IntRange(1, 2), default=2, help="Loess degree."),
    "grid_step": dict(type=_FloatRange(0, 0.99, min_open=True), default=0.01,
                      help="Certainty grid step."),
    "out": dict(type=click.Path(file_okay=False), default="out",
                help="Output directory (default ./out)."),
}


def _read_config(ctx: click.Context, _param, path: str | None) -> None:
    """Load a flat ``key = value`` file as the command's default map."""

    if path is None:
        return
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise click.UsageError(f"cannot read config file: {exc}")
    except UnicodeDecodeError:
        raise click.UsageError(f"config file {path} is not UTF-8 text")
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
            raise click.UsageError(f"config line {line_number}: unknown key {key!r}")
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
            raise click.UsageError(f"invalid certainty {token!r} in --p")
        if not 0.0 < p <= 1.0:
            raise click.UsageError(f"certainty {p} in --p outside (0, 1]")
        levels.append(p)
    if not levels:
        raise click.UsageError("--p names no certainty levels")
    return tuple(levels)


def _parse_scheme(_ctx, _param, value):
    from .contingency import TierScheme

    if value is None:
        return None
    tiers = []
    for token in value.split(","):
        name, sep, certainty = token.strip().partition(":")
        if not sep:
            raise click.UsageError(f"tier {token!r} is not name:certainty")
        try:
            tiers.append((name.strip(), float(certainty)))
        except ValueError:
            raise click.UsageError(f"tier {token!r} has a non-numeric certainty")
    try:
        return TierScheme(tiers=tuple(tiers))
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _common_options(command):
    for key, attributes in reversed(_SETTINGS.items()):
        command = click.option("--" + key.replace("_", "-"), **attributes)(command)
    # Eager, so the file is read before any setting looks up its default.
    return click.option("--config", is_eager=True, expose_value=False, callback=_read_config,
                        help="Flat key = value settings file.")(command)


_STAGE_OPTION = click.option(
    "--stage", type=click.Choice(["C", "B", "A"]), required=True, help="Approval category."
)
_METRIC_OPTION = click.option(
    "--metric", type=click.Choice(["cost", "schedule"]), required=True, help="Overrun metric."
)
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
            raise DataFormatError(f"{path} is not UTF-8 text") from None


def _observations(projects: str | None, deflators: str | None, era_cutoff: date):
    from .normalization import derive_all_observations
    from .registry import parse_deflator_series, parse_project_records

    records = _parse_file(_required(projects, "projects"), parse_project_records, newline="")
    series = _parse_file(_required(deflators, "deflators"), parse_deflator_series, newline="")
    return records, derive_all_observations(records, series, era_cutoff)


def _load_benchmark(path: str | None):
    from .registry import parse_benchmark_constants

    if path is None:
        return None
    return _parse_file(path, parse_benchmark_constants)


def _class_for(observations, stage: str, metric: str, min_outturn: int):
    from .reference_class import ClassFilter, build_class
    from .registry import Metric, Stage

    target = ClassFilter(
        stage=Stage.from_token(stage), metric=Metric.from_token(metric), min_outturn=min_outturn
    )
    reference = build_class(observations, target)
    if reference.is_empty:
        raise EmptyClassError(
            f"reference class is empty: stage {stage}, metric {metric}, "
            f"min outturn {min_outturn}"
        )
    return reference


def _curve_grid(grid_step: float, degree: int, levels=(), option: str = "") -> tuple[float, ...]:
    """The certainty grid of a smoothed curve, checked to hold enough points
    for a loess fit of ``degree`` and to cover ``levels``."""

    from .reference_class import default_probability_grid

    grid = default_probability_grid(grid_step)
    if len(grid) < degree + 2:
        raise click.UsageError(
            f"--grid-step {grid_step} leaves {len(grid)} grid points; "
            f"a loess fit of degree {degree} needs at least {degree + 2}"
        )
    if levels and min(levels) < grid[0]:
        raise click.UsageError(
            f"certainty {min(levels)} in {option} is below the curve's first grid point {grid[0]}"
        )
    return grid


def _emit(out: str, filename: str, text: str) -> None:
    directory = Path(out)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / filename).write_text(text, encoding="utf-8")


def _quantile_methods(method: str):
    from .reference_class import QuantileMethod

    if method == "both":
        return [QuantileMethod.INTERPOLATED, QuantileMethod.INF]
    return [QuantileMethod.from_token(method)]


def _single_method(method: str, command: str):
    from .reference_class import QuantileMethod

    if method == "both":
        raise click.UsageError(f"{command} needs a single quantile method, not both")
    return QuantileMethod.from_token(method)


@cli.command("overruns")
@_common_options
@_STAGE_OPTION
@_METRIC_OPTION
def cmd_overruns(stage: str, metric: str, projects, deflators, era_cutoff, out, **_unused) -> None:
    """Normalized overrun observations for one stage and metric."""

    from .registry import Metric, Stage

    target_stage = Stage.from_token(stage)
    target_metric = Metric.from_token(metric)
    _, observations = _observations(projects, deflators, era_cutoff)
    selected = [
        o for o in observations if o.stage is target_stage and o.metric is target_metric
    ]
    buffer = io.StringIO()
    buffer.write("project,stage,metric,value,reference_date,pre_era,outturn_nominal\n")
    for o in selected:
        buffer.write(
            f"{o.project_id},{o.stage},{o.metric},{o.value:.6f},"
            f"{o.reference_date.isoformat()},{'yes' if o.pre_era else 'no'},{o.outturn_nominal}\n"
        )
    text = buffer.getvalue()
    _emit(out, f"overruns_{stage}_{metric}.csv", text)
    click.echo(text, nl=False)


@cli.command("uplift")
@_common_options
@_STAGE_OPTION
@_METRIC_OPTION
@_P_OPTION
@click.option("--smooth", is_flag=True, help="Also report the smoothed, monotone uplift.")
def cmd_uplift(stage: str, metric: str, levels, smooth: bool, projects, deflators, era_cutoff,
               min_outturn, method, span, degree, grid_step, out, **_unused) -> None:
    """Required uplifts at chosen certainty levels."""

    from .formatting import certainty_text
    from .reference_class import isotonic_adjust, smooth_curve, uplift as class_uplift, uplift_curve

    grid = _curve_grid(grid_step, degree, levels, "--p") if smooth else None
    _, observations = _observations(projects, deflators, era_cutoff)
    reference = _class_for(observations, stage, metric, min_outturn)

    methods = _quantile_methods(method)
    smoothed_curve = None
    if smooth:
        raw = uplift_curve(reference, grid, methods[0])
        smoothed_curve = isotonic_adjust(smooth_curve(raw, span=span, degree=degree))

    buffer = io.StringIO()
    header = ["p"] + [f"uplift_{m.value}" for m in methods]
    if smoothed_curve is not None:
        header.append("uplift_smoothed")
    buffer.write(",".join(header) + "\n")
    for p in levels:
        cells = [certainty_text(p)] + [f"{class_uplift(reference, p, m):.6f}" for m in methods]
        if smoothed_curve is not None:
            cells.append(f"{smoothed_curve.value_at(p):.6f}")
        buffer.write(",".join(cells) + "\n")
    text = buffer.getvalue()
    _emit(out, f"uplift_{stage}_{metric}.csv", text)
    click.echo(text, nl=False)


@cli.command("validate")
@_common_options
@_STAGE_OPTION
@_METRIC_OPTION
@_P_OPTION
def cmd_validate(stage: str, metric: str, levels, projects, deflators, era_cutoff, min_outturn,
                 method, out, **_unused) -> None:
    """Leave-one-out check: would the uplift have covered each project?"""

    from .formatting import certainty_percent, round_half_away
    from .validation import leave_one_out, loov_summary, write_loov_csv

    _, observations = _observations(projects, deflators, era_cutoff)
    reference = _class_for(observations, stage, metric, min_outturn)

    rows = leave_one_out(reference, levels, _single_method(method, "validate"))
    buffer = io.StringIO()
    write_loov_csv(rows, buffer)
    text = buffer.getvalue()
    _emit(out, f"loov_{stage}_{metric}.csv", text)
    click.echo(text, nl=False)
    for p in sorted(set(levels)):
        summary = loov_summary(rows, p)
        click.echo(
            f"# p{certainty_percent(p)}: {summary.hits}/{summary.n} prevented "
            f"({round_half_away(summary.rate * 100):d}%)"
        )


@cli.command("benchmark")
@_common_options
@click.option("--benchmark-label", type=str, default=None,
              help="Which label to use from the benchmark file (default: international-roads, else first).")
def cmd_benchmark(benchmark_label, projects, deflators, benchmark, era_cutoff, min_outturn, out,
                  **_unused) -> None:
    """Descriptive comparison of every class against benchmark constants."""

    from .benchmarking import benchmark_report, phase_breakdown, write_benchmark_csv, write_benchmark_json
    from .reference_class import ClassFilter, build_class
    from .registry import Metric, Stage

    records, observations = _observations(projects, deflators, era_cutoff)

    classes = {}
    for stage in Stage:
        for metric in Metric:
            reference = build_class(
                observations,
                ClassFilter(stage=stage, metric=metric, min_outturn=min_outturn),
            )
            if not reference.is_empty:
                classes[(stage, metric)] = reference
    if not classes:
        raise EmptyClassError("no reference class has any observations")

    constants = None
    available = _load_benchmark(benchmark)
    if available:
        if benchmark_label is not None:
            if benchmark_label not in available:
                raise click.UsageError(
                    f"label {benchmark_label!r} not in benchmark file "
                    f"(has: {', '.join(sorted(available))})"
                )
            constants = available[benchmark_label]
        elif "international-roads" in available:
            constants = available["international-roads"]
        else:
            constants = available[sorted(available)[0]]

    breakdown_rows, aggregate = phase_breakdown(records)
    durations = None
    if aggregate.n:
        durations = [row.total_years for row in breakdown_rows]
    report = benchmark_report(classes, constants=constants, durations_years=durations)

    csv_buffer = io.StringIO()
    write_benchmark_csv(report, csv_buffer)
    json_buffer = io.StringIO()
    write_benchmark_json(report, json_buffer)
    _emit(out, "benchmark.csv", csv_buffer.getvalue())
    _emit(out, "benchmark.json", json_buffer.getvalue())
    click.echo(csv_buffer.getvalue(), nl=False)


@cli.command("curve")
@_common_options
@_STAGE_OPTION
@_METRIC_OPTION
def cmd_curve(stage: str, metric: str, projects, deflators, era_cutoff, min_outturn, method, span,
              degree, grid_step, out, **_unused) -> None:
    """Full uplift curve: raw quantiles, smoothed fit, confidence band."""

    from .formatting import certainty_text
    from .plot import curve_svg
    from .reference_class import isotonic_adjust, smooth_curve, uplift_curve

    grid = _curve_grid(grid_step, degree)
    _, observations = _observations(projects, deflators, era_cutoff)
    reference = _class_for(observations, stage, metric, min_outturn)

    raw = uplift_curve(reference, grid, _single_method(method, "curve"))
    smoothed = isotonic_adjust(smooth_curve(raw, span=span, degree=degree))

    buffer = io.StringIO()
    buffer.write("p,uplift_raw,uplift_smoothed,ci_low,ci_high\n")
    for (p, raw_value), (_, fit, lo, hi) in zip(smoothed.points, smoothed.smoothed):
        buffer.write(f"{certainty_text(p)},{raw_value:.6f},{fit:.6f},{lo:.6f},{hi:.6f}\n")
    text = buffer.getvalue()
    _emit(out, f"curve_{stage}_{metric}.csv", text)
    svg = curve_svg(smoothed, markers=(0.5, 0.8), title=f"uplift curve: Category {stage}, {metric}")
    _emit(out, f"curve_{stage}_{metric}.svg", svg)
    click.echo(text, nl=False)


@cli.command("tiers")
@_common_options
@_STAGE_OPTION
@_METRIC_OPTION
@click.option("--base", type=click.IntRange(1, MAX_MONEY), required=True,
              help="Base estimate (HKD thousands).")
@click.option("--scheme", type=str, default=None, callback=_parse_scheme,
              help="Tiers as name:certainty,... (default contract:0.55,project:0.60,portfolio:0.80).")
@click.option("--no-isotonic", is_flag=True,
              help="Skip the monotone adjustment of the smoothed curve (may fail with exit 4).")
def cmd_tiers(stage: str, metric: str, base: int, scheme, no_isotonic: bool, projects, deflators,
              era_cutoff, min_outturn, method, span, degree, grid_step, out, **_unused) -> None:
    """Tiered contingency allocation along the smoothed uplift curve."""

    from .contingency import DEFAULT_TIER_SCHEME, tier_allocation, write_allocation_json
    from .reference_class import isotonic_adjust, smooth_curve, uplift_curve

    tier_scheme = scheme if scheme is not None else DEFAULT_TIER_SCHEME
    grid = _curve_grid(
        grid_step, degree, [certainty for _, certainty in tier_scheme.tiers], "--scheme"
    )
    _, observations = _observations(projects, deflators, era_cutoff)
    reference = _class_for(observations, stage, metric, min_outturn)

    raw = uplift_curve(reference, grid, _single_method(method, "tiers"))
    curve = smooth_curve(raw, span=span, degree=degree)
    if not no_isotonic:
        curve = isotonic_adjust(curve)

    buffer = io.StringIO()
    write_allocation_json(tier_allocation(base, curve, tier_scheme), buffer)
    text = buffer.getvalue()
    _emit(out, f"tiers_{stage}_{metric}.json", text)
    click.echo(text, nl=False)


@cli.command("check")
@_common_options
def cmd_check(projects, deflators, benchmark, **_unused) -> None:
    """Registry validation only: report every consistency violation."""

    from .registry import parse_deflator_series, parse_project_records_lenient

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
    _load_benchmark(benchmark)

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
    except click.UsageError as exc:
        exc.show()
        return 1
    except click.ClickException as exc:
        exc.show()
        return 1
    except EmptyClassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NonMonotoneCurveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (RefclassError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def entrypoint() -> None:
    sys.exit(main())
