"""Command-line harness: fixture listing, check suites, descent runs, VIP sweeps.

Exit codes: 0 all checks pass, 1 at least one check fails or stdout was
closed before the output was written, 2 configuration error (unknown
fixture, bad grid spec or config file, capability mismatch, invalid
tolerance).
"""

from __future__ import annotations

import errno
import sys

import click

from .cones import DEFAULT_TOL
from .descent import StepSchedule
from .fixtures import UnknownFixture, fixture_names, get_fixture
from .harness import (
    ExperimentSpec,
    descend_fixture,
    emit_report,
    emit_trace,
    run_experiment,
    vip_solutions,
)
from .points import parse_grid_spec


def _load_config(path: str) -> dict[str, str]:
    """Key=value configuration file (TOML-style scalars, # comments)."""
    cfg = {}
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected key = value")
                key, value = line.split("=", 1)
                cfg[key.strip()] = value.strip().strip('"').strip("'")
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    return cfg


def _config_option(*keys: str):
    """`--config PATH`: a key = value file whose values become the defaults
    of the options named by `keys`. Click converts and checks them as it
    does the flags' values, and a flag on the command line wins. Any other
    key is a configuration error."""

    def load(ctx: click.Context, param: click.Parameter, path: str | None) -> None:
        if path is None:
            return
        cfg = _load_config(path)
        for key in cfg:
            if key not in keys:
                raise ValueError(
                    f"{path}: unknown key {key!r}; {ctx.info_name} reads {', '.join(keys)}")
        ctx.default_map = cfg

    return click.option("--config", default=None, is_eager=True, expose_value=False,
                        callback=load, help="key = value defaults file")


def _fail_config(message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


def _write(emit, *args) -> None:
    """`emit(*args)`, whose last argument is the output path; a path that
    cannot be written is a configuration error."""
    try:
        emit(*args)
    except OSError as exc:
        _fail_config(f"cannot write {args[-1]}: {exc.strerror or exc}")


class _Main(click.Group):
    """The command group. Every command runs inside its error boundary, where
    a rejected request (an unknown fixture, a bad value or config file, a
    missing capability) becomes exit code 2. A closed stdout (EPIPE) is not
    one: click ends the command quietly with exit code 1."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (UnknownFixture, ValueError, OSError) as exc:
            if isinstance(exc, OSError) and exc.errno == errno.EPIPE:
                raise
            _fail_config(str(exc))


@click.group(cls=_Main)
def main():
    """Find and certify maximal elements of preference relations."""


@main.group()
def fixtures():
    """Inspect the fixture registry."""


@fixtures.command("list")
def fixtures_list():
    """Print every registered fixture with its flags and description."""
    for name in fixture_names():
        fx = get_fixture(name)
        flags = []
        if fx.lsc:
            flags.append("lsc")
        if fx.complete:
            flags.append("complete")
        if fx.gap is not None:
            flags.append("gap")
        if fx.cone_oracle is not None:
            flags.append("cones")
        flagstr = ",".join(flags) if flags else "-"
        click.echo(f"{name:18s} dim={fx.relation.dim} [{flagstr}] {fx.notes}")


def _parse_grid(ctx: click.Context, param: click.Parameter, spec: str | None):
    return parse_grid_spec(spec) if spec else None


@main.command()
@click.option("--fixture", "fixture_name", required=True)
@click.option("--suite", default=None, help="Comma-separated check names")
@click.option("--grid", default=None, callback=_parse_grid,
              help="lo:hi:step[,lo:hi:step...] ground override")
@click.option("--tol", default=DEFAULT_TOL, type=float, show_default=True)
@click.option("--seed", default=0, type=int, show_default=True,
              help="Accepted and ignored: no check draws at random")
@click.option("--json", "json_path", default=None, help="Write the report as JSON")
@_config_option("suite", "grid", "tol", "seed")
def check(fixture_name, suite, grid, tol, seed, json_path):
    """Run a fixture's check suite and report one verdict per check."""
    spec = ExperimentSpec(
        fixture=fixture_name,
        suite=tuple(s.strip() for s in suite.split(",")) if suite else None,
        ground=grid, tol=tol)
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    report = run_experiment(spec)
    for v in report.verdicts:
        status = "PASS" if v.passed else "FAIL"
        click.echo(f"{status} {v.check}: {v.detail}")
    if json_path:
        _write(emit_report, report, json_path)
        click.echo(f"report written to {json_path}")
    sys.exit(report.exit_code)


def _parse_schedule(text: str, theta0: float) -> StepSchedule:
    if text == "harmonic":
        return StepSchedule.harmonic(theta0)
    if text == "constant":
        return StepSchedule.constant(theta0)
    if text.startswith("list:"):
        path = text[len("list:"):]
        with open(path) as fh:
            values = [float(line) for line in fh if line.strip()]
        return StepSchedule.explicit(values)
    raise ValueError(f"unknown schedule {text!r}; expected harmonic or list:<path>")


@main.command()
@click.option("--fixture", "fixture_name", required=True)
@click.option("--x0", required=True, help="Comma-separated start coordinates")
@click.option("--theta0", default=1.0, type=float, show_default=True)
@click.option("--schedule", default="harmonic", show_default=True,
              help="harmonic or list:<path>")
@click.option("--max-iters", default=10_000, type=int, show_default=True)
@click.option("--eps", default=0.0, type=float, show_default=True)
@click.option("--trace", "trace_path", default=None, help="Output .csv or .json trace")
@_config_option("theta0", "schedule", "max_iters", "eps")
def descend(fixture_name, x0, theta0, schedule, max_iters, eps, trace_path):
    """Run the cone-descent iteration on a gap-equipped fixture."""
    coords = tuple(float(c) for c in x0.split(","))
    sched = _parse_schedule(schedule, theta0)
    sched.validate()
    trace = descend_fixture(fixture_name, coords, schedule=sched, max_iters=max_iters, eps=eps)
    click.echo(f"termination={trace.termination} iterations={len(trace) - 1} "
               f"final={','.join(map(repr, trace.xs[-1]))}")
    if trace.reference is not None:
        click.echo(f"distance_to_reference={trace.dists[-1]!r}")
    if trace_path:
        fmt = "json" if trace_path.endswith(".json") else "csv"
        _write(emit_trace, trace, fmt, trace_path)
        click.echo(f"trace written to {trace_path}")
    sys.exit(0)


@main.command()
@click.option("--fixture", "fixture_name", required=True)
@click.option("--kind", required=True, type=click.Choice(["svip", "mvip"]))
@click.option("--grid", default=None, callback=_parse_grid,
              help="lo:hi:step[,lo:hi:step...] ground override")
@click.option("--tol", default=DEFAULT_TOL, type=float, show_default=True)
@_config_option("grid", "tol")
def vip(fixture_name, kind, grid, tol):
    """Enumerate the Stampacchia or Minty solution set over a fixture grid."""
    ground, sols = vip_solutions(
        ExperimentSpec(fixture=fixture_name, ground=grid, tol=tol), kind)
    click.echo(f"{kind} solutions: {len(sols)} of {len(ground)} points")
    for p in sols[:20]:
        click.echo("  " + ",".join(repr(c) for c in p.coords))
    if len(sols) > 20:
        click.echo(f"  ... and {len(sols) - 20} more")
    sys.exit(0)


if __name__ == "__main__":
    main()
