"""Command-line harness: fixture listing, check suites, descent runs, VIP sweeps.

Exit codes: 0 all checks pass, 1 at least one check fails, 2 configuration
error (unknown fixture, bad grid spec, capability mismatch, invalid
tolerance).
"""

from __future__ import annotations

import sys

import click

from .descent import ScheduleValidationError, StepSchedule
from .fixtures import UnknownFixture, fixture_names, get_fixture
from .harness import (
    CapabilityError,
    ExperimentSpec,
    descend_fixture,
    emit_report,
    emit_trace,
    run_experiment,
)
from .points import parse_grid_spec


def _load_config(path: str | None) -> dict[str, str]:
    """Key=value configuration file (TOML-style scalars, # comments)."""
    if path is None:
        return {}
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


def _merged(ctx: click.Context, cfg: dict, name: str, value, cast):
    """Explicit flags win; config supplies values for untouched defaults."""
    source = ctx.get_parameter_source(name)
    if source == click.core.ParameterSource.DEFAULT and name in cfg:
        return cast(cfg[name])
    return value


def _fail_config(message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


@click.group()
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


@main.command()
@click.option("--fixture", "fixture_name", required=True)
@click.option("--suite", default=None, help="Comma-separated check names")
@click.option("--grid", default=None, help="lo:hi:step[,lo:hi:step...] ground override")
@click.option("--tol", default=1e-9, type=float, show_default=True)
@click.option("--seed", default=0, type=int, show_default=True)
@click.option("--json", "json_path", default=None, help="Write the report as JSON")
@click.option("--mode", default=None, type=click.Choice(["T", "G"]), help="Hull variant")
@click.option("--config", "config_path", default=None, help="key=value defaults file")
@click.pass_context
def check(ctx, fixture_name, suite, grid, tol, seed, json_path, mode, config_path):
    """Run a fixture's check suite and report one verdict per check."""
    try:
        cfg = _load_config(config_path)
        suite = _merged(ctx, cfg, "suite", suite, str)
        grid = _merged(ctx, cfg, "grid", grid, str)
        tol = _merged(ctx, cfg, "tol", tol, float)
        seed = _merged(ctx, cfg, "seed", seed, int)
        mode = _merged(ctx, cfg, "mode", mode, str)
        spec = ExperimentSpec(
            fixture=fixture_name,
            suite=tuple(s.strip() for s in suite.split(",")) if suite else None,
            ground=parse_grid_spec(grid) if grid else None,
            tol=tol,
            seed=seed,
            mode=mode,
        )
        report = run_experiment(spec)
    except (UnknownFixture, CapabilityError, ValueError) as exc:
        _fail_config(str(exc))
        return
    for v in report.verdicts:
        status = "PASS" if v.passed else "FAIL"
        click.echo(f"{status} {v.check}: {v.detail}")
    if json_path:
        emit_report(report, json_path)
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
@click.option("--config", "config_path", default=None, help="key=value defaults file")
@click.pass_context
def descend(ctx, fixture_name, x0, theta0, schedule, max_iters, eps, trace_path, config_path):
    """Run the cone-descent iteration on a gap-equipped fixture."""
    try:
        cfg = _load_config(config_path)
        theta0 = _merged(ctx, cfg, "theta0", theta0, float)
        schedule = _merged(ctx, cfg, "schedule", schedule, str)
        max_iters = _merged(ctx, cfg, "max_iters", max_iters, int)
        eps = _merged(ctx, cfg, "eps", eps, float)
        coords = tuple(float(c) for c in x0.split(","))
        sched = _parse_schedule(schedule, theta0)
        sched.validate()
        trace = descend_fixture(fixture_name, coords, theta0=theta0, schedule=sched,
                                max_iters=max_iters, eps=eps)
    except (UnknownFixture, CapabilityError, ScheduleValidationError, ValueError, OSError) as exc:
        _fail_config(str(exc))
        return
    click.echo(f"termination={trace.termination} iterations={len(trace) - 1} "
               f"final={','.join(map(repr, trace.xs[-1]))}")
    if trace.reference is not None:
        click.echo(f"distance_to_reference={trace.dists[-1]!r}")
    if trace_path:
        fmt = "json" if trace_path.endswith(".json") else "csv"
        emit_trace(trace, fmt, trace_path)
        click.echo(f"trace written to {trace_path}")
    sys.exit(0)


@main.command()
@click.option("--fixture", "fixture_name", required=True)
@click.option("--kind", required=True, type=click.Choice(["svip", "mvip"]))
@click.option("--mode", default="T", type=click.Choice(["T", "G"]), show_default=True)
@click.option("--grid", default=None, help="lo:hi:step[,lo:hi:step...] ground override")
@click.option("--tol", default=1e-9, type=float, show_default=True)
@click.option("--config", "config_path", default=None, help="key=value defaults file")
@click.pass_context
def vip(ctx, fixture_name, kind, mode, grid, tol, config_path):
    """Enumerate the Stampacchia or Minty solution set over a fixture grid."""
    from .vip import mvip_solutions, svip_solutions

    try:
        cfg = _load_config(config_path)
        mode = _merged(ctx, cfg, "mode", mode, str)
        grid = _merged(ctx, cfg, "grid", grid, str)
        tol = _merged(ctx, cfg, "tol", tol, float)
        if tol < 0:
            raise ValueError("tolerance must be nonnegative")
        fx = get_fixture(fixture_name)
        ground = parse_grid_spec(grid) if grid else fx.default_ground
        if kind == "mvip":
            if fx.cone_oracle is None:
                raise CapabilityError(f"fixture {fixture_name!r} has no cone oracle")
            sols = mvip_solutions(fx.cone_oracle, ground, tol)
        else:
            sols = svip_solutions(fx.relation, ground, fx.cone_oracle,
                                  ball_on_empty=(mode == "G"), tol=tol,
                                  contour_sampler=fx.contour_sampler)
    except (UnknownFixture, CapabilityError, ValueError) as exc:
        _fail_config(str(exc))
        return
    click.echo(f"{kind} solutions: {len(sols)} of {len(ground)} points")
    for p in sols[:20]:
        click.echo("  " + ",".join(repr(c) for c in p.coords))
    if len(sols) > 20:
        click.echo(f"  ... and {len(sols) - 20} more")
    sys.exit(0)


if __name__ == "__main__":
    main()
