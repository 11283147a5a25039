import json

import pytest
from click.testing import CliRunner

from prefmax import (
    CapabilityError,
    ExperimentSpec,
    descend_fixture,
    emit_report,
    emit_trace,
    fixture_names,
    get_fixture,
    load_trace_json,
    maximal_elements,
    mvip_solutions,
    registry,
    run_experiment,
    svip_solutions,
)
from prefmax.cli import main
from prefmax.descent import DescentConfig, StepSchedule, run_descent
from prefmax.harness import TRACE_COLUMNS
from prefmax.points import pt


# -------------------------------------------------------------- experiments


def test_kinked_suite_passes():
    report = run_experiment(ExperimentSpec(fixture="kinked-threshold",
                                           suite=("maximal", "mvip-empty")))
    assert report.all_passed and report.exit_code == 0
    assert [v.check for v in report.verdicts] == ["maximal", "mvip-empty"]


def test_all_default_suites_pass():
    for name in fixture_names():
        report = run_experiment(ExperimentSpec(fixture=name))
        assert report.all_passed, (name, [v for v in report.verdicts if not v.passed])


def test_descend_requires_gap_capability():
    with pytest.raises(CapabilityError):
        descend_fixture("favored-one", (0.0,))


def test_unknown_check_is_config_error():
    with pytest.raises(CapabilityError):
        run_experiment(ExperimentSpec(fixture="vee-peak", suite=("bogus",)))


def test_negative_tolerance_rejected():
    with pytest.raises(ValueError):
        ExperimentSpec(fixture="vee-peak", tol=-1.0)


@pytest.mark.parametrize("tol", (float("nan"), float("inf"), float("-inf"), -1e-12))
def test_a_tolerance_that_is_not_finite_and_nonnegative_is_named(tol):
    with pytest.raises(ValueError, match=f"finite and nonnegative, got {tol}$"):
        ExperimentSpec(fixture="vee-peak", tol=tol)


def test_grid_override_changes_the_verdict():
    # on a window that misses the peak, the expected maximal set is wrong
    from prefmax.points import parse_grid_spec

    report = run_experiment(ExperimentSpec(fixture="vee-peak", suite=("maximal",),
                                           ground=parse_grid_spec("0:0.5:0.01")))
    assert not report.all_passed and report.exit_code == 1


def test_report_json_schema(tmp_path):
    report = run_experiment(ExperimentSpec(fixture="vee-peak", suite=("maximal",)))
    path = tmp_path / "report.json"
    emit_report(report, str(path))
    payload = json.loads(path.read_text())
    assert payload["schema"] == 1
    assert payload["fixture"] == "vee-peak"
    assert payload["verdicts"][0]["check"] == "maximal"


def test_report_json_keys(tmp_path):
    report = run_experiment(ExperimentSpec(fixture="vee-peak", suite=("maximal",)))
    path = tmp_path / "report.json"
    emit_report(report, str(path))
    payload = json.loads(path.read_text())
    assert set(payload) == {"schema", "command", "fixture", "verdicts", "wall_time_s"}


# ------------------------------------------------------------------- traces


def test_trace_csv_row_count(tmp_path):
    trace = descend_fixture("radial-bowl", (0.0, 0.0), max_iters=500)
    path = tmp_path / "trace.csv"
    emit_trace(trace, "csv", str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(TRACE_COLUMNS)
    assert len(lines) - 1 == len(trace.rows) == 501  # iterations + initial point


def test_trace_csv_empty_reference_columns(tmp_path):
    config = DescentConfig(lipschitz=1.0, max_iters=5)
    trace = run_descent(lambda x: (1.0,), pt(0.0), StepSchedule.harmonic(1.0), config)
    path = tmp_path / "no_ref.csv"
    emit_trace(trace, "csv", str(path))
    first_data = path.read_text().splitlines()[1].split(",")
    assert first_data[4] == "" and first_data[5] == "" and first_data[6] == ""


def test_trace_json_round_trip(tmp_path):
    trace = descend_fixture("radial-bowl", (0.3, -0.2), max_iters=50)
    path = tmp_path / "trace.json"
    emit_trace(trace, "json", str(path))
    loaded = load_trace_json(str(path))
    assert loaded.termination == trace.termination
    assert loaded.reference == trace.reference
    assert len(loaded.rows) == len(trace.rows)
    for a, b in zip(loaded.rows, trace.rows):
        assert a.x == b.x and a.xstar == b.xstar
        assert a.theta == b.theta and a.dist == b.dist
        assert a.gap == b.gap and a.fejer_residual == b.fejer_residual


def test_trace_csv_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for p in (p1, p2):
        trace = descend_fixture("radial-bowl", (0.0, 0.0), max_iters=300)
        emit_trace(trace, "csv", str(p))
    assert p1.read_bytes() == p2.read_bytes()


def test_trace_unknown_format(tmp_path):
    trace = descend_fixture("radial-bowl", (0.0, 0.0), max_iters=5)
    with pytest.raises(ValueError):
        emit_trace(trace, "xml", str(tmp_path / "t.xml"))


# --------------------------------------------------------------------- CLI


runner = CliRunner()


def test_cli_fixtures_list():
    result = runner.invoke(main, ["fixtures", "list"])
    assert result.exit_code == 0
    assert "vee-peak" in result.output
    assert "segment-line" in result.output


def test_cli_check_pass_and_fail():
    # on a custom window too, kinked-threshold's edge 1.0 is beaten from
    # beyond the window, so it is not maximal
    for grid in ([], ["--grid", "-1:1:0.02"]):
        ok = runner.invoke(main, ["check", "--fixture", "kinked-threshold"] + grid)
        assert ok.exit_code == 0, ok.output
        assert "PASS maximal: 1 points as expected" in ok.output
    bad = runner.invoke(main, ["check", "--fixture", "vee-peak",
                               "--suite", "maximal", "--grid", "0:0.5:0.01"])
    assert bad.exit_code == 1
    assert "FAIL" in bad.output


def test_cli_check_json_report(tmp_path):
    path = tmp_path / "r.json"
    result = runner.invoke(main, ["check", "--fixture", "vee-peak",
                                  "--suite", "maximal", "--json", str(path)])
    assert result.exit_code == 0
    assert json.loads(path.read_text())["schema"] == 1


def test_cli_unknown_fixture_exits_2():
    result = runner.invoke(main, ["check", "--fixture", "nosuch"])
    assert result.exit_code == 2
    assert "available" in result.output


def test_cli_descend_and_trace(tmp_path):
    path = tmp_path / "trace.csv"
    result = runner.invoke(main, ["descend", "--fixture", "radial-bowl",
                                  "--x0", "0,0", "--max-iters", "200",
                                  "--trace", str(path)])
    assert result.exit_code == 0, result.output
    assert "termination=" in result.output
    assert path.exists()


def _descend_starts():
    """Two starts on every gap-equipped fixture, and two off the diagonal."""
    starts = [("radial-bowl", (0.3, -0.2)), ("vee-peak", (2.1,))]
    for fx in registry(self_test=False).values():
        if fx.gap is not None:
            starts += [(fx.name, (s,) * fx.relation.dim) for s in (-1.5, 0.3)]
    return starts


@pytest.mark.parametrize("name, x0", _descend_starts())
@pytest.mark.parametrize("max_iters", (50, 10_000))
def test_cli_descend_prints_the_final_distance(name, x0, max_iters):
    result = runner.invoke(main, ["descend", "--fixture", name,
                                  "--x0", ",".join(repr(c) for c in x0),
                                  "--max-iters", str(max_iters)])
    assert result.exit_code == 0, result.output
    trace = descend_fixture(name, x0, max_iters=max_iters)
    expected = [f"termination={trace.termination} iterations={len(trace) - 1} "
                f"final={','.join(map(repr, trace.final_point.coords))}"]
    if trace.reference is not None:
        expected.append(f"distance_to_reference={trace.distances()[-1]!r}")
    assert result.stdout.splitlines() == expected


def test_cli_descend_capability_error():
    result = runner.invoke(main, ["descend", "--fixture", "favored-one", "--x0", "0"])
    assert result.exit_code == 2
    assert "gap" in result.output


def test_cli_descend_list_schedule(tmp_path):
    sched = tmp_path / "steps.txt"
    sched.write_text("0.5\n0.25\n0.125\n")
    result = runner.invoke(main, ["descend", "--fixture", "vee-peak", "--x0", "0.1",
                                  "--schedule", f"list:{sched}"])
    assert result.exit_code == 0, result.output


def test_cli_descend_constant_schedule_rejected():
    result = runner.invoke(main, ["descend", "--fixture", "vee-peak", "--x0", "0.1",
                                  "--schedule", "constant"])
    assert result.exit_code == 2
    assert "inadmissible" in result.output


@pytest.mark.parametrize("option, value, message", [
    ("--theta0", "nan", "harmonic schedule needs a finite theta0, got nan"),
    ("--theta0", "inf", "harmonic schedule needs a finite theta0, got inf"),
    ("--eps", "nan", "eps must be finite, got nan"),
])
def test_cli_descend_rejects_non_finite_parameters(option, value, message):
    result = runner.invoke(main, ["descend", "--fixture", "vee-peak", "--x0", "0.1",
                                  option, value])
    assert result.exit_code == 2
    assert f"error: {message}" in result.output
    assert "non-finite coordinate" not in result.output


def test_cli_descend_rejects_a_non_finite_listed_step(tmp_path):
    sched = tmp_path / "steps.txt"
    sched.write_text("0.5\nnan\n")
    result = runner.invoke(main, ["descend", "--fixture", "vee-peak", "--x0", "0.1",
                                  "--schedule", f"list:{sched}"])
    assert result.exit_code == 2
    assert "error: explicit schedule has a non-finite step nan at k = 2" in result.output


def test_cli_vip_commands():
    result = runner.invoke(main, ["vip", "--fixture", "vee-peak", "--kind", "mvip"])
    assert result.exit_code == 0
    assert "1 of 101" in result.output
    result = runner.invoke(main, ["vip", "--fixture", "segment-line", "--kind", "svip"])
    assert result.exit_code == 0
    assert "101 of 101" in result.output


def _library_vip(name: str, kind: str):
    """The library call `run_experiment` makes for the fixture's svip/mvip checks."""
    fx = get_fixture(name)
    if kind == "mvip":
        return mvip_solutions(fx.cone_oracle, fx.default_ground, 1e-9)
    return svip_solutions(fx.relation, fx.default_ground, fx.cone_oracle, tol=1e-9,
                          contour_sampler=fx.contour_sampler)


@pytest.mark.parametrize("kind", ("svip", "mvip"))
@pytest.mark.parametrize("name", fixture_names())
def test_cli_vip_lists_the_library_solutions(name, kind):
    result = runner.invoke(main, ["vip", "--fixture", name, "--kind", kind])
    if kind == "mvip" and get_fixture(name).cone_oracle is None:
        assert result.exit_code == 2  # the harness refuses the same request
        with pytest.raises(CapabilityError):
            run_experiment(ExperimentSpec(fixture=name, suite=("mvip",)))
        return
    assert result.exit_code == 0
    expected = _library_vip(name, kind)
    lines = result.output.splitlines()
    n = len(get_fixture(name).default_ground)
    assert lines[0] == f"{kind} solutions: {len(expected)} of {n} points"
    listed = [line.strip() for line in lines[1:] if not line.strip().startswith("...")]
    assert listed == [",".join(repr(c) for c in p.coords) for p in expected[:20]]


def test_cli_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# defaults for the sweep\ngrid = 0:0.5:0.01\n")
    result = runner.invoke(main, ["check", "--fixture", "vee-peak",
                                  "--suite", "maximal", "--config", str(cfg)])
    assert result.exit_code == 1  # the config's window misses the peak
    explicit = runner.invoke(main, ["check", "--fixture", "vee-peak",
                                    "--suite", "maximal", "--grid", "0:1:0.01",
                                    "--config", str(cfg)])
    assert explicit.exit_code == 0  # explicit flag beats the config value


# Each command's base invocation; for each config key it reads, a value that
# changes its output, and values it must reject.
COMMANDS = {
    "check": ["check", "--fixture", "vee-peak"],
    "descend": ["descend", "--fixture", "vee-peak", "--x0", "2.1"],
    "vip": ["vip", "--fixture", "vee-peak", "--kind", "svip"],
}
CONFIG_KEYS = {
    "check": {"suite": "maximal,cones", "grid": "0:0.5:0.01", "tol": "0.5", "seed": "7"},
    "descend": {"theta0": "0.5", "schedule": "constant", "max_iters": "30", "eps": "2"},
    "vip": {"grid": "0:0.5:0.01", "tol": "0.5"},
}
# No fixture's output depends on these keys; their rejected values show that
# a config value for them is read.
UNSEEN_KEYS = ("seed",)
# Rejected values, each with the part of its message that names it.
REJECTED = {
    ("check", "tol", "abc"): "'abc' is not a valid float",
    ("vip", "tol", "abc"): "'abc' is not a valid float",
    ("check", "tol", "-1"): "tolerance must be finite and nonnegative, got -1.0",
    ("vip", "tol", "-1"): "tolerance must be finite and nonnegative, got -1.0",
    ("check", "tol", "nan"): "tolerance must be finite and nonnegative, got nan",
    ("check", "tol", "inf"): "tolerance must be finite and nonnegative, got inf",
    ("vip", "tol", "nan"): "tolerance must be finite and nonnegative, got nan",
    ("vip", "tol", "inf"): "tolerance must be finite and nonnegative, got inf",
    ("check", "grid", "0:inf:0.1"): "grid bound must be finite, got inf",
    ("vip", "grid", "0:nan:0.1"): "grid bound must be finite, got nan",
    ("check", "grid", "0:1:inf"): "grid step must be finite, got inf",
    ("check", "seed", "1.5"): "'1.5' is not a valid integer",
    ("descend", "max_iters", "1.5"): "'1.5' is not a valid integer",
    ("descend", "theta0", "abc"): "'abc' is not a valid float",
}


def _with_config(tmp_path, args, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    return runner.invoke(main, args + ["--config", str(cfg)])


def _flag(key):
    return "--" + key.replace("_", "-")


@pytest.mark.parametrize("command, key, value", [
    (command, key, value) for command, keys in CONFIG_KEYS.items()
    for key, value in keys.items()] + list(REJECTED))
def test_a_config_value_acts_as_its_flag(tmp_path, command, key, value):
    args = COMMANDS[command]
    flag = runner.invoke(main, args + [_flag(key), value])
    config = _with_config(tmp_path, args, f"{key} = {value}\n")
    assert (config.exit_code, config.stdout, config.stderr) == \
        (flag.exit_code, flag.stdout, flag.stderr)
    if (command, key, value) in REJECTED:
        assert flag.exit_code == 2
        assert REJECTED[command, key, value] in flag.stderr
    elif key not in UNSEEN_KEYS:
        default = runner.invoke(main, args)
        assert (flag.exit_code, flag.stdout) != (default.exit_code, default.stdout)


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_a_flag_beats_the_config(tmp_path, command):
    # the config's value is never converted, so it cannot fail
    key, value = next(iter(CONFIG_KEYS[command].items()))
    args = COMMANDS[command] + [_flag(key), value]
    flag = runner.invoke(main, args)
    both = _with_config(tmp_path, args, f"{key} = nonsense\n")
    assert (both.exit_code, both.stdout) == (flag.exit_code, flag.stdout)


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("key", ("tolerance", "fixture", "mode"))
def test_an_unknown_config_key_exits_2(tmp_path, command, key):
    result = _with_config(tmp_path, COMMANDS[command], f"{key} = T\n")
    assert result.exit_code == 2
    assert f"run.cfg: unknown key {key!r}" in result.output


@pytest.mark.parametrize("command", ("check", "vip"))
def test_the_removed_mode_flag_exits_2(command):
    result = runner.invoke(main, COMMANDS[command] + ["--mode", "T"])
    assert result.exit_code == 2
    assert "No such option '--mode'" in result.output


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_cli_bad_config_exits_2(tmp_path, command):
    result = _with_config(tmp_path, COMMANDS[command], "# comment\ngrid 0:1:0.01\n")
    assert result.exit_code == 2
    assert "run.cfg:2: expected key = value" in result.output


def test_a_missing_config_file_exits_2(tmp_path):
    result = runner.invoke(main, COMMANDS["check"] + ["--config", str(tmp_path / "none.cfg")])
    assert result.exit_code == 2
    assert "cannot read config" in result.output


# ------------------------------------------------------ CLI-harness parity


@pytest.mark.parametrize("name", fixture_names())
def test_cli_check_prints_the_harness_verdicts(name):
    result = runner.invoke(main, ["check", "--fixture", name])
    report = run_experiment(ExperimentSpec(fixture=name))
    assert result.stdout.splitlines() == [
        f"{'PASS' if v.passed else 'FAIL'} {v.check}: {v.detail}" for v in report.verdicts]
    assert result.exit_code == report.exit_code == 0


@pytest.mark.parametrize("name", fixture_names())
def test_svip_inclusion_compares_the_listing_with_the_window_maxima(name):
    # the verdict's counts come from the Stampacchia listing of `prefmax vip`
    # and the maximal set of the window itself
    fx = get_fixture(name)
    (verdict,) = run_experiment(ExperimentSpec(name, suite=("svip-inclusion",))).verdicts
    svip = _library_vip(name, "svip")
    me = {p.coords for p in maximal_elements(fx.relation, fx.default_ground)}
    violators = sum(p.coords not in me for p in svip)
    held = violators == 0
    counts = (f"{len(svip)} solutions, all maximal" if held
              else f"{violators} of {len(svip)} solutions not maximal")
    assert verdict.detail.startswith(f"inclusion {'held' if held else 'failed'} ")
    assert verdict.detail.endswith(f"; {counts}")
    assert verdict.passed == (held == fx.expectations.get("svip_subset_me", True))


def _leftovers(root):
    return sorted(p.name for p in root.rglob("*.tmp.*"))


def test_cli_check_json_in_a_missing_directory_exits_2(tmp_path):
    path = tmp_path / "missing" / "r.json"
    result = runner.invoke(main, ["check", "--fixture", "radial-bowl", "--suite", "maximal",
                                  "--json", str(path)])
    assert result.exit_code == 2
    assert f"error: cannot write {path}: " in result.output
    assert not path.exists() and _leftovers(tmp_path) == []


def test_cli_descend_trace_in_a_missing_directory_exits_2(tmp_path):
    path = tmp_path / "missing" / "t.json"
    result = runner.invoke(main, ["descend", "--fixture", "radial-bowl", "--x0", "0,0",
                                  "--max-iters", "50", "--trace", str(path)])
    assert result.exit_code == 2
    assert f"error: cannot write {path}: " in result.output
    assert not path.exists() and _leftovers(tmp_path) == []


def test_a_failed_replace_leaves_no_temporary_file(tmp_path):
    # the temporary file is written, then cannot replace a directory
    target = tmp_path / "taken"
    target.mkdir()
    result = runner.invoke(main, ["check", "--fixture", "vee-peak", "--suite", "maximal",
                                  "--json", str(target)])
    assert result.exit_code == 2
    assert f"error: cannot write {target}: " in result.output
    assert _leftovers(tmp_path) == []


@pytest.mark.parametrize("suite", ("maximal", "zero-maximality", "cones"))
def test_a_negative_seed_is_rejected_for_every_suite(suite):
    with pytest.raises(ValueError, match="seed"):
        run_experiment(ExperimentSpec(fixture="vee-peak", suite=(suite,), seed=-3))
    result = runner.invoke(main, ["check", "--fixture", "vee-peak", "--suite", suite,
                                  "--seed", "-3"])
    assert result.exit_code == 2
    assert "error: seed must be nonnegative" in result.output
