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
    mvip_solutions,
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
    ok = runner.invoke(main, ["check", "--fixture", "kinked-threshold"])
    assert ok.exit_code == 0, ok.output
    assert "PASS maximal" in ok.output
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


def test_cli_vip_commands():
    result = runner.invoke(main, ["vip", "--fixture", "vee-peak", "--kind", "mvip"])
    assert result.exit_code == 0
    assert "1 of 101" in result.output
    result = runner.invoke(main, ["vip", "--fixture", "segment-line",
                                  "--kind", "svip", "--mode", "G"])
    assert result.exit_code == 0
    assert "101 of 101" in result.output


def _library_vip(name: str, kind: str):
    """The library call `run_experiment` makes for the fixture's svip/mvip checks."""
    fx = get_fixture(name)
    if kind == "mvip":
        return mvip_solutions(fx.cone_oracle, fx.default_ground, 1e-9)
    return svip_solutions(fx.relation, fx.default_ground, fx.cone_oracle, ball_on_empty=False,
                          tol=1e-9, contour_sampler=fx.contour_sampler)


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


def test_cli_bad_config_exits_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this line has no equals sign\n")
    result = runner.invoke(main, ["check", "--fixture", "vee-peak", "--config", str(cfg)])
    assert result.exit_code == 2
