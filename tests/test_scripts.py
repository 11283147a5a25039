"""Smoke tests for the demos in scripts/: each runs to the end and prints
its key lines."""

import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_radial_descent_demo(tmp_path, monkeypatch, capsys):
    out = tmp_path / "radial_trace.csv"
    monkeypatch.setattr(sys, "argv", ["radial_descent_demo.py", str(out)])
    demo = runpy.run_path(str(SCRIPTS / "radial_descent_demo.py"))
    assert demo["main"]() == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "start (0, 0), target (1.0, 2.0)"
    assert lines[1].startswith("termination: zeroSubgradient after 2155 steps")
    assert lines[2] == "final point: (1.0, 2.0)"
    assert "quasi-Fejer inequality holds: True" in lines
    assert lines[-1] == f"trace written to {out}"
    assert len(out.read_text().splitlines()) == 2157  # header, then 2155 steps + the peak


def test_counterexample_tour(capsys):
    # run as `python scripts/counterexample_tour.py` would; a SystemExit fails the test
    runpy.run_path(str(SCRIPTS / "counterexample_tour.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "Stampacchia solution set: 101 of 101 grid points" in out
    assert "maximal elements: [(1.0, 0.0)]" in out
    assert "maximal elements on the window: [(0.0,)]\nMinty solutions: []" in out
    for x in (0.0, 0.5, 1.0):
        assert f"base ({x}, 0): weak=True strict=False" in out
