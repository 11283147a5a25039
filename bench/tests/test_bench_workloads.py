"""The benchmark's own tests: seeded generation, the metric catalogue, the
span arithmetic and the refusal to run without program sources.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

import json
import os
import shutil
import subprocess
import sys
from collections import Counter

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(1, os.path.join(ROOT, "src"))

import metrics  # noqa: E402
import workloads  # noqa: E402


def _shape(spec):
    """What must not depend on the seed: op kinds per input size, input sizes."""
    ops = Counter((op["op"], op.get("size"), op.get("fixture"), op.get("check"),
                   op.get("kind"), op.get("format")) for op in spec["ops"])
    sizes = sorted((key, len(v["ground"]))
                   for key, v in workloads.materialize(spec).items())
    return ops, sizes


def _inputs(spec):
    """What must depend on the seed: windows, tables, starts and op order."""
    starts = [op.get("x0") for op in spec["ops"]]
    order = [(op["op"], op.get("input"), op.get("fixture")) for op in spec["ops"]]
    return spec["inputs"], starts, order


@pytest.mark.parametrize("workload", workloads.WORKLOADS + workloads.GRID_WORKLOADS)
def test_same_seed_gives_identical_op_list(workload):
    assert workloads.generate(workload, 11) == workloads.generate(workload, 11)


@pytest.mark.parametrize("workload", workloads.WORKLOADS + workloads.GRID_WORKLOADS)
def test_other_seed_keeps_sizes_and_counts_but_changes_inputs(workload):
    a, b = workloads.generate(workload, 11), workloads.generate(workload, 12)
    assert _shape(a) == _shape(b)
    assert _inputs(a) != _inputs(b)
    if workload in ("grid-utility", "grid-rules"):
        assert all(a["inputs"][k] != b["inputs"][k] for k in a["inputs"])
    if workload == "descent":
        assert all(x["x0"] != y["x0"] for x, y in zip(
            sorted(a["ops"], key=lambda op: op["id"]), sorted(b["ops"], key=lambda op: op["id"])))


@pytest.mark.parametrize("workload", ["grid-utility", "grid-rules"])
def test_windows_have_planned_sizes_and_contain_anchor_points(workload):
    spec = workloads.generate(workload, 5)
    planned = {size: n for size, n, _, _ in
               workloads.GRID_UTILITY_PLAN + workloads.GRID_RULES_PLAN + workloads.TABLE_PLAN}
    anchors = {"vee-peak": (0.7,), "radial-bowl": (1.0, 2.0), "twin-plateau": (-1.0,),
               "kinked-threshold": (0.0,), "favored-one": (1.0,), "band-threshold": (0.0,)}
    for key, built in workloads.materialize(spec).items():
        inp = spec["inputs"][key]
        n = len(built["ground"])
        assert abs(n - planned[inp["size"]]) <= 0.05 * planned[inp["size"]], (key, n)
        coords = {p.coords for p in built["ground"]}
        if inp["relation"] in anchors:
            assert anchors[inp["relation"]] in coords, key
        if inp["relation"] == "halfline-plane":
            assert any(c[1] == 0.0 for c in coords)


def test_suite_ops_cover_every_default_check_and_cli_vip():
    from prefmax import fixture_names, get_fixture

    spec = workloads.generate("suites", 3)
    ops = spec["ops"] + spec["known_defects"]
    checks = {(op["fixture"], op["check"]) for op in ops if op["op"] == "cli-check"}
    assert checks == {(f, c) for f in fixture_names() for c in get_fixture(f).default_suite}
    vips = Counter(op["kind"] for op in ops if op["op"] == "cli-vip")
    assert vips["svip"] == len(fixture_names())
    assert vips["mvip"] == sum(get_fixture(f).cone_oracle is not None for f in fixture_names())


def test_known_defects_are_kept_out_of_the_timed_op_list():
    spec = workloads.generate("suites", 3)
    assert [(op["op"], op["fixture"], op["kind"]) for op in spec["known_defects"]] == list(
        workloads.KNOWN_DEFECTS)
    assert not any(workloads.defect_reason(op) for op in spec["ops"])
    ids = [op["id"] for op in spec["ops"] + spec["known_defects"]]
    assert ids == list(range(len(ids)))


def test_benchmark_json_matches_the_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert spec["end_to_end"] == [{"name": n, "unit": u, "better": b, "bound": bound}
                                  for n, u, b, bound, _ in metrics.END_TO_END]
    assert spec["per_layer"] == [{"name": n, "unit": u, "better": b}
                                 for n, u, b, _ in metrics.PER_LAYER]


def test_self_time_subtracts_direct_children_only():
    # outer [0, 10] holds mid [1, 7], which holds inner [2, 5]
    spans = [["relations.maximal_elements", 0.0, 10.0, -1, 1, 4, [40, 0, 0]],
             ["vip.mvip_solutions", 1.0, 7.0, 0, 1, 300, [0, 0, 9]],
             ["vip.mvip_membership", 2.0, 5.0, 1, 1, None, [0, 0, 9]]]
    m = metrics.layer_metrics(spans, {"relations.holds": 40})
    assert m["relations.maximal_elements.self_s"] == pytest.approx(4.0)
    assert m["vip.mvip_membership.self_s"] == pytest.approx(3.0)
    assert m["vip.mvip_solutions.total_s.n3e2"] == pytest.approx(6.0)
    assert m["relations.maximal_elements.total_s.n1e2"] == pytest.approx(10.0)
    assert m["relations.evals_per_point"] == pytest.approx(10.0)
    assert m["vip.cone_oracle.per_candidate"] == pytest.approx(9.0)
    assert metrics.layer_metrics(spans, {}, ops={2})["vip.mvip_membership.calls"] == 0.0


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "descent",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
