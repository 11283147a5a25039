"""Every function under src/prefmax serves a verdict, a CLI command or the API.

A fresh interpreter imports prefmax and runs the CLI in-process under
`sys.setprofile`: every fixture's default suite, every known check alone and
`vip --kind svip|mvip`, each at tol 0 and 1e-9; `descend` with CSV and JSON
traces; `fixtures list`; one `--grid`, one `--json` and one `--config` run.
Each code object it calls is mapped to a module-level function or a method
of a module-level class by file and first line, as Python 3.10 has no
`co_qualname` (a decorated function's code starts at its first decorator);
nested functions and lambdas map to nothing.
The functions left uncalled must be exactly those in UNCALLED, each with the
reason it stays. New code that no command reaches fails here, and so does an
entry that a command now reaches.

The same scan checks every module of src/prefmax for unused imports
(`__init__` re-exports its imports and is skipped).
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "prefmax"

API = "library API: a one-base call, a constructor or a value method that tests use"
TEST = "test entry point: the differential tests check this stage of a ground pass alone"
BENCH = "read by bench/, which only a benchmark change may stop using"
WAITS_H = "descent diagnostic that the convergence verdict (ROADMAP H) will read"
WAITS_P = "grid-convexity premise that ROADMAP P will expose as a check"
WAITS_E = "certificate re-check that exact evidence (ROADMAP E) will run"
WAITS_M = "last stage of the Stampacchia decider; no 1-D or 2-D fixture base reaches it"
ERROR = "error path: no command that succeeds reaches it"
AUDIT = "library API: the sign audit alone; zero-maximality runs it inside its own gap pass"

UNCALLED = {
    "cones.Cone.contains": API,
    "cones.ContourSample.__eq__": API,
    "cones.ContourSample.__hash__": API,
    "cones.ConvexBody.__eq__": API,
    "cones.ConvexBody.__hash__": API,
    "cones._rows": API,
    "cones.BoxSampler.__call__": API,
    "cones.box_sample": API,
    "cones.body_from_sample": API,
    "cones.sample_contour": API,
    "cones.sampled_bodies": API,
    "cones._box_candidates": TEST,
    "descent.DescentTrace.rows": BENCH,
    "descent.DescentTrace.final_point": BENCH,
    "descent.StepSchedule.explicit": API,
    "descent.StepSchedule.constant": API,
    "descent._check_step": ERROR,
    "descent.quasi_fejer_check": WAITS_H,
    "descent.gap_convergence_stat": WAITS_H,
    "fixtures.UnknownFixture.__init__": ERROR,
    "fixtures.UnknownFixture.__str__": ERROR,
    "fixtures.Fixture.contour_sampler": BENCH,
    "harness.load_trace_json": API,
    "harness._trace_columns": API,
    "harness._raise_row_fault": ERROR,
    "harness._coords_of": ERROR,
    "plastria.GapFunction.__call__": API,
    "plastria.GapFunction.flags": API,
    "plastria.audit_gap_flags": AUDIT,
    "plastria.plastria_membership": WAITS_H,
    "plastria.plastria_subgradient": API,
    "points.pt": API,
    "points.GroundSet.explicit": API,
    "points.ground_spacing": WAITS_P,
    "relations.PropertyReport.__bool__": API,
    "relations.Relation.from_table": BENCH,
    "relations.Relation._lookup": BENCH,
    "relations._contour_is_grid_convex": WAITS_P,
    "relations.holds": API,
    "relations.strictly_prefers": API,
    "relations.strictly_better_mask": API,
    "relations.contour": API,
    "relations.preference_matrix": API,
    "vip._lp_witness": WAITS_M,
    "vip.svip_membership": API,
    "vip.mvip_membership": API,
    "vip.uniqueness_check": API,
    "vip.certificate_valid": WAITS_E,
}

# Run in the child: profile from before `import prefmax` to the last command.
# Its dependencies are imported first, outside the profile, to save time.
CHILD = r"""
import contextlib, io, json, os, sys
import click, numpy, scipy.optimize
called = set()

def profile(frame, event, arg):
    if event == "call":
        called.add(frame.f_code)

sys.setprofile(profile)
import prefmax
from prefmax import cli
from prefmax.harness import KNOWN_CHECKS

def run(*args):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.main.main(args=list(args), prog_name="prefmax", standalone_mode=False)
        except SystemExit:
            pass

tmp = sys.argv[1]
run("fixtures", "list")
for name in prefmax.fixture_names():
    for tol in ("0", "1e-9"):
        run("check", "--fixture", name, "--tol", tol)
        for check in KNOWN_CHECKS:
            run("check", "--fixture", name, "--tol", tol, "--suite", check)
        for kind in ("svip", "mvip"):
            run("vip", "--fixture", name, "--kind", kind, "--tol", tol)
for fmt in ("csv", "json"):
    run("descend", "--fixture", "radial-bowl", "--x0", "0,0", "--max-iters", "200",
        "--trace", os.path.join(tmp, "trace." + fmt))
run("check", "--fixture", "kinked-threshold", "--grid", "-1:1:0.02")
run("check", "--fixture", "vee-peak", "--json", os.path.join(tmp, "report.json"))
config = os.path.join(tmp, "run.cfg")
with open(config, "w") as fh:
    fh.write("grid = 0:1:0.01\ntol = 1e-9\n")
run("check", "--fixture", "vee-peak", "--config", config)
sys.setprofile(None)
json.dump(sorted({(c.co_filename, c.co_firstlineno) for c in called}), sys.stdout)
"""


def _defined() -> dict[tuple[str, int], str]:
    """(file, first line counting decorators) -> "module.function" or
    "module.Class.method", for every module-level function and every method
    of a module-level class in src/prefmax."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            items = [(node, module)]
            if isinstance(node, ast.ClassDef):
                items = [(item, f"{module}.{node.name}") for item in node.body]
            for item, owner in items:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([item.lineno] + [d.lineno for d in item.decorator_list])
                    out[(str(path), first)] = f"{owner}.{item.name}"
    return out


def test_the_uncalled_functions_are_the_pinned_ones(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    done = subprocess.run([sys.executable, "-c", CHILD, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    called = {(os.path.realpath(f), line) for f, line in json.loads(done.stdout)}
    defined = _defined()
    uncalled = {name for (f, line), name in defined.items()
                if (os.path.realpath(f), line) not in called}
    assert set(UNCALLED) <= set(defined.values()), "pinned names that src/prefmax does not define"
    assert sorted(uncalled - set(UNCALLED)) == [], "functions that no command reaches"
    assert sorted(set(UNCALLED) - uncalled) == [], "pinned functions that a command reaches"


def test_no_module_imports_a_name_it_does_not_use():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []
