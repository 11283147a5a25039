"""Start-up imports neither scipy nor numpy.ma, and 1-D and 2-D runs no solver.

`import prefmax`, the registry with its self-test and `prefmax fixtures
list` run in a fresh interpreter. Then `check` and `vip --kind svip` run on
every fixture (all 1-D or 2-D) at --tol 0 and 1e-9 without importing
`scipy.optimize`: cones, bodies and witnesses there are read off exact
shapes. 3-D cone and hull membership then import NNLS on first use.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

SCRIPT = """
import sys

import prefmax
from prefmax import cli

prefmax.registry()
try:
    cli.main(["fixtures", "list"])
except SystemExit as exc:
    assert exc.code in (0, None), exc.code
print("loaded at start-up:", sorted(m for m in ("scipy", "numpy.ma") if m in sys.modules))

for name in prefmax.fixture_names():
    for tol in ("0", "1e-9"):
        for args in (["check"], ["vip", "--kind", "svip"]):
            try:
                cli.main(args + ["--fixture", name, "--tol", tol])
            except SystemExit:
                pass
print("scipy.optimize after 1-D and 2-D runs:", "scipy.optimize" in sys.modules)

cone = prefmax.Cone.generated([(1.0, 0.0, 0.0), (0.0, 1.0, 0.0)])
assert cone.contains((1.0, 2.0, 0.0)) and not cone.contains((0.0, 0.0, 1.0))
body = prefmax.ConvexBody(3, ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)))
assert body.contains((0.25, 0.25, 0.5)) and not body.contains((1.0, 1.0, 1.0))
print("scipy after 3-D membership:", "scipy" in sys.modules)
"""


def test_start_up_imports_neither_scipy_nor_numpy_ma():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "vee-peak" in proc.stdout
    assert "loaded at start-up: []" in proc.stdout
    assert "scipy.optimize after 1-D and 2-D runs: False" in proc.stdout
    assert "scipy after 3-D membership: True" in proc.stdout
