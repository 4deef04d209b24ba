"""The suite runs demos 02 (schedules and buffers), 03 (the one that reads
trace rows) and 05 (the psgm and proj-ipm sequences), about 2 s together of
the 14 s all six take, and checks that every name the demos import from the
package exists."""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_exist(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "sipm":
            module = importlib.import_module(node.module)
            missing = [a.name for a in node.names if not hasattr(module, a.name)]
            assert not missing, f"{path.name} imports missing names {missing}"


def _run_demo(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_demo_03_runs():
    assert "trace every 400 iterations" in _run_demo("03_quadratic_deterministic.py")


@pytest.mark.parametrize("name, line", [
    ("02_schedules.py", "mu at k=1, 50, 100: [1.0, 0.0001, 1e-08]"),
    ("05_projection_baselines.py", "simplified projection     : |x - x*| = 4.322e-01"),
])
def test_demo_runs(name, line):
    assert line in _run_demo(name)
