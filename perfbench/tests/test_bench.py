"""Self-test of the benchmark at toy sizes.

    python3 -m pytest perfbench/tests -q

Runs every workload with and without tracing and checks that the result
line carries every metric of BENCHMARK.json by name and unit, that the
checks pass, that a changed reference value makes a full-size quad-det run
incorrect, and that a directory without the sources makes the benchmark
fail without printing a result.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join("perfbench", "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as handle:
    SPEC = json.load(handle)


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


def test_spec_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads
    assert [w["name"] for w in SPEC["workloads"]] == workloads.names()
    names = [w["name"] for w in SPEC["workloads"]] + \
        [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0.0 < metric["bound"] <= 0.25
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in SPEC["end_to_end"])} in SPEC["end_to_end"]
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                 "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("factor", [1.0, 1.01])
def test_reference_check_catches_a_changed_value(tmp_path, factor):
    """A full-size quad-det run against a copy of reference.json in which
    sipm's projected-gradient norm for seed 0 is scaled by ``factor``."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for tree in ("perfbench", "src"):
        shutil.copytree(os.path.join(ROOT, tree), tmp_path / tree,
                        ignore=shutil.ignore_patterns("_work", "__pycache__"))
    path = tmp_path / "perfbench" / "reference.json"
    reference = json.loads(path.read_text(encoding="ascii"))
    reference["workloads"]["quad-det"]["0"]["sipm:0"]["projected_grad_norm"] *= factor
    path.write_text(json.dumps(reference), encoding="ascii")
    done = bench("--workload", "quad-det", "--seed", "0", "--seconds", "0.1",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    processes = result["attempted"] // 30    # 3 solvers x 10 seeds per process
    assert result["correct"] is (factor == 1.0)
    assert result["failed"] == (0 if factor == 1.0 else processes)


def test_fails_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    done = bench("--workload", "quad-det", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
