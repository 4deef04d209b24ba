"""The benchmark's tracer and kernel replay reach into `sipm` by name; their
own tests sit outside the default test paths, so guard those paths here."""

import importlib
import math
import pathlib

import pytest

PERFBENCH = pathlib.Path(__file__).parent.parent / "perfbench"
TINY = ("quad-det", "logreg-stoch", "libsvm-sparse", "nn-audit")   # workloads.TINY's names


def test_replay_kernel_reads_the_observer_dict(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    timings = layers.replay_kernel(0, tiny=True)
    assert len(timings) == 5
    assert all(math.isfinite(us) and us > 0.0 for us in timings.values())


@pytest.mark.parametrize("name", TINY)
def test_tracer_installs_around_a_tiny_bench(name, monkeypatch, tmp_path):
    """The tracer rebinds every function it times by identity and raises
    LookupError if one is gone; a traced tiny bench must also yield solver
    iterations and gradient calls, or the per-layer metrics read 0."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    workloads = importlib.import_module("workloads")
    tracer = importlib.import_module("tracer").Tracer()
    import sipm.cli

    assert TINY == tuple(w.name for w in workloads.TINY)
    workload = workloads.get(name, tiny=True)
    workloads.prepare_inputs(workload, 0, str(tmp_path))
    argv = workloads.bench_argv(workload, 0, str(tmp_path), str(tmp_path / "report.json"))
    try:
        tracer.install()
        assert sipm.cli.main(argv) == 0
    finally:
        tracer.uninstall()
    metrics = layers.from_spans(tracer)
    assert metrics["solver.iters"] > 0
    assert metrics["problems.gradient_calls"] > 0
