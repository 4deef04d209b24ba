"""The benchmark's kernel replay reads the observer dict of ``run``; its own
tests sit outside the default test paths, so guard that path here."""

import importlib
import math
import pathlib

PERFBENCH = pathlib.Path(__file__).parent.parent / "perfbench"


def test_replay_kernel_reads_the_observer_dict(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    timings = layers.replay_kernel(0, tiny=True)
    assert len(timings) == 5
    assert all(math.isfinite(us) and us > 0.0 for us in timings.values())
