"""One measured process: set up a workload, run `sipm bench` in process, report.

Usage: python3 child.py MODE WORKLOAD SEED WORK_DIR [--tiny]

MODE is ``prepare`` (write the generated inputs and report the library
versions), ``plain`` (a timed run) or ``traced`` (the same run with spans,
followed by the kernel micro-timing replay).  The last line of standard
output is one JSON object.  Only the standard library is imported before
the set-up clock starts, so ``setup_s`` includes importing sipm and its
dependencies.
"""

import hashlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402  (standard library only at import time)
import workloads  # noqa: E402


# The values of a cell that run.py checks against reference.json: the two
# final results, the schedule's start values and the stall count of the
# cell, and the constants the bootstrap estimated for its problem.
CHECKED = ("final_objective_train", "projected_grad_norm", "mu1", "theta0", "stalls")
CONSTANTS = ("ell_f_bar", "kappa_inf_bar", "sigma_inf_bar")


def _cells(report):
    """Each run's solver and seed with its checked values or its error."""
    cells = []
    for entry in report["runs"]:
        cell = {"solver": entry.get("solver"), "seed": entry.get("seed")}
        if "error" in entry:
            cell["error"] = entry["error"]
        else:
            constants = report["constants"][entry["problem"]]
            cell["values"] = dict({name: entry[name] for name in CHECKED},
                                  **{name: constants[name] for name in CONSTANTS})
        cells.append(cell)
    return cells


def _versions():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def measure(workload, seed, work_dir, tag, tracer=None):
    """Set up, run the bench call, and return the run's record."""
    t0 = time.perf_counter()
    import sipm
    import sipm.cli
    if tracer is not None:
        tracer.install()
    objective = workloads.build_objective(workload, seed, work_dir)
    setup_s = time.perf_counter() - t0
    del objective

    out_path = os.path.join(work_dir, f"report-{tag}.json")
    argv = workloads.bench_argv(workload, seed, work_dir, out_path)
    speed_before = calibrate.loop_seconds()
    t1 = time.perf_counter()
    status = sipm.cli.main(argv)
    bench_s = time.perf_counter() - t1
    if status != 0:
        raise SystemExit(f"sipm bench exited with status {status}")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    speed_after = calibrate.loop_seconds()
    if tracer is not None:
        tracer.uninstall()

    with open(out_path, "r", encoding="ascii") as handle:
        report = json.load(handle)
    canonical = sipm.canonical_report_bytes(report)
    return {"setup_s": setup_s, "bench_s": bench_s,
            "peak_rss_mb": peak_rss_mb,
            "calibration_s": 0.5 * (speed_before + speed_after),
            "canonical_sha256": hashlib.sha256(canonical).hexdigest(),
            "cells": _cells(report)}


def main(argv):
    mode, name, seed, work_dir = argv[:4]
    seed = int(seed)
    workload = workloads.get(name, tiny="--tiny" in argv[4:])
    if mode == "prepare":
        workloads.prepare_inputs(workload, seed, work_dir)
        record = _versions()
    elif mode == "plain":
        record = measure(workload, seed, work_dir, "plain")
    elif mode == "traced":
        import layers
        from tracer import Tracer

        tracer = Tracer()
        record = measure(workload, seed, work_dir, "traced", tracer=tracer)
        tracer.write(os.path.join(work_dir, "spans.json"))
        record["layers"] = layers.from_spans(tracer)
        record["shares"] = layers.shares(tracer)
        record["layers"].update(layers.replay_kernel(seed, tiny="--tiny" in argv[4:]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    json.dump(record, sys.stdout, allow_nan=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
