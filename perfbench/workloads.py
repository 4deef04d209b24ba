"""The benchmark's workloads: what `sipm bench` is asked to do, and why.

Every input is generated from the workload seed.  This module imports
nothing heavy at load time, because the parent process that schedules the
runs imports it too; the functions that build data import `sipm` (and with
it numpy) on first use, inside the child processes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

LIBSVM_FILE = "train.libsvm"


@dataclass(frozen=True)
class Workload:
    name: str
    model: str                 # "quadratic" | "logistic" | "nn"
    mode: str                  # "det" | "stoch"
    solvers: tuple
    seeds: tuple               # solver seeds passed to --seeds
    dim: int = 0               # quadratic dimension or synthetic feature count
    samples: int = 0           # synthetic sample count
    maxiter: int | None = None
    epochs: float | None = None
    batch_frac: float = 0.01
    audit: str = "off"
    trace: bool = False
    libsvm_shape: tuple | None = None   # (m, n_f, nnz per row) of the generated file
    speed_exponent: float = 1.0         # how bench_s follows calibrate.py's loop


# Sizes are chosen so that one `sipm bench` call takes about 1 s on a 2-core
# x86 box: a measured run then holds about twenty fresh processes, enough for
# a steady median on a shared machine whose CPU speed drifts by 20%.  Why each
# workload is here is said in BENCHMARK.json; the layer shares of its time,
# measured with --trace 1, are in README.md.
FULL = (
    Workload(name="quad-det", model="quadratic", mode="det",
             solvers=("sipm", "psgm", "proj-ipm"), seeds=tuple(range(10)), dim=50,
             maxiter=200, speed_exponent=1.0),
    Workload(name="logreg-stoch", model="logistic", mode="stoch",
             solvers=("sipm", "psgm", "proj-ipm"), seeds=(0, 1, 2, 3), dim=100,
             samples=5000, epochs=2.0, speed_exponent=0.6),
    Workload(name="libsvm-sparse", model="logistic", mode="det",
             solvers=("sipm", "psgm"), seeds=(0,), maxiter=200,
             libsvm_shape=(2000, 250, 5), speed_exponent=0.4),
    Workload(name="nn-audit", model="nn", mode="det", solvers=("sipm",),
             seeds=(0,), dim=20, samples=1000, maxiter=500, audit="full", trace=True,
             speed_exponent=0.65),
)

# The same four workloads at toy sizes, for the benchmark's self-test.
TINY = (
    Workload(name="quad-det", model="quadratic", mode="det",
             solvers=("sipm", "psgm", "proj-ipm"), seeds=(0, 1), dim=5, maxiter=30),
    Workload(name="logreg-stoch", model="logistic", mode="stoch",
             solvers=("sipm", "psgm", "proj-ipm"), seeds=(0, 1), dim=5,
             samples=200, epochs=0.2),
    Workload(name="libsvm-sparse", model="logistic", mode="det",
             solvers=("sipm", "psgm"), seeds=(0,), maxiter=20,
             libsvm_shape=(100, 20, 4)),
    Workload(name="nn-audit", model="nn", mode="det", solvers=("sipm",),
             seeds=(0,), dim=4, samples=50, maxiter=30, audit="full", trace=True),
)


def get(name, tiny=False):
    for workload in (TINY if tiny else FULL):
        if workload.name == name:
            return workload
    raise KeyError(name)


def names():
    return [w.name for w in FULL]


def bench_argv(workload, seed, work_dir, out_path):
    """Arguments of the `sipm bench` call for one workload and seed."""
    argv = ["bench", "--model", workload.model, "--mode", workload.mode,
            "--solver", ",".join(workload.solvers),
            "--seeds", ",".join(str(s) for s in workload.seeds),
            "--batch-frac", repr(workload.batch_frac),
            "--audit", workload.audit,
            "--init-seed", str(seed), "--out", out_path]
    if workload.libsvm_shape is not None:
        argv += ["--train", os.path.join(work_dir, LIBSVM_FILE)]
    else:
        argv += ["--dim", str(workload.dim), "--data-seed", str(seed)]
        if workload.samples:
            argv += ["--samples", str(workload.samples)]
    if workload.maxiter is not None:
        argv += ["--maxiter", str(workload.maxiter)]
    if workload.epochs is not None:
        argv += ["--epochs", repr(workload.epochs)]
    if workload.trace:
        argv.append("--trace")
    return argv


def prepare_inputs(workload, seed, work_dir):
    """Write the files the workload reads (only the LIBSVM one needs any)."""
    if workload.libsvm_shape is None:
        return
    import numpy as np
    from sipm import SparseDataset, serialize_libsvm

    m, n_features, nnz = workload.libsvm_shape
    rng = np.random.default_rng([seed, 17])
    w = rng.normal(size=n_features)
    rows, labels = [], []
    for _ in range(m):
        idx = np.sort(rng.choice(n_features, size=nnz, replace=False))
        val = np.round(rng.uniform(-1.0, 1.0, size=nnz), 4)
        score = float(val @ w[idx]) + 0.3 * rng.normal()
        rows.append(tuple((int(i) + 1, float(v)) for i, v in zip(idx, val)))
        labels.append(1.0 if score >= 0.0 else -1.0)
    labels[0], labels[1] = 1.0, -1.0   # both classes always present
    dataset = SparseDataset(rows=tuple(rows), labels=tuple(labels),
                            n_features=n_features)
    with open(os.path.join(work_dir, LIBSVM_FILE), "w", encoding="ascii") as handle:
        handle.write(serialize_libsvm(dataset))


def build_objective(workload, seed, work_dir):
    """Build the workload's training objective through public functions.

    This is what a caller does before optimization can start; the quadratic
    draws its center and curvature the way `sipm bench` does for a data seed.
    """
    import sipm

    if workload.libsvm_shape is not None:
        return sipm.logistic_objective(
            sipm.parse_libsvm_file(os.path.join(work_dir, LIBSVM_FILE)))
    if workload.model == "quadratic":
        import numpy as np
        rng = np.random.default_rng(seed)
        center = rng.uniform(-0.6, 0.6, size=workload.dim)
        curvature = rng.uniform(0.5, 2.0, size=workload.dim)
        return sipm.quadratic_objective(center, curvature)
    data = sipm.synthetic_classification(workload.samples, workload.dim, seed=seed)
    if workload.model == "logistic":
        return sipm.logistic_objective(data)
    return sipm.nn_objective(data)
