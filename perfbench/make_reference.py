"""Record the reference values that run.py checks every cell against.

    python3 perfbench/make_reference.py

Runs every workload once per seed in 0..REFERENCE_SEEDS-1, one process at a
time, and writes each cell's checked values (``child.CHECKED`` and
``child.CONSTANTS``) to ``reference.json``.  Regenerate it only for a
deliberate change of results, never to make a failing check pass.

Tolerance: |value - reference| <= rtol * |reference| + atol with rtol = 1e-6
and atol = 1e-12.  A reordered floating-point sum moves the values by a few
units in the last place (a CSR gradient on libsvm-sparse, seed 0: 4e-16 on
the objective), which this accepts.  A changed step rule, schedule,
iteration count or bootstrap moves some checked value of every workload by
far more.  atol is there for values that converge to zero: on quad-det the
sipm and psgm objectives (below 3e-15) and psgm's projected-gradient norm
(below 1e-10) end at round-off, so for those cells they only assert
convergence.  The quad-det cells are held by what has not converged:
sipm's projected-gradient norm (2e-8), the proj-ipm results, mu1 and theta0
(set from a gradient probe), and the bootstrap's ell_f_bar and
kappa_inf_bar.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

TOLERANCE = {"rtol": 1e-6, "atol": 1e-12}
# The workload seeds with stored values; run.py checks other seeds for
# errors, finiteness and report identity only.
REFERENCE_SEEDS = 40


def main():
    table = {}
    for workload in workloads.FULL:
        table[workload.name] = {}
        work_dir = os.path.join(HERE, "_work", f"reference-{workload.name}")
        os.makedirs(work_dir, exist_ok=True)
        for seed in range(REFERENCE_SEEDS):
            child = run.Child(workload, seed, work_dir, False,
                              time.monotonic() + run.TIME_LIMIT_S)
            child("prepare")
            record = child("plain")
            cells = {}
            for cell in record["cells"]:
                if "error" in cell:
                    raise SystemExit(f"{workload.name} seed {seed}: {cell['error']}")
                cells[f"{cell['solver']}:{cell['seed']}"] = cell["values"]
            table[workload.name][str(seed)] = cells
            print(workload.name, seed, flush=True)
    with open(os.path.join(HERE, "reference.json"), "w", encoding="ascii") as handle:
        json.dump({"tolerance": TOLERANCE, "workloads": table}, handle,
                  sort_keys=True, separators=(",", ":"))
        handle.write("\n")


if __name__ == "__main__":
    main()
