"""Time one untraced sipm iteration of two source trees in alternating rounds.

Usage: python3 tools/step_pairs.py PARENT_SRC CHANGE_SRC [--rounds N] [--out FILE]

Each round starts one fresh ``python -c TIMER`` process per tree, with that
tree first on ``PYTHONPATH``, in ``bench_pairs.pair_order``'s order: the
parent first in even rounds (0-based), the change first in odd ones.  A
process runs each shape in SHAPES once through ``sipm.cli.main`` as ``sipm
bench --solver sipm``, with ``harness.run`` wrapped to keep the
``(objective, config, x1)`` of the bench's own sipm run (the bootstrap's run
has an observer and is not kept).  That run warms the config's table and the
oracle's batch stream; then REPEATS more ``run()`` calls on the same
arguments are timed, untraced, and the process reports the fastest in µs
per iteration: wall time over ``config.maxiter``, the run's entry checks and
final metrics included.  The fastest of 15 calls keeps the interquartile
range of one tree's processes within 3-19 % of their median on a shared
2-core Xeon, where the median of 5 spread 17-67 %
(BENCH_sparsetools_loader.json).  The two ``csr-`` shapes run the logistic
model's CSR oracles, full and mini-batch, on an a1a-like file (LIBSVM_SHAPE,
seeded) that the parent tree's ``serialize_libsvm`` writes before the first
round.

Per shape it judges the rounds as ``bench_pairs.judge`` does a metric whose
lower value is better, with BOUND as the no-regression bound (so at least
two rounds), and adds the median of the per-round changes: each round's
change over its own parent, which cancels a drift in the host's speed
between rounds that the change in the pooled medians does not.  ``--out``
also writes the summary, with every round's value, as JSON.  A tree with no
``sipm/__init__.py`` is refused, and a process stops unless the ``sipm`` it
imported lies under its tree.  Processes set ``PYTHONDONTWRITEBYTECODE=1``
and run in a temporary directory, which receives the bench reports.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

from bench_pairs import judge, pair_order

QUAD = ["--model", "quadratic", "--maxiter", "200"]
LIBSVM_FILE = "a1a-like.libsvm"   # written into the tool's directory before the rounds
LIBSVM_SHAPE = (1605, 123, 14)    # rows, features and nonzeros per row, as in a1a
CSR = ["--model", "logistic", "--train", LIBSVM_FILE]
# name -> bench arguments
SHAPES = {
    "quad-det n=50": [*QUAD, "--dim", "50"],
    "quad-det n=500": [*QUAD, "--dim", "500"],
    "logreg-stoch": ["--model", "logistic", "--mode", "stoch", "--dim", "100",
                     "--samples", "5000", "--epochs", "2"],
    "csr-det": [*CSR, "--maxiter", "200"],
    "csr-stoch": [*CSR, "--mode", "stoch", "--epochs", "1"],
}
REPEATS = 15   # timed run() calls per shape and process; the fastest counts
BOUND = 0.05   # a shape whose median is slower by more than 5 % reads worse

# argv[1]: the file to write; argv[2]: LIBSVM_SHAPE as JSON
WRITER = """
import json, sys
import numpy as np
from sipm import SparseDataset, serialize_libsvm

m, n_features, nnz = json.loads(sys.argv[2])
rng = np.random.default_rng(49)
columns = np.sort(rng.random((m, n_features)).argsort(axis=1)[:, :nnz], axis=1)
values = np.round(rng.uniform(-1.0, 1.0, (m, nnz)), 4)
scores = (values * rng.normal(size=n_features)[columns]).sum(axis=1) + 0.3 * rng.normal(size=m)
labels = np.where(scores >= 0.0, 1.0, -1.0)
labels[:2] = 1.0, -1.0   # both classes always present
rows = tuple(tuple(zip((c + 1).tolist(), v.tolist())) for c, v in zip(columns, values))
dataset = SparseDataset(rows=rows, labels=tuple(labels.tolist()), n_features=n_features)
with open(sys.argv[1], "w", encoding="ascii") as handle:
    handle.write(serialize_libsvm(dataset))
"""

# argv[1]: the tree; argv[2]: SHAPES as JSON; argv[3]: REPEATS
TIMER = """
import json, os, sys, time
import sipm

tree = os.path.realpath(sys.argv[1])
if os.path.commonpath([tree, os.path.realpath(sipm.__file__)]) != tree:
    sys.exit(f"sipm was imported from {sipm.__file__}, not from {sys.argv[1]}")
import sipm.cli
from sipm import harness

kept = []
original = harness.run

def keep(objective, config, x1, observer=None):
    if observer is None:
        kept.append((objective, config, x1))
    return original(objective, config, x1, observer=observer)

harness.run = keep
found = {}
for shape, argv in json.loads(sys.argv[2]).items():
    kept.clear()
    if sipm.cli.main(["bench", *argv, "--solver", "sipm", "--out", "report.json"]) != 0:
        sys.exit(f"the bench of {shape} failed")
    objective, config, x1 = kept[0]
    times = []
    for _ in range(int(sys.argv[3])):
        start = time.perf_counter()
        original(objective, config, x1)
        times.append(time.perf_counter() - start)
    found[shape] = min(times) / config.maxiter * 1e6
print(json.dumps(found))
"""


def _python(src, work, code, *args):
    """The standard output of ``python -c code *args`` in work, with the tree
    src first on ``PYTHONPATH``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.abspath(src),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code, *args],
                          env=env, cwd=work, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"step_pairs: a process failed on {src} (exit {done.returncode}):\n"
                         f"{done.stderr[-4000:]}")
    return done.stdout


def time_tree(src, work):
    """{shape: fastest µs per iteration} from one fresh process on the tree src."""
    out = _python(src, work, TIMER, os.path.abspath(src), json.dumps(SHAPES), str(REPEATS))
    return json.loads(out.strip().splitlines()[-1])


def summarize(rounds):
    """Per shape, bench_pairs.judge's summary of the rounds with the median
    per-round change, from [{side: {shape: µs}}, ...]."""
    out = {}
    for shape in rounds[0]["parent"]:
        parent = [r["parent"][shape] for r in rounds]
        change = [r["change"][shape] for r in rounds]
        out[shape] = judge(parent, change, "lower", BOUND)
        out[shape]["per_round_change_pct_median"] = statistics.median(
            (c / p - 1.0) * 100.0 for p, c in zip(parent, change))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", help="the src directory of the parent tree")
    parser.add_argument("change_src", help="the src directory of the changed tree")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--out", help="write the summary as JSON here too")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent_src, "change": args.change_src}
    for src in trees.values():   # else the next sipm on PYTHONPATH would be timed
        if not os.path.isfile(os.path.join(src, "sipm", "__init__.py")):
            parser.error(f"{src} has no sipm/__init__.py")
    if args.rounds < 2:
        parser.error("quartiles need --rounds of at least 2")
    rounds = []
    with tempfile.TemporaryDirectory() as work:
        _python(trees["parent"], work, WRITER, LIBSVM_FILE, json.dumps(LIBSVM_SHAPE))
        for i in range(args.rounds):
            rounds.append({side: time_tree(trees[side], work) for side in pair_order(i)})
    summary = summarize(rounds)
    for shape, s in summary.items():
        p, c = s["parent_q1_median_q3"], s["change_q1_median_q3"]
        print(f"{shape:<16} parent {p[1]:8.2f} us [{p[0]:.2f}, {p[2]:.2f}]  change {c[1]:8.2f} "
              f"us [{c[0]:.2f}, {c[2]:.2f}]  {s['change_pct']:+6.2f} % (per round "
              f"{s['per_round_change_pct_median']:+6.2f} %)  change faster in "
              f"{s['pairs_change_better']} rounds, claim "
              f"{'met' if s['claim_met'] else 'not met'}, {s['verdict']}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"command": f"python3 tools/step_pairs.py PARENT_SRC CHANGE_SRC "
                                  f"--rounds {args.rounds}",
                       "machine": {"python": platform.python_version(),
                                   "processor": platform.processor() or platform.machine(),
                                   "cpus": os.cpu_count()},
                       "rounds": args.rounds, "repeats": REPEATS, "shapes": summary},
                      handle, indent=2)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
