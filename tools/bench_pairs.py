"""Run alternating perfbench pairs of two source trees and judge a change.

Usage: python3 tools/bench_pairs.py PARENT_TREE CHANGE_TREE --workload W[,W2...]
           --pairs N --seconds S --seed0 K --out BENCH_<topic>.json

Pair i (0-based) of each workload runs ``perfbench/run.py --workload W --seed
K+i --seconds S --trace 0`` once in each tree, each tree with its own
``perfbench/`` and ``src/``: the parent first in even pairs, the change first
in odd ones.  The workloads of a comma-separated list run one after another.
Every ``__pycache__`` directory of both trees is deleted before each run,
and the runs set ``PYTHONDONTWRITEBYTECODE=1``, so both sides compile sipm
from source and neither writes bytecode for the next run.  A run that exits
non-zero stops the tool with its standard error.

The output file holds one block per workload: every run's end-to-end
medians with its correctness counts, and per end-to-end metric of the change
tree's ``BENCHMARK.json``: each side's runs and quartiles, the change in the
median, the parent's interquartile range, the pairs the change won (ties
count for neither), the verdict of the claim rule and the no-regression
verdict.  A gain is claimed only when the change wins at least nine tenths of
the pairs and its median beats the parent's by more than the parent's
interquartile range.  The no-regression verdict reads the metric's ``bound``,
a fraction of the parent's median: ``worse`` when the change's median is
worse than the parent's by more than the bound, else ``unresolved`` when the
parent's interquartile range exceeds the bound, unless every change run is
better than every parent run, else ``not worse``.  Quartiles are those of
``statistics.quantiles(runs, n=4)``, as perfbench reports its samples'.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def clear_bytecode(tree):
    """Delete every __pycache__ directory under tree; returns how many."""
    found = [os.path.join(root, "__pycache__") for root, dirs, _ in os.walk(tree)
             if "__pycache__" in dirs]
    for path in found:
        shutil.rmtree(path)
    return len(found)


def pair_order(i):
    """The sides of pair i in the order they run."""
    return SIDES if i % 2 == 0 else SIDES[::-1]


def run_once(tree, workload, seed, seconds):
    """One perfbench invocation in tree; its last output line, parsed."""
    clear_bytecode(tree)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"perfbench failed in {tree} at seed {seed} "
                         f"(exit {done.returncode}):\n{done.stderr[-4000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def judge(parent, change, better, bound):
    """Summary, claim verdict and no-regression verdict of one metric from the
    two sides' run values, listed pair by pair."""
    sign = 1.0 if better == "lower" else -1.0
    p_q = statistics.quantiles(parent, n=4)
    c_q = statistics.quantiles(change, n=4)
    wins = sum(sign * (c - p) < 0.0 for p, c in zip(parent, change))
    iqr = p_q[2] - p_q[0]
    gap = sign * (p_q[1] - c_q[1])   # how far the change's median is better
    met = 10 * wins >= 9 * len(parent) and gap > iqr
    if -gap > bound * abs(p_q[1]):
        verdict = "worse"
    elif iqr > bound * abs(p_q[1]) and not (
            max(sign * c for c in change) < min(sign * p for p in parent)):
        verdict = "unresolved"
    else:
        verdict = "not worse"
    return {"parent_runs": parent, "change_runs": change,
            "parent_q1_median_q3": p_q, "change_q1_median_q3": c_q,
            "change_pct": 100.0 * (c_q[1] - p_q[1]) / p_q[1],
            "parent_iqr": iqr, "gap": gap,
            "pairs_change_better": f"{wins} of {len(parent)}", "claim_met": met,
            "bound": bound, "verdict": verdict}


def summarize(runs, metrics):
    """Per metric of ``metrics`` ({name: BENCHMARK.json entry}), judge the
    runs' values; ``runs`` lists each pair's {"parent": result, "change": result}."""
    return {name: judge([pair["parent"]["metrics"][name]["value"] for pair in runs],
                        [pair["change"]["metrics"][name]["value"] for pair in runs],
                        metric["better"], metric["bound"])
            for name, metric in metrics.items()}


def run_pairs(trees, workload, args, metrics):
    """The workload's block of the output file: its pairs, run and judged."""
    runs = []
    for i in range(args.pairs):
        seed = args.seed0 + i
        pair = {"seed": seed, "order": list(pair_order(i))}
        for side in pair_order(i):
            pair[side] = run_once(trees[side], workload, seed, args.seconds)
        runs.append(pair)
        print(f"{workload} pair {i + 1}/{args.pairs} seed {seed}: " + "  ".join(
            f"{side} {pair[side]['metrics'][name]['value']:.6g}"
            for name in metrics for side in SIDES), flush=True)
    return {"seeds": [pair["seed"] for pair in runs],
            "all_runs_correct": all(pair[side]["correct"] for pair in runs for side in SIDES),
            "failed_cells": sum(pair[side]["failed"] for pair in runs for side in SIDES),
            "attempted_cells": sum(pair[side]["attempted"] for pair in runs for side in SIDES),
            "runs": runs, "metrics": summarize(runs, metrics)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_tree", help="root of the parent checkout")
    parser.add_argument("change_tree", help="root of the changed checkout")
    parser.add_argument("--workload", required=True, help="one name or a comma-separated list")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed0", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    trees = {"parent": args.parent_tree, "change": args.change_tree}
    with open(os.path.join(args.change_tree, "BENCHMARK.json"), encoding="ascii") as handle:
        metrics = {m["name"]: m for m in json.load(handle)["end_to_end"]}

    blocks = {w: run_pairs(trees, w, args, metrics) for w in args.workload.split(",")}
    report = {"command": f"perfbench/run.py --workload WORKLOAD --seed SEED "
                         f"--seconds {args.seconds:g} --trace 0",
              "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                          "platform": platform.platform()},
              "workloads": blocks}
    with open(args.out, "w", encoding="ascii") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
        handle.write("\n")
    for workload, block in blocks.items():
        for name, s in block["metrics"].items():
            print(f"{workload} {name}: parent median {s['parent_q1_median_q3'][1]:.6g}, "
                  f"change median {s['change_q1_median_q3'][1]:.6g} ({s['change_pct']:+.2f} %), "
                  f"change better in {s['pairs_change_better']}, parent IQR "
                  f"{s['parent_iqr']:.6g}, claim {'met' if s['claim_met'] else 'not met'}, "
                  f"{s['verdict']} (bound {s['bound']:g})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
