"""Check that two source trees write the same canonical reports and final iterates.

Usage: python3 tools/report_identity.py PARENT_SRC CHANGE_SRC

Runs each ``sipm bench`` shape in SHAPES at ``--init-seed``/``--data-seed``
0 and 7 through ``sipm.cli.main``, in one ``python -c RUNNER`` process per
tree with that tree first on ``PYTHONPATH``; ``harness.run``, ``run_psgm``
and ``run_simplified`` are wrapped, so every solver call is seen, each
problem's bootstrap included.  A tree with no ``sipm/__init__.py`` is
refused, and the runner stops unless the ``sipm`` it imported lies under its
tree.  Each bench's report file is deleted before it runs.

Per shape and seed it prints one ``report`` line: each side's sha256 of the
report's canonical bytes (the report without ``timing``, as
``harness.canonical_report_bytes`` renders it), or the exit status of a
bench that failed, which counts as a difference while the other shapes
still run.  Under a differing pair, one indented line says how
(``explain``): the largest relative change of any number under ``runs`` and
``constants``, matched by path, the count of ``r_p`` sign flips in
``comparisons``, and whether the structure differs, naming up to three keys
that one side lacks, such as ``config.baselines``.  Then comes one line per
solver call, in call order, with each side's sha256 of its ``final_x`` bytes
(``raised <Type>`` for a call that raised, ``missing`` where one side made
fewer calls).  Last come the counts of differing reports and calls and each
tree's ``sipm/*.py`` line total, as ``wc -l`` counts it; the tool exits 1 on
any difference.

The parent tree first writes, in the one temporary work directory, the
train/test pairs that the LIBSVM shapes read, with
``synthetic_classification`` and ``serialize_libsvm``: one pair with raw
labels -1/+1 and one with the same rows labeled 0/1, so the label mapping of
``SparseDataset.to_arrays`` is checked too, and a thinner pair with
label-only rows whose test split is narrower than its train split.  Relative
paths keep the reports' bytes, and so the printed hashes, the same from one
call to the next.
"""

import argparse
import glob
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile

SEEDS = (0, 7)
THREE = ["--solver", "sipm,psgm,proj-ipm"]
QUAD_POWER_AUDIT = ["--model", "quadratic", "--dim", "10", "--maxiter", "150",
                    "--schedule", "power", "--t-mu", "-0.5", "--t-theta", "-0.5",
                    "--t-alpha", "-0.25", "--audit", "full", "--trace",
                    "--solver", "psgm,sipm,proj-ipm"]
INADMISSIBLE_POWER = ["--model", "quadratic", "--dim", "5", "--maxiter", "50",
                      "--schedule", "power", "--t-theta", "0.5", *THREE]
LOGREG_STOCH = ["--model", "logistic", "--mode", "stoch", "--epochs", "1", "--dim", "10",
                "--samples", "400"]
LIBSVM_AUDIT = ["--train", "train.libsvm", "--test", "test.libsvm", "--maxiter", "60",
                "--audit", "full", "--trace", "--seeds", "0,3", *THREE]
LIBSVM_STOCH = ["--train", "train.libsvm", "--test", "test.libsvm", "--mode", "stoch",
                "--epochs", "1", "--batch-frac", "0.05", "--seeds", "0,3", *THREE]
# name -> bench arguments
SHAPES = {
    "quad-det": ["--model", "quadratic", "--dim", "50", "--maxiter", "200",
                 "--seeds", "0,1,2", *THREE],
    "quad-power-audit": QUAD_POWER_AUDIT,
    "logreg-stoch": [*LOGREG_STOCH, "--trace", *THREE],
    # each stochastic seed sets up its own config and table; no other shape computes two
    "logreg-stoch-seeds": [*LOGREG_STOCH, "--seeds", "0,1,2", *THREE],
    # psgm draws the seed's stream with no sipm run before it, and proj-ipm replays it
    "logreg-stoch-baselines": [*LOGREG_STOCH, "--seeds", "0,1", "--solver", "psgm,proj-ipm"],
    # sipm and psgm raise before a draw, so proj-ipm draws the stream itself
    "logreg-stoch-inadmissible": [*LOGREG_STOCH, "--schedule", "power", "--t-theta", "0.5",
                                  *THREE],
    "logreg-stoch-theory": [*LOGREG_STOCH, "--trace", *THREE,
                            "--schedule", "power", "--t-mu", "-0.75", "--t-theta", "-0.75",
                            "--t-alpha", "-0.2", "--param-mode", "theory"],
    "nn-audit": ["--model", "nn", "--dim", "5", "--samples", "100", "--maxiter", "150",
                 "--audit", "full", "--trace", *THREE],
    # the network's dense mini-batch gradient; no other shape runs it
    "nn-stoch": ["--model", "nn", "--mode", "stoch", "--epochs", "1", "--dim", "5",
                 "--samples", "200", "--batch-frac", "0.05", "--seeds", "0,1", *THREE],
    "libsvm-pair": ["--model", "logistic", "--train", "train.libsvm", "--test", "test.libsvm",
                    "--maxiter", "100", "--seeds", "0,3", *THREE],
    "libsvm-01-pair": ["--model", "nn", "--train", "train01.libsvm", "--test", "test01.libsvm",
                       "--maxiter", "100", "--seeds", "0,3", *THREE],
    # a full-data value and gradient at every iterate, over CSR rows
    "libsvm-audit": ["--model", "logistic", *LIBSVM_AUDIT],
    "libsvm-nn-audit": ["--model", "nn", *LIBSVM_AUDIT],
    # CSR mini-batches, for the logistic model and the network's stochastic bootstrap
    "libsvm-stoch": ["--model", "logistic", *LIBSVM_STOCH],
    "libsvm-nn-stoch": ["--model", "nn", *LIBSVM_STOCH],
    # label-only rows in both splits and a test split narrower than its train split
    "libsvm-thin-stoch": ["--model", "logistic", "--train", "train_thin.libsvm",
                          "--test", "test_thin.libsvm", "--mode", "stoch", "--epochs", "1",
                          "--batch-frac", "0.05", "--seeds", "0,3", *THREE],
    # the quadratic's stochastic oracle and its sigma draws
    "quad-stoch": ["--model", "quadratic", "--mode", "stoch", "--dim", "10", "--samples", "40",
                   "--epochs", "2", "--batch-frac", "0.1", "--seeds", "0,1", *THREE],
    "baselines-only": ["--model", "quadratic", "--dim", "10", "--maxiter", "100",
                       "--solver", "psgm,proj-ipm"],
    "inadmissible-power": INADMISSIBLE_POWER,
    # deterministic multi-seed specs copy the first seed's rows: trace rows here,
    # error rows in the next
    "quad-power-audit-seeds": [*QUAD_POWER_AUDIT, "--seeds", "0,1,2"],
    "inadmissible-power-seeds": [*INADMISSIBLE_POWER, "--seeds", "0,1"],
    # an infinite side, where the ratio-test margin and the clip meet +inf
    "logreg-open-upper": ["--model", "logistic", "--dim", "10", "--samples", "200",
                          "--maxiter", "150", "--bounds", "-1", "inf", "--audit", "full",
                          "--trace", *THREE],
    # the same with the lower side open: x - l = +inf in H_k and the squared-slack minima
    "logreg-open-lower": ["--model", "logistic", "--dim", "10", "--samples", "200",
                          "--maxiter", "150", "--bounds", "-inf", "1", "--audit", "full",
                          "--trace", *THREE],
}

WRITE_PAIR = """
from sipm import SparseDataset, serialize_libsvm, synthetic_classification
features, labels = synthetic_classification(300, 20, seed=11)
rows = tuple(tuple((j + 1, float(v)) for j, v in enumerate(row) if abs(v) > 0.5)
             for row in features)
for suffix, raw in (("", {-1.0: -1.0, 1.0: 1.0}), ("01", {-1.0: 0.0, 1.0: 1.0})):
    for path, part in ((f"train{suffix}.libsvm", slice(0, 240)),
                       (f"test{suffix}.libsvm", slice(240, 300))):
        with open(path, "w", encoding="ascii") as handle:
            handle.write(serialize_libsvm(SparseDataset(
                rows=rows[part], labels=tuple(raw[float(y)] for y in labels[part]),
                n_features=20)))
# label-only rows, and a test split whose indices stop at 15, below the train
# split's largest, so that align_feature_space widens it
thin = tuple(tuple(pair for pair in row if abs(pair[1]) > 0.9) for row in rows)
narrow = tuple(tuple(pair for pair in row if pair[0] <= 15) for row in thin[240:])
for path, part, split in (("train_thin.libsvm", thin[:240], slice(0, 240)),
                          ("test_thin.libsvm", narrow, slice(240, 300))):
    with open(path, "w", encoding="ascii") as handle:
        handle.write(serialize_libsvm(SparseDataset(
            rows=part, labels=tuple(float(y) for y in labels[split]), n_features=20)))
"""

# run in one process per tree, in the work directory: argv[1] is a JSON list of
# [key, bench argv] jobs, argv[2] the file that receives {key: {status, calls,
# report}}, argv[3] the tree that sipm must be imported from
RUNNER = """
import hashlib, json, os, sys
import sipm

tree = os.path.realpath(sys.argv[3])
if os.path.commonpath([tree, os.path.realpath(sipm.__file__)]) != tree:
    sys.exit(f"sipm was imported from {sipm.__file__}, not from {sys.argv[3]}")
import sipm.cli
from sipm import harness
calls = []

def wrap(name, solver):
    def wrapped(*args, **kwargs):
        try:
            result = solver(*args, **kwargs)
        except Exception as err:
            calls.append([name, f"raised {type(err).__name__}"])
            raise
        calls.append([name, hashlib.sha256(result.final_x.tobytes()).hexdigest()])
        return result
    return wrapped

for name in ("run", "run_psgm", "run_simplified"):
    setattr(harness, name, wrap(name, getattr(harness, name)))
found = {}
for key, argv in json.loads(sys.argv[1]):
    calls.clear()
    if os.path.exists("report.json"):   # never read one bench's report as the next one's
        os.remove("report.json")
    try:   # a bench that crashes is one difference; the other shapes still run
        status = sipm.cli.main([*argv, "--out", "report.json"])
    except (Exception, SystemExit) as err:
        status = f"raised {type(err).__name__}"
    report = None
    if status == 0:
        with open("report.json", encoding="ascii") as handle:
            report = json.load(handle)
        report.pop("timing", None)
    found[key] = {"status": status, "calls": list(calls), "report": report}
with open(sys.argv[2], "w", encoding="ascii") as handle:
    json.dump(found, handle)
"""


def bench_argv(shape, seed):
    """The ``sipm`` argument list of one shape at one seed."""
    return ["bench", *SHAPES[shape], "--init-seed", str(seed), "--data-seed", str(seed)]


def _env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.abspath(src),
                                                      env.get("PYTHONPATH")]))
    return env


def run_tree(src, jobs, work, name):
    """Run every ``(key, bench argv)`` job in one process on the tree ``src``;
    return {key: {"status": exit status, "calls": [[solver, sha256], ...],
    "report": the report without ``timing``, None where the bench failed}}."""
    runner = subprocess.run([sys.executable, "-c", RUNNER, json.dumps(jobs), name,
                             os.path.abspath(src)],
                            env=_env(src), cwd=work)
    if runner.returncode:
        raise SystemExit(f"report_identity: the runner failed on {src}")
    with open(os.path.join(work, name), encoding="ascii") as handle:
        return json.load(handle)


def report_hash(result):
    """A bench's canonical report sha256, or its exit status where it failed."""
    if result["status"] != 0:
        return f"exit {result['status']}"
    return canonical_sha256(result["report"])


def compare(parent, change, work):
    """Print each shape and seed's report line, with an ``explain`` line under
    a differing pair, and one line per solver call; return the count of
    differing reports and calls."""
    cases = [(shape, seed) for shape in SHAPES for seed in SEEDS]
    jobs = [(f"{shape} {seed}", bench_argv(shape, seed)) for shape, seed in cases]
    sides = [run_tree(src, jobs, work, f"tree-{i}.json")
             for i, src in enumerate((parent, change))]
    reports = calls = differing_calls = 0
    for shape, seed in cases:
        old, new = (side[f"{shape} {seed}"] for side in sides)
        where = f"{shape:<25} seed {seed}"
        hashes = [report_hash(old), report_hash(new)]
        both = None not in (old["report"], new["report"])
        same = both and hashes[0] == hashes[1]
        reports += not same
        print(f"{where}  report         parent {hashes[0]}  change {hashes[1]}  "
              f"{'same' if same else 'DIFFERENT'}")
        if both and not same:
            print(f"    {explain(old['report'], new['report'])}")
        pairs = itertools.zip_longest(old["calls"], new["calls"], fillvalue=[None, "missing"])
        for i, (mine, theirs) in enumerate(pairs, 1):
            same = mine == theirs
            differing_calls += not same
            calls += 1
            print(f"{where}  call {i:>2} {mine[0] or theirs[0]:<14} parent {mine[1]}  "
                  f"change {theirs[1]}  {'same' if same else 'DIFFERENT'}")
    print(f"{reports} of {len(cases)} reports differ")
    print(f"{differing_calls} of {calls} calls differ")
    return reports + differing_calls


def canonical_sha256(payload):
    """The sha256 of a report's canonical bytes, as ``canonical_report_bytes`` renders them."""
    return hashlib.sha256(json.dumps(payload, sort_keys=True, indent=2)
                          .encode("ascii")).hexdigest()


def _children(tree, path):
    """{path: value} of the items of a nonempty dict or list under ``path``,
    None for a leaf: dict keys join with '.', list indices show as [i]."""
    if isinstance(tree, dict) and tree:
        return {f"{path}.{key}" if path else str(key): value for key, value in tree.items()}
    if isinstance(tree, list) and tree:
        return {f"{path}[{i}]": value for i, value in enumerate(tree)}
    return None


def leaves(tree, path=""):
    """{path: value} of every leaf under ``tree``, an empty dict or list being
    one, so one path names one value in either report."""
    children = _children(tree, path)
    if children is None:
        return {path: tree}
    found = {}
    for sub, value in children.items():
        found.update(leaves(value, sub))
    return found


def one_sided(tree, other, path=""):
    """The outermost paths under ``tree`` that ``other`` lacks, in the order
    of ``tree``: a key such as ``config.baselines`` stands for all its leaves."""
    mine, theirs = _children(tree, path) or {}, _children(other, path) or {}
    found = []
    for sub, value in mine.items():
        found += one_sided(value, theirs[sub], sub) if sub in theirs else [sub]
    return found


def _first_three(paths):
    shown = ", ".join(paths[:3]) + (", ..." if len(paths) > 3 else "")
    return f" ({shown})" if paths else ""


def _number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def relative_change(a, b):
    """|a - b| / max(|a|, |b|): 0 for equal numbers (two NaNs too), inf when
    they differ and either is not finite."""
    if a == b or (a != a and b != b):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def largest_relative_change(parent, change):
    """(path, relative change) of the number under ``runs`` and ``constants``
    that moved most, matched by path; (None, 0.0) when none moved."""
    old, new = (leaves({key: report.get(key) for key in ("runs", "constants")})
                for report in (parent, change))
    worst = (None, 0.0)
    for path in sorted(old.keys() & new.keys()):
        if _number(old[path]) and _number(new[path]):
            drift = relative_change(old[path], new[path])
            if drift > worst[1]:
                worst = (path, drift)
    return worst


def _sign(value):
    return (value > 0) - (value < 0)


def sign_flips(parent, change):
    """Count of ``comparisons`` entries whose ``r_p`` changes sign, matched by
    (problem, baseline, metric, seed); an entry on one side only, or a
    non-number ``r_p``, counts as no flip."""
    def keyed(report):
        return {(row.get("problem"), row.get("baseline"), row.get("metric"), row.get("seed")):
                row.get("r_p") for row in report.get("comparisons", [])}

    old, new = keyed(parent), keyed(change)
    return sum(1 for key in old.keys() & new.keys()
               if _number(old[key]) and _number(new[key])
               and _sign(old[key]) != _sign(new[key]))


def explain(parent, change):
    """One line on how two reports differ: the largest relative change of a
    number under runs and constants, the r_p sign flips, and a note when the
    reports do not share one structure: the count of leaf paths on each side
    only, with up to three of the outermost such keys named."""
    path, drift = largest_relative_change(parent, change)
    moved = f"{drift:.3g} at {path}" if path else "0 (no number under runs or constants moved)"
    line = f"largest relative change {moved}; {sign_flips(parent, change)} r_p sign flips"
    old, new = leaves(parent).keys(), leaves(change).keys()
    if old != new:
        line += (f"; structure differs: {len(old - new)} paths only in parent"
                 f"{_first_three(one_sided(parent, change))}, {len(new - old)} only in "
                 f"change{_first_three(one_sided(change, parent))}")
    return line


def source_lines(src):
    """Newline count of the tree's ``sipm/*.py`` files, the total of ``wc -l``."""
    total = 0
    for path in glob.glob(os.path.join(src, "sipm", "*.py")):
        with open(path, "rb") as handle:
            total += handle.read().count(b"\n")
    return total


def main(argv=None):
    parser = argparse.ArgumentParser(description="Compare the canonical reports and final "
                                                 "iterates of two sipm source trees.")
    parser.add_argument("parent_src", help="the src directory of the parent tree")
    parser.add_argument("change_src", help="the src directory of the changed tree")
    args = parser.parse_args(argv)
    parent, change = args.parent_src, args.change_src
    for src in (parent, change):   # else the next sipm on PYTHONPATH would be compared
        if not os.path.isfile(os.path.join(src, "sipm", "__init__.py")):
            parser.error(f"{src} has no sipm/__init__.py")
    with tempfile.TemporaryDirectory() as work:
        subprocess.run([sys.executable, "-c", WRITE_PAIR], env=_env(parent), cwd=work,
                       check=True)
        differing = compare(parent, change, work)
    lines = [source_lines(src) for src in (parent, change)]
    print(f"sipm/*.py lines  parent {lines[0]}  change {lines[1]}  ({lines[1] - lines[0]:+d})")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
