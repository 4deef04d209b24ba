"""Check that two source trees write the same canonical report bytes.

Usage: python3 tools/report_identity.py PARENT_SRC CHANGE_SRC [--iterates]

Runs each ``sipm bench`` shape in SHAPES at ``--init-seed``/``--data-seed``
0 and 7, once per tree, each in a fresh ``python -m sipm.cli`` process with
that tree first on ``PYTHONPATH``.  Prints the sha256 of each report's
canonical bytes (the report without its ``timing`` block, as
``harness.canonical_report_bytes`` renders it) per shape, seed and side, and
exits 1 if any pair differs.  Last it prints each tree's ``sipm/*.py``
line total, as ``wc -l`` counts it, so a refactor's size figure comes from
the same run as its identity check.  Under each pair of reports that differ,
one indented line says how (``explain``): the largest relative change of any
number under ``runs`` and ``constants``, matched by path, the count of
``r_p`` sign flips in ``comparisons``, and whether the two reports' structure
differs, naming up to three keys that one side lacks, such as
``config.baselines``.  A bench that exits non-zero on either side
prints each side's exit status in place of its hash, counts as a difference,
and the comparison goes on with the next shape.  Every process runs in one
temporary directory, where the parent tree first writes the train/test pairs that the
LIBSVM shapes read, with ``synthetic_classification`` and
``serialize_libsvm``: one pair with raw labels -1/+1 and one with the same
rows labeled 0/1, so the label mapping of ``SparseDataset.to_arrays`` is
checked too.  Relative paths keep the reports' bytes, and so the printed
hashes, the same from one call to the next.

With ``--iterates`` the tool compares final iterates instead of reports.
One ``python -c ITERATES`` process per tree runs every shape and seed in
process through ``sipm.cli.main``, with ``harness.run``, ``run_psgm`` and
``run_simplified`` wrapped, so every solver call the bench makes is seen,
each problem's bootstrap included.  It prints one line per call, in call
order: the solver, and per side the sha256 of the call's ``final_x`` bytes
(``raised <Type>`` for a call that raised, ``missing`` where one side made
fewer calls).  A call whose two sides differ counts as a difference, and so
does a bench that exits non-zero on either side, whose line shows each
side's exit status.  Last come the count of differing calls and the line
totals, and the tool exits 1 on any difference.
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
"""

# run in one process per tree, in the work directory: argv[1] is a JSON list of
# [key, bench argv] jobs, argv[2] the file that receives {key: {status, calls}}
ITERATES = """
import hashlib, json, sys
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
    try:   # a bench that crashes is one difference; the other shapes still run
        status = sipm.cli.main([*argv, "--out", "iterates-report.json"])
    except Exception as err:
        status = f"raised {type(err).__name__}"
    found[key] = {"status": status, "calls": list(calls)}
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


def run_report(src, argv, work):
    """Run one bench in a fresh process on the tree ``src``; return its report
    without the ``timing`` block, or ``exit <status>`` when the bench fails."""
    status = subprocess.run([sys.executable, "-m", "sipm.cli", *argv, "--out", "report.json"],
                            env=_env(src), cwd=work).returncode
    if status:
        return f"exit {status}"
    with open(os.path.join(work, "report.json"), encoding="ascii") as handle:
        report = json.load(handle)
    return {key: value for key, value in report.items() if key != "timing"}


def run_iterates(src, jobs, work, name):
    """Run every ``(key, bench argv)`` job in one process on the tree ``src``;
    return {key: {"status": exit status, "calls": [[solver, sha256], ...]}}."""
    subprocess.run([sys.executable, "-c", ITERATES, json.dumps(jobs), name],
                   env=_env(src), cwd=work, check=True)
    with open(os.path.join(work, name), encoding="ascii") as handle:
        return json.load(handle)


def compare_iterates(parent, change, work):
    """Print one line per solver call of every shape and seed; return the
    count of differing calls and failed benches."""
    cases = [(shape, seed) for shape in SHAPES for seed in SEEDS]
    jobs = [(f"{shape} {seed}", bench_argv(shape, seed)) for shape, seed in cases]
    sides = [run_iterates(src, jobs, work, f"iterates-{i}.json")
             for i, src in enumerate((parent, change))]
    differing = calls = 0
    for shape, seed in cases:
        old, new = (side[f"{shape} {seed}"] for side in sides)
        where = f"{shape:<24} seed {seed}"
        if old["status"] or new["status"]:
            differing += 1
            print(f"{where}  parent exit {old['status']}  change exit {new['status']}  "
                  "DIFFERENT", flush=True)
        pairs = itertools.zip_longest(old["calls"], new["calls"], fillvalue=[None, "missing"])
        for i, (mine, theirs) in enumerate(pairs, 1):
            same = mine == theirs
            differing += not same
            calls += 1
            print(f"{where}  call {i:>2} {mine[0] or theirs[0]:<14} parent {mine[1]}  "
                  f"change {theirs[1]}  {'same' if same else 'DIFFERENT'}", flush=True)
    print(f"{differing} of {calls} calls differ")
    return differing


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


def compare_reports(parent, change, work):
    """Print one line per shape and seed, and one under each differing pair;
    return the count of differing reports."""
    mismatches = 0
    for shape in SHAPES:
        for seed in SEEDS:
            bench = bench_argv(shape, seed)
            reports = [run_report(src, bench, work) for src in (parent, change)]
            hashes = [report if isinstance(report, str) else canonical_sha256(report)
                      for report in reports]
            same = hashes[0] == hashes[1] and not hashes[0].startswith("exit")
            mismatches += not same
            print(f"{shape:<20} seed {seed}  parent {hashes[0]}  change {hashes[1]}  "
                  f"{'same' if same else 'DIFFERENT'}", flush=True)
            if not same and not any(isinstance(report, str) for report in reports):
                print(f"    {explain(*reports)}", flush=True)
    print(f"{mismatches} of {len(SHAPES) * len(SEEDS)} reports differ")
    return mismatches


def main(argv=None):
    parser = argparse.ArgumentParser(description="Compare the canonical report bytes "
                                                 "of two sipm source trees.")
    parser.add_argument("parent_src", help="the src directory of the parent tree")
    parser.add_argument("change_src", help="the src directory of the changed tree")
    parser.add_argument("--iterates", action="store_true",
                        help="compare every solver call's final iterate, not the reports")
    args = parser.parse_args(argv)
    parent, change = args.parent_src, args.change_src
    compare = compare_iterates if args.iterates else compare_reports
    with tempfile.TemporaryDirectory() as work:
        subprocess.run([sys.executable, "-c", WRITE_PAIR], env=_env(parent), cwd=work,
                       check=True)
        mismatches = compare(parent, change, work)
    lines = [source_lines(src) for src in (parent, change)]
    print(f"sipm/*.py lines  parent {lines[0]}  change {lines[1]}  ({lines[1] - lines[0]:+d})")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
