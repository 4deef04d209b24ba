"""The sipm benchmark: time `sipm bench` on one workload and check its results.

    python3 perfbench/run.py --workload quad-det --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout.  Each measured sample is a fresh
process (``child.py``) that imports sipm, builds the workload's objective
(``setup_s``), then calls ``sipm.cli.main(["bench", ...])`` with the report
written to a file (``bench_s``) and reads its peak resident memory
(``peak_rss_mb``).  Samples run one at a time until ``--seconds`` is used up;
the end-to-end metrics are their medians, with the two times scaled to the
reference machine speed (``calibrate.py``).  With ``--trace 1`` one more
process repeats the run with spans around every layer and prints the
per-layer metrics instead.

Every cell of every sample is checked: no error, finite values, and, where
``reference.json`` holds the workload seed, each value in ``child.CHECKED``
and ``child.CONSTANTS`` within the stored tolerance of the value recorded at
the commit that introduced the benchmark (``make_reference.py``).  All
samples, traced or not, must produce the same canonical report bytes.

``--workload all`` runs every workload in turn and prints one summary line
each.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import workloads  # noqa: E402

TIME_LIMIT_S = 170.0       # the whole invocation, every child included
MIN_SAMPLES = 3
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (("bench_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class BenchError(Exception):
    pass


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="ascii") as handle:
        return json.load(handle)


def load_reference():
    with open(os.path.join(HERE, "reference.json"), "r", encoding="ascii") as handle:
        return json.load(handle)


def environment():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="ascii", errors="replace") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": sys.version.split()[0],
            "blas_threads": BLAS_THREADS,
            "loadavg_start": list(os.getloadavg())}


class Child:
    """Runs child.py processes one at a time under the invocation's deadline."""

    def __init__(self, workload, seed, work_dir, tiny, deadline):
        self.args = [workload.name, str(seed), work_dir] + (["--tiny"] if tiny else [])
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env.update({name: str(BLAS_THREADS) for name in THREAD_VARS})
        self.env.pop("PYTHONPATH", None)

    def __call__(self, mode):
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time limit reached before a child process could start")
        try:
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"), mode] + self.args,
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} child exceeded the time limit") from None
        if done.returncode != 0:
            raise BenchError(f"{mode} child failed (exit {done.returncode}):\n"
                             + done.stderr[-4000:])
        try:
            return json.loads(done.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            raise BenchError(f"{mode} child printed no result") from None


def _close(actual, expected, tol):
    return abs(actual - expected) <= tol["rtol"] * abs(expected) + tol["atol"]


def check_cells(record, workload, expected, tol):
    """Count attempted and failed cells of one sample; return (attempted, failed, notes)."""
    want = {(solver, seed) for solver in workload.solvers for seed in workload.seeds}
    seen, failed, notes = set(), 0, []
    for cell in record["cells"]:
        key = (cell["solver"], cell["seed"])
        seen.add(key)
        if "error" in cell:
            failed += 1
            notes.append(f"{key}: {cell['error']}")
            continue
        values = cell["values"]
        if not all(isinstance(v, (int, float)) and math.isfinite(v)
                   for v in values.values()) or values["projected_grad_norm"] < 0.0:
            failed += 1
            notes.append(f"{key}: non-finite or negative result {values}")
            continue
        if expected is None:
            continue
        ref = expected.get(f"{key[0]}:{key[1]}")
        wrong = sorted(values) if ref is None else \
            [name for name in ref if not _close(values[name], ref[name], tol)]
        if wrong:
            failed += 1
            notes.append(f"{key}: {', '.join(wrong)} differ from reference: "
                         f"{values} against {ref}")
    missing = want - seen
    failed += len(missing)
    notes += [f"{key}: missing from the report" for key in sorted(missing, key=str)]
    return len(want), failed, notes


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "p25": q1, "p75": q3, "max": max(values),
            "n": len(values)}


def run_workload(workload, seed, seconds, trace, tiny, deadline, log):
    work_dir = os.path.join(HERE, "_work", f"{workload.name}-{seed}-{int(trace)}"
                            + ("-tiny" if tiny else ""))
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    child = Child(workload, seed, work_dir, tiny, deadline)
    env = environment()
    env.update(child("prepare"))   # inputs are written before any timing
    log(json.dumps({"workload": workload.name, "seed": seed, "environment": env},
                   sort_keys=True))

    reference = load_reference()
    tol = reference["tolerance"]
    table = None if tiny else reference["workloads"].get(workload.name, {})
    expected = table.get(str(seed)) if table is not None else None
    if expected is None:
        log(f"{workload.name}: no stored reference for seed {seed}; checking "
            "errors, finiteness and report identity only")

    samples = []
    stop = time.monotonic() + seconds
    while len(samples) < MIN_SAMPLES or time.monotonic() < stop:
        started = time.monotonic()
        samples.append(child("plain"))
        took = time.monotonic() - started
        if len(samples) >= MIN_SAMPLES and time.monotonic() + took > stop:
            break
    # how strongly each metric follows the calibration loop (calibrate.py)
    exponents = {"bench_s": workload.speed_exponent, "setup_s": 1.0,
                 "peak_rss_mb": 0.0}
    traced = child("traced") if trace else None

    processes = samples + ([traced] if traced else [])
    attempted = failed = 0
    for record in processes:
        a, f, notes = check_cells(record, workload, expected, tol)
        attempted, failed = attempted + a, failed + f
        for note in notes:
            log(f"{workload.name}: check failed: {note}")
    identical = len({r["canonical_sha256"] for r in processes}) == 1
    if not identical:
        log(f"{workload.name}: canonical report bytes differ between processes"
            + (" (the traced run perturbs the result)" if traced else ""))

    stats = {}
    for name, unit in END_TO_END:
        s = stats[name] = summarize([
            r[name] * calibrate.scale(r["calibration_s"], exponents[name])
            for r in samples])
        line = (f"{workload.name}: {name} median {s['median']:.6g} {unit} "
                f"(p25 {s['p25']:.6g}, p75 {s['p75']:.6g}, max {s['max']:.6g}, "
                f"n={s['n']} processes)")
        if exponents[name]:
            wall = summarize([r[name] for r in samples])
            line += (f" at reference speed; wall-clock median {wall['median']:.6g} s "
                     f"(p25 {wall['p25']:.6g}, p75 {wall['p75']:.6g})")
        log(line)
    log(f"{workload.name}: machine speed {calibrate.REFERENCE_S:.6g} s reference / "
        f"{statistics.median(r['calibration_s'] for r in samples):.6g} s measured "
        f"calibration loop (median of {len(samples)} processes)")
    log(f"{workload.name}: failed_cell_share {failed / attempted:.6g} "
        f"({failed} of {attempted} cells)")

    result = {"correct": failed == 0 and identical, "attempted": attempted,
              "failed": failed, "stats": stats}
    if traced:
        layers = dict(traced["layers"])
        traced_s = traced["bench_s"] * calibrate.scale(traced["calibration_s"],
                                                       exponents["bench_s"])
        untraced_s = stats["bench_s"]["median"]
        layers["trace.overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s
        result["layers"] = layers
        log(f"{workload.name}: shares of the traced bench call: " + ", ".join(
            f"{name} {share:.3f}" for name, share in traced["shares"].items()))
    with open(os.path.join(work_dir, "result.json"), "w", encoding="ascii") as handle:
        json.dump(dict(result, workload=workload.name, seed=seed, environment=env,
                       samples=samples), handle, indent=1, sort_keys=True)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.names() + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="toy sizes, for the benchmark's self-test")
    args = parser.parse_args(argv)

    names = workloads.names() if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + TIME_LIMIT_S * len(names)

    def log(line):
        print(line, flush=True)

    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "sipm", "__init__.py")):
            raise BenchError(f"no sipm sources under {ROOT}/src")
        spec = load_spec()
        results = {}
        for name in names:
            results[name] = run_workload(workloads.get(name, tiny=args.tiny), args.seed,
                                         args.seconds, bool(args.trace), args.tiny,
                                         deadline, log)
    except (BenchError, OSError) as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    metrics = {}
    for name, result in results.items():
        prefix = "" if len(results) == 1 else f"{name}."
        source = result["layers"] if args.trace else \
            {key: s["median"] for key, s in result["stats"].items()}
        for metric in wanted:
            metrics[prefix + metric] = {"value": source[metric], "unit": units[metric]}
    print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
