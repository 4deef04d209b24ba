"""Experiment orchestration: constant estimation, multi-seed runs, reports.

The protocol per problem is: fix one starting point, estimate the curvature
and gradient-bound constants with a 500-iteration bootstrap that uses
placeholder constants of 1, derive the barrier start and the neighborhood
margin from those estimates, then run every requested solver over every seed
and summarize the final metrics with the relative performance measure
``(a - b) / max(a, b, 1)``.

Reports are plain dicts serialized with sorted keys, so regenerating a
report from the same experiment spec and seeds is byte identical; wall-clock
times live in an isolated ``timing`` block that is excluded from the
canonical bytes.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import time
from dataclasses import asdict, dataclass

import numpy as np

from .baselines import c_constant, match_sipm_endpoints, run_psgm, run_simplified
from .errors import InvalidBudget, InvalidChoice
from .geometry import DELTA_CAP, Bounds, range_gap
from .libsvm import align_feature_space, parse_libsvm_file
from .problems import (gradient_oracle, logistic_objective, nn_objective,
                       quadratic_objective, synthetic_classification)
from .schedules import (BufferSequences, ExponentTriple, PowerSchedule,
                        build_staircase, mu1_init, theta0_init)
from .solver import CONFIG_CHOICES, SolverConfig, run
from .stepsize import Constants

BOOTSTRAP_ITERS = 500
SIGMA_DRAWS = 100
# spec.audit -> SolverConfig.audit_level
SPEC_AUDIT = {"off": "off", "invariants": "invariants", "full": "full_trace",
              "full_trace": "full_trace"}
SPEC_CHOICES = {"mode": CONFIG_CHOICES["mode"],
                "schedule": ("staircase", "power"),
                "param_mode": ("practical", "theory"),
                "audit": tuple(SPEC_AUDIT)}


@dataclass(frozen=True)
class EstimatedConstants:
    ell_f_bar: float
    kappa_inf_bar: float
    sigma_inf_bar: float


def initial_point(n, seed):
    """Seeded uniform start in [-0.01, 0.01]^n, fixed once per problem."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-0.01, 0.01, size=n)


def relative_performance(value_a, value_b):
    """(a - b) / max(a, b, 1); lies in [-1, 1] for nonnegative inputs."""
    return (value_a - value_b) / max(value_a, value_b, 1.0)


def _bootstrap_config(objective, x1, bounds, maxiter):
    """Deterministic staircase setup with placeholder constants of 1."""
    g1 = objective.gradient(x1)
    mu1 = mu1_init(g1, x1, bounds)
    delta = range_gap(bounds, DELTA_CAP)
    theta0 = theta0_init(x1, bounds, 1.0, 0.0, mu1, delta)
    schedule = build_staircase(mu1, maxiter, theta0=theta0)
    return SolverConfig(mode="deterministic", bounds=bounds, schedule=schedule,
                        buffers=BufferSequences(mode="practical", maxiter=maxiter),
                        constants=Constants(ell_f=1.0, kappa_inf=1.0, sigma_inf=0.0),
                        maxiter=maxiter)


def estimate_constants(objective, x1, bounds, mode="deterministic",
                       batch_fraction=0.01, seed=0, bootstrap_iters=BOOTSTRAP_ITERS):
    """Estimate the Lipschitz, gradient-bound, and noise-bound constants.

    Runs ``bootstrap_iters`` deterministic iterations with both curvature
    constants set to 1, then takes the largest visited gradient inf-norm as
    the gradient bound and the largest gradient secant ratio as the Lipschitz
    estimate (pairs with displacement below 1e-14 are skipped).  In
    stochastic mode the noise bound is the largest inf-norm deviation of 100
    seeded mini-batch gradients at the start point; otherwise it is 0.
    """
    config = _bootstrap_config(objective, x1, bounds, bootstrap_iters)
    visited = []   # (x, exact gradient at x) per bootstrap iteration
    run(objective, config, x1,
        observer=lambda info: visited.append((info["x"], info["g"])))

    kappa = max(float(np.max(np.abs(g))) for _, g in visited)
    ell = 0.0
    for (x_prev, g_prev), (x_next, g_next) in zip(visited, visited[1:]):
        move = float(np.linalg.norm(x_next - x_prev))
        if move > 1e-14:
            ell = max(ell, float(np.linalg.norm(g_next - g_prev)) / move)
    if ell == 0.0:
        ell = 1.0  # no usable secant pair; keep the bootstrap placeholder

    sigma = 0.0
    if mode == "stochastic":
        sample = gradient_oracle(objective, mode, batch_fraction, [seed, 2])
        g_true = visited[0][1]   # the bootstrap starts at x1
        for _ in range(SIGMA_DRAWS):
            sigma = max(sigma, float(np.max(np.abs(sample(x1) - g_true))))
    return EstimatedConstants(ell_f_bar=ell, kappa_inf_bar=kappa, sigma_inf_bar=sigma)


def save_constants(path, constants):
    with open(path, "w", encoding="ascii") as handle:
        json.dump(asdict(constants), handle, sort_keys=True)


def load_constants(path):
    with open(path, "r", encoding="ascii") as handle:
        data = json.load(handle)
    return EstimatedConstants(**data)


@dataclass(frozen=True)
class ProblemSpec:
    name: str
    model: str                      # "quadratic" | "logistic" | "nn"
    train_path: str | None = None
    test_path: str | None = None
    dim: int = 5                    # quadratic only
    data_seed: int = 0
    samples: int = 50               # quadratic stochastic sample count
    noise_level: float = 0.1        # quadratic stochastic noise bound
    hidden: int | None = None       # nn width override


@dataclass(frozen=True)
class ExperimentSpec:
    problems: tuple
    solvers: tuple = ("sipm",)
    mode: str = "deterministic"
    schedule: str = "staircase"     # "staircase" | "power"
    param_mode: str = "practical"   # "practical" | "theory"
    exponents: tuple = (-1.0, -1.0, 0.0)
    maxiter: int | None = 100
    epochs: float | None = None
    batch_fraction: float = 0.01
    seeds: tuple = (0,)
    bounds: tuple = (-1.0, 1.0)
    audit: str = "off"
    init_seed: int = 0
    cache_dir: str | None = None
    trace: bool = False
    buffer_bases: tuple = (1.0, 1.0)


def resolve_maxiter(spec):
    """Iteration budget: epochs/batch_fraction in stochastic mode when epochs
    are given, the explicit maxiter otherwise.

    Raises InvalidChoice for a mode, schedule, param_mode or audit outside
    SPEC_CHOICES, and InvalidBudget for a stochastic batch fraction outside
    (0, 1] or a budget below one iteration, before any problem is built.
    """
    for name, allowed in SPEC_CHOICES.items():
        if getattr(spec, name) not in allowed:
            raise InvalidChoice(name, getattr(spec, name), allowed)
    if spec.mode == "stochastic" and not 0.0 < spec.batch_fraction <= 1.0:
        raise InvalidBudget(f"batch_fraction={spec.batch_fraction} must lie in (0, 1]")
    if spec.mode == "stochastic" and spec.epochs is not None:
        maxiter = int(round(spec.epochs / spec.batch_fraction))
    elif spec.maxiter is None:
        raise InvalidBudget("need either maxiter or (stochastic) epochs")
    else:
        maxiter = int(spec.maxiter)
    if maxiter < 1:
        raise InvalidBudget(f"the iteration budget resolves to {maxiter}, below 1")
    return maxiter


def _build_problem(problem, spec):
    """Returns (train objective, test objective or None).

    Logistic and network problems without a training path fall back to a
    synthetic dataset of ``samples`` rows and ``dim`` features.
    """
    lo, hi = spec.bounds
    if problem.model == "quadratic":
        rng = np.random.default_rng(problem.data_seed)
        center = rng.uniform(lo + 0.2 * (hi - lo), hi - 0.2 * (hi - lo), size=problem.dim)
        curvature = rng.uniform(0.5, 2.0, size=problem.dim)
        noise = problem.noise_level if spec.mode == "stochastic" else 0.0
        samples = problem.samples if spec.mode == "stochastic" else 1
        return quadratic_objective(center, curvature, noise_level=noise,
                                   sample_count=samples, seed=problem.data_seed), None
    if problem.model == "logistic":
        def make(ds):
            return logistic_objective(ds)
    elif problem.model == "nn":
        def make(ds):
            return nn_objective(ds, hidden=problem.hidden)
    else:
        raise ValueError(f"unknown model {problem.model!r}")
    if problem.train_path is None:
        data = synthetic_classification(problem.samples, problem.dim,
                                        seed=problem.data_seed)
        return make(data), None
    train = parse_libsvm_file(problem.train_path)
    test = None
    if problem.test_path is not None:
        test = parse_libsvm_file(problem.test_path)
        train, test = align_feature_space(train, test)
    return make(train), (make(test) if test is not None else None)


def _cache_key(problem, spec):
    """Cache file name of a problem's constants: a digest of everything the
    estimate reads, down to the bytes of its data files."""
    digest = hashlib.sha256(json.dumps(
        [asdict(problem), list(spec.bounds), spec.mode, spec.batch_fraction,
         spec.init_seed, BOOTSTRAP_ITERS, SIGMA_DRAWS]).encode("ascii"))
    for path in (problem.train_path, problem.test_path):
        if path is not None:
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return f"{problem.name}__{digest.hexdigest()}.json"


def _constants_for(problem, spec, objective, x1, bounds):
    path = os.path.join(spec.cache_dir, _cache_key(problem, spec)) if spec.cache_dir else None
    if path and os.path.exists(path):
        return load_constants(path), True
    estimated = estimate_constants(objective, x1, bounds, mode=spec.mode,
                                   batch_fraction=spec.batch_fraction,
                                   seed=spec.init_seed)
    if path:
        os.makedirs(spec.cache_dir, exist_ok=True)
        save_constants(path, estimated)
    return estimated, False


def _schedule_for(spec, mu1, theta0, maxiter):
    if spec.schedule == "staircase":
        return build_staircase(mu1, maxiter, theta0=theta0)
    triple = ExponentTriple(*spec.exponents)
    return PowerSchedule(mu1=mu1, theta0=theta0, exponents=triple)


def _buffers_for(spec, maxiter):
    if spec.param_mode == "practical":
        return BufferSequences(mode="practical", maxiter=maxiter)
    a_base, g_base = spec.buffer_bases
    return BufferSequences(mode="theory", alpha_buff_base=a_base,
                           gamma_buff_base=g_base, t_mu=spec.exponents[0])


def _shape_sequence(spec, schedule, maxiter):
    if spec.schedule == "staircase":
        return np.array([schedule.s(k) for k in range(1, maxiter + 1)])
    return np.array([float(k) ** spec.exponents[0] for k in range(1, maxiter + 1)])


def _run_metrics(result, objective_test):
    out = dict(final_objective_train=result.final_objective,
               projected_grad_norm=result.final_projected_grad_norm,
               kkt_stationarity=result.final_kkt.stationarity_residual,
               stalls=result.stall_count)
    if objective_test is not None:
        out["final_objective_test"] = float(objective_test.value(result.final_x))
    return out


def _trace_rows(result):
    return [dict(k=r.k, mu_k=r.mu_k, theta_k=r.theta_k, alpha_k=r.alpha_k,
                 gamma_k=r.gamma_k, ell_k=r.ell_k, q_norm=r.q_norm,
                 phi_tilde=None if math.isnan(r.phi_tilde) else r.phi_tilde,
                 stalled=r.stalled) for r in result.records]


def _error_entry(problem, solver, seed, err):
    return {"problem": problem, "solver": solver, "seed": seed,
            "error": f"{type(err).__name__}: {err}"}


def run_experiment(spec):
    """Run every (problem, solver, seed) cell and assemble the report dict.

    Failures are recorded as error markers without aborting the rest of the
    experiment: a problem that cannot be built or whose constants cannot be
    estimated gets one marker, a seed whose schedule cannot be set up one per
    solver cell, and a failed solver run one for its cell.
    """
    maxiter = resolve_maxiter(spec)
    audit = SPEC_AUDIT[spec.audit]
    if spec.trace:
        audit = "full_trace"  # trace rows come from the full-trace records
    report = {"config": _config_block(spec, maxiter), "constants": {},
              "runs": [], "comparisons": [], "timing": {"cells": {}}}
    t_start = time.perf_counter()
    lo, hi = spec.bounds

    for problem in spec.problems:
        try:
            objective, objective_test = _build_problem(problem, spec)
            bounds = Bounds.cube(objective.n, lo, hi)
            x1 = initial_point(objective.n, spec.init_seed)
            estimated, cached = _constants_for(problem, spec, objective, x1, bounds)
        except Exception as err:  # record and keep going
            report["runs"].append(_error_entry(problem.name, None, None, err))
            continue
        delta = range_gap(bounds, DELTA_CAP)
        report["constants"][problem.name] = {
            "ell_f_bar": estimated.ell_f_bar,
            "kappa_inf_bar": estimated.kappa_inf_bar,
            "sigma_inf_bar": estimated.sigma_inf_bar,
            "delta": delta,
            "bootstrap": {"iterations": BOOTSTRAP_ITERS, "placeholder_constants": 1.0,
                          "sigma_draws": SIGMA_DRAWS},
        }
        # cache hits change wall time, never content; keep them out of the
        # canonical report bytes
        report["timing"][f"constants_cached::{problem.name}"] = cached
        sigma = estimated.sigma_inf_bar if spec.mode == "stochastic" else 0.0
        constants = Constants(ell_f=estimated.ell_f_bar,
                              kappa_inf=estimated.kappa_inf_bar,
                              sigma_inf=sigma)

        sipm_results = {}
        # the interior-point run anchors the baseline step sizes, so it goes
        # first within each seed whatever order the caller listed
        ordered_solvers = sorted(spec.solvers, key=lambda s: s != "sipm")
        for seed in spec.seeds:
            try:
                # the gradient (estimate) at x1 that sizes the barrier start
                g_probe = gradient_oracle(objective, spec.mode, spec.batch_fraction,
                                          [seed, 1])(x1)
                mu1 = mu1_init(g_probe, x1, bounds)
                theta0 = theta0_init(x1, bounds, estimated.kappa_inf_bar, sigma, mu1, delta)
                schedule = _schedule_for(spec, mu1, theta0, maxiter)
                shape = _shape_sequence(spec, schedule, maxiter)
            except Exception as err:  # every cell of this seed records it
                report["runs"].extend(_error_entry(problem.name, solver_name, seed, err)
                                      for solver_name in ordered_solvers)
                continue

            for solver_name in ordered_solvers:
                cell = f"{problem.name}::{solver_name}::{seed}"
                t_cell = time.perf_counter()
                try:
                    if solver_name == "sipm":
                        config = SolverConfig(mode=spec.mode, bounds=bounds,
                                              schedule=schedule,
                                              buffers=_buffers_for(spec, maxiter),
                                              constants=constants, maxiter=maxiter,
                                              rng_seed=seed,
                                              batch_fraction=spec.batch_fraction,
                                              audit_level=audit)
                        result = run(objective, config, x1)
                        sipm_results[seed] = result
                    elif solver_name == "psgm":
                        anchor = sipm_results.get(seed)
                        if anchor is not None and maxiter >= 1:
                            steps = match_sipm_endpoints(shape, anchor.alpha_first,
                                                         anchor.alpha_last)
                        else:
                            steps = shape.copy()
                        result = run_psgm(objective, bounds, steps, x1, maxiter,
                                          mode=spec.mode,
                                          batch_fraction=spec.batch_fraction, seed=seed)
                    elif solver_name == "proj-ipm":
                        c = c_constant(bounds, estimated.kappa_inf_bar, mu1)
                        mu_seq = mu1 * shape
                        result = run_simplified(objective, bounds, mu_seq,
                                                estimated.ell_f_bar, c, x1, maxiter,
                                                mode=spec.mode,
                                                batch_fraction=spec.batch_fraction,
                                                seed=seed)
                    else:
                        raise ValueError(f"unknown solver {solver_name!r}")
                    entry = {"problem": problem.name, "solver": solver_name,
                             "seed": seed, "mu1": mu1, "theta0": theta0,
                             "maxiter": maxiter}
                    if spec.schedule == "staircase":
                        entry["schedule_degenerate"] = schedule.degenerate
                    if solver_name == "proj-ipm":
                        entry["theta_link_c"] = c
                    entry.update(_run_metrics(result, objective_test))
                    if spec.trace and result.records:
                        entry["trace"] = _trace_rows(result)
                    report["runs"].append(entry)
                except Exception as err:
                    report["runs"].append(_error_entry(problem.name, solver_name, seed, err))
                report["timing"]["cells"][cell] = time.perf_counter() - t_cell

    _append_comparisons(report, spec)
    report["timing"]["total_s"] = time.perf_counter() - t_start
    return report


def _config_block(spec, maxiter):
    block = asdict(spec)
    block["problems"] = [asdict(p) for p in spec.problems]
    block["resolved_maxiter"] = maxiter
    baselines = {}
    if "psgm" in spec.solvers:
        # steps follow the shape sequence, geometrically rescaled to match the
        # interior-point run's first and last step sizes
        baselines["psgm"] = {"kind": "psgm", "step_schedule": (),
                             "schedule_link": "match_sipm_endpoints",
                             "theta_link_c": None}
    if "proj-ipm" in spec.solvers:
        baselines["proj-ipm"] = {"kind": "simplified_ipm", "step_schedule": (),
                                 "schedule_link": "explicit", "theta_link_c": None}
    block["baselines"] = baselines
    return block


def _append_comparisons(report, spec):
    by_cell = {}
    for entry in report["runs"]:
        if "error" in entry:
            continue
        by_cell[(entry["problem"], entry["solver"], entry["seed"])] = entry
    metrics = ("final_objective_train", "projected_grad_norm", "final_objective_test")
    for problem in spec.problems:
        for seed in spec.seeds:
            base = by_cell.get((problem.name, "sipm", seed))
            if base is None:
                continue
            for other in spec.solvers:
                if other == "sipm":
                    continue
                rival = by_cell.get((problem.name, other, seed))
                if rival is None:
                    continue
                for metric in metrics:
                    if metric in base and metric in rival:
                        report["comparisons"].append({
                            "problem": problem.name, "baseline": other,
                            "seed": seed, "metric": metric,
                            "r_p": relative_performance(base[metric], rival[metric]),
                        })


def canonical_report_bytes(report):
    """Deterministic bytes of a report with the timing block removed."""
    payload = {key: value for key, value in report.items() if key != "timing"}
    return json.dumps(payload, sort_keys=True, indent=2).encode("ascii")


def report_to_json(report):
    return json.dumps(report, sort_keys=True, indent=2)


RUN_COLUMNS = ("problem", "solver", "seed", "mu1", "theta0", "maxiter",
               "final_objective_train", "final_objective_test",
               "projected_grad_norm", "kkt_stationarity", "stalls", "error")


def report_to_csv(report):
    """Flatten the runs block: one row per run, fixed column order."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(RUN_COLUMNS)
    for entry in report["runs"]:
        writer.writerow([entry.get(col, "") for col in RUN_COLUMNS])
    return buffer.getvalue()
