"""Experiment orchestration: constant estimation, multi-seed runs, reports.

The protocol per problem is: fix one starting point, estimate the curvature
and gradient-bound constants with a 500-iteration bootstrap that uses
placeholder constants of 1 (it scans each iterate as the run makes it, so it
keeps O(n) memory, not its history), set up each seed's run from those
estimates, then run every requested solver over every seed, sipm first.  One
recipe, ``_solver_config``, sets up both the bootstrap (a deterministic
staircase) and each seed: the barrier start mu1 from the gradient (estimate)
at the start point, the neighborhood margin theta0 capped by the constants,
then the schedule and buffers; every cell of the seed reads that config and
its one parameter table, ``config.sequences``.  A baseline cell ends by
writing each metric's ``(a - b) / max(a, b, 1)`` against the seed's sipm
run.  psgm rescales the schedule's shape ``s_k`` to that run's first and
last step, so it records the run's error when the run fails; only a spec
that lists no sipm runs psgm on the raw shape.

A seed reaches a run only through the stochastic oracle: with exact gradients
the barrier start, every solver's steps and so every row are the same for
each seed.  A deterministic experiment therefore computes each problem's
cells once, for its first seed, and copies that seed's runs and comparisons,
error rows included, to the other seeds with only ``seed`` changed.

Reports are plain dicts serialized with sorted keys, so regenerating a
report from the same experiment spec and seeds is byte identical; wall-clock
times live in an isolated ``timing`` block that is excluded from the
canonical bytes.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import os
import sys
import time
from dataclasses import asdict, dataclass, fields
from types import SimpleNamespace

import numpy as np

from .baselines import c_constant, match_sipm_endpoints, run_psgm, run_simplified
from .errors import InvalidBudget, InvalidChoice, InvalidConstants, InvalidSpec
from .geometry import DELTA_CAP, Bounds, range_gap
from .libsvm import align_feature_space, parse_libsvm_file
from .problems import (_number, _require_batch_fraction, _rng, gradient_oracle,
                       logistic_objective, nn_objective, quadratic_objective,
                       synthetic_classification)
from .schedules import (BufferSequences, ExponentTriple, PowerSchedule,
                        build_staircase, mu1_init, theta0_init)
from .secant_scan import _secant_scan
from .solver import CONFIG_CHOICES, SolverConfig, run
from .stepsize import Constants

BOOTSTRAP_ITERS = 500
BOOTSTRAP_CONSTANTS = Constants(ell_f=1.0, kappa_inf=1.0, sigma_inf=0.0)
SIGMA_DRAWS = 100
HASH_BLOCK = 1 << 18   # bytes of a data file that _cache_key reads at a time
QUAD_NOISE_LEVEL = 0.1   # a stochastic quadratic's noise bound, as quadratic_objective reads it
START_RADIUS = 0.01   # initial_point draws x1 from this cube; the spec's box must hold it
# spec.audit -> SolverConfig.audit_level of an untraced spec.  Only trace
# rows need "full_trace", and a spec writes them only with trace set, which
# runs every sipm cell at "full_trace".
SPEC_AUDIT = {"off": "off", "full": "invariants"}
MODELS = ("quadratic", "logistic", "nn")
SOLVERS = ("sipm", "psgm", "proj-ipm")
COMPARED_METRICS = ("final_objective_train", "projected_grad_norm", "final_objective_test")
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
    """Seeded uniform start in [-START_RADIUS, START_RADIUS]^n, fixed once per problem."""
    return _rng(seed).uniform(-START_RADIUS, START_RADIUS, size=n)


def relative_performance(value_a, value_b):
    """(a - b) / max(a, b, 1); lies in [-1, 1] for nonnegative inputs."""
    return (value_a - value_b) / max(value_a, value_b, 1.0)


def estimate_constants(objective, x1, bounds, mode="deterministic",
                       batch_fraction=0.01, seed=0):
    """Estimate the Lipschitz, gradient-bound, and noise-bound constants.

    Runs ``BOOTSTRAP_ITERS`` iterations of ``BOOTSTRAP_SPEC``'s deterministic
    staircase with both curvature constants set to 1, then takes the largest
    visited gradient inf-norm as the gradient bound and the largest gradient
    secant ratio as the Lipschitz estimate (pairs with displacement below
    1e-14 are skipped).  In stochastic mode the noise bound is the largest
    inf-norm deviation of 100 seeded mini-batch gradients at the start point;
    otherwise it is 0.  A mode or batch fraction that ``gradient_oracle``
    rejects raises its error before any gradient is taken.

    The scan, the bootstrap's observer from ``secant_scan``, folds blocks of at
    most ``SCAN_BLOCK`` steps into two running maxima from two arrays of at
    most ``SCAN_BYTES`` each, or takes each pair as it comes where n is too
    large for a block to pay, so the estimate holds O(n) memory whatever
    ``BOOTSTRAP_ITERS`` is.
    """
    # the noise draws' oracle checks mode and fraction; its sampler draws lazily
    sample = gradient_oracle(objective, mode, batch_fraction, [seed, 2])
    g_true = objective.gradient(x1)
    config = _solver_config(BOOTSTRAP_SPEC, g_true, x1, bounds, BOOTSTRAP_CONSTANTS,
                            BOOTSTRAP_ITERS)
    scan = _secant_scan(x1, g_true)   # the bootstrap starts at x1
    run(objective, config, x1, observer=scan)
    scan.fold()
    ell = scan.ell or 1.0   # no usable secant pair: keep the bootstrap placeholder

    sigma = 0.0
    if mode == "stochastic":
        for _ in range(SIGMA_DRAWS):
            sigma = max(sigma, float(np.max(np.abs(sample(x1) - g_true))))
    return EstimatedConstants(ell_f_bar=ell, kappa_inf_bar=scan.kappa, sigma_inf_bar=sigma)


def save_constants(path, constants):
    """Write a temporary file beside ``path`` and move it into place, so an
    interrupted write never leaves a partial file at ``path``."""
    partial = f"{path}.{os.getpid()}.tmp"
    with open(partial, "w", encoding="ascii") as handle:
        json.dump(asdict(constants), handle, sort_keys=True)
    os.replace(partial, path)


def load_constants(path):
    """InvalidConstants naming ``path`` unless the file is one JSON object of
    the three constants, each a finite nonnegative number."""
    keys = [f.name for f in fields(EstimatedConstants)]
    try:
        with open(path, "r", encoding="ascii") as handle:
            data = json.load(handle)
    except ValueError as err:   # not ASCII, or not JSON (a truncated write)
        raise InvalidConstants(f"cached constants {path}: {err}") from None
    if not (isinstance(data, dict) and sorted(data) == sorted(keys)
            and all(_number(v) and 0.0 <= v <= sys.float_info.max for v in data.values())):
        raise InvalidConstants(f"cached constants {path}: need exactly the keys {keys}, "
                               f"each a finite nonnegative number, got {data!r}")
    return EstimatedConstants(**{key: float(data[key]) for key in keys})


@dataclass(frozen=True)
class ProblemSpec:
    name: str
    model: str                      # one of MODELS
    train_path: str | None = None
    test_path: str | None = None
    dim: int = 5                    # quadratic only
    data_seed: int = 0
    samples: int = 50               # synthetic dataset rows; stochastic quadratic sample count
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
    trace: bool = False


# the bootstrap's run: a deterministic staircase with practical buffers reads
# no other spec field, so no experiment default reaches the estimate
BOOTSTRAP_SPEC = ExperimentSpec(problems=(), mode="deterministic", schedule="staircase",
                                param_mode="practical")


def _require_count(name, value, least):
    """InvalidSpec naming ``name`` unless ``value`` is an integer >= ``least``."""
    if not _number(value, numbers.Integral):
        raise InvalidSpec(f"{name}={value!r} must be an integer")
    if value < least:
        raise InvalidSpec(f"{name}={value} must be at least {least}")


def _finite_reals(values, count):
    """True iff ``values`` holds ``count`` finite real numbers."""
    try:
        return len(values) == count and all(_number(v) and math.isfinite(v) for v in values)
    except TypeError:   # not a sequence
        return False


def validate_spec(spec):
    """Check every field of an experiment spec, before any problem is built,
    and return its iteration budget: epochs/batch_fraction in stochastic mode
    when epochs are given, the explicit maxiter otherwise.  README's "Where
    inputs are validated" lists the checks and their error types.
    """
    for name, allowed in SPEC_CHOICES.items():
        if getattr(spec, name) not in allowed:
            raise InvalidChoice(name, getattr(spec, name), allowed)
    for problem in spec.problems:
        if problem.model not in MODELS:
            raise InvalidChoice("model", problem.model, MODELS)
        if not isinstance(problem.name, str):
            raise InvalidSpec(f"problem name {problem.name!r} must be a string")
        for field in ("train_path", "test_path"):   # open(0) would read standard input
            if not isinstance(getattr(problem, field), (str, type(None))):
                raise InvalidSpec(f"problem {problem.name!r}: {field}="
                                  f"{getattr(problem, field)!r} must be a string or None")
        data_paths = (problem.train_path, problem.test_path)
        if problem.model == "quadratic" and data_paths != (None, None):
            raise InvalidSpec(f"problem {problem.name!r}: a quadratic reads no data file, "
                              f"got (train_path, test_path)={data_paths!r}")
        if problem.test_path is not None and problem.train_path is None:
            raise InvalidSpec(f"problem {problem.name!r}: test_path needs a train_path")
        if problem.hidden is not None and problem.model != "nn":
            raise InvalidSpec(f"problem {problem.name!r}: hidden={problem.hidden!r} is a "
                              f"network width, and a {problem.model} model has no hidden layer")
        for field, least in (("dim", 1), ("samples", 1), ("hidden", 1), ("data_seed", 0)):
            if field != "hidden" or problem.hidden is not None:
                _require_count(f"problem {problem.name!r}: {field}", getattr(problem, field),
                               least)
    for solver in spec.solvers:
        if solver not in SOLVERS:
            raise InvalidChoice("solvers", solver, SOLVERS)
    try:
        lo, hi = spec.bounds
    except (TypeError, ValueError):
        raise InvalidSpec(f"bounds={spec.bounds!r} must be two numbers") from None
    if not (_number(lo) and _number(hi)) \
            or not lo < hi or math.isinf(lo) and math.isinf(hi):
        raise InvalidSpec(f"bounds={spec.bounds!r} must be two numbers lo < hi, "
                          "neither NaN, with at least one finite")
    if not (lo < -START_RADIUS and hi > START_RADIUS):
        raise InvalidSpec(f"bounds={spec.bounds!r} must hold the start cube [-{START_RADIUS}, "
                          f"{START_RADIUS}]^n inside: lo < -{START_RADIUS}, hi > {START_RADIUS}")
    for problem in spec.problems:
        if problem.model == "quadratic" and not (math.isfinite(lo) and math.isfinite(hi)):
            raise InvalidSpec(f"problem {problem.name!r}: a quadratic's center is drawn "
                              f"inside the box, so bounds={spec.bounds!r} must be finite")
    if not spec.seeds:
        raise InvalidSpec("the seed list is empty")
    for seed in spec.seeds:   # integers, so the repeat check can hash them
        _require_count(f"seeds={spec.seeds!r}: seed", seed, 0)
    names = tuple(problem.name for problem in spec.problems)
    for name, values in (("problems", names), ("solvers", spec.solvers),
                         ("seeds", spec.seeds)):
        if len(set(values)) < len(values):
            raise InvalidSpec(f"{name}={values!r} repeats an entry")
    _require_count("init_seed", spec.init_seed, 0)
    if not isinstance(spec.trace, bool):
        raise InvalidSpec(f"trace={spec.trace!r} must be True or False")
    if not _finite_reals(spec.exponents, 3):
        raise InvalidSpec(f"exponents={spec.exponents!r} must be three finite real numbers")
    # checked in both modes: the report and the cache key keep it either way
    _require_batch_fraction(spec.batch_fraction)
    if spec.mode == "deterministic" and spec.epochs is not None:
        raise InvalidBudget(f"epochs={spec.epochs} counts mini-batch passes; "
                            "a deterministic run takes maxiter")
    if spec.epochs is not None:
        if not _number(spec.epochs):
            raise InvalidBudget(f"epochs={spec.epochs!r} must be a real number")
        budget = spec.epochs / spec.batch_fraction
        if not math.isfinite(budget):
            raise InvalidBudget(f"epochs={spec.epochs} gives the iteration budget "
                                f"{budget}, which is not finite")
        maxiter = int(round(budget))
    elif spec.maxiter is None:
        raise InvalidBudget("need either maxiter or (stochastic) epochs")
    elif not _number(spec.maxiter, numbers.Integral):
        raise InvalidBudget(f"maxiter={spec.maxiter!r} must be an integer")
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
        rng = _rng(problem.data_seed)
        center = rng.uniform(lo + 0.2 * (hi - lo), hi - 0.2 * (hi - lo), size=problem.dim)
        curvature = rng.uniform(0.5, 2.0, size=problem.dim)
        noise = QUAD_NOISE_LEVEL if spec.mode == "stochastic" else 0.0
        samples = problem.samples if spec.mode == "stochastic" else 1
        return quadratic_objective(center, curvature, noise_level=noise,
                                   sample_count=samples, seed=problem.data_seed), None
    if problem.model == "logistic":
        make = logistic_objective
    else:  # "nn", the last model validate_spec admits
        def make(ds):
            return nn_objective(ds, hidden=problem.hidden)
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
    import hashlib   # only --cache-dir reads it; it loads OpenSSL

    digest = hashlib.sha256(json.dumps(
        [asdict(problem), list(spec.bounds), spec.mode, spec.batch_fraction,
         spec.init_seed, asdict(BOOTSTRAP_SPEC), asdict(BOOTSTRAP_CONSTANTS), BOOTSTRAP_ITERS,
         SIGMA_DRAWS, QUAD_NOISE_LEVEL]).encode("ascii"))
    for path in (problem.train_path, problem.test_path):
        if path is not None:
            with open(path, "rb") as handle:
                for block in iter(lambda: handle.read(HASH_BLOCK), b""):
                    digest.update(block)
    return f"{problem.name}__{digest.hexdigest()}.json"


def _constants_for(problem, spec, objective, x1, bounds, cache_dir):
    path = os.path.join(cache_dir, _cache_key(problem, spec)) if cache_dir else None
    if path and os.path.exists(path):
        return load_constants(path), True
    estimated = estimate_constants(objective, x1, bounds, mode=spec.mode,
                                   batch_fraction=spec.batch_fraction,
                                   seed=spec.init_seed)
    if path:
        os.makedirs(cache_dir, exist_ok=True)
        save_constants(path, estimated)
    return estimated, False


def _solver_config(spec, g1, x1, bounds, constants, maxiter, seed=0, audit_level="off"):
    """The one recipe of a sipm run: mu1 from the gradient (estimate) g1 at
    x1, theta0 capped by the constants, then the spec's schedule and
    buffers over the budget."""
    mu1 = mu1_init(g1, x1, bounds)
    theta0 = theta0_init(x1, bounds, constants.kappa_inf, constants.sigma_inf, mu1,
                         range_gap(bounds, DELTA_CAP))
    if spec.schedule == "staircase":
        schedule = build_staircase(mu1, maxiter, theta0=theta0)
    else:
        schedule = PowerSchedule(mu1=mu1, theta0=theta0,
                                 exponents=ExponentTriple(*spec.exponents))
    if spec.param_mode == "practical":
        buffers = BufferSequences(mode="practical", maxiter=maxiter)
    else:
        buffers = BufferSequences(mode="theory", alpha_buff_base=1.0,
                                  gamma_buff_base=1.0, t_mu=spec.exponents[0])
    return SolverConfig(mode=spec.mode, bounds=bounds, schedule=schedule, buffers=buffers,
                        constants=constants, maxiter=maxiter, rng_seed=seed,
                        batch_fraction=spec.batch_fraction, audit_level=audit_level)


def _run_metrics(result, objective_test):
    out = dict(final_objective_train=result.final_objective,
               projected_grad_norm=result.final_projected_grad_norm,
               kkt_stationarity=result.final_kkt.stationarity_residual,
               stalls=result.stall_count)
    if objective_test is not None:
        out["final_objective_test"] = float(objective_test.value(result.final_x))
    return out


def _error_entry(problem, solver, seed, err):
    return {"problem": problem, "solver": solver, "seed": seed,
            "error": f"{type(err).__name__}: {err}"}


def run_experiment(spec, cache_dir=None):
    """Run every (problem, solver, seed) cell and assemble the report dict.
    A set ``cache_dir`` holds each problem's constants; it changes no canonical byte.

    Failures are recorded as error markers without aborting the rest of the
    experiment: a problem that cannot be built or whose constants cannot be
    estimated gets one marker, a seed whose schedule cannot be set up one per
    solver cell, and a failed solver run one for its cell.  In deterministic
    mode only the first seed's cells run; the other seeds get copies of its
    rows, listed under ``timing["copied_seeds::<problem>"]``, while
    ``timing["cells"]`` times the cells that ran, or their seed's failed set-up.
    """
    maxiter = validate_spec(spec)
    if cache_dir is not None and not isinstance(cache_dir, (str, os.PathLike)):
        raise InvalidSpec(f"cache_dir={cache_dir!r} must be a path or None")
    audit = "full_trace" if spec.trace else SPEC_AUDIT[spec.audit]
    report = {"config": _config_block(spec, maxiter), "constants": {},
              "runs": [], "comparisons": [], "timing": {"cells": {}}}
    t_start = time.perf_counter()
    lo, hi = spec.bounds

    for problem in spec.problems:
        try:
            objective, objective_test = _build_problem(problem, spec)
            bounds = Bounds.cube(objective.n, lo, hi)
            x1 = initial_point(objective.n, spec.init_seed)
            estimated, cached = _constants_for(problem, spec, objective, x1, bounds, cache_dir)
        except Exception as err:  # record and keep going
            report["runs"].append(_error_entry(problem.name, None, None, err))
            continue
        report["constants"][problem.name] = dict(
            asdict(estimated), delta=range_gap(bounds, DELTA_CAP),
            bootstrap={"iterations": BOOTSTRAP_ITERS,
                       "placeholder_constants": BOOTSTRAP_CONSTANTS.ell_f,
                       "sigma_draws": SIGMA_DRAWS})
        # cache hits change wall time, never content; keep them out of the
        # canonical report bytes
        report["timing"][f"constants_cached::{problem.name}"] = cached
        constants = Constants(ell_f=estimated.ell_f_bar, kappa_inf=estimated.kappa_inf_bar,
                              sigma_inf=estimated.sigma_inf_bar)

        # the interior-point run anchors the baselines' steps and comparisons,
        # so it goes first within each seed whatever order the caller listed
        ordered_solvers = sorted(spec.solvers, key=lambda s: s != "sipm")
        seeds = spec.seeds if ordered_solvers else ()   # no cell, no set-up
        # exact gradients leave the seed unread, so every seed of a
        # deterministic spec replays the first one's block, errors included
        computed = seeds[:1] if spec.mode == "deterministic" else seeds
        first_run, first_comparison = len(report["runs"]), len(report["comparisons"])
        for seed in computed:
            t_set_up = time.perf_counter()
            try:
                # the gradient (estimate) at x1 that sizes the barrier start
                g_probe = gradient_oracle(objective, spec.mode, spec.batch_fraction,
                                          [seed, 1])(x1)
                config = _solver_config(spec, g_probe, x1, bounds, constants, maxiter,
                                        seed, audit)
                seq = config.sequences
            except Exception as err:  # every cell of this seed records it, timed as the set-up
                elapsed = time.perf_counter() - t_set_up
                for solver_name in ordered_solvers:
                    report["runs"].append(_error_entry(problem.name, solver_name, seed, err))
                    report["timing"]["cells"][f"{problem.name}::{solver_name}::{seed}"] = elapsed
                continue

            anchor = None   # the seed's sipm run: (result, run entry), or its error
            for solver_name in ordered_solvers:
                cell = f"{problem.name}::{solver_name}::{seed}"
                t_cell = time.perf_counter()
                try:
                    if solver_name == "sipm":
                        result = run(objective, config, x1)
                    elif solver_name == "psgm":
                        if isinstance(anchor, Exception):
                            raise anchor   # psgm's steps are a function of that run
                        steps = seq["s"][1:]
                        if anchor is not None:
                            steps = match_sipm_endpoints(steps, anchor[0].alpha_first,
                                                         anchor[0].alpha_last)
                        result = run_psgm(objective, config.bounds, steps, x1, config.maxiter,
                                          mode=config.mode, batch_fraction=config.batch_fraction,
                                          seed=config.rng_seed)
                    else:  # proj-ipm, the last name validate_spec admits
                        c = c_constant(config.bounds, config.constants.kappa_inf,
                                       config.schedule.mu1)
                        result = run_simplified(objective, config.bounds, seq["mu"][1:-1],
                                                config.constants.ell_f, c, x1, config.maxiter,
                                                mode=config.mode, seed=config.rng_seed,
                                                batch_fraction=config.batch_fraction)
                    entry = {"problem": problem.name, "solver": solver_name,
                             "seed": seed, "mu1": config.schedule.mu1,
                             "theta0": config.schedule.theta0, "maxiter": maxiter}
                    if solver_name == "proj-ipm":
                        entry["theta_link_c"] = c
                    entry.update(_run_metrics(result, objective_test))
                    if spec.trace and result.records:
                        entry["trace"] = result.records
                    report["runs"].append(entry)
                    if solver_name == "sipm":
                        anchor = result, entry
                    elif isinstance(anchor, tuple):
                        report["comparisons"].extend(
                            {"problem": problem.name, "baseline": solver_name,
                             "seed": seed, "metric": metric,
                             "r_p": relative_performance(anchor[1][metric], entry[metric])}
                            for metric in COMPARED_METRICS if metric in entry)
                except Exception as err:
                    report["runs"].append(_error_entry(problem.name, solver_name, seed, err))
                    if solver_name == "sipm":
                        anchor = err
                report["timing"]["cells"][cell] = time.perf_counter() - t_cell

        copied = seeds[len(computed):]
        if copied:
            runs = report["runs"][first_run:]
            comparisons = report["comparisons"][first_comparison:]
            for seed in copied:
                report["runs"].extend(dict(row, seed=seed) for row in runs)
                report["comparisons"].extend(dict(row, seed=seed) for row in comparisons)
            report["timing"][f"copied_seeds::{problem.name}"] = list(copied)

    report["timing"]["total_s"] = time.perf_counter() - t_start
    return report


def _config_block(spec, maxiter):
    """The spec and its budget; an open side is "-inf" or "inf", as --bounds reads it."""
    return dict(asdict(spec), resolved_maxiter=maxiter,
                bounds=[b if math.isfinite(b) else str(b) for b in spec.bounds])


def canonical_report_bytes(report):
    """Deterministic bytes of a report with the timing block removed."""
    return report_to_json({key: value for key, value in report.items()
                           if key != "timing"}).encode("ascii")


# the one JSON format of reports and CLI output, and the oracle of _json_chunks
_JSON = json.JSONEncoder(sort_keys=True, indent=2)
_SCALARS = {str, int, float, bool, type(None), np.float64}   # C-encoded as _JSON does


@functools.cache
def _c_encoder(level):
    """json's C encoder, which takes no indent in CPython 3.11, writing the
    items of a container at indent ``level`` one per line."""
    return json.encoder.c_make_encoder(None, _JSON.default, json.encoder.encode_basestring_ascii,
                                       None, ": ", ",\n" + "  " * (level + 1), True, False, True)


def _flat_json(o, level):
    """_JSON's text of o at indent ``level`` unless o is a container of
    containers (None then).  A container of scalars (str keys; str, int,
    float, bool or None values) is one call of json's C encoder, and a dict
    with another key is _JSON's text with its newlines indented: json escapes
    every newline in a string.  Errors are _JSON's."""
    if isinstance(o, dict):
        if not set(map(type, o)) <= {str}:
            return _JSON.encode(o).replace("\n", "\n" + "  " * level)
        values = o.values()
    elif isinstance(o, (list, tuple)):
        values = o
    else:   # a scalar, or default's TypeError
        return "".join(_c_encoder(0)(o, 0))
    if o and not set(map(type, values)) <= _SCALARS:
        return None
    text = "".join(_c_encoder(level)(o, 0))   # '{"a": 1,\n    "b": 2}' at level 1, or '{}'
    if o:
        text = text[0] + "\n" + "  " * (level + 1) + text[1:-1] + "\n" + "  " * level + text[-1]
    return text


def _json_chunks(o, level, markers):
    """_JSON's text of o at indent ``level``, in chunks: a container of
    containers is walked here, one chunk per item that _flat_json writes."""
    text = _flat_json(o, level)
    if text is not None:
        yield text
        return
    if id(o) in markers:   # o holds itself: _JSON raises its ValueError
        _JSON.encode(o)
    markers.add(id(o))
    is_dict = isinstance(o, dict)
    sep = "\n" + "  " * (level + 1)
    yield "{" if is_dict else "["
    for i, item in enumerate(sorted(o.items()) if is_dict else o):
        head = ("," if i else "") + sep
        if is_dict:
            key, item = item
            head += json.encoder.encode_basestring_ascii(key) + ": "
        text = _flat_json(item, level + 1)
        if text is None:
            yield head
            yield from _json_chunks(item, level + 1, markers)
        else:
            yield head + text
    markers.discard(id(o))
    yield "\n" + "  " * level + ("}" if is_dict else "]")


def report_to_json(report):
    return "".join(_json_chunks(report, 0, set()))


def report_json_chunks(report):
    """report_to_json's text as an iterator of short strings."""
    return _json_chunks(report, 0, set())


RUN_COLUMNS = ("problem", "solver", "seed", "mu1", "theta0", "maxiter",
               "final_objective_train", "final_objective_test",
               "projected_grad_norm", "kkt_stationarity", "stalls", "error")


def report_csv_chunks(report):
    """report_to_csv's text one line at a time: ``writerow`` returns what its
    target's ``write`` returns, here the formatted line itself."""
    import csv

    writer = csv.writer(SimpleNamespace(write=str), lineterminator="\n")
    yield writer.writerow(RUN_COLUMNS)
    for entry in report["runs"]:
        yield writer.writerow([entry.get(col, "") for col in RUN_COLUMNS])


def report_to_csv(report):
    """Flatten the runs block: one row per run, fixed column order."""
    return "".join(report_csv_chunks(report))
