import collections
import dataclasses
import functools
import json
import pathlib
import re
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sipm import (Bounds, ExperimentSpec, LogisticObjective, Objective, ProblemSpec,
                  QuadraticObjective, batch_sampler, canonical_report_bytes, default_chi, estimate_constants,
                  initial_point, load_constants, logistic_objective, quadratic_objective,
                  relative_performance, report_to_csv, report_to_json, run,
                  run_experiment, run_psgm, run_simplified, save_constants,
                  shifted_barrier_value,
                  synthetic_classification)
from sipm import harness, stepsize
from sipm.errors import InvalidBudget, InvalidChoice, InvalidConstants, InvalidSpec
from sipm.harness import validate_spec
from sipm.schedules import (BufferSequences, ExponentTriple, StaircaseSchedule,
                            build_staircase)
from sipm.stepsize import Constants


def test_initial_point():
    x = initial_point(1000, seed=3)
    assert x.shape == (1000,)
    assert np.all(np.abs(x) <= 0.01)
    assert_allclose(x, initial_point(1000, seed=3))
    assert not np.allclose(x, initial_point(1000, seed=4))
    assert initial_point(0, seed=1).shape == (0,)


def test_relative_performance():
    assert relative_performance(0.7, 0.7) == 0.0
    assert_allclose(relative_performance(0.5, 0.25), 0.25)
    assert_allclose(relative_performance(3.0, 1.0), 2.0 / 3.0)
    rng = np.random.default_rng(0)
    for _ in range(200):
        a, b = rng.uniform(0.0, 10.0, size=2)
        assert -1.0 <= relative_performance(a, b) <= 1.0


def test_estimate_constants_identity_quadratic():
    # linear gradient map: every secant ratio is exactly the curvature
    obj = quadratic_objective([0.3, -0.2, 0.1], [1.0, 1.0, 1.0])
    bounds = Bounds.cube(3, -1.0, 1.0)
    x1 = initial_point(3, 0)
    est = estimate_constants(obj, x1, bounds)
    assert est.ell_f_bar == 1.0
    assert est.sigma_inf_bar == 0.0
    # gradient bound never exceeds the analytic bound over the box
    analytic = max(abs(-1.0 - c) for c in [0.3, -0.2, 0.1]) + 1.0  # loose
    assert est.kappa_inf_bar <= analytic


class LinearObjective(Objective):
    """f(x) = c . x: the gradient never changes, so no secant is usable."""

    def __init__(self, c):
        self.c = np.asarray(c, dtype=float)
        self.n = self.c.size

    def value(self, x):
        return float(self.c @ x)

    def gradient(self, x):
        return self.c.copy()

    def stochastic_gradient(self, x, batch):
        return self.c.copy()


def test_estimate_constants_keeps_the_lipschitz_placeholder_without_a_secant():
    c = [0.4, -1.5, 0.2]
    est = estimate_constants(LinearObjective(c), initial_point(3, 0), Bounds.cube(3, -1.0, 1.0))
    assert est.ell_f_bar == 1.0
    assert est.kappa_inf_bar == 1.5
    assert est.sigma_inf_bar == 0.0


def test_estimate_constants_oracle_recomputation():
    obj = quadratic_objective([0.2, -0.3], [1.5, 0.7])
    bounds = Bounds.cube(2, -1.0, 1.0)
    x1 = initial_point(2, 1)
    est = estimate_constants(obj, x1, bounds)
    assert est.ell_f_bar <= 1.5 + 1e-12

    # independent replay of the bootstrap via the public solver
    config = harness._solver_config(harness.BOOTSTRAP_SPEC, obj.gradient(x1), x1, bounds,
                                    harness.BOOTSTRAP_CONSTANTS, harness.BOOTSTRAP_ITERS)
    visited = []
    run(obj, config, x1,
        observer=lambda info: visited.append(info["x"]))
    grads = [obj.gradient(x) for x in visited]
    kappa = max(float(np.max(np.abs(g))) for g in grads)
    ell = 0.0
    for (xp, gp), (xn, gn) in zip(zip(visited, grads), zip(visited[1:], grads[1:])):
        move = float(np.linalg.norm(xn - xp))
        if move > 1e-14:
            ell = max(ell, float(np.linalg.norm(gn - gp)) / move)
    # the streamed scan makes the replay's float operations in the same order
    assert est.kappa_inf_bar == kappa
    assert est.ell_f_bar == ell


def test_the_bootstrap_reads_no_experiment_default(monkeypatch):
    """The bootstrap's run used to be set up from ExperimentSpec(problems=()),
    so a changed spec default moved every estimate without moving its cache
    key; BOOTSTRAP_SPEC names the settings, and the cache key reads them."""
    spec = ExperimentSpec(problems=(ProblemSpec(name="q", model="quadratic", dim=5),),
                          solvers=())
    objective, _ = harness._build_problem(spec.problems[0], spec)
    x1, bounds = initial_point(5, 0), Bounds.cube(5, -1.0, 1.0)
    unpatched = estimate_constants(objective, x1, bounds)
    key = harness._cache_key(spec.problems[0], spec)
    monkeypatch.setattr(harness, "ExperimentSpec",
                        functools.partial(ExperimentSpec, schedule="power"))
    assert estimate_constants(objective, x1, bounds) == unpatched
    monkeypatch.setattr(harness, "BOOTSTRAP_SPEC",
                        dataclasses.replace(harness.BOOTSTRAP_SPEC, schedule="power"))
    assert harness._cache_key(spec.problems[0], spec) != key


def test_bootstrap_runs_the_second_ratio_test_only_where_the_look_ahead_binds(monkeypatch):
    """The step kernel ran two ratio tests per step, 1000 on the n = 50
    quadratic's 500-step bootstrap; the second now runs only where gamma_max
    did not cap the look-ahead or alpha_k left (0, alpha_pre], which no
    step there does."""
    spec = ExperimentSpec(problems=(ProblemSpec(name="q", model="quadratic", dim=50),),
                          solvers=())
    objective, _ = harness._build_problem(spec.problems[0], spec)
    x1, bounds = initial_point(50, spec.init_seed), Bounds.cube(50, *spec.bounds)
    config = harness._solver_config(harness.BOOTSTRAP_SPEC, objective.gradient(x1), x1,
                                    bounds, harness.BOOTSTRAP_CONSTANTS,
                                    harness.BOOTSTRAP_ITERS)
    calls = []
    ratio = stepsize._ratio
    monkeypatch.setattr(stepsize, "_ratio", lambda *args: calls.append(1) or ratio(*args))
    seen = []
    run(objective, config, x1, observer=seen.append)
    second = sum(not (b.gamma_bar == b.gamma_max and 0.0 < b.alpha_k <= b.alpha_pre)
                 for b in (step["bundle"] for step in seen))
    assert len(calls) == len(seen) + second == 500


def test_estimate_constants_memory_does_not_grow_with_the_bootstrap(monkeypatch):
    """The bootstrap used to keep every iterate and its gradient, 2 * iters * n
    floats (about 22 MB more at 400 than at 50 iterations here); the streamed
    scan keeps O(n), so the traced peak stays within 4 * n floats."""
    n = 4000
    rng = np.random.default_rng(0)
    obj = quadratic_objective(rng.uniform(-0.5, 0.5, n), rng.uniform(0.5, 2.0, n))
    bounds, x1 = Bounds.cube(n, -1.0, 1.0), initial_point(n, 0)

    def traced_peak(iters):
        monkeypatch.setattr(harness, "BOOTSTRAP_ITERS", iters)
        tracemalloc.start()
        try:
            estimate_constants(obj, x1, bounds)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    short, long = traced_peak(50), traced_peak(400)
    assert long - short <= 4 * n * 8


@pytest.mark.parametrize("mode", ["deterministic", "stochastic"])
def test_estimate_constants_reuses_bootstrap_gradients(mode, monkeypatch):
    # one exact gradient per bootstrap iteration, plus the start point's in the
    # bootstrap setup and the final point's in the run's metrics
    calls = []

    class Counting(LogisticObjective):
        def gradient(self, x):
            calls.append(1)
            return super().gradient(x)

    A, y = synthetic_classification(40, 3, seed=1)
    obj = Counting(A, y)
    bounds = Bounds.cube(obj.n, -1.0, 1.0)
    iters = 50
    monkeypatch.setattr(harness, "BOOTSTRAP_ITERS", iters)
    estimate_constants(obj, initial_point(obj.n, 0), bounds, mode=mode, batch_fraction=0.1)
    assert len(calls) <= iters + 2


def _stochastic_entry(entry, fraction, obj):
    """Call one of the four entry points that build a stochastic oracle."""
    bounds, x1 = Bounds.cube(1, -1.0, 1.0), np.zeros(1)
    if entry == "sipm":
        config = harness._solver_config(ExperimentSpec(problems=()), np.zeros(1), x1, bounds,
                                        Constants(ell_f=1.0, kappa_inf=1.0), 5)
        run(obj, dataclasses.replace(config, mode="stochastic", batch_fraction=fraction), x1)
    elif entry == "psgm":
        run_psgm(obj, bounds, np.full(5, 0.1), x1, 5, mode="stochastic",
                 batch_fraction=fraction)
    elif entry == "proj-ipm":
        run_simplified(obj, bounds, np.full(5, 0.1), 1.0, 0.5, x1, 5,
                       mode="stochastic", batch_fraction=fraction)
    else:
        estimate_constants(obj, x1, bounds, mode="stochastic", batch_fraction=fraction)


@pytest.mark.parametrize("fraction", [0.0, 1.5, np.nan])
@pytest.mark.parametrize("entry", ["sipm", "psgm", "proj-ipm", "estimate"])
def test_bad_batch_fraction_is_a_typed_error_before_any_gradient(entry, fraction):
    """A batch fraction outside (0, 1] used to be a bare ValueError from the
    oracle, and estimate_constants raised it only after its whole bootstrap;
    every entry point now raises InvalidBudget before any gradient call."""
    calls = []
    obj = quadratic_objective([0.2], [1.0], noise_level=0.1, sample_count=20)
    obj.gradient = lambda x: calls.append(x) or np.zeros(1)
    obj.stochastic_gradient = lambda x, batch: calls.append(x) or np.zeros(1)
    with pytest.raises(InvalidBudget, match=r"batch_fraction=.* must lie in \(0, 1\]"):
        _stochastic_entry(entry, fraction, obj)
    assert calls == []


def test_sigma_estimate_bounds_enumerated_batches():
    # replaying the same 100 seeded batches never exceeds the noise estimate
    A, y = synthetic_classification(30, 4, seed=2)
    obj = logistic_objective((A, y))
    bounds = Bounds.cube(obj.n, -1.0, 1.0)
    x1 = initial_point(obj.n, 0)
    est = estimate_constants(obj, x1, bounds, mode="stochastic",
                             batch_fraction=0.1, seed=5)
    g_true = obj.gradient(x1)
    draws = batch_sampler(30, 3, [5, 2])
    observed = max(float(np.max(np.abs(obj.stochastic_gradient(x1, next(draws))
                                       - g_true)))
                   for _ in range(100))
    assert observed <= est.sigma_inf_bar + 1e-15
    assert est.sigma_inf_bar > 0.0


def test_estimate_sigma_zero_for_noiseless_oracle():
    obj = quadratic_objective([0.1], [1.0], noise_level=0.0, sample_count=30)
    bounds = Bounds.cube(1, -1.0, 1.0)
    est = estimate_constants(obj, initial_point(1, 0), bounds, mode="stochastic")
    assert est.sigma_inf_bar == 0.0


def test_constants_cache_roundtrip(tmp_path):
    obj = quadratic_objective([0.2], [1.3])
    bounds = Bounds.cube(1, -1.0, 1.0)
    est = estimate_constants(obj, initial_point(1, 0), bounds)
    path = tmp_path / "constants.json"
    save_constants(path, est)
    assert load_constants(path) == est


BAD_CACHE_FILES = {
    "truncated": '{"ell_f_bar": 1.0,\n',
    "missing-keys": '{"ell_f_bar": 1.0}',
    "extra-key": '{"ell_f_bar": 1.0, "kappa_inf_bar": 1.0, "sigma_inf_bar": 0.0, "x": 1}',
    "nan-and-negative": '{"ell_f_bar": NaN, "kappa_inf_bar": -1, "sigma_inf_bar": 0.0}',
    "infinite": '{"ell_f_bar": Infinity, "kappa_inf_bar": 1.0, "sigma_inf_bar": 0.0}',
    "not-a-number": '{"ell_f_bar": "1", "kappa_inf_bar": true, "sigma_inf_bar": 0.0}',
    "not-an-object": '[1.0, 1.0, 0.0]',
    "not-ascii": '{"ell_f_bar": 1.0 \u00e9}',
    # an integer that passes a finiteness check but overflows float()
    "too-large-for-a-float": '{"ell_f_bar": 1' + "0" * 400
                             + ', "kappa_inf_bar": 1, "sigma_inf_bar": 0}',
}


@pytest.mark.parametrize("case", sorted(BAD_CACHE_FILES))
def test_bad_cache_file_is_invalid_constants(case, tmp_path):
    """A cache file that is not one JSON object of three finite nonnegative
    numbers used to fail as JSONDecodeError, TypeError or OverflowError, or
    to reach the solvers; it is InvalidConstants naming the file."""
    path = tmp_path / "constants.json"
    path.write_text(BAD_CACHE_FILES[case], encoding="utf-8")
    with pytest.raises(InvalidConstants, match=re.escape(f"cached constants {path}: ")):
        load_constants(path)


@pytest.mark.parametrize("case", ["truncated", "nan-and-negative"])
def test_bad_cache_file_is_the_problems_one_error_row(case, tmp_path, monkeypatch):
    """The problem gets one error row and no cell runs, psgm included."""
    calls = count_cells(monkeypatch)
    spec = small_spec()
    (tmp_path / harness._cache_key(spec.problems[0], spec)).write_text(BAD_CACHE_FILES[case])
    report = run_experiment(spec, cache_dir=str(tmp_path))
    (entry,) = report["runs"]
    assert (entry["problem"], entry["solver"]) == ("toy", None)
    assert entry["error"].startswith("InvalidConstants: cached constants ")
    assert not any(calls.values()) and report["constants"] == {}
    assert report["comparisons"] == []


def test_interrupted_cache_write_keeps_the_old_file(tmp_path, monkeypatch):
    """save_constants moves a finished file into place, so a write that
    fails part way leaves the cache file as it was."""
    path = tmp_path / "constants.json"
    old = harness.EstimatedConstants(1.0, 2.0, 0.0)
    save_constants(path, old)

    def interrupted(obj, handle, **kwargs):
        handle.write('{"ell_f_bar": ')
        raise KeyboardInterrupt

    monkeypatch.setattr(harness.json, "dump", interrupted)
    with pytest.raises(KeyboardInterrupt):
        save_constants(path, harness.EstimatedConstants(3.0, 4.0, 0.0))
    assert load_constants(path) == old


def test_validate_spec():
    spec = ExperimentSpec(problems=(), mode="stochastic", epochs=1.0,
                          batch_fraction=0.01)
    assert validate_spec(spec) == 100
    spec = ExperimentSpec(problems=(), maxiter=250)
    assert validate_spec(spec) == 250
    with pytest.raises(ValueError):
        validate_spec(ExperimentSpec(problems=(), maxiter=None))


@pytest.mark.parametrize("name, value", [("mode", "stoch"), ("schedule", "powr"),
                                         ("param_mode", "theroy"), ("audit", "bogus"),
                                         ("audit", "full_trace")])
def test_unknown_choice_is_a_typed_error(name, value, monkeypatch):
    def no_build(problem, spec):
        raise AssertionError("a problem was built")

    monkeypatch.setattr(harness, "_build_problem", no_build)
    spec = small_spec(**{name: value})
    with pytest.raises(InvalidChoice, match=name):
        validate_spec(spec)
    with pytest.raises(InvalidChoice, match=repr(value)):
        run_experiment(spec)


@pytest.mark.parametrize("fault, error, match", [
    (dict(solvers=("sipm", "psmg")), InvalidChoice, "'psmg'"),
    (dict(solvers=("sipm", "psgm", "sipm")), InvalidSpec, "solvers"),
    (dict(seeds=()), InvalidSpec, "seed list is empty"),
    (dict(seeds=(0, 0)), InvalidSpec, "seeds"),
    (dict(problems=(ProblemSpec(name="p", model="quadratic", dim=3),
                    ProblemSpec(name="p", model="quadratic", dim=4))), InvalidSpec, "problems"),
    (dict(problems=(ProblemSpec(name="toy", model="quadrtic"),)), InvalidChoice, "'quadrtic'"),
    (dict(problems=(ProblemSpec(name="net", model="nn", hidden=0),)), InvalidSpec,
     "hidden=0"),
    (dict(problems=(ProblemSpec(name="lr", model="logistic", hidden=5),)), InvalidSpec,
     "'lr': hidden=5 is a network width, and a logistic model has no hidden layer"),
    (dict(problems=(ProblemSpec(name="toy", model="quadratic", hidden=5),)), InvalidSpec,
     "'toy': hidden=5 is a network width, and a quadratic model has no hidden layer"),
    (dict(bounds=(1.0, -1.0)), InvalidSpec, "lo < hi"),
    (dict(problems=(ProblemSpec(name="lr", model="logistic"),), bounds=(1.0, 1.0)),
     InvalidSpec, "lo < hi"),
    (dict(bounds=(np.nan, 1.0)), InvalidSpec, "neither NaN"),
    (dict(problems=(ProblemSpec(name="lr", model="logistic"),), bounds=(-np.inf, np.inf)),
     InvalidSpec, "at least one finite"),
    (dict(bounds=(-1.0, np.inf)), InvalidSpec, "'toy': a quadratic's center"),
    (dict(bounds=(-1.0,)), InvalidSpec, "must be two numbers"),
    (dict(bounds=("-1", 1.0)), InvalidSpec, "must be two numbers"),
    (dict(epochs=3.0, maxiter=7), InvalidBudget, "epochs=3.0 counts mini-batch passes"),
    (dict(mode="stochastic", epochs=float("nan")), InvalidBudget, "epochs=nan"),
    (dict(mode="stochastic", epochs=float("inf")), InvalidBudget, "epochs=inf"),
    (dict(mode="stochastic", epochs=1e307, batch_fraction=0.001), InvalidBudget,
     "epochs=1e\\+307 gives the iteration budget inf"),
    (dict(maxiter=float("inf")), InvalidBudget, "maxiter=inf must be an integer"),
    (dict(maxiter=2.7), InvalidBudget, "maxiter=2.7 must be an integer"),
    (dict(problems=(ProblemSpec(name="toy", model="quadratic", dim=0),)), InvalidSpec,
     "'toy': dim=0 must be at least 1"),
    (dict(problems=(ProblemSpec(name="lr", model="logistic", dim=0),)), InvalidSpec,
     "'lr': dim=0 must be at least 1"),
    (dict(problems=(ProblemSpec(name="lr", model="logistic", samples=0),)), InvalidSpec,
     "'lr': samples=0 must be at least 1"),
    (dict(problems=(ProblemSpec(name="toy", model="quadratic", samples=0),),
          mode="stochastic"), InvalidSpec, "'toy': samples=0 must be at least 1"),
    (dict(problems=(ProblemSpec(name="toy", model="quadratic", dim=2.5),)), InvalidSpec,
     "'toy': dim=2.5 must be an integer"),
    (dict(problems=(ProblemSpec(name="toy", model="quadratic", data_seed=-1),)),
     InvalidSpec, "'toy': data_seed=-1 must be at least 0"),
    (dict(seeds=(0, -1)), InvalidSpec, "seed=-1 must be at least 0"),
    (dict(mode="stochastic", seeds=(-1,)), InvalidSpec, "seed=-1 must be at least 0"),
    (dict(seeds=("0",)), InvalidSpec, "seed='0' must be an integer"),
    (dict(init_seed=-1), InvalidSpec, "init_seed=-1 must be at least 0"),
    (dict(problems=(ProblemSpec(name="toy", model="quadratic", train_path="t.libsvm"),)),
     InvalidSpec, "'toy': a quadratic reads no data file"),
    (dict(problems=(ProblemSpec(name="toy", model="quadratic", test_path="t.libsvm"),)),
     InvalidSpec, "'toy': a quadratic reads no data file"),
    (dict(problems=(ProblemSpec(name="lr", model="logistic", test_path="t.libsvm"),)),
     InvalidSpec, "'lr': test_path needs a train_path"),
    (dict(exponents=(np.nan, -1.0, 0.0)), InvalidSpec, "three finite real numbers"),
    (dict(exponents=(-1.0, -1.0)), InvalidSpec, "three finite real numbers"),
    (dict(exponents=-1.0), InvalidSpec, "three finite real numbers"),
    (dict(problems=(ProblemSpec(name="lr", model="logistic", train_path=0),)), InvalidSpec,
     "'lr': train_path=0 must be a string or None"),
    (dict(problems=(ProblemSpec(name="lr", model="logistic", train_path="a",
                                test_path=pathlib.Path("b")),)), InvalidSpec,
     r"'lr': test_path=\w*Path\('b'\) must be a string or None"),
    (dict(trace="no"), InvalidSpec, "trace='no' must be True or False"),
    (dict(mode="stochastic", epochs="1"), InvalidBudget, "epochs='1' must be a real number"),
    (dict(mode="stochastic", epochs=1.0, batch_fraction="0.1"), InvalidBudget,
     r"batch_fraction='0.1' must lie in \(0, 1\]"),
    (dict(problems=(ProblemSpec(name=["toy"], model="quadratic"),)), InvalidSpec,
     r"problem name \['toy'\] must be a string"),
    (dict(seeds=([0],)), InvalidSpec, r"seed=\[0\] must be an integer"),
    (dict(batch_fraction=7), InvalidBudget, r"batch_fraction=7 must lie in \(0, 1\]"),
    (dict(bounds=(0.0, 1.0)), InvalidSpec,
     r"bounds=\(0.0, 1.0\) must hold the start cube \[-0.01, 0.01\]\^n"),
    (dict(problems=(ProblemSpec(name="lr", model="logistic"),), bounds=(0.5, 2.0)),
     InvalidSpec, r"inside: lo < -0.01, hi > 0.01"),
    (dict(bounds=(-1.0, 0.01)), InvalidSpec, r"must hold the start cube"),
], ids=["unknown-solver", "repeated-solver", "no-seeds", "repeated-seed",
        "repeated-problem-name", "unknown-model", "hidden-0", "logistic-hidden",
        "quadratic-hidden", "bounds-reversed",
        "bounds-empty", "bounds-nan", "bounds-unbounded", "bounds-open-quadratic",
        "bounds-one-value", "bounds-string", "deterministic-epochs", "epochs-nan",
        "epochs-inf", "epochs-overflow", "maxiter-inf", "maxiter-float", "quadratic-dim-0",
        "logistic-dim-0", "logistic-samples-0", "stochastic-quadratic-samples-0",
        "dim-not-integer", "data-seed-negative", "seed-negative", "stochastic-seed-negative",
        "seed-not-integer", "init-seed-negative", "quadratic-train-path",
        "quadratic-test-path", "test-without-train", "exponents-nan", "exponents-two",
        "exponents-not-a-sequence", "train-path-descriptor", "test-path-not-a-string",
        "trace-string", "epochs-string", "batch-fraction-string",
        "problem-name-unhashable", "seed-unhashable", "deterministic-batch-fraction",
        "bounds-0-1", "bounds-above-the-start", "bounds-touching-the-start"])
def test_bad_solver_or_seed_list_fails_before_any_problem(fault, error, match,
                                                          monkeypatch):
    def no_build(problem, spec):
        raise AssertionError("a problem was built")

    monkeypatch.setattr(harness, "_build_problem", no_build)
    spec = small_spec(**fault)
    with pytest.raises(error, match=match):
        validate_spec(spec)
    with pytest.raises(error, match=match):
        run_experiment(spec)


@pytest.mark.parametrize("fault, error", [
    (dict(maxiter=True), InvalidBudget),
    (dict(seeds=(True,)), InvalidSpec),
    (dict(problems=(ProblemSpec(name="toy", model="quadratic", dim=True),)), InvalidSpec),
    (dict(batch_fraction=True), InvalidBudget),
    (dict(bounds=(False, 1.0)), InvalidSpec),
    (dict(exponents=(-1.0, -1.0, False)), InvalidSpec),
    (dict(mode="stochastic", epochs=True), InvalidBudget),
    (dict(problems=(ProblemSpec(name="lr", model="logistic", train_path=True),)),
     InvalidSpec),
    (dict(trace=1), InvalidSpec),
], ids=["maxiter", "seeds", "dim", "batch_fraction", "bounds", "exponents", "epochs",
        "train_path", "trace"])
def test_a_bool_is_not_a_number(fault, error, monkeypatch):
    """Python counts True as 1, so maxiter=True ran one iteration and kept
    "maxiter": true in the report, seeds=(True,) wrote "seed": true rows, and
    dim=True failed late as an untyped TypeError row.  Each numeric spec
    field now rejects a bool, as load_constants does, before any problem.
    train_path=True opened file descriptor 1; it and trace=1 are refused."""
    def no_build(problem, spec):
        raise AssertionError("a problem was built")

    monkeypatch.setattr(harness, "_build_problem", no_build)
    spec = small_spec(**fault)
    with pytest.raises(error, match="True|False"):
        validate_spec(spec)
    with pytest.raises(error, match="True|False"):
        run_experiment(spec)


def test_open_sided_logistic_bounds_are_valid():
    """A logistic problem has no drawn center, so an open upper side runs."""
    spec = small_spec(problems=(ProblemSpec(name="lr", model="logistic", samples=40),),
                      bounds=(-1.0, np.inf), maxiter=20, seeds=(0,))
    assert validate_spec(spec) == 20
    runs = run_experiment(spec)["runs"]
    assert len(runs) == 3 and not any("error" in entry for entry in runs)


def small_spec(**kwargs):
    problem = ProblemSpec(name="toy", model="quadratic", dim=3, data_seed=2)
    defaults = dict(problems=(problem,), solvers=("sipm", "psgm", "proj-ipm"),
                    maxiter=60, seeds=(0, 1))
    defaults.update(kwargs)
    return ExperimentSpec(**defaults)


def test_run_experiment_report_shape(tmp_path):
    report = run_experiment(small_spec(), cache_dir=str(tmp_path))
    assert set(report) == {"config", "constants", "runs", "comparisons", "timing"}
    assert len(report["runs"]) == 6
    for entry in report["runs"]:
        assert "error" not in entry
        assert entry["final_objective_train"] >= 0.0
        assert entry["projected_grad_norm"] >= 0.0
    assert report["constants"]["toy"]["sigma_inf_bar"] == 0.0
    # 2 baselines x 2 seeds x 2 metrics (no test split)
    assert len(report["comparisons"]) == 8
    for comp in report["comparisons"]:
        assert -1.0 <= comp["r_p"] <= 1.0


def test_report_regeneration_byte_identical():
    spec = small_spec()
    first = canonical_report_bytes(run_experiment(spec))
    second = canonical_report_bytes(run_experiment(spec))
    assert first == second
    # and the timing block really is excluded from the canonical bytes
    report = run_experiment(spec)
    report["timing"]["total_s"] = 123.0
    assert canonical_report_bytes(report) == first


def test_the_cache_changes_no_canonical_byte(tmp_path):
    """The cache directory is not part of the experiment: a report without
    one, on a cache miss and on a cache hit has the same canonical bytes."""
    spec = small_spec()
    cache = str(tmp_path / "cache")
    reports = [run_experiment(spec), run_experiment(spec, cache_dir=cache),
               run_experiment(spec, cache_dir=cache)]
    assert [r["timing"]["constants_cached::toy"] for r in reports] == [False, False, True]
    assert len({canonical_report_bytes(r) for r in reports}) == 1
    assert "cache_dir" not in reports[0]["config"]


def test_cache_dir_is_a_path_or_none(tmp_path, monkeypatch):
    """cache_dir=5 was a bare TypeError problem row, and a pathlib.Path ran
    every cell, then failed in report_to_json; a Path now works, and any
    other type is refused before any problem is built."""
    cache = tmp_path / "cache"
    first = run_experiment(small_spec(), cache_dir=cache)
    assert report_to_json(first) and len(list(cache.iterdir())) == 1
    assert run_experiment(small_spec(), cache_dir=cache)["timing"]["constants_cached::toy"]

    def no_build(problem, spec):
        raise AssertionError("a problem was built")

    monkeypatch.setattr(harness, "_build_problem", no_build)
    for bad in (5, b"cache"):
        with pytest.raises(InvalidSpec, match="cache_dir=.* must be a path or None"):
            run_experiment(small_spec(), cache_dir=bad)


def test_empty_solver_list():
    report = run_experiment(small_spec(solvers=()))
    assert report["runs"] == []
    assert report["comparisons"] == []


def count_tables(monkeypatch):
    """Record the budget of every parameter table built, by its one
    evaluation of the alpha buffer at k = 1."""
    budgets = []
    alpha = BufferSequences.alpha

    def counting(self, k):
        if k == 1:
            budgets.append(self.maxiter)
        return alpha(self, k)

    monkeypatch.setattr(BufferSequences, "alpha", counting)
    return budgets


def test_solverless_spec_sets_up_no_seed(monkeypatch):
    """An estimate (no solvers) builds no per-seed parameter table, whatever
    the budget and seed count: the bootstrap's is the only one."""
    budgets = count_tables(monkeypatch)
    report = run_experiment(small_spec(solvers=(), maxiter=200000, seeds=tuple(range(10))))
    assert budgets == [harness.BOOTSTRAP_ITERS] and report["runs"] == []
    assert "toy" in report["constants"]


@pytest.mark.parametrize("mode, seeds, tables", [("stochastic", (0, 1), 3),
                                                 ("deterministic", (0, 1, 2), 2)])
def test_each_computed_seed_builds_one_table(mode, seeds, tables, monkeypatch):
    """The bootstrap builds one table and each computed seed one more, which
    its sipm, psgm and proj-ipm cells all read."""
    budgets = count_tables(monkeypatch)
    report = run_experiment(small_spec(mode=mode, seeds=seeds))
    assert not any("error" in entry for entry in report["runs"])
    assert len(report["runs"]) == 3 * len(seeds)
    assert budgets == [harness.BOOTSTRAP_ITERS] + [60] * (tables - 1)


def test_psgm_anchors_regardless_of_solver_order():
    flipped = run_experiment(small_spec(solvers=("psgm", "sipm"), seeds=(0,)))
    normal = run_experiment(small_spec(solvers=("sipm", "psgm"), seeds=(0,)))
    pick = lambda rep: [r for r in rep["runs"] if r["solver"] == "psgm"][0]
    assert pick(flipped)["final_objective_train"] == pick(normal)["final_objective_train"]


def keep_psgm_steps(monkeypatch):
    """The step lists that run_experiment hands run_psgm, one per call."""
    steps = []
    original = harness.run_psgm

    def keep(objective, bounds, s, *args, **kwargs):
        steps.append(list(s))
        return original(objective, bounds, s, *args, **kwargs)

    monkeypatch.setattr(harness, "run_psgm", keep)
    return steps


def test_failed_sipm_run_fails_its_psgm_cell(monkeypatch):
    """psgm's steps are rescaled to the seed's sipm run.  When that run
    failed, psgm used to run on the raw shape s_k, in a row that looked like
    any other; its cell now carries the run's error.  proj-ipm still runs,
    with nothing to compare against."""
    steps = keep_psgm_steps(monkeypatch)
    report = run_experiment(small_spec(schedule="power", exponents=(-1.0, 0.5, 0.0),
                                       seeds=(0,)))
    sipm, psgm, proj = report["runs"]
    assert sipm["error"].startswith("InvalidExponents: exponents invalid")
    assert psgm == dict(sipm, solver="psgm")
    assert "error" not in proj and report["comparisons"] == []
    assert steps == []


def test_psgm_without_sipm_runs_on_the_raw_shape(monkeypatch):
    """A spec that lists no sipm has no run to rescale to: psgm takes s_k."""
    steps = keep_psgm_steps(monkeypatch)
    report = run_experiment(small_spec(solvers=("psgm", "proj-ipm"), seeds=(0,)))
    psgm, proj = report["runs"]
    assert "error" not in psgm and "error" not in proj and report["comparisons"] == []
    shape = build_staircase(psgm["mu1"], 60)
    assert steps == [[shape.s(k) for k in range(1, 61)]]


def test_failure_markers_keep_report():
    bad = ProblemSpec(name="missing", model="logistic", train_path="/no/such/file")
    report = run_experiment(small_spec(problems=(ProblemSpec(name="toy",
                                                             model="quadratic",
                                                             dim=2),
                                                 bad)))
    errors = [r for r in report["runs"] if "error" in r]
    good = [r for r in report["runs"] if "error" not in r]
    assert errors and good
    report_to_json(report)  # still serializable


def test_stochastic_experiment_and_csv():
    problem = ProblemSpec(name="synth", model="logistic", dim=4, samples=60,
                          data_seed=5)
    spec = ExperimentSpec(problems=(problem,), solvers=("sipm", "psgm"),
                          mode="stochastic", epochs=1.0, batch_fraction=0.05,
                          seeds=(0,), schedule="staircase", param_mode="practical")
    report = run_experiment(spec)
    assert report["config"]["resolved_maxiter"] == 20
    csv_text = report_to_csv(report)
    lines = csv_text.strip().splitlines()
    assert lines[0].startswith("problem,solver,seed")
    assert len(lines) == 1 + len(report["runs"])


TRACE_FIELDS = {"k", "mu_k", "theta_k", "alpha_k", "gamma_k", "ell_k", "q_norm",
                "phi_tilde", "stalled"}


def test_report_trace_matches_the_observed_steps(monkeypatch):
    """A traced experiment's sipm rows hold the nine scalar fields of each
    step, as a direct run at the same config observes them."""
    runs = []
    original = harness.run

    def keep(objective, config, x1, observer=None):
        runs.append((objective, config, x1))
        return original(objective, config, x1, observer)

    monkeypatch.setattr(harness, "run", keep)
    maxiter = 12
    report = run_experiment(small_spec(solvers=("sipm", "psgm"), maxiter=maxiter,
                                       seeds=(0,), trace=True))
    sipm_entry, psgm_entry = report["runs"]
    assert psgm_entry["solver"] == "psgm" and "trace" not in psgm_entry
    rows = sipm_entry["trace"]
    assert [row["k"] for row in rows] == list(range(1, maxiter + 1))
    assert all(set(row) == TRACE_FIELDS for row in rows)
    assert all(isinstance(row["phi_tilde"], float) and np.isfinite(row["phi_tilde"])
               for row in rows)

    objective, config, x1 = runs[-1]   # the cell run, after the bootstrap
    assert config.audit_level == "full_trace" and config.maxiter == maxiter
    seen = []
    run(objective, config, x1, observer=seen.append)
    chi = default_chi(config.bounds)
    for row, info in zip(rows, seen):
        bundle = info["bundle"]
        assert row == dict(
            k=info["k"], mu_k=info["mu_k"], theta_k=info["theta_k"],
            alpha_k=bundle.alpha_k, gamma_k=info["gamma_k"], ell_k=bundle.ell_k,
            q_norm=float(np.linalg.norm(info["q"])),
            phi_tilde=shifted_barrier_value(objective.value(info["x"]), info["x"],
                                            config.bounds, info["mu_k"], chi),
            stalled=info["gamma_k"] == 0.0 and bool(np.any(info["d"] != 0.0)))


def test_report_json_parses_back():
    report = run_experiment(small_spec(maxiter=20, seeds=(0,)))
    parsed = json.loads(report_to_json(report))
    assert parsed["config"]["resolved_maxiter"] == 20


def libsvm_pair_problem(tmp_path):
    """A logistic problem on a synthetic LIBSVM train/test pair in tmp_path."""
    A, y = synthetic_classification(40, 3, seed=8)
    rows = []
    for row, label in zip(A, y):
        items = " ".join(f"{j + 1}:{row[j]:.6f}" for j in range(3))
        rows.append(f"{int(label)} {items}")
    train_path = tmp_path / "train.libsvm"
    test_path = tmp_path / "test.libsvm"
    train_path.write_text("\n".join(rows[:30]) + "\n")
    test_path.write_text("\n".join(rows[30:]) + "\n")
    return ProblemSpec(name="file", model="logistic",
                       train_path=str(train_path), test_path=str(test_path))


def test_logistic_testsplit_metrics(tmp_path):
    # synthetic train/test files exercise the file path and aligned metrics
    report = run_experiment(ExperimentSpec(problems=(libsvm_pair_problem(tmp_path),),
                                           solvers=("sipm",), maxiter=40))
    entry = report["runs"][0]
    assert "final_objective_test" in entry
    assert entry["final_objective_test"] >= 0.0


def test_constants_cache_keyed_on_estimate_inputs(tmp_path):
    """A cached estimate is reused only for the same problem, box, mode and
    data: a spec sharing the name, model, mode and init seed misses."""
    cache = str(tmp_path / "cache")
    first = ProblemSpec(name="q", model="quadratic", dim=5, data_seed=0)
    other = ProblemSpec(name="q", model="quadratic", dim=8, data_seed=3)

    def constants(problem, bounds, cache_dir):
        report = run_experiment(ExperimentSpec(problems=(problem,), solvers=(), bounds=bounds),
                                cache_dir=cache_dir)
        return report["constants"]["q"], report["timing"]["constants_cached::q"]

    fresh, _ = constants(other, (-3.0, 3.0), None)
    assert constants(first, (-1.0, 1.0), cache) == (constants(first, (-1.0, 1.0), None)[0],
                                                    False)
    assert constants(other, (-3.0, 3.0), cache) == (fresh, False)
    assert constants(other, (-3.0, 3.0), cache) == (fresh, True)

    # the same path with other bytes is other data
    A, y = synthetic_classification(30, 3, seed=8)
    data = tmp_path / "train.libsvm"

    def write(scale):
        data.write_text("".join(f"{int(label)} " + " ".join(
            f"{j + 1}:{scale * row[j]:.6f}" for j in range(3)) + "\n"
            for row, label in zip(A, y)))

    from_file = ProblemSpec(name="q", model="logistic", train_path=str(data))
    write(1.0)
    assert constants(from_file, (-1.0, 1.0), cache)[1] is False
    assert constants(from_file, (-1.0, 1.0), cache)[1] is True
    write(2.0)
    assert constants(from_file, (-1.0, 1.0), cache)[1] is False


@pytest.mark.parametrize("size", [0, 1, 6, 7, 100, 1000])
def test_cache_key_hashes_a_data_file_in_blocks_as_one_read(size, tmp_path, monkeypatch):
    """Hashing in blocks gives the digest of the whole file read at once
    (``read(-1)``), so cache files written before the change still hit."""
    data = tmp_path / "train.libsvm"
    data.write_bytes(np.random.default_rng(size).bytes(size))
    problem = ProblemSpec(name="q", model="logistic", train_path=str(data))
    spec = ExperimentSpec(problems=(problem,))

    def key(block):
        monkeypatch.setattr(harness, "HASH_BLOCK", block)
        return harness._cache_key(problem, spec)

    whole = key(-1)
    assert key(7) == whole and key(1) == whole and key(1 << 18) == whole


def test_cache_key_memory_does_not_grow_with_the_data_file(tmp_path):
    """An 8 MB data file used to be read into one bytes object; the key now
    reads HASH_BLOCK bytes at a time."""
    data = tmp_path / "train.libsvm"
    data.write_bytes(bytes(8 << 20))
    problem = ProblemSpec(name="q", model="logistic", train_path=str(data))
    spec = ExperimentSpec(problems=(problem,))
    tracemalloc.start()
    try:
        harness._cache_key(problem, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_failed_estimate_is_recorded_per_problem(tmp_path):
    # the 3-d problem's cached constants are a truncated file, so it has no
    # constants; the 1-d problem still runs
    problems = (ProblemSpec(name="bad", model="quadratic", dim=3),
                ProblemSpec(name="good", model="quadratic", dim=1))
    spec = ExperimentSpec(problems=problems, solvers=("sipm", "psgm"), maxiter=50,
                          init_seed=4)
    (tmp_path / harness._cache_key(problems[0], spec)).write_text(BAD_CACHE_FILES["truncated"])
    report = run_experiment(spec, cache_dir=str(tmp_path))
    bad, *good = report["runs"]
    assert bad["problem"] == "bad" and bad["solver"] is None
    assert bad["error"].startswith("InvalidConstants: cached constants ")
    assert [(r["problem"], r["solver"]) for r in good] == [("good", "sipm"),
                                                           ("good", "psgm")]
    assert not any("error" in r for r in good)
    assert list(report["constants"]) == ["good"]
    assert report["comparisons"]


def test_failed_schedule_is_recorded_per_cell():
    # mu_k = mu1 * k**1000 overflows a float at k = 3, in the seed's set-up
    report = run_experiment(small_spec(schedule="power", exponents=(1000.0, 1000.0, 0.0),
                                       solvers=("sipm", "psgm")))
    assert [(r["solver"], r["seed"]) for r in report["runs"]] == [
        ("sipm", 0), ("psgm", 0), ("sipm", 1), ("psgm", 1)]
    assert all(r["error"].startswith("InvalidExponents") for r in report["runs"])
    assert "toy" in report["constants"]


def test_untraced_full_audit_runs_as_invariants(monkeypatch):
    """Without trace, audit="full" runs at audit_level "invariants": it keeps
    no rows, so it makes no per-iteration value calls and writes the same
    runs as audit="off".  "invariants" is no second spec name for it."""
    value = QuadraticObjective.value
    counts = {}

    def counting(self, x):
        counts[cell] += 1
        return value(self, x)

    monkeypatch.setattr(QuadraticObjective, "value", counting)
    runs = {}
    for cell in (("off", False), ("full", False), ("full", True)):
        counts[cell] = 0
        audit, trace = cell
        report = run_experiment(small_spec(solvers=("sipm",), seeds=(0,), maxiter=300,
                                           mode="stochastic", audit=audit, trace=trace))
        runs[cell] = [{k: v for k, v in entry.items() if k != "trace"}
                                for entry in report["runs"]]
        if not trace:
            assert "trace" not in report["runs"][0]
    assert counts["full", False] == counts["off", False] < 10
    assert counts["full", True] > 300   # a traced run fills phi_tilde per row
    assert runs["full", False] == runs["off", False] == runs["full", True]
    assert not any("error" in entry for entry in runs["full", False])
    assert harness.SPEC_AUDIT == {"off": "off", "full": "invariants"}
    with pytest.raises(InvalidChoice, match="'invariants'"):
        validate_spec(small_spec(audit="invariants"))


def test_theory_buffers_reach_the_sipm_run(monkeypatch):
    """param_mode="theory" hands buffer bases of 1 and the spec's t_mu to run()."""
    configs = []
    original = harness.run

    def keep(objective, config, x1, observer=None):
        configs.append(config)
        return original(objective, config, x1, observer)

    monkeypatch.setattr(harness, "run", keep)
    report = run_experiment(small_spec(schedule="power", param_mode="theory",
                                       exponents=(-0.5, -0.5, -0.25), seeds=(0,)))
    assert not any("error" in entry for entry in report["runs"])
    assert len(report["comparisons"]) == 4
    buffers = configs[-1].buffers   # the cell run, after the bootstrap
    assert (buffers.mode, buffers.alpha_buff_base, buffers.gamma_buff_base,
            buffers.t_mu) == ("theory", 1.0, 1.0, -0.5)


@pytest.mark.parametrize("overrides", [
    dict(),
    dict(mode="stochastic", schedule="power", param_mode="theory",
         exponents=(-0.75, -0.75, -0.2), batch_fraction=0.1,
         seeds=(0, 3), audit="full")], ids=["staircase-practical-det", "power-theory-stoch"])
def test_every_run_config_comes_from_one_recipe(overrides, monkeypatch):
    """run() gets the bootstrap's config first, then one config per computed
    seed; each cell's entry reads its mu1, theta0 and budget from that config."""
    configs = []
    original = harness.run

    def keep(objective, config, x1, observer=None):
        configs.append(config)
        return original(objective, config, x1, observer)

    monkeypatch.setattr(harness, "run", keep)
    spec = small_spec(**overrides)
    report = run_experiment(spec)
    assert not any("error" in entry for entry in report["runs"])

    bootstrap, cells = configs[0], configs[1:]
    assert (bootstrap.mode, bootstrap.buffers.mode, bootstrap.constants, bootstrap.maxiter,
            bootstrap.rng_seed, bootstrap.audit_level) == (
        "deterministic", "practical", harness.BOOTSTRAP_CONSTANTS, harness.BOOTSTRAP_ITERS,
        0, "off")
    assert isinstance(bootstrap.schedule, StaircaseSchedule)
    assert report["constants"]["toy"]["bootstrap"]["placeholder_constants"] == 1.0

    computed = spec.seeds if spec.mode == "stochastic" else spec.seeds[:1]
    assert [config.rng_seed for config in cells] == list(computed)
    maxiter = validate_spec(spec)
    estimated = report["constants"]["toy"]
    for config in cells:
        entries = [e for e in report["runs"] if e["seed"] == config.rng_seed]
        assert [e["solver"] for e in entries] == ["sipm", "psgm", "proj-ipm"]
        for entry in entries:
            assert (entry["mu1"], entry["theta0"], entry["maxiter"]) == (
                config.schedule.mu1, config.schedule.theta0, config.maxiter)
        assert (config.mode, config.maxiter, config.batch_fraction, config.audit_level) == (
            spec.mode, maxiter, spec.batch_fraction, "invariants" if spec.audit == "full"
            else "off")
        assert config.constants == Constants(
            estimated["ell_f_bar"], estimated["kappa_inf_bar"],
            estimated["sigma_inf_bar"] if spec.mode == "stochastic" else 0.0)
        if spec.schedule == "staircase":
            assert isinstance(config.schedule, StaircaseSchedule)
            assert config.buffers == BufferSequences(mode="practical", maxiter=maxiter)
        else:
            assert config.schedule.exponents == ExponentTriple(*spec.exponents)
            assert config.buffers == BufferSequences(
                mode="theory", alpha_buff_base=1.0, gamma_buff_base=1.0, t_mu=-0.75)


def count_cells(monkeypatch):
    """Count the solver runs of experiment cells: run() outside the constant
    bootstrap, run_psgm and run_simplified."""
    calls = collections.Counter()
    original_run = harness.run

    def run_cell(objective, config, x1, observer=None):
        calls["run"] += config.maxiter != harness.BOOTSTRAP_ITERS
        return original_run(objective, config, x1, observer)

    monkeypatch.setattr(harness, "run", run_cell)
    for name in ("run_psgm", "run_simplified"):
        def counted(*args, _name=name, _original=getattr(harness, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(harness, name, counted)
    return calls


@pytest.mark.parametrize("mode, runs_per_solver, copied", [
    ("deterministic", 1, [1, 2]), ("stochastic", 3, None)])
def test_deterministic_cells_run_once_for_every_seed(mode, runs_per_solver, copied,
                                                     monkeypatch):
    """Exact gradients give every seed the same rows, so each solver runs once
    for a three-seed deterministic spec; a stochastic spec runs each seed."""
    calls = count_cells(monkeypatch)
    report = run_experiment(small_spec(mode=mode, seeds=(0, 1, 2)))
    assert calls == {"run": runs_per_solver, "run_psgm": runs_per_solver,
                     "run_simplified": runs_per_solver}
    assert [(r["solver"], r["seed"]) for r in report["runs"]] == [
        (solver, seed) for seed in (0, 1, 2) for solver in ("sipm", "psgm", "proj-ipm")]
    assert not any("error" in r for r in report["runs"])
    assert report["timing"].get("copied_seeds::toy") == copied


COPY_CASES = {
    "quadratic-trace-audit": lambda tmp_path: small_spec(trace=True, audit="full"),
    "logistic-libsvm-pair": lambda tmp_path: small_spec(
        problems=(libsvm_pair_problem(tmp_path),), maxiter=40),
    # t_theta != t_mu: the sipm cell is an error row, and so is psgm, whose steps
    # are a function of it; proj-ipm runs
    "inadmissible-power": lambda tmp_path: small_spec(schedule="power",
                                                      exponents=(-1.0, 0.5, 0.0)),
    # an overflowing power fails the seed's set-up, before any cell
    "failed-set-up": lambda tmp_path: small_spec(schedule="power",
                                                 exponents=(1000.0, 1000.0, 0.0)),
}


@pytest.mark.parametrize("case", sorted(COPY_CASES))
def test_deterministic_seeds_copy_the_single_seed_reports(case, tmp_path):
    """A deterministic multi-seed report holds the rows that each seed's own
    single-seed report holds, errors included; only the first seed's cells
    run, and the timing block names the seeds that got copies."""
    spec = dataclasses.replace(COPY_CASES[case](tmp_path), seeds=(0, 4, 2))
    report = run_experiment(spec)
    singles = [run_experiment(dataclasses.replace(spec, seeds=(seed,)))
               for seed in spec.seeds]
    for block in ("runs", "comparisons"):
        assert report[block] == [row for single in singles for row in single[block]]
        assert report[block] == [dict(row, seed=seed) for seed in spec.seeds
                                 for row in singles[0][block]]

    name = spec.problems[0].name
    ran = {int(cell.rsplit("::", 1)[1]) for cell in report["timing"]["cells"]}
    copied = report["timing"][f"copied_seeds::{name}"]
    assert copied == [4, 2]
    assert ran == {0} and sorted(ran | set(copied)) == sorted(spec.seeds)
    if case == "failed-set-up":   # no cell got as far as its solver
        assert all("error" in r for r in report["runs"])
    if case == "inadmissible-power":
        assert [("error" in r) for r in report["runs"]] == [True, True, False] * 3
    if case == "quadratic-trace-audit":
        assert all(len(r["trace"]) == 60 for r in report["runs"] if r["solver"] == "sipm")
