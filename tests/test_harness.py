import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sipm import (Bounds, ExperimentSpec, LogisticObjective, ProblemSpec,
                  batch_sampler, canonical_report_bytes, estimate_constants,
                  initial_point, load_constants, logistic_objective, quadratic_objective,
                  relative_performance, report_to_csv, report_to_json,
                  run_experiment, save_constants, synthetic_classification)
from sipm import harness
from sipm.errors import InvalidChoice
from sipm.harness import resolve_maxiter


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


def test_estimate_constants_oracle_recomputation():
    obj = quadratic_objective([0.2, -0.3], [1.5, 0.7])
    bounds = Bounds.cube(2, -1.0, 1.0)
    x1 = initial_point(2, 1)
    est = estimate_constants(obj, x1, bounds)
    assert est.ell_f_bar <= 1.5 + 1e-12

    # independent replay of the bootstrap via the public solver
    from sipm.harness import _bootstrap_config
    from sipm import run
    visited = []
    run(obj, _bootstrap_config(obj, x1, bounds, 500), x1,
        observer=lambda info: visited.append(info["x"]))
    grads = [obj.gradient(x) for x in visited]
    kappa = max(float(np.max(np.abs(g))) for g in grads)
    ell = 0.0
    for (xp, gp), (xn, gn) in zip(zip(visited, grads), zip(visited[1:], grads[1:])):
        move = float(np.linalg.norm(xn - xp))
        if move > 1e-14:
            ell = max(ell, float(np.linalg.norm(gn - gp)) / move)
    assert abs(est.kappa_inf_bar - kappa) <= 1e-12
    assert abs(est.ell_f_bar - ell) <= 1e-12


@pytest.mark.parametrize("mode", ["deterministic", "stochastic"])
def test_estimate_constants_reuses_bootstrap_gradients(mode):
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
    estimate_constants(obj, initial_point(obj.n, 0), bounds, mode=mode,
                       batch_fraction=0.1, bootstrap_iters=iters)
    assert len(calls) <= iters + 2


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


def test_resolve_maxiter():
    spec = ExperimentSpec(problems=(), mode="stochastic", epochs=1.0,
                          batch_fraction=0.01)
    assert resolve_maxiter(spec) == 100
    spec = ExperimentSpec(problems=(), maxiter=250)
    assert resolve_maxiter(spec) == 250
    with pytest.raises(ValueError):
        resolve_maxiter(ExperimentSpec(problems=(), maxiter=None))


@pytest.mark.parametrize("name, value", [("mode", "stoch"), ("schedule", "powr"),
                                         ("param_mode", "theroy"), ("audit", "bogus")])
def test_unknown_choice_is_a_typed_error(name, value, monkeypatch):
    def no_build(problem, spec):
        raise AssertionError("a problem was built")

    monkeypatch.setattr(harness, "_build_problem", no_build)
    spec = small_spec(**{name: value})
    with pytest.raises(InvalidChoice, match=name):
        resolve_maxiter(spec)
    with pytest.raises(InvalidChoice, match=repr(value)):
        run_experiment(spec)


def small_spec(tmp_path=None, **kwargs):
    problem = ProblemSpec(name="toy", model="quadratic", dim=3, data_seed=2)
    defaults = dict(problems=(problem,), solvers=("sipm", "psgm", "proj-ipm"),
                    maxiter=60, seeds=(0, 1),
                    cache_dir=str(tmp_path) if tmp_path else None)
    defaults.update(kwargs)
    return ExperimentSpec(**defaults)


def test_run_experiment_report_shape(tmp_path):
    report = run_experiment(small_spec(tmp_path))
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


def test_report_regeneration_byte_identical(tmp_path):
    spec = small_spec(tmp_path)
    first = canonical_report_bytes(run_experiment(spec))
    second = canonical_report_bytes(run_experiment(spec))
    assert first == second
    # and the timing block really is excluded from the canonical bytes
    report = run_experiment(spec)
    report["timing"]["total_s"] = 123.0
    assert canonical_report_bytes(report) == first


def test_empty_solver_list():
    report = run_experiment(small_spec(solvers=()))
    assert report["runs"] == []
    assert report["comparisons"] == []


def test_psgm_anchors_regardless_of_solver_order():
    flipped = run_experiment(small_spec(solvers=("psgm", "sipm"), seeds=(0,)))
    normal = run_experiment(small_spec(solvers=("sipm", "psgm"), seeds=(0,)))
    pick = lambda rep: [r for r in rep["runs"] if r["solver"] == "psgm"][0]
    assert pick(flipped)["final_objective_train"] == pick(normal)["final_objective_train"]


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


def test_report_json_parses_back():
    report = run_experiment(small_spec(maxiter=20, seeds=(0,)))
    parsed = json.loads(report_to_json(report))
    assert parsed["config"]["resolved_maxiter"] == 20


def test_logistic_testsplit_metrics(tmp_path):
    # synthetic train/test files exercise the file path and aligned metrics
    A, y = synthetic_classification(40, 3, seed=8)
    rows = []
    for row, label in zip(A, y):
        items = " ".join(f"{j + 1}:{row[j]:.6f}" for j in range(3))
        rows.append(f"{int(label)} {items}")
    train_path = tmp_path / "train.libsvm"
    test_path = tmp_path / "test.libsvm"
    train_path.write_text("\n".join(rows[:30]) + "\n")
    test_path.write_text("\n".join(rows[30:]) + "\n")
    problem = ProblemSpec(name="file", model="logistic",
                          train_path=str(train_path), test_path=str(test_path))
    report = run_experiment(ExperimentSpec(problems=(problem,),
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
        report = run_experiment(ExperimentSpec(problems=(problem,), solvers=(),
                                               bounds=bounds, cache_dir=cache_dir))
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


def test_failed_estimate_is_recorded_per_problem():
    # on the box [0.005, 1] the start of the 3-d problem has a nonpositive
    # slack, so its constants cannot be estimated; the 1-d problem still runs
    problems = (ProblemSpec(name="bad", model="quadratic", dim=3),
                ProblemSpec(name="good", model="quadratic", dim=1))
    report = run_experiment(ExperimentSpec(problems=problems, solvers=("sipm", "psgm"),
                                           bounds=(0.005, 1.0), maxiter=50, init_seed=4))
    bad, *good = report["runs"]
    assert bad["problem"] == "bad" and bad["solver"] is None
    assert bad["error"].startswith("NotInterior")
    assert [(r["problem"], r["solver"]) for r in good] == [("good", "sipm"),
                                                           ("good", "psgm")]
    assert not any("error" in r for r in good)
    assert list(report["constants"]) == ["good"]
    assert report["comparisons"]


def test_failed_schedule_is_recorded_per_cell():
    report = run_experiment(small_spec(schedule="power", exponents=(-1.0, -1.0),
                                       solvers=("sipm", "psgm")))
    assert [(r["solver"], r["seed"]) for r in report["runs"]] == [
        ("sipm", 0), ("psgm", 0), ("sipm", 1), ("psgm", 1)]
    assert all(r["error"].startswith("TypeError") for r in report["runs"])
    assert "toy" in report["constants"]
