"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import time
from contextlib import contextmanager
from itertools import combinations

import numpy as np
import pytest

from sipm import (Bounds, BufferSequences, Constants, ExperimentSpec,
                  ExponentTriple, PowerSchedule, ProblemSpec, SolverConfig,
                  build_staircase, c_constant, canonical_report_bytes,
                  default_chi, estimate_constants, in_neighborhood,
                  initial_point, logistic_dimension,
                  logistic_objective, mu1_init, nn_dimension, nn_objective,
                  parse_libsvm, projected_gradient_norm, quadratic_objective,
                  range_gap, ratio_test, recurrence_ratio, run, run_experiment,
                  run_simplified, serialize_libsvm, shifted_barrier_value,
                  synthetic_classification, theta0_init, validate_exponents)
from sipm.errors import MalformedLine

from test_stepsize import bisect_gamma, random_instance


@contextmanager
def criterion(number, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {number:2d}] FAIL: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"[criterion {number:2d}] PASS: {description} ({elapsed:.2f}s)")


def rel_le(lhs, rhs, tol):
    return lhs <= rhs + tol * (1.0 + abs(rhs))


def segment_lipschitz(mu, x, xbar, bounds, ell_f):
    """Lipschitz constant of the barrier gradient on the segment [x, xbar]:
    ell_f + mu/a + mu/b, where a is the smallest (x_i - l_i) * min(x_i - l_i,
    xbar_i - l_i) over finite lower sides and b the same over finite upper
    sides (mu/inf = 0 when a side has no finite bound)."""
    def side(s_x, s_b, finite):
        if not finite.any():
            return np.inf
        return np.min(s_x[finite] * np.minimum(s_x[finite], s_b[finite]))

    a = side(x - bounds.lower, xbar - bounds.lower, bounds.finite_lower)
    b = side(bounds.upper - x, bounds.upper - xbar, bounds.finite_upper)
    return ell_f + mu / a + mu / b


def test_criterion_1_model_sizes():
    with criterion(1, "model-size formulas match the published dimensions"):
        assert logistic_dimension(123) == 124
        assert nn_dimension(123) == 7751
        assert nn_dimension(2) == 9


QUAD_CENTER = np.array([0.3, -0.2, 0.5, 0.0, -0.45])
QUAD_CURVATURE = np.array([1.0, 2.0, 0.5, 1.5, 1.0])


@pytest.fixture(scope="module")
def deterministic_quadratic_run():
    objective = quadratic_objective(QUAD_CENTER, QUAD_CURVATURE)
    bounds = Bounds.cube(5, -1.0, 1.0)
    x1 = initial_point(5, 0)
    estimated = estimate_constants(objective, x1, bounds)
    constants = Constants(ell_f=estimated.ell_f_bar, kappa_inf=estimated.kappa_inf_bar)
    delta = range_gap(bounds, 100.0)
    mu1 = mu1_init(objective.gradient(x1), x1, bounds)
    theta0 = theta0_init(x1, bounds, estimated.kappa_inf_bar, 0.0, mu1, delta)
    schedule = build_staircase(mu1, 2000, theta0=theta0)
    config = SolverConfig(mode="deterministic", bounds=bounds, schedule=schedule,
                          buffers=BufferSequences(mode="practical", maxiter=2000),
                          constants=constants, maxiter=2000, audit_level="invariants")
    trace = []
    result = run(objective, config, x1, observer=trace.append)
    return dict(objective=objective, bounds=bounds, config=config, result=result,
                trace=trace, delta=delta)


def test_criterion_2_deterministic_convergence(deterministic_quadratic_run):
    with criterion(2, "deterministic staircase run reaches the analytic minimizer"):
        result = deterministic_quadratic_run["result"]
        assert result.final_projected_grad_norm <= 1e-4
        assert np.max(np.abs(result.final_x - QUAD_CENTER)) <= 1e-3
        # the best barrier-gradient norm seen keeps shrinking toward zero
        q_norms = [float(np.linalg.norm(info["q"]))
                   for info in deterministic_quadratic_run["trace"]]
        assert min(q_norms) <= 1e-3


def test_criterion_3_per_iteration_audit(deterministic_quadratic_run):
    with criterion(3, "every iteration satisfies the decrease/step contracts"):
        data = deterministic_quadratic_run
        objective, bounds, config = data["objective"], data["bounds"], data["config"]
        schedule = config.schedule
        ell_f = config.constants.ell_f
        chi = default_chi(bounds)
        violations = 0
        for info in data["trace"]:
            k, x, x_next = info["k"], info["x"], info["x_next"]
            bundle, gamma_k = info["bundle"], info["gamma_k"]
            mu_k, theta_k = info["mu_k"], info["theta_k"]
            # (a) next iterate inside the theta_k neighborhood
            if not in_neighborhood(x_next, bounds, theta_k):
                violations += 1
            # (b) barrier decrease with 1e-10 relative slack
            mu_next = schedule.mu(k + 1) if k < config.maxiter else mu_k
            phi_k = shifted_barrier_value(objective.value(x), x, bounds, mu_k, chi)
            phi_next = shifted_barrier_value(objective.value(x_next), x_next, bounds,
                                             mu_next, chi)
            q, h = info["q"], info["h_diag"]
            decrease = 0.5 * gamma_k * bundle.alpha_k * float(np.sum(q * q / h))
            if phi_next - phi_k > -decrease + 1e-10 * (1.0 + abs(phi_k)):
                violations += 1
            # (c) Lipschitz chain within 1e-12 relative
            ell_pair = segment_lipschitz(mu_k, x, x_next, bounds, ell_f)
            ell_cap = ell_f + 2.0 * mu_k / theta_k ** 2
            if not (rel_le(ell_pair, bundle.ell_k, 1e-12)
                    and rel_le(bundle.ell_k, ell_cap, 1e-12)):
                violations += 1
            # (d) step size and step fraction inside their prescribed intervals
            if not (rel_le(bundle.alpha_min, bundle.alpha_k, 1e-12)
                    and rel_le(bundle.alpha_k, bundle.alpha_max, 1e-12)):
                violations += 1
            if not (rel_le(bundle.gamma_min, gamma_k, 1e-12)
                    and rel_le(gamma_k, bundle.gamma_max, 1e-12)):
                violations += 1
        assert len(data["trace"]) == 2000
        assert violations == 0


def test_criterion_4_gamma_oracle_equivalence():
    with criterion(4, "closed-form ratio test matches the bisection oracle"):
        rng = np.random.default_rng(1234)
        for _ in range(1000):
            x, d, scale, bounds, theta, gamma_max = random_instance(rng)
            got = ratio_test(x, d, scale, bounds, theta, gamma_max)
            want = bisect_gamma(x, d, scale, bounds, theta, gamma_max)
            assert abs(got - want) <= 1e-12


def test_criterion_5_gradient_correctness():
    with criterion(5, "analytic gradients match central finite differences"):
        A, y = synthetic_classification(50, 8, seed=42)
        rng = np.random.default_rng(7)
        for make, tag in ((logistic_objective, "logistic"),
                          (lambda d: nn_objective(d), "nn")):
            objective = make((A, y))
            for _ in range(20):
                x = rng.uniform(-0.9, 0.9, size=objective.n)
                analytic = objective.gradient(x)
                fd = np.empty_like(x)
                h = 1e-6
                for i in range(x.size):
                    e = np.zeros_like(x)
                    e[i] = h
                    fd[i] = (objective.value(x + e) - objective.value(x - e)) / (2 * h)
                err = np.linalg.norm(analytic - fd) / max(np.linalg.norm(analytic), 1e-12)
                assert err <= 1e-5, f"{tag}: relative error {err}"


def test_criterion_6_unbiasedness():
    with criterion(6, "batch enumeration mean equals the full gradient"):
        A, y = synthetic_classification(10, 4, seed=11)
        rng = np.random.default_rng(13)
        for make in (logistic_objective, lambda d: nn_objective(d, hidden=3)):
            objective = make((A, y))
            x = rng.uniform(-0.5, 0.5, size=objective.n)
            batches = list(combinations(range(10), 3))
            assert len(batches) == 120
            mean = np.zeros(objective.n)
            for batch in batches:
                mean += objective.stochastic_gradient(x, np.array(batch))
            mean /= len(batches)
            assert np.max(np.abs(mean - objective.gradient(x))) <= 1e-12


def test_criterion_7_stochastic_progress():
    with criterion(7, "stochastic theory-mode runs cut the stationarity measure 10x"):
        A, y = synthetic_classification(200, 5, seed=3)
        objective = logistic_objective((A, y))
        bounds = Bounds.cube(objective.n, -1.0, 1.0)
        x1 = initial_point(objective.n, 0)
        estimated = estimate_constants(objective, x1, bounds, mode="stochastic",
                                       batch_fraction=0.01, seed=0)
        delta = range_gap(bounds, 100.0)
        mu1 = mu1_init(objective.gradient(x1), x1, bounds)
        theta0 = theta0_init(x1, bounds, estimated.kappa_inf_bar,
                             estimated.sigma_inf_bar, mu1, delta)
        exponents = ExponentTriple(-0.75, -0.75, -0.25)
        assert validate_exponents(exponents, "stochastic") == []
        schedule = PowerSchedule(mu1=mu1, theta0=theta0, exponents=exponents)
        constants = Constants(ell_f=estimated.ell_f_bar,
                              kappa_inf=estimated.kappa_inf_bar,
                              sigma_inf=estimated.sigma_inf_bar)
        maxiter = 2000
        buffers = BufferSequences(mode="theory", alpha_buff_base=maxiter ** 1.5,
                                  gamma_buff_base=maxiter ** 0.75, t_mu=-0.75)
        pgn_start = projected_gradient_norm(x1, objective.gradient(x1), bounds)
        finals = []
        contained = True
        for seed in range(10):
            config = SolverConfig(mode="stochastic", bounds=bounds,
                                  schedule=schedule, buffers=buffers,
                                  constants=constants, maxiter=maxiter,
                                  rng_seed=seed, batch_fraction=0.01,
                                  audit_level="invariants")
            checks = []

            def watch(info, checks=checks):
                checks.append(in_neighborhood(info["x_next"], bounds,
                                              info["theta_k"]))

            result = run(objective, config, x1, observer=watch)
            contained &= all(checks)
            finals.append(result.final_projected_grad_norm)
        assert contained
        assert np.median(finals) <= 0.1 * pgn_start


def test_criterion_8_exponent_region_gate():
    with criterion(8, "exponent gate matches the admissible regions"):
        assert validate_exponents(ExponentTriple(-1.0, -1.0, 0.0),
                                  "deterministic") == []
        assert validate_exponents(ExponentTriple(-0.75, -0.75, -0.25),
                                  "stochastic") == []
        assert validate_exponents(ExponentTriple(-1.0, -1.0, 0.0), "stochastic") != []
        assert validate_exponents(ExponentTriple(-0.5, -0.5, -0.25),
                                  "stochastic") != []


def test_criterion_9_simplified_variant():
    with criterion(9, "recurrence ratio hits its limit; projection variant lags"):
        ks = np.arange(1, 100001)
        c, psi, ell_f, C = 0.5, 1.0, 1.0, 2.0
        ratios = recurrence_ratio(1.0 / ks, c, psi, ell_f, C)
        limit = 4.0 * C / (c ** 2 * psi)
        assert abs(ratios[-1] - limit) / limit <= 0.05

        objective = quadratic_objective([0.5], [1.0])
        bounds = Bounds.cube(1, -1.0, 1.0)
        x1 = np.zeros(1)
        maxiter, mu1, kappa = 1000, 0.1, 1.5
        theta0 = theta0_init(x1, bounds, kappa, 0.0, mu1, 2.0)
        schedule = build_staircase(mu1, maxiter, theta0=theta0)
        config = SolverConfig(mode="deterministic", bounds=bounds, schedule=schedule,
                              buffers=BufferSequences(mode="practical",
                                                      maxiter=maxiter),
                              constants=Constants(ell_f=1.0, kappa_inf=kappa),
                              maxiter=maxiter, audit_level="invariants")
        dist_ipm = abs(run(objective, config, x1).final_x[0] - 0.5)
        link = c_constant(bounds, kappa, mu1)
        mu_seq = mu1 / np.arange(1.0, maxiter + 1)
        dist_simplified = abs(run_simplified(objective, bounds, mu_seq, 1.0, link,
                                             x1, maxiter).final_x[0] - 0.5)
        assert dist_ipm < dist_simplified


def test_criterion_10_reproducibility_and_format(tmp_path):
    with criterion(10, "byte-identical reports; parser round-trip and rejections"):
        problem = ProblemSpec(name="repro", model="quadratic", dim=3, data_seed=9)
        spec = ExperimentSpec(problems=(problem,), solvers=("sipm", "psgm"),
                              maxiter=50, seeds=(0, 1))
        first = canonical_report_bytes(run_experiment(spec))
        second = canonical_report_bytes(run_experiment(spec))
        assert first == second

        rng = np.random.default_rng(77)
        lines = []
        for _ in range(1000):
            label = int(rng.choice([-1, 1]))
            count = int(rng.integers(0, 8))
            idx = np.sort(rng.choice(np.arange(1, 100), size=count, replace=False))
            parts = [str(label)] + [f"{int(i)}:{rng.uniform(-4, 4):.8g}" for i in idx]
            lines.append(" ".join(parts))
        text = "\n".join(lines) + "\n"
        parsed = parse_libsvm(text)
        assert parsed.m == 1000
        assert parse_libsvm(serialize_libsvm(parsed)) == parsed

        cases = ("abc 1:2",        # non-numeric label
                 "+1 4",           # missing colon
                 "+1 0:3.5")       # nonpositive index
        for bad in cases:
            doc = "+1 1:1\n-1 2:1\n" + bad + "\n"
            with pytest.raises(MalformedLine) as err:
                parse_libsvm(doc)
            assert err.value.line_number == 3
