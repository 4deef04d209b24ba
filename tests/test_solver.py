from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sipm import (DELTA_CAP, Bounds, BufferSequences, Constants, ExponentTriple,
                  PowerSchedule, ScheduleContext, SolverConfig, barrier_gradient,
                  build_hk, build_staircase, quadratic_objective, range_gap, ratio_test,
                  run, sipm_step, step_size_bundle)
from sipm import geometry, schedules, solver, stepsize
from sipm.errors import (HorizonExceeded, InfeasibleStart, InvalidChoice, InvalidExponents,
                         InvalidMu1, InvalidTheta0, NotInterior, SipmError, ThetaTooLarge)


def quad_config(bounds, schedule, maxiter, **kwargs):
    defaults = dict(mode="deterministic", bounds=bounds, schedule=schedule,
                    buffers=BufferSequences(mode="practical", maxiter=max(maxiter, 1)),
                    constants=Constants(ell_f=1.0, kappa_inf=2.0),
                    maxiter=maxiter, audit_level="invariants")
    defaults.update(kwargs)
    return SolverConfig(**defaults)


def test_build_hk():
    bounds = Bounds.cube(1, 0.0, 2.0)
    diag, lam_min, lam_max = build_hk(np.array([1.0]), bounds, 1.0, 1.0, "practical")
    assert_allclose(diag, [3.0])
    assert lam_min == lam_max == 3.0

    diag, lam_min, _ = build_hk(np.array([1.0]), bounds, 1e-14, 1.0, "practical")
    assert_allclose(diag, [1.0], rtol=1e-12)

    one_sided = Bounds(np.array([0.0]), np.array([np.inf]))
    diag, _, _ = build_hk(np.array([0.5]), one_sided, 1.0, 1.0, "practical")
    assert_allclose(diag, [1.0 + 4.0])

    diag, lam_min, lam_max = build_hk(np.array([1.0]), bounds, 1.0, 1.0, "identity")
    assert diag.tolist() == [1.0] and lam_min == lam_max == 1.0

    with pytest.raises(NotInterior):
        build_hk(np.array([0.0]), bounds, 1.0, 1.0, "practical")


def test_single_step_matches_symbolic_trace():
    """One iteration on 0.5*(x-1.5)^2 over [0, 2], replayed in exact rationals."""
    obj = quadratic_objective([1.5], [1.0])
    bounds = Bounds.cube(1, 0.0, 2.0)
    sched = PowerSchedule(mu1=0.1, theta0=0.05,
                          exponents=ExponentTriple(-1.0, -1.0, 0.0))
    config = SolverConfig(mode="deterministic", bounds=bounds, schedule=sched,
                          buffers=BufferSequences.zero(),
                          constants=Constants(ell_f=1.0, kappa_inf=1.5),
                          maxiter=1, hk_strategy="identity", audit_level="invariants")
    got = run(obj, config, np.array([1.0])).final_x[0]

    mu, th1, th0 = F(1, 10), F(1, 40), F(1, 20)
    ell_f, kappa, delta = F(1), F(3, 2), F(2)
    q = (F(1) - F(3, 2)) - mu / F(1) + mu / F(1)
    d = -q
    alpha_min = F(1) / (ell_f + 2 * mu / th1 ** 2)
    alpha_max = alpha_min
    bracket = F(1, 2) * mu * delta / (mu + F(1, 2) * kappa * delta) - th1
    gamma_min = min(F(1), bracket / (alpha_max * (kappa + mu / th0)))
    gamma_max = min(F(1), gamma_min)
    alpha_pre = F(1) / (ell_f + mu + mu)
    gamma_bar = min(gamma_max, (F(2) - th1 - F(1)) / (alpha_pre * d))
    xbar = F(1) + gamma_bar * alpha_pre * d
    ell_k = ell_f + mu / min(F(1), xbar) + mu / min(F(1), F(2) - xbar)
    alpha_k = min(F(1) / ell_k, alpha_max)
    gamma_k = min(gamma_max, (F(2) - th1 - F(1)) / (alpha_k * d))
    x2 = F(1) + gamma_k * alpha_k * d

    assert x2 == F(643, 642)
    assert abs(got - float(x2)) <= 1e-12


def test_zero_direction_is_fixed_point():
    # center the box on the quadratic minimum and start there: q = 0 exactly
    obj = quadratic_objective([1.0], [1.0])
    bounds = Bounds.cube(1, 0.0, 2.0)
    sched = build_staircase(0.5, 10, theta0=0.05)
    config = quad_config(bounds, sched, 10)
    result = run(obj, config, np.array([1.0]))
    assert_allclose(result.final_x, [1.0])
    assert result.stall_count == 0


def test_zero_maxiter_returns_start():
    obj = quadratic_objective([0.3], [1.0])
    bounds = Bounds.cube(1, -1.0, 1.0)
    sched = build_staircase(0.5, 1, theta0=0.05)
    result = run(obj, quad_config(bounds, sched, 0), np.array([0.0]))
    assert_allclose(result.final_x, [0.0])
    assert result.records == []


def test_seeded_stochastic_runs_identical():
    obj = quadratic_objective([0.2, -0.3], [1.0, 2.0], noise_level=0.3,
                              sample_count=40, seed=1)
    bounds = Bounds.cube(2, -1.0, 1.0)
    sched = build_staircase(0.1, 50, theta0=0.02)
    config = quad_config(bounds, sched, 50, mode="stochastic",
                         constants=Constants(ell_f=2.0, kappa_inf=2.0, sigma_inf=0.3),
                         rng_seed=7, batch_fraction=0.1, audit_level="full_trace")
    first = run(obj, config, np.zeros(2))
    second = run(obj, config, np.zeros(2))
    assert np.array_equal(first.final_x, second.final_x)
    assert first.records == second.records
    assert first.final_objective == second.final_objective

    other = run(obj, replace(config, rng_seed=8), np.zeros(2))
    assert not np.array_equal(first.final_x, other.final_x)


def test_deterministic_descent_trend():
    obj = quadratic_objective([0.4, -0.6, 0.1], [1.0, 1.5, 0.7])
    bounds = Bounds.cube(3, -1.0, 1.0)
    sched = build_staircase(0.2, 400, theta0=0.05)
    config = quad_config(bounds, sched, 400,
                         constants=Constants(ell_f=1.5, kappa_inf=2.0),
                         audit_level="full_trace")
    result = run(obj, config, np.zeros(3))
    q_norms = [r.q_norm for r in result.records]
    running_min = np.minimum.accumulate(q_norms)
    assert all(a >= b for a, b in zip(running_min, running_min[1:]))
    assert min(q_norms) <= 1e-3
    assert result.final_projected_grad_norm <= 1e-5


def test_stall_holds_iterate():
    # start on the neighborhood boundary with the gradient pushing outward;
    # the degenerate staircase keeps theta constant so every step stalls
    obj = quadratic_objective([-0.5], [1.0])  # pulls x toward -0.5
    bounds = Bounds.cube(1, 0.0, 2.0)
    sched = build_staircase(1e-8, 5, theta0=0.1)
    config = quad_config(bounds, sched, 5,
                         constants=Constants(ell_f=1.0, kappa_inf=2.5))
    result = run(obj, config, np.array([0.1]))
    assert_allclose(result.final_x, [0.1])
    assert result.stall_count == 5


def test_start_validation():
    obj = quadratic_objective([0.0], [1.0])
    bounds = Bounds.cube(1, -1.0, 1.0)
    sched = build_staircase(0.5, 10, theta0=0.2)
    with pytest.raises(InfeasibleStart):
        run(obj, quad_config(bounds, sched, 10), np.array([0.95]))
    wide = build_staircase(0.5, 10, theta0=1.5)
    with pytest.raises(ThetaTooLarge):
        run(obj, quad_config(bounds, wide, 10), np.array([0.0]))
    with pytest.raises(HorizonExceeded):
        run(obj, quad_config(bounds, sched, 11), np.array([0.0]))
    flat = build_staircase(0.5, 10, theta0=0.0)
    with pytest.raises(InvalidTheta0):
        run(obj, quad_config(bounds, flat, 10), np.array([0.0]))


@pytest.mark.parametrize("name, value", [("mode", "stoch"), ("audit_level", "full"),
                                         ("hk_strategy", "custom")])
@pytest.mark.parametrize("maxiter", [0, 10])
def test_unknown_config_choice_is_rejected_at_entry(name, value, maxiter):
    obj = quadratic_objective([0.0], [1.0], noise_level=0.1, sample_count=10)
    config = quad_config(Bounds.cube(1, -1.0, 1.0), build_staircase(0.5, 10, theta0=0.2),
                         maxiter, **{name: value})
    with pytest.raises(InvalidChoice, match=name):
        run(obj, config, np.array([0.0]))


def test_stochastic_exponent_gate_enforced():
    obj = quadratic_objective([0.0], [1.0], noise_level=0.1, sample_count=10)
    bounds = Bounds.cube(1, -1.0, 1.0)
    sched = PowerSchedule(mu1=0.1, theta0=0.05,
                          exponents=ExponentTriple(-1.0, -1.0, 0.0))
    config = quad_config(bounds, sched, 5, mode="stochastic",
                         buffers=BufferSequences.zero(),
                         constants=Constants(ell_f=1.0, kappa_inf=2.0, sigma_inf=0.1))
    with pytest.raises(ValueError, match="stochastic"):
        run(obj, config, np.array([0.0]))


def test_neighborhood_membership_every_iteration():
    obj = quadratic_objective([0.9], [3.0])  # optimum close to the upper bound
    bounds = Bounds.cube(1, -1.0, 1.0)
    sched = build_staircase(0.3, 300, theta0=0.08)
    seen = []
    config = quad_config(bounds, sched, 300,
                         constants=Constants(ell_f=3.0, kappa_inf=5.7))
    run(obj, config, np.array([-0.5]), observer=lambda info: seen.append(info))
    for info in seen:
        x_next = info["x_next"]
        theta_k = info["theta_k"]
        assert np.all(x_next >= bounds.lower + theta_k)
        assert np.all(x_next <= bounds.upper - theta_k)


def test_sipm_step_direct_call():
    obj = quadratic_objective([1.5], [1.0])
    bounds = Bounds.cube(1, 0.0, 2.0)
    sched = build_staircase(0.1, 3, theta0=0.05)
    config = quad_config(bounds, sched, 3)
    x = np.array([1.0])
    x_next, record, info = sipm_step(x, 1, obj.gradient(x), config, delta=2.0)
    assert record.k == info["k"] == 1
    assert record.gamma_k > 0.0
    assert x_next[0] > 1.0  # moves toward the center at 1.5
    assert info["x_next"].tolist() == x_next.tolist()
    assert info["g"].tolist() == obj.gradient(x).tolist()


@pytest.mark.parametrize("t_theta", [0.5, -0.5])
def test_deterministic_exponent_gate_enforced(t_theta):
    # t_theta must equal t_mu in both settings; the gate runs before any gradient
    calls = []
    obj = quadratic_objective([0.0], [1.0])
    obj.gradient = lambda x: calls.append(x) or np.zeros(1)
    sched = PowerSchedule(mu1=0.1, theta0=0.05,
                          exponents=ExponentTriple(-1.0, t_theta, 0.0))
    config = quad_config(Bounds.cube(1, -1.0, 1.0), sched, 5,
                         buffers=BufferSequences.zero(), audit_level="off")
    with pytest.raises(InvalidExponents, match="deterministic") as err:
        run(obj, config, np.array([0.0]))
    assert isinstance(err.value, SipmError) and isinstance(err.value, ValueError)
    assert calls == []


def _kernel_runs():
    """(objective, config, x1) on a box and on a one-sided box, one per mode."""
    box = Bounds.cube(4, -1.0, 1.0)
    one_sided = Bounds(np.array([0.0, -1.0, 0.0, -np.inf]),
                       np.array([np.inf, np.inf, 2.0, 1.0]))
    # minimizers outside the box, so that the look-ahead ratio test binds
    det = quadratic_objective([1.5, -0.3, 0.2, -2.0], [3.0, 1.0, 0.5, 2.0])
    noisy = quadratic_objective([-0.5, 3.0, 2.5, -2.0], [1.0, 2.0, 0.5, 1.5],
                                noise_level=0.3, sample_count=30, seed=4)
    return [(det, quad_config(box, build_staircase(0.2, 120, theta0=0.05), 120,
                              constants=Constants(ell_f=3.0, kappa_inf=4.0),
                              audit_level="off"), np.zeros(4)),
            (noisy, quad_config(one_sided, build_staircase(0.2, 120, theta0=0.05), 120,
                                mode="stochastic", rng_seed=3, batch_fraction=0.1,
                                constants=Constants(ell_f=2.0, kappa_inf=4.0,
                                                    sigma_inf=0.3),
                                audit_level="off"), np.array([0.5, 0.0, 1.0, 0.0]))]


@pytest.mark.parametrize("case", [0, 1], ids=["box", "one-sided"])
def test_kernel_matches_public_functions(case):
    """The kernel and the validating public functions are one implementation:
    replaying each observed iterate through them gives the same bits."""
    objective, config, x1 = _kernel_runs()[case]
    seen = []
    run(objective, config, x1, observer=seen.append)
    bounds, constants = config.bounds, config.constants
    delta = range_gap(bounds, DELTA_CAP)
    stochastic = config.mode == "stochastic"
    assert any(b.gamma_bar < b.gamma_max for b in (i["bundle"] for i in seen))
    # the observer sees the iterates themselves, not defensive copies
    assert all(nxt["x"] is prev["x_next"] for prev, nxt in zip(seen, seen[1:]))
    for info in seen:
        x, k, mu_k = info["x"], info["k"], info["mu_k"]
        h_diag, lam_min, lam_max = build_hk(x, bounds, mu_k, constants.ell_f, "practical")
        assert h_diag.tobytes() == info["h_diag"].tobytes()
        assert (lam_min, lam_max) == (info["lam_min"], info["lam_max"])
        q = barrier_gradient(info["g"], x, bounds, mu_k)
        assert q.tobytes() == info["q"].tobytes()
        ctx = ScheduleContext(mu_k=mu_k, theta_k=info["theta_k"],
                              theta_prev=info["theta_prev"],
                              t_alpha=config.schedule.t_alpha,
                              alpha_buff=config.buffers.alpha(k),
                              gamma_buff=config.buffers.gamma(k))
        bundle = step_size_bundle(x, q, h_diag, k, bounds, ctx, constants, delta,
                                  stochastic=stochastic)
        assert bundle == info["bundle"]
        gamma_k = ratio_test(x, info["d"], bundle.alpha_k, bounds, info["theta_k"],
                             bundle.gamma_max)
        assert gamma_k == info["gamma_k"]


def test_kernel_validates_only_at_entry(monkeypatch):
    """With auditing off, the loop makes no interior checks and takes the
    slacks twice per iteration: of x and of the look-ahead point."""
    counts = {"require_interior": 0, "slacks": 0, "in_neighborhood": 0}
    for name in counts:
        original = getattr(geometry, name)

        def counting(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        for module in (geometry, schedules, solver, stepsize):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    objective, config, x1 = _kernel_runs()[0]
    run(objective, config, x1)
    # run() entry checks membership once; it and the final certificate each
    # make one interior check, which takes the slacks once
    assert counts["in_neighborhood"] == 1
    assert counts["require_interior"] == 2
    assert counts["slacks"] == 2 * config.maxiter + 2


@pytest.mark.parametrize("mu1", [-0.1, 0.0, np.nan, np.inf])
def test_barrier_start_must_be_positive_and_finite(mu1):
    calls = []
    obj = quadratic_objective([0.2, -0.3], [1.0, 2.0])
    obj.gradient = lambda x: calls.append(x) or np.zeros(2)
    sched = PowerSchedule(mu1=mu1, theta0=0.05, exponents=ExponentTriple(-1.0, -1.0, 0.0))
    config = quad_config(Bounds.cube(2, -1.0, 1.0), sched, 5,
                         buffers=BufferSequences.zero(), audit_level="off")
    with pytest.raises(InvalidMu1, match="positive and finite"):
        run(obj, config, np.zeros(2))
    assert calls == []


def test_shifted_barrier_evaluated_once_per_iterate(monkeypatch):
    """An audited run evaluates the shifted barrier once per iterate: the
    decrease check's value at x_{k+1} is the next trace record's."""
    calls = []
    original = geometry.shifted_barrier_value

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(solver, "shifted_barrier_value", counting)
    objective, config, x1 = _kernel_runs()[0]
    config = replace(config, maxiter=40, audit_level="full_trace")
    seen = []
    result = run(objective, config, x1, observer=seen.append)
    assert len(calls) == config.maxiter + 1
    chi = geometry.default_chi(config.bounds)
    for info, record in zip(seen, result.records):
        expected = original(objective.value(info["x"]), info["x"], config.bounds,
                            info["mu_k"], chi)
        assert record.phi_tilde == expected
