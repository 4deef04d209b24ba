import re
import warnings
from collections import Counter
from dataclasses import asdict, fields, replace
from fractions import Fraction as F

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sipm import (DELTA_CAP, Bounds, BufferSequences, Constants, ExponentTriple,
                  PowerSchedule, ScheduleContext, SolverConfig, StaircaseSchedule,
                  barrier_gradient, build_hk, build_staircase, min_mu1_threshold,
                  quadratic_objective, range_gap, ratio_test, run, sequences, sipm_step,
                  step_size_bundle)
from sipm import baselines, geometry, schedules, solver, stepsize
from sipm.errors import (DimensionMismatch, HorizonExceeded, InfeasibleStart, InvalidBudget,
                         InvalidChoice, InvalidConstants, InvalidExponents, InvalidMu1,
                         InvalidTheta0, InvariantViolation, NotInterior, SipmError,
                         ThetaTooLarge)

ZERO_BUFFERS = BufferSequences(mode="theory", t_mu=-1.0)   # both bases 0


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

    # one scaling rule: the strategy argument names it, and nothing else passes
    assert build_hk(np.array([1.0]), bounds, 1.0, 1.0)[0].tolist() == [3.0]
    with pytest.raises(InvalidChoice, match="identity"):
        build_hk(np.array([1.0]), bounds, 1.0, 1.0, "identity")

    with pytest.raises(NotInterior):
        build_hk(np.array([0.0]), bounds, 1.0, 1.0, "practical")


def test_single_step_matches_symbolic_trace():
    """One iteration on 0.5*(x-1.5)^2 over [0, 2], replayed in exact rationals."""
    obj = quadratic_objective([1.5], [1.0])
    bounds = Bounds.cube(1, 0.0, 2.0)
    sched = PowerSchedule(mu1=0.1, theta0=0.05,
                          exponents=ExponentTriple(-1.0, -1.0, 0.0))
    config = SolverConfig(mode="deterministic", bounds=bounds, schedule=sched,
                          buffers=ZERO_BUFFERS,
                          constants=Constants(ell_f=1.0, kappa_inf=1.5),
                          maxiter=1, audit_level="invariants")
    got = run(obj, config, np.array([1.0])).final_x[0]

    mu, th1, th0 = F(1, 10), F(1, 40), F(1, 20)
    ell_f, kappa, delta = F(1), F(3, 2), F(2)
    h = ell_f + mu / F(1) ** 2 + mu / F(1) ** 2   # H_k at x = 1: unit slacks
    assert h == F(6, 5)
    q = (F(1) - F(3, 2)) - mu / F(1) + mu / F(1)
    d = -q / h
    alpha_min = h / (ell_f + 2 * mu / th1 ** 2)
    alpha_max = alpha_min
    bracket = F(1, 2) * mu * delta / (mu + F(1, 2) * kappa * delta) - th1
    gamma_min = min(F(1), h * bracket / (alpha_max * (kappa + mu / th0)))
    gamma_max = min(F(1), gamma_min)
    alpha_pre = h / (ell_f + mu + mu)
    gamma_bar = min(gamma_max, (F(2) - th1 - F(1)) / (alpha_pre * d))
    xbar = F(1) + gamma_bar * alpha_pre * d
    ell_k = ell_f + mu / min(F(1), xbar) + mu / min(F(1), F(2) - xbar)
    alpha_k = min(h / ell_k, alpha_max)
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
    q_norms = [r["q_norm"] for r in result.records]
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


@pytest.mark.parametrize("maxiter", [-1, 2.0, True])
def test_bad_maxiter_is_rejected_at_entry(maxiter, monkeypatch):
    """maxiter=-1 used to fail as an IndexError from the parameter table,
    maxiter=2.0 as a TypeError from range(), and maxiter=True ran one
    iteration; each now fails before the table or the oracle is built."""
    built = []
    monkeypatch.setattr(solver, "sequences", lambda *args: built.append("table"))
    monkeypatch.setattr(solver, "gradient_oracle", lambda *args: built.append("oracle"))
    obj = quadratic_objective([0.0], [1.0])
    config = replace(quad_config(Bounds.cube(1, -1.0, 1.0),
                                 build_staircase(0.5, 10, theta0=0.2), 10), maxiter=maxiter)
    with pytest.raises(InvalidBudget, match=f"maxiter={maxiter!r} must be an integer"):
        run(obj, config, np.array([0.0]))
    assert built == []


@pytest.mark.parametrize("x1", [np.zeros(3), np.zeros((1, 2))], ids=["too-long", "2-D"])
def test_start_point_shape_is_checked_first(x1, monkeypatch):
    """An x1 longer than the bounds used to fail as a bare numpy broadcast
    ValueError from in_neighborhood, and a (1, n) one broadcast against them;
    both now raise DimensionMismatch naming both shapes before anything is built."""
    built = []
    monkeypatch.setattr(solver, "sequences", lambda *args: built.append("table"))
    monkeypatch.setattr(solver, "gradient_oracle", lambda *args: built.append("oracle"))
    config = quad_config(Bounds.cube(2, -1.0, 1.0), build_staircase(0.5, 10, theta0=0.2), 10)
    message = f"x1 has shape {x1.shape}, but the bounds have shape (2,)"
    with pytest.raises(DimensionMismatch, match=re.escape(message)):
        run(quadratic_objective([0.0, 0.0], [1.0, 1.0]), config, x1)
    assert built == []


def test_theta0_too_large_is_one_condition_at_both_sites():
    """run() raised ThetaTooLarge and min_mu1_threshold InvalidTheta0 for the
    same theta0 >= delta/2; one except now catches both."""
    wide = build_staircase(0.5, 10, theta0=1.5)
    config = quad_config(Bounds.cube(1, -1.0, 1.0), wide, 10)
    for call in (lambda: run(quadratic_objective([0.0], [1.0]), config, np.array([0.0])),
                 lambda: min_mu1_threshold(1.5, 1.0, 0.0, 2.0)):
        with pytest.raises(InvalidTheta0, match="must be below delta/2=1.0") as err:
            call()
        assert isinstance(err.value, ThetaTooLarge)


@pytest.mark.parametrize("name, value", [("mode", "stoch"), ("audit_level", "full")])
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
                         buffers=ZERO_BUFFERS,
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
    step = sipm_step(x, 1, obj.gradient(x), config)
    assert step["k"] == 1
    assert step["gamma_k"] > 0.0
    assert step["stalled"] is False
    assert step["x_next"][0] > 1.0  # moves toward the center at 1.5
    assert step["g"].tolist() == obj.gradient(x).tolist()


@pytest.mark.parametrize("t_theta", [0.5, -0.5])
def test_deterministic_exponent_gate_enforced(t_theta):
    # t_theta must equal t_mu in both settings; the gate runs before any gradient
    calls = []
    obj = quadratic_objective([0.0], [1.0])
    obj.gradient = lambda x: calls.append(x) or np.zeros(1)
    sched = PowerSchedule(mu1=0.1, theta0=0.05,
                          exponents=ExponentTriple(-1.0, t_theta, 0.0))
    config = quad_config(Bounds.cube(1, -1.0, 1.0), sched, 5,
                         buffers=ZERO_BUFFERS, audit_level="off")
    with pytest.raises(InvalidExponents, match="deterministic") as err:
        run(obj, config, np.array([0.0]))
    assert isinstance(err.value, SipmError) and isinstance(err.value, ValueError)
    assert calls == []


def test_config_derives_delta_and_its_table_once():
    """delta and the parameter table are built on first read and kept; they
    are not fields, so equality, repr and replace() ignore them."""
    config = quad_config(Bounds.cube(2, -1.0, 3.0), build_staircase(0.2, 30, theta0=0.05), 30)
    names = [f.name for f in fields(SolverConfig)]
    assert "delta" not in names and "sequences" not in names
    assert config.delta == range_gap(config.bounds, DELTA_CAP)
    table = config.sequences
    assert config.sequences is table
    assert table == sequences(config.schedule, config.buffers, config.maxiter)
    twin = quad_config(config.bounds, config.schedule, 30)
    assert twin == config and hash(twin) == hash(config) and repr(twin) == repr(config)
    assert "sequences" not in asdict(config)
    shorter = replace(config, maxiter=20, schedule=build_staircase(0.2, 20, theta0=0.05))
    assert len(shorter.sequences["theta"]) == 21 and config.sequences is table


@pytest.mark.parametrize("family", ["staircase", "power"])
def test_run_evaluates_each_parameter_once(family, monkeypatch):
    """One traced run calls each schedule and buffer method at most once per
    k; calls that the methods make to each other are not counted."""
    calls = Counter()
    depth = [0]
    for cls, names in ((StaircaseSchedule, ("s", "mu", "theta")),
                       (PowerSchedule, ("s", "mu", "theta")),
                       (BufferSequences, ("alpha", "gamma"))):
        for name in names:
            def counting(self, k, _name=name, _original=getattr(cls, name)):
                if depth[0] == 0:
                    calls[(_name, k)] += 1
                depth[0] += 1
                try:
                    return _original(self, k)
                finally:
                    depth[0] -= 1
            monkeypatch.setattr(cls, name, counting)
    maxiter = 40
    if family == "staircase":
        schedule = build_staircase(0.2, maxiter, theta0=0.05)
    else:
        schedule = PowerSchedule(mu1=0.2, theta0=0.05,
                                 exponents=ExponentTriple(-1.0, -1.0, 0.0))
    config = quad_config(Bounds.cube(2, -1.0, 1.0), schedule, maxiter,
                         audit_level="full_trace")
    run(quadratic_objective([0.3, -0.2], [1.0, 0.5]), config, np.zeros(2))
    assert {("theta", k) for k in range(maxiter + 1)} <= set(calls)
    assert {("alpha", k) for k in range(1, maxiter + 1)} <= set(calls)
    assert max(calls.values()) == 1


def test_past_horizon_fails_before_any_oracle_call():
    calls = []
    obj = quadratic_objective([0.0], [1.0])
    obj.gradient = lambda x: calls.append(x) or np.zeros(1)
    obj.value = lambda x: calls.append(x) or 0.0
    config = quad_config(Bounds.cube(1, -1.0, 1.0), build_staircase(0.5, 10, theta0=0.2),
                         11, audit_level="full_trace")
    with pytest.raises(HorizonExceeded):
        run(obj, config, np.array([0.0]))
    assert calls == []


def _kernel_runs():
    """(objective, config, x1) on a box and on a one-sided box, one per mode,
    and on the box toward an interior minimizer."""
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
                                audit_level="off"), np.array([0.5, 0.0, 1.0, 0.0])),
            (quadratic_objective([0.3, -0.2, 0.5, -0.4], [3.0, 1.0, 0.5, 2.0]),
             quad_config(box, build_staircase(0.2, 120, theta0=0.05), 120, audit_level="off"),
             np.zeros(4))]


@pytest.mark.parametrize("case", [0, 1, 2], ids=["box", "one-sided", "interior"])
def test_kernel_matches_public_functions(case):
    """The kernel and the validating public functions are one implementation:
    replaying each observed iterate through them gives the same bits, also
    where the kernel skipped its second ratio test or its update."""
    objective, config, x1 = _kernel_runs()[case]
    seen = []
    run(objective, config, x1, observer=seen.append)
    bounds, constants = config.bounds, config.constants
    delta = range_gap(bounds, DELTA_CAP)
    assert any(b.gamma_bar < b.gamma_max for b in (i["bundle"] for i in seen))
    no_second_test = [b.gamma_bar == b.gamma_max and 0.0 < b.alpha_k <= b.alpha_pre
                      for b in (i["bundle"] for i in seen)]
    no_update = [i["gamma_k"] == i["bundle"].gamma_bar
                 and i["bundle"].alpha_k == i["bundle"].alpha_pre for i in seen]
    assert any(no_second_test) and not all(no_second_test)
    # pressed toward the bounds, every look-ahead segment shortens the step
    assert (any(no_update) and not all(no_update)) if case == 2 else not any(no_update)
    # the observer sees the iterates themselves, not defensive copies
    assert all(nxt["x"] is prev["x_next"] for prev, nxt in zip(seen, seen[1:]))
    for info in seen:
        x, k, mu_k = info["x"], info["k"], info["mu_k"]
        h_diag, lam_min, _ = build_hk(x, bounds, mu_k, constants.ell_f, "practical")
        assert h_diag.tobytes() == info["h_diag"].tobytes()
        assert lam_min == info["h_diag"].min()
        q = barrier_gradient(info["g"], x, bounds, mu_k)
        assert q.tobytes() == info["q"].tobytes()
        ctx = ScheduleContext(mu_k=mu_k, theta_k=info["theta_k"],
                              theta_prev=info["theta_prev"],
                              t_alpha=config.schedule.t_alpha,
                              alpha_buff=config.buffers.alpha(k),
                              gamma_buff=config.buffers.gamma(k))
        bundle = step_size_bundle(x, q, h_diag, k, bounds, ctx, constants, delta)
        assert bundle == info["bundle"]
        gamma_k = ratio_test(x, info["d"], bundle.alpha_k, bounds, info["theta_k"],
                             bundle.gamma_max)
        assert gamma_k == info["gamma_k"]


def test_kernel_validates_only_at_entry(monkeypatch):
    """With auditing off, the loop makes no interior checks and takes the
    slacks of x once per iteration; the look-ahead slacks are taken inline."""
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
    assert counts["slacks"] == config.maxiter + 2


def _count_calls(monkeypatch, *functions):
    """Count the calls to each function, in every module that looks it up."""
    counts = Counter()
    for original in functions:
        def counting(*args, _name=original.__name__, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module in (baselines, geometry, schedules, solver, stepsize):
            if getattr(module, original.__name__, None) is original:
                monkeypatch.setattr(module, original.__name__, counting)
    return counts


def test_audited_run_checks_each_next_iterate_once(monkeypatch):
    """The audit reads the kernel's slacks of x and makes one interior check,
    of x_next, whose slacks the shifted barrier reuses; run() entry, whose
    slacks give the first barrier value, and the final certificate make one
    each."""
    counts = _count_calls(monkeypatch, geometry.require_interior)
    objective, config, x1 = _kernel_runs()[0]
    config = replace(config, audit_level="invariants")
    run(objective, config, x1)
    assert counts["require_interior"] == config.maxiter + 2


@pytest.mark.parametrize("case", [0, 1], ids=["box", "one-sided"])
def test_audited_loop_calls_no_public_validator(case, monkeypatch):
    """Neither the sipm kernel with its full_trace audit nor the proj-ipm loop
    calls a validating public function; both step on the slack helpers."""
    counts = _count_calls(monkeypatch, geometry.barrier_value, geometry.shifted_barrier_value,
                          barrier_gradient, geometry.project_to_neighborhood,
                          build_hk, ratio_test, step_size_bundle)
    objective, config, x1 = _kernel_runs()[case]
    seen = []
    result = run(objective, replace(config, audit_level="full_trace"), x1,
                 observer=seen.append)
    assert len(seen) == len(result.records) == config.maxiter
    mu_seq = sequences(config.schedule, config.buffers, config.maxiter)["mu"][1:]
    baselines.run_simplified(objective, config.bounds, mu_seq, config.constants.ell_f, 0.5,
                             x1, config.maxiter, mode=config.mode,
                             batch_fraction=config.batch_fraction, seed=config.rng_seed)
    assert sum(counts.values()) == 0


def test_audit_interior_check_keeps_its_error():
    """A next iterate on a finite bound that passes the membership test (a
    zero margin) fails the audit's interior check as NotInterior."""
    config, step = _audited_step()
    x_next = step["x_next"].copy()
    x_next[2] = config.bounds.lower[2]
    with pytest.raises(NotInterior, match="coordinate 2 has nonpositive slack"):
        solver._audit_step(config, dict(step, x_next=x_next, theta_k=0.0))


@pytest.mark.parametrize("mu1", [-0.1, 0.0, np.nan, np.inf])
def test_barrier_start_must_be_positive_and_finite(mu1):
    calls = []
    obj = quadratic_objective([0.2, -0.3], [1.0, 2.0])
    obj.gradient = lambda x: calls.append(x) or np.zeros(2)
    sched = PowerSchedule(mu1=mu1, theta0=0.05, exponents=ExponentTriple(-1.0, -1.0, 0.0))
    config = quad_config(Bounds.cube(2, -1.0, 1.0), sched, 5,
                         buffers=ZERO_BUFFERS, audit_level="off")
    with pytest.raises(InvalidMu1, match="positive and finite"):
        run(obj, config, np.zeros(2))
    assert calls == []


def test_shifted_barrier_evaluated_once_per_iterate(monkeypatch):
    """An audited run evaluates the shifted barrier once per iterate: the
    decrease check's value at x_{k+1} is the next trace row's, and it equals
    the public shifted_barrier_value there."""
    calls = []

    def counting(*args):
        calls.append(args)
        return geometry._barrier_value(*args)

    monkeypatch.setattr(solver, "_barrier_value", counting)
    original = geometry.shifted_barrier_value
    objective, config, x1 = _kernel_runs()[0]
    config = replace(config, maxiter=40, audit_level="full_trace")
    seen = []
    result = run(objective, config, x1, observer=seen.append)
    assert len(calls) == config.maxiter + 1
    chi = geometry.default_chi(config.bounds)
    for info, record in zip(seen, result.records):
        expected = original(objective.value(info["x"]), info["x"], config.bounds,
                            info["mu_k"], chi)
        assert record["phi_tilde"] == expected


@pytest.mark.parametrize("mode", ["deterministic", "stochastic"])
@pytest.mark.parametrize("value", [np.nan, -1.0, np.inf])
@pytest.mark.parametrize("name", ["ell_f", "kappa_inf", "sigma_inf"])
def test_bad_constants_fail_before_the_oracle(name, value, mode, monkeypatch):
    """A negative or non-finite constant is a typed error at run() entry,
    before the oracle is built or called."""
    calls = []
    monkeypatch.setattr(solver, "gradient_oracle", lambda *args: calls.append(args))
    obj = quadratic_objective([0.2, -0.3], [1.0, 2.0], noise_level=0.1, sample_count=10)
    obj.gradient = lambda x: calls.append(x) or np.zeros(2)
    obj.value = lambda x: calls.append(x) or 0.0
    constants = replace(Constants(ell_f=1.0, kappa_inf=2.0, sigma_inf=0.1), **{name: value})
    config = quad_config(Bounds.cube(2, -1.0, 1.0), build_staircase(0.2, 50, theta0=0.05), 50,
                         mode=mode, constants=constants)
    with pytest.raises(InvalidConstants, match=name) as err:
        run(obj, config, np.zeros(2))
    assert isinstance(err.value, SipmError) and isinstance(err.value, ValueError)
    assert calls == []


@pytest.mark.parametrize("mode", ["deterministic", "stochastic"])
def test_unscaled_coordinate_fails_before_the_oracle(mode, monkeypatch):
    """With ell_f = 0 a coordinate with no finite side has H_k = 0; the run
    used to fail at iteration 1 with a bare ValueError naming no iteration."""
    calls = []
    monkeypatch.setattr(solver, "gradient_oracle", lambda *args: calls.append(args))
    obj = quadratic_objective([0.3, 0.2], [1.0, 1.0], noise_level=0.1, sample_count=10)
    bounds = Bounds(np.array([-1.0, -np.inf]), np.array([1.0, np.inf]))
    config = quad_config(bounds, build_staircase(0.2, 20, theta0=0.05), 20, mode=mode,
                         constants=Constants(ell_f=0.0, kappa_inf=1.0), audit_level="off")
    with pytest.raises(InvalidConstants, match="ell_f=0 leaves coordinate 1 unscaled"):
        run(obj, config, np.zeros(2))
    assert calls == []
    # a positive ell_f scales it
    monkeypatch.undo()
    assert np.isfinite(run(obj, replace(config, constants=Constants(ell_f=0.5, kappa_inf=1.0)),
                           np.zeros(2)).final_objective)


def test_kernel_scaling_guard_names_the_iteration():
    """Where the entry check cannot see it, a zero scaling entry still stops
    the step, now naming the iteration: mu_k/(x - l)^2 underflows to 0 on a
    wide box, and step_size_bundle takes the diagonal from its caller."""
    sched = PowerSchedule(mu1=1e-20, theta0=0.05, exponents=ExponentTriple(-1.0, -1.0, 0.0))
    config = quad_config(Bounds.cube(1, -1e154, 1e154), sched, 5,
                         buffers=ZERO_BUFFERS,
                         constants=Constants(ell_f=0.0, kappa_inf=1.0), audit_level="off")
    with pytest.raises(ValueError, match="iteration 1: scaling diagonal must be strictly"):
        run(quadratic_objective([0.3], [1.0]), config, np.zeros(1))
    ctx = ScheduleContext(mu_k=0.1, theta_k=0.05, theta_prev=0.1, t_alpha=0.0,
                          alpha_buff=0.0, gamma_buff=0.0)
    with pytest.raises(ValueError, match="iteration 3: scaling diagonal must be strictly"):
        step_size_bundle(np.array([1.0]), np.zeros(1), np.zeros(1), 3, Bounds.cube(1, 0.0, 2.0),
                         ctx, Constants(ell_f=1.0, kappa_inf=1.0), 2.0)


RECORD_KEYS = {"k", "x", "x_next", "g", "q", "d", "s", "h_diag", "bundle", "gamma_k",
               "mu_k", "theta_k", "theta_prev", "stalled"}


@pytest.mark.parametrize("case", [0, 1], ids=["box", "one-sided"])
def test_step_record_has_one_shape_at_every_audit_level(case):
    """sipm_step computes the step and nothing else: its record has the same
    14 keys whether run() audits it or not (audited records used to add the
    slacks of x_next as lo_next/up_next)."""
    objective, config, x1 = _kernel_runs()[case]
    shapes = set()
    for level in ("off", "invariants", "full_trace"):
        seen = []
        run(objective, replace(config, audit_level=level, maxiter=10), x1,
            observer=seen.append)
        shapes |= {frozenset(step) for step in seen}
    assert shapes == {frozenset(RECORD_KEYS)}


@pytest.mark.parametrize("case", [0, 1], ids=["box", "one-sided"])
def test_step_record_slacks_are_rows_of_one_array(case):
    """The record's s is one (2, n) slack array whose rows are x - lower and
    upper - x bit for bit."""
    objective, config, x1 = _kernel_runs()[case]
    seen = []
    run(objective, replace(config, maxiter=20), x1, observer=seen.append)
    bounds = config.bounds
    for step in seen:
        s = step["s"]
        assert s.shape == (2, bounds.n)
        assert s[0].tobytes() == (step["x"] - bounds.lower).tobytes()
        assert s[1].tobytes() == (bounds.upper - step["x"]).tobytes()
        assert s.tobytes() == geometry.slacks(step["x"], bounds).tobytes()


def test_run_audits_each_step_before_its_observer(monkeypatch):
    """run(), not sipm_step, audits: the audit sees each record before the
    observer does, and sipm_step alone never audits."""
    events = []
    original = solver._audit_step

    def auditing(config, step):
        events.append(("audit", step["k"]))
        return original(config, step)

    monkeypatch.setattr(solver, "_audit_step", auditing)
    objective, config, x1 = _kernel_runs()[0]
    config = replace(config, audit_level="invariants", maxiter=3)
    run(objective, config, x1, observer=lambda step: events.append(("observe", step["k"])))
    assert events == [(name, k) for k in (1, 2, 3) for name in ("audit", "observe")]
    events.clear()
    sipm_step(x1, 1, objective.gradient(x1), config)
    assert events == []


def test_zero_curvature_constant_is_valid():
    # ell_f = 0 passes the entry check (it understates this quadratic's
    # curvature, so the run is left unaudited)
    config = quad_config(Bounds.cube(1, -1.0, 1.0), build_staircase(0.2, 20, theta0=0.05), 20,
                         constants=Constants(ell_f=0.0, kappa_inf=2.0), audit_level="off")
    assert np.isfinite(run(quadratic_objective([0.3], [1.0]), config, np.zeros(1)).final_objective)


def _audited_step():
    """An observed step of an audited deterministic run, which passed every audit."""
    objective, config, x1 = _kernel_runs()[0]
    config = replace(config, audit_level="invariants", maxiter=20)
    seen = []
    run(objective, config, x1, observer=seen.append)
    step = seen[5]
    assert step["gamma_k"] > 0.0 and np.any(step["q"] != 0.0)
    return config, step


def _tamper(config, step, case):
    bundle = step["bundle"]
    mu_k, theta_k = step["mu_k"], step["theta_k"]
    if case == "neighborhood":
        return dict(step, x_next=config.bounds.upper - 0.5 * theta_k)
    if case == "segment":
        return dict(step, bundle=bundle._replace(ell_k=0.0))
    if case == "cap":
        cap = config.constants.ell_f + 2.0 * mu_k / theta_k ** 2
        return dict(step, bundle=bundle._replace(ell_k=2.0 * cap))
    if case == "alpha":
        return dict(step, bundle=bundle._replace(alpha_k=2.0 * bundle.alpha_max))
    if case == "gamma":
        return dict(step, gamma_k=2.0 * bundle.gamma_max)
    if case == "look-ahead":
        return dict(step, bundle=bundle._replace(gamma_bar=0.0))
    return dict(step, d=-step["d"])   # "descent"


@pytest.mark.parametrize("case, message", [
    ("neighborhood", "next iterate left the theta_k neighborhood"),
    ("segment", "segment Lipschitz constant exceeds ell_k"),
    ("cap", "ell_k exceeds the conservative curvature cap"),
    ("alpha", "alpha_k escaped"),
    ("gamma", "gamma_k escaped"),
    ("look-ahead", "realized step exceeds the look-ahead step"),
    ("descent", "direction is not a descent direction for q"),
])
def test_each_step_audit_fires(case, message):
    """Each per-step contract, broken in one observed step, raises its own
    InvariantViolation with the step's iteration."""
    config, step = _audited_step()
    solver._audit_step(config, step)   # the untouched step passes
    with pytest.raises(InvariantViolation, match=message) as err:
        solver._audit_step(config, _tamper(config, step, case))
    assert err.value.k == step["k"]


@pytest.mark.parametrize("case", [0, 1], ids=["box", "one-sided"])
def test_audit_neighborhood_verdict_is_the_stacked_checks(case):
    """The audit checks x_next against the sides the step clipped to, l + theta
    and u - theta, where the stacked check tests -x >= -u + theta; the two
    agree on points on, just inside and just outside either side, -0.0 and
    NaN among them, with theta held (the sides' memo) and moving."""
    objective, config, x1 = _kernel_runs()[case]
    config = replace(config, audit_level="invariants", maxiter=20)
    seen = []
    run(objective, config, x1, observer=seen.append)
    bounds, rng = config.bounds, np.random.default_rng(case)
    verdicts = set()
    for step in seen[3:6]:
        theta = step["theta_k"]
        lo, up = bounds.lower + theta, bounds.upper - theta
        choices = np.stack([lo, np.nextafter(lo, -np.inf), np.nextafter(lo, np.inf), up,
                            np.nextafter(up, np.inf), np.nextafter(up, -np.inf),
                            np.zeros(bounds.n), np.full(bounds.n, -0.0),
                            np.full(bounds.n, np.nan)])
        for theta_prev in (theta, 2.0 * theta):
            for _ in range(60):
                x = choices[rng.integers(len(choices), size=bounds.n), np.arange(bounds.n)]
                inside = geometry.in_neighborhood(x, bounds, theta)
                try:   # a point inside may still fail a later check
                    solver._audit_step(config, dict(step, x_next=x, theta_prev=theta_prev))
                    fired = False
                except InvariantViolation as err:
                    fired = "neighborhood" in str(err)
                except (ValueError, RuntimeWarning):
                    fired = False
                assert fired == (not inside)
                verdicts.add(inside)
    assert verdicts == {True, False}


def test_decrease_audit_fires():
    """An objective whose value rises by 1.0 per call breaks the barrier
    decrease inequality in the first audited iteration."""
    objective, config, x1 = _kernel_runs()[0]
    config = replace(config, audit_level="invariants", maxiter=20)
    rises = iter(range(1000))
    objective.value = lambda x: float(next(rises))
    with pytest.raises(InvariantViolation, match="barrier decrease inequality") as err:
        run(objective, config, x1)
    assert err.value.k == 1


@pytest.mark.parametrize("mode, audit_level", [("deterministic", "invariants"),
                                               ("stochastic", "full_trace")])
@pytest.mark.parametrize("bad, first_bad_call", [(np.nan, 4), (np.inf, 1), (-np.inf, 2)],
                         ids=["nan-from-call-4", "inf-from-the-start", "minus-inf-from-call-2"])
def test_an_audited_run_refuses_a_non_finite_objective_value(bad, first_bad_call, mode,
                                                             audit_level):
    """A NaN barrier difference, from a NaN value or from inf - inf, compares
    false, so the decrease check passed it and a run ended with a NaN final
    objective; a value of -inf passed too.  The audit now raises, naming the
    iteration whose new value, or the first iteration where the start's
    value, is not finite."""
    objective = quadratic_objective([0.3, -0.2, 0.5, -0.4, 0.1], [3.0, 1.0, 0.5, 2.0, 1.0],
                                    noise_level=0.1, sample_count=20, seed=2)
    exact, calls = objective.value, []

    def value(x):
        calls.append(x)
        return bad if len(calls) >= first_bad_call else exact(x)

    objective.value = value
    config = quad_config(Bounds.cube(5, -1.0, 1.0), build_staircase(0.2, 30, theta0=0.05), 30,
                         mode=mode, audit_level=audit_level, batch_fraction=0.1,
                         constants=Constants(ell_f=3.0, kappa_inf=4.0, sigma_inf=0.3))
    with pytest.raises(InvariantViolation, match="objective value is not finite") as err:
        run(objective, config, np.zeros(5))
    assert err.value.k == max(first_bad_call - 1, 1)


def test_zero_and_nan_directions_raise_no_warning_and_run_sets_errstate_once(monkeypatch):
    """A zero direction entry makes the ratio tests divide by zero and a NaN
    one meets a NaN; run() turns numpy's divide and invalid warnings off once
    for its loop, and sipm_step and step_size_bundle each for their call, so
    none of them warns where a RuntimeWarning is an error."""
    entered = []
    errstate = np.errstate
    monkeypatch.setattr(np, "errstate", lambda **kw: entered.append(kw) or errstate(**kw))
    # x1 = 0 minimizes the first and last coordinates on a symmetric box, so
    # their q and d are 0 at every iterate
    objective = quadratic_objective([0.0, 0.5, 0.0], [1.0, 2.0, 1.0])
    config = quad_config(Bounds.cube(3, -1.0, 1.0), build_staircase(0.2, 30, theta0=0.05), 30,
                         constants=Constants(ell_f=2.0, kappa_inf=2.0))
    seen = []
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        run(objective, config, np.zeros(3), observer=seen.append)
        # numpy may enter its own errstate while it imports a module lazily
        assert entered.count(dict(divide="ignore", invalid="ignore")) == 1
        assert all(info["d"][0] == info["d"][2] == 0.0 != info["d"][1] for info in seen)
        x = np.zeros(3)
        step = sipm_step(x, 1, np.array([0.0, np.nan, 1.0]), config)
        assert step["d"][0] == 0.0 and np.isnan(step["d"][1])
        ctx = ScheduleContext(mu_k=step["mu_k"], theta_k=step["theta_k"],
                              theta_prev=step["theta_prev"], t_alpha=config.schedule.t_alpha,
                              alpha_buff=config.buffers.alpha(1),
                              gamma_buff=config.buffers.gamma(1))
        bundle = step_size_bundle(x, step["q"], step["h_diag"], 1, config.bounds, ctx,
                                  config.constants, config.delta)
    assert np.array(bundle).tobytes() == np.array(step["bundle"]).tobytes()   # NaNs too
    assert not hasattr(stepsize._step, "__wrapped__")   # no errstate of its own
