import re
from fractions import Fraction as F

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sipm import (DELTA_CAP, Bounds, BufferSequences, Constants, SolverConfig,
                  build_staircase, c_constant, estimate_constants, gradient_oracle,
                  in_neighborhood, match_sipm_endpoints, quadratic_objective,
                  range_gap, recurrence_ratio, run, run_psgm, run_simplified, theta0_init)
from sipm.baselines import _simplified_step
from sipm.errors import (DimensionMismatch, DomainError, InfeasibleStart, InvalidBudget,
                         InvalidChoice, NonFiniteGradient)
from sipm.geometry import slacks


def simplified_step(x, g, bounds, mu, theta, ell_f):
    return _simplified_step(x, g, slacks(x, bounds), bounds, mu, theta, ell_f)


def psgm_step(x, g, alpha, bounds):
    """One run_psgm iteration from x with step alpha, on a unit-curvature
    quadratic whose gradient at x is g."""
    x = np.asarray(x, dtype=float)
    objective = quadratic_objective(x - g, np.ones(x.size))
    return run_psgm(objective, bounds, [alpha], x, 1).final_x


def test_psgm_step_examples():
    bounds = Bounds.cube(1, 0.0, 1.0)
    assert_allclose(psgm_step([0.5], [1.0], 0.7, bounds), [0.0])
    assert_allclose(psgm_step([0.5], [1.0], 0.0, bounds), [0.5])
    assert_allclose(psgm_step([0.5], [0.0], 0.7, bounds), [0.5])


def test_psgm_stays_in_box():
    rng = np.random.default_rng(3)
    bounds = Bounds.cube(4, -1.0, 1.0)
    for _ in range(100):
        x = rng.uniform(-1.0, 1.0, size=4)
        g = rng.normal(size=4) * 10.0
        out = psgm_step(x, g, rng.uniform(0.0, 2.0), bounds)
        assert np.all(out >= -1.0) and np.all(out <= 1.0)


def test_c_constant():
    assert_allclose(c_constant(Bounds.cube(1, 0.0, 2.0), 1.0, 1.0), 0.5)
    two = Bounds(np.array([0.0, 0.0]), np.array([1.0, 4.0]))
    assert_allclose(c_constant(two, 1.0, 1.0), 1.0 / 3.0)
    one_sided = Bounds(np.array([0.0]), np.array([np.inf]))
    assert_allclose(c_constant(one_sided, 2.0, 1.0), 0.5)
    # degenerate inputs cap instead of overflowing
    assert c_constant(one_sided, 0.0, 1.0) == 1e6


def test_simplified_step_matches_symbolic_trace():
    obj = quadratic_objective([0.0], [1.0])
    bounds = Bounds.cube(1, -1.0, 1.0)
    x = np.array([0.5])
    got = simplified_step(x, obj.gradient(x), bounds, 0.1, 0.01, 1.0)

    mu, theta, ell = F(1, 10), F(1, 100), F(1)
    q = F(1, 2) - mu / (F(1, 2) + F(1)) + mu / (F(1) - F(1, 2))
    alpha = F(1) / (ell + 2 * mu / theta ** 2)
    x_next = F(1, 2) - alpha * q   # projection inactive here
    assert q == F(19, 30) and alpha == F(1, 2001)
    assert abs(got[0] - float(x_next)) <= 1e-12


def test_simplified_step_clamps_and_links():
    obj = quadratic_objective([-5.0], [1.0])
    bounds = Bounds.cube(1, 0.0, 2.0)
    out = simplified_step(np.array([0.2]), obj.gradient(np.array([0.2])),
                          bounds, 0.05, 0.2, 1.0)
    assert_allclose(out, [0.2])  # clamp lands exactly on lower + theta


@pytest.mark.parametrize("mode", ["deterministic", "stochastic"])
def test_run_simplified_replays_the_projected_step_formula(mode):
    """run_simplified's trajectory is, bit for bit, the loop x <- clip(x -
    alpha*q, l + theta, u - theta) with q = g - mu/(x - l) + mu/(u - x),
    alpha = 1/(ell_f + 2*mu/theta**2) and theta = min(c*mu, 0.499*delta)."""
    obj = quadratic_objective([1.5, -0.3, 0.2, -2.0], [3.0, 1.0, 0.5, 2.0],
                              noise_level=0.3, sample_count=30, seed=4)
    bounds, x1, maxiter, ell_f, c = Bounds.cube(4, -1.0, 1.0), np.zeros(4), 300, 3.0, 0.4
    mu_seq = 0.5 / np.arange(1.0, maxiter + 1)
    result = run_simplified(obj, bounds, mu_seq, ell_f, c, x1, maxiter, mode=mode,
                            batch_fraction=0.1, seed=2)
    gradient = gradient_oracle(obj, mode, 0.1, 2)
    theta_cap = 0.499 * range_gap(bounds, DELTA_CAP)
    x = x1
    for mu in mu_seq:
        theta = min(c * mu, theta_cap)
        q = gradient(x) - mu / (x - bounds.lower) + mu / (bounds.upper - x)
        alpha = 1.0 / (ell_f + 2.0 * mu / theta ** 2)
        x = np.clip(x - alpha * q, bounds.lower + theta, bounds.upper - theta)
    assert result.final_x.tobytes() == x.tobytes()
    assert not np.array_equal(x, x1)


def test_simplified_fixed_point():
    bounds = Bounds.cube(1, -1.0, 1.0)
    # gradient exactly balancing the barrier terms gives q = 0
    mu, x = 0.1, np.array([0.3])
    g = mu / (x - (-1.0)) - mu / (1.0 - x)
    out = simplified_step(x, g, bounds, mu, 0.01, 1.0)
    assert_allclose(out, x)


def test_simplified_output_in_neighborhood():
    rng = np.random.default_rng(9)
    bounds = Bounds.cube(3, -1.0, 1.0)
    for _ in range(100):
        theta = rng.uniform(0.005, 0.05)
        mu = rng.uniform(0.01, 0.2)
        x = rng.uniform(-0.9, 0.9, size=3)
        g = rng.normal(size=3)
        out = simplified_step(x, g, bounds, mu, theta, 1.0)
        assert in_neighborhood(out, bounds, theta)


def test_recurrence_ratio_limit():
    ks = np.arange(1, 100001)
    c, psi, ell, C = 0.5, 1.0, 1.0, 2.0
    ratios = recurrence_ratio(1.0 / ks, c, psi, ell, C)
    limit = 4.0 * C / (c ** 2 * psi)
    assert abs(ratios[-1] - limit) / limit <= 0.05
    assert_allclose(recurrence_ratio(1.0 / ks[:100], c, psi, ell, 0.0), 0.0)
    with pytest.raises(DomainError):
        recurrence_ratio([10.0], c=10.0, psi=5.0, ell_f=1.0, C=1.0)


def test_recurrence_ratio_large_mu_segment():
    # with psi = ell_f and huge mu the contraction saturates: ratio ~ C*mu
    mus = np.array([1e4, 1e5, 1e6])
    ratios = recurrence_ratio(mus, c=1.0, psi=1.0, ell_f=1.0, C=3.0)
    assert np.all(np.diff(ratios) > 0.0)
    assert_allclose(ratios, 3.0 * mus, rtol=2e-2)


def test_match_sipm_endpoints():
    shape = np.array([1.0, 0.1, 0.01])
    steps = match_sipm_endpoints(shape, 0.5, 0.005)
    assert_allclose(steps[0], 0.5)
    assert_allclose(steps[-1], 0.005)
    assert np.all(np.diff(steps) < 0.0)
    flat = match_sipm_endpoints(np.array([1.0, 1.0]), 0.5, 0.5)
    assert_allclose(flat, [0.5, 0.5])
    # equal endpoints: the geometric formula's 1.0**e is 1, so alpha_first exactly
    assert match_sipm_endpoints(shape, 0.3, 0.3).tolist() == [0.3, 0.3, 0.3]
    assert match_sipm_endpoints([], 0.5, 0.005).shape == (0,)


def test_sipm_beats_simplified_on_strongly_convex_problem():
    obj = quadratic_objective([0.5], [1.0])
    bounds = Bounds.cube(1, -1.0, 1.0)
    x1 = np.zeros(1)
    maxiter, mu1, kappa = 400, 0.1, 1.5
    theta0 = theta0_init(x1, bounds, kappa, 0.0, mu1, 2.0)
    sched = build_staircase(mu1, maxiter, theta0=theta0)
    config = SolverConfig(mode="deterministic", bounds=bounds, schedule=sched,
                          buffers=BufferSequences(mode="practical", maxiter=maxiter),
                          constants=Constants(ell_f=1.0, kappa_inf=kappa),
                          maxiter=maxiter, audit_level="invariants")
    d_sipm = abs(run(obj, config, x1).final_x[0] - 0.5)

    c = c_constant(bounds, kappa, mu1)
    mu_seq = mu1 / np.arange(1.0, maxiter + 1)
    d_simplified = abs(run_simplified(obj, bounds, mu_seq, 1.0, c, x1,
                                      maxiter).final_x[0] - 0.5)
    assert d_sipm < d_simplified


def test_psgm_boundary_certificate():
    # a pull toward a center outside the box parks the iterate on the bound;
    # the active-set certificate absorbs the gradient there
    obj = quadratic_objective([5.0], [1.0])
    bounds = Bounds.cube(1, -1.0, 1.0)
    result = run_psgm(obj, bounds, np.full(50, 0.9), np.zeros(1), 50)
    assert result.final_x[0] == 1.0
    assert result.final_projected_grad_norm == 0.0
    assert result.final_kkt.stationarity_residual == 0.0
    assert result.final_kkt.complementarity_residual == 0.0


def test_run_psgm_converges_on_quadratic():
    obj = quadratic_objective([0.25, -0.4], [1.0, 1.0])
    bounds = Bounds.cube(2, -1.0, 1.0)
    steps = np.full(500, 0.5)
    result = run_psgm(obj, bounds, steps, np.zeros(2), 500)
    assert result.final_projected_grad_norm <= 1e-8
    assert_allclose(result.final_x, [0.25, -0.4], atol=1e-8)


@pytest.mark.parametrize("fraction", [0.0, -0.5])
@pytest.mark.parametrize("baseline", ["psgm", "proj-ipm"])
def test_baselines_reject_nonpositive_batch_fraction(baseline, fraction):
    obj = quadratic_objective([0.2], [1.0], noise_level=0.1, sample_count=20)
    bounds = Bounds.cube(1, -1.0, 1.0)
    with pytest.raises(ValueError, match="batch_fraction"):
        if baseline == "psgm":
            run_psgm(obj, bounds, np.full(5, 0.1), np.zeros(1), 5,
                     mode="stochastic", batch_fraction=fraction)
        else:
            run_simplified(obj, bounds, np.full(5, 0.1), 1.0, 0.5, np.zeros(1), 5,
                           mode="stochastic", batch_fraction=fraction)


SOLVERS = ("sipm", "psgm", "proj-ipm")
# gradients of the wrong shape for n = 2: too short, a scalar, a column, too long
BAD_SHAPES = {"length-1": (1,), "scalar": (), "column": (2, 1), "length-3": (3,)}


@pytest.mark.parametrize("mode", ["deterministic", "stochastic"])
@pytest.mark.parametrize("solver, shape", [
    *(pytest.param(solver, None, id=solver) for solver in SOLVERS),
    *(pytest.param(solver, shape, id=f"{solver}-{name}")
      for solver in SOLVERS for name, shape in BAD_SHAPES.items())])
def test_nan_gradient_names_its_iteration(solver, shape, mode):
    """A non-finite gradient (shape None) fails where it appears, as
    NonFiniteGradient naming the iteration, not one iteration later as a
    geometry error; a gradient whose shape is not x's fails there as
    DimensionMismatch naming both shapes, instead of broadcasting silently
    or failing as an untyped numpy error."""
    obj = quadratic_objective([0.2, -0.1], [1.0, 2.0], noise_level=0.1,
                              sample_count=20, seed=1)
    # corrupt what the oracle reads; the mini-batch noise would broadcast a short one
    name = "gradient" if mode == "deterministic" else "stochastic_gradient"
    exact = getattr(obj, name)
    calls = []

    def gradient(*args):
        calls.append(1)
        g = exact(*args)
        if len(calls) != 3:
            return g
        return g * np.nan if shape is None else np.resize(g, shape)

    setattr(obj, name, gradient)
    bounds = Bounds.cube(2, -1.0, 1.0)
    x1, maxiter = np.zeros(2), 10
    with pytest.raises(NonFiniteGradient if shape is None else DimensionMismatch) as err:
        if solver == "sipm":
            config = SolverConfig(mode=mode, bounds=bounds,
                                  schedule=build_staircase(0.1, maxiter, theta0=0.05),
                                  buffers=BufferSequences(mode="practical", maxiter=maxiter),
                                  constants=Constants(ell_f=2.0, kappa_inf=2.0,
                                                      sigma_inf=0.1),
                                  maxiter=maxiter, batch_fraction=0.1)
            run(obj, config, x1)
        elif solver == "psgm":
            run_psgm(obj, bounds, np.full(maxiter, 0.1), x1, maxiter, mode=mode,
                     batch_fraction=0.1)
        else:
            run_simplified(obj, bounds, np.full(maxiter, 0.1), 2.0, 0.5, x1, maxiter,
                           mode=mode, batch_fraction=0.1)
    if shape is None:
        assert err.value.k == 3
        assert "iteration 3" in str(err.value)
    else:
        assert str(err.value) == (f"iteration 3: the gradient oracle returned shape {shape} "
                                  "for x of shape (2,)")


MODE_ENTRIES = {
    "gradient_oracle": lambda obj, bounds, x1, mode: gradient_oracle(obj, mode, 0.1, 0),
    "run_psgm": lambda obj, bounds, x1, mode: run_psgm(obj, bounds, np.full(5, 0.1), x1, 5,
                                                       mode=mode),
    "run_simplified": lambda obj, bounds, x1, mode: run_simplified(
        obj, bounds, np.full(5, 0.1), 1.0, 0.5, x1, 5, mode=mode),
    "estimate_constants": lambda obj, bounds, x1, mode: estimate_constants(obj, x1, bounds,
                                                                           mode=mode),
}


@pytest.mark.parametrize("entry", sorted(MODE_ENTRIES))
def test_unknown_mode_fails_before_any_oracle_call(entry):
    """A mode other than the two known ones used to run with exact gradients,
    so estimate_constants(mode="stoch") reported sigma_inf_bar=0."""
    obj = quadratic_objective([0.2, -0.1], [1.0, 2.0], noise_level=0.1,
                              sample_count=20, seed=1)
    calls = []
    for name in ("value", "gradient", "stochastic_gradient"):
        method = getattr(obj, name)
        setattr(obj, name, lambda *args, _method=method: calls.append(1) or _method(*args))
    with pytest.raises(InvalidChoice, match="'stoch'"):
        MODE_ENTRIES[entry](obj, Bounds.cube(2, -1.0, 1.0), np.zeros(2), "stoch")
    assert calls == []


@pytest.mark.parametrize("baseline", ["psgm", "proj-ipm"])
def test_short_sequence_is_a_budget_error(baseline):
    """A step or mu sequence shorter than maxiter used to fail as a bare
    IndexError once the loop ran past its end."""
    obj = quadratic_objective([0.2], [1.0])
    bounds = Bounds.cube(1, -1.0, 1.0)
    with pytest.raises(InvalidBudget, match="5 entries, fewer than maxiter=10"):
        if baseline == "psgm":
            run_psgm(obj, bounds, np.full(5, 0.1), np.zeros(1), 10)
        else:
            run_simplified(obj, bounds, np.full(5, 0.1), 1.0, 0.5, np.zeros(1), 10)


BASELINE_RUNS = {
    "psgm": lambda bounds, x1, maxiter: run_psgm(
        quadratic_objective([0.2], [1.0]), bounds, [0.5] * 3, x1, maxiter),
    "proj-ipm": lambda bounds, x1, maxiter: run_simplified(
        quadratic_objective([0.2], [1.0]), bounds, [0.1] * 3, 1.0, 0.5, x1, maxiter),
}


@pytest.mark.parametrize("maxiter", [-1, True, 2.5], ids=["negative", "bool", "float"])
@pytest.mark.parametrize("baseline", sorted(BASELINE_RUNS))
def test_baselines_check_maxiter_as_run_does(baseline, maxiter):
    """A negative maxiter used to return x1 unmoved, True to run one step and
    2.5 to fail as a bare TypeError; run() refuses all three."""
    with pytest.raises(InvalidBudget, match=f"^maxiter={maxiter!r} must be an integer"):
        BASELINE_RUNS[baseline](Bounds.cube(1), np.zeros(1), maxiter)


@pytest.mark.parametrize("baseline", sorted(BASELINE_RUNS))
def test_baselines_check_the_start_shape_as_run_does(baseline):
    """A start of the wrong shape used to fail in the oracle, naming a vector
    length that the caller never passed."""
    with pytest.raises(DimensionMismatch,
                       match=r"^x1 has shape \(1,\), but the bounds have shape \(2,\)$"):
        BASELINE_RUNS[baseline](Bounds.cube(2), np.zeros(1), 3)


@pytest.mark.parametrize("x1, message", [
    ([5.0, 0.0], "x1[0]=5.0 lies outside [-1.0, 1.0]"),
    ([0.0, -1.5], "x1[1]=-1.5 lies outside [-1.0, 1.0]"),
    ([np.nan, 0.0], "x1[0]=nan lies outside [-1.0, 1.0]"),
], ids=["above", "below", "nan"])
@pytest.mark.parametrize("maxiter", [0, 3])
@pytest.mark.parametrize("baseline", sorted(BASELINE_RUNS))
def test_baselines_refuse_a_start_outside_the_box(baseline, maxiter, x1, message):
    """A start outside the box used to come back as final_x unmoved, or to
    take its first gradient outside the box; a start on its boundary is valid."""
    with pytest.raises(InfeasibleStart, match=f"^{re.escape(message)}$"):
        BASELINE_RUNS[baseline](Bounds.cube(2), np.array(x1), maxiter)
    assert BASELINE_RUNS[baseline](Bounds.cube(1), np.ones(1), 0).final_x.tolist() == [1.0]


@pytest.mark.parametrize("name, value, message", [
    ("steps", np.nan, "steps[1]=nan must be finite and nonnegative"),
    ("steps", np.inf, "steps[1]=inf must be finite and nonnegative"),
    ("steps", -1.0, "steps[1]=-1.0 must be finite and nonnegative"),
    ("mu_seq", np.nan, "mu_seq[1]=nan must be finite and positive"),
    ("mu_seq", np.inf, "mu_seq[1]=inf must be finite and positive"),
    ("mu_seq", -0.1, "mu_seq[1]=-0.1 must be finite and positive"),
    ("mu_seq", 0.0, "mu_seq[1]=0.0 must be finite and positive"),
], ids=["step-nan", "step-inf", "step-negative", "mu-nan", "mu-inf", "mu-negative",
        "mu-zero"])
def test_bad_sequence_entry_is_named_before_any_step(name, value, message):
    """A NaN step or mu used to surface one iteration later as a
    NonFiniteGradient, and a negative one ran without an error."""
    obj = quadratic_objective([0.2], [1.0])
    sequence, bounds, x1 = [0.1, value, 0.1], Bounds.cube(1), np.zeros(1)
    with pytest.raises(DomainError) as err:
        if name == "steps":
            run_psgm(obj, bounds, sequence, x1, 3)
        else:
            run_simplified(obj, bounds, sequence, 1.0, 0.5, x1, 3)
    assert str(err.value) == message
    # only the first maxiter entries are read, so only they are checked
    if name == "steps":
        run_psgm(obj, bounds, sequence, x1, 1)
    else:
        run_simplified(obj, bounds, sequence, 1.0, 0.5, x1, 1)
