import numpy as np
import pytest
from numpy.testing import assert_allclose

from sipm import (DELTA_CAP, Bounds, Constants, ScheduleContext, in_neighborhood, range_gap,
                  ratio_test, step_size_bundle)
from sipm import stepsize
from sipm.errors import NotInPriorNeighborhood
from sipm.geometry import slacks
from sipm.stepsize import _slack_products

INF = np.inf


def box(lo, hi):
    return Bounds(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))


def bisect_gamma(x, d, scale, bounds, theta, gamma_max, tol=1e-13):
    """Independent oracle: bisection on the monotone membership predicate."""
    def member(g):
        return in_neighborhood(x + g * scale * d, bounds, theta)
    assert member(0.0)
    if member(gamma_max):
        return gamma_max
    lo, hi = 0.0, gamma_max
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if member(mid):
            lo = mid
        else:
            hi = mid
    return lo


def random_instance(rng):
    n = int(rng.integers(1, 7))
    lo = rng.uniform(-3.0, -0.5, size=n)
    hi = rng.uniform(0.5, 3.0, size=n)
    kind = rng.integers(0, 4, size=n)
    lo[kind == 1] = -INF
    hi[kind == 2] = INF
    if not (np.isfinite(lo).any() or np.isfinite(hi).any()):
        lo[0] = -1.0
    bounds = box(lo, hi)
    theta = rng.uniform(0.0, 0.2)
    inner_lo = np.where(bounds.finite_lower, lo + theta, -3.0)
    inner_hi = np.where(bounds.finite_upper, hi - theta, 3.0)
    x = rng.uniform(inner_lo, inner_hi)
    if rng.random() < 0.2:  # sometimes start exactly on the neighborhood boundary
        i = int(rng.integers(0, n))
        if bounds.finite_lower[i]:
            x[i] = lo[i] + theta
    d = rng.normal(size=n)
    d[rng.random(size=n) < 0.2] = 0.0
    scale = rng.uniform(0.05, 2.0)
    gamma_max = rng.choice([1.0, 0.7, 0.3])
    return x, d, scale, bounds, theta, gamma_max


def slack_products(x, xbar, bounds):
    return _slack_products(slacks(x, bounds), slacks(xbar, bounds))


def test_slack_products_examples():
    b = box([0.0], [2.0])
    assert slack_products([1.0], [1.0], b) == (1.0, 1.0)
    assert_allclose(slack_products([0.5], [1.0], b), [0.25, 1.5])
    assert slack_products([1.0], [1.0], box([-INF], [2.0])) == (INF, 1.0)


def test_local_lipschitz_examples():
    """ell_f + mu/a + mu/b, the kernel's Lipschitz constant on a segment, with
    mu/inf = 0 on an open side."""
    def ell(mu, x, xbar, bounds, ell_f):
        a, b = slack_products(x, xbar, bounds)
        return ell_f + mu / a + mu / b

    b = box([0.0], [2.0])
    assert_allclose(ell(1.0, [1.0], [1.0], b, 0.0), 2.0)
    assert_allclose(ell(1e-12, [1.0], [1.0], b, 3.0), 3.0, rtol=1e-11)
    assert_allclose(ell(1.0, [0.5], [1.0], b, 1.0), 1.0 + 4.0 + 2.0 / 3.0)
    assert ell(1.0, [1.0], [1.0], box([-INF], [2.0]), 0.5) == 1.5


def test_ratio_test_examples():
    b = box([0.0], [2.0])
    assert_allclose(ratio_test([1.0], [-2.0], 1.0, b, 0.1, 1.0), 0.45)
    assert ratio_test([1.0], [0.0], 1.0, b, 0.1, 1.0) == 1.0
    assert ratio_test([1.0], [0.1], 1.0, b, 0.1, 1.0) == 1.0
    # stall: on the boundary with an outward direction
    assert ratio_test([0.1], [-1.0], 1.0, b, 0.1, 1.0) == 0.0


def test_ratio_test_matches_bisection():
    rng = np.random.default_rng(23)
    for _ in range(400):
        x, d, scale, bounds, theta, gamma_max = random_instance(rng)
        got = ratio_test(x, d, scale, bounds, theta, gamma_max)
        want = bisect_gamma(x, d, scale, bounds, theta, gamma_max)
        assert abs(got - want) <= 1e-12


def test_ratio_test_maximality():
    # membership is checked with absolute tolerance 1e-9 on gamma: the exact
    # ratio recomposed in floats can land an ulp outside the neighborhood
    rng = np.random.default_rng(29)
    for _ in range(400):
        x, d, scale, bounds, theta, gamma_max = random_instance(rng)
        gamma = ratio_test(x, d, scale, bounds, theta, gamma_max)
        inside = max(0.0, gamma - 1e-9)
        assert in_neighborhood(x + inside * scale * d, bounds, theta)
        if gamma + 1e-9 <= gamma_max:
            assert not in_neighborhood(x + (gamma + 1e-9) * scale * d, bounds, theta)


def ctx(mu_k, theta_k, theta_prev, t_alpha=0.0, alpha_buff=0.0, gamma_buff=0.0):
    return ScheduleContext(mu_k=mu_k, theta_k=theta_k, theta_prev=theta_prev,
                           t_alpha=t_alpha, alpha_buff=alpha_buff,
                           gamma_buff=gamma_buff)


def test_bundle_alpha_min_example():
    b = box([-10.0], [10.0])
    bundle = step_size_bundle(np.zeros(1), np.zeros(1), np.ones(1), 1, b,
                              ctx(1.0, 1.0, 1.5), Constants(ell_f=1.0, kappa_inf=1.0),
                              delta=20.0)
    assert_allclose(bundle.alpha_min, 1.0 / 3.0)


def test_bundle_gamma_min_example():
    # frozen arithmetic: bracket 0.4, denominator 6, floor 0.4/6
    b = box([-50.0], [50.0])
    bundle = step_size_bundle(np.zeros(1), np.zeros(1), np.ones(1), 1, b,
                              ctx(1.0, 0.1, 0.2, alpha_buff=1.0 - 1.0 / (1.0 + 2.0 / 0.01)),
                              Constants(ell_f=1.0, kappa_inf=1.0, sigma_inf=0.0),
                              delta=2.0)
    assert_allclose(bundle.alpha_max, 1.0)
    assert_allclose(bundle.gamma_min, 0.4 / 6.0)


def test_bundle_gradient_bound_is_kappa_plus_sigma():
    """The kernel knows no mode: its gradient bound is kappa_inf + sigma_inf,
    so exact gradients pass sigma_inf = 0 and any sigma_inf loosens it."""
    b = box([-50.0], [50.0])
    sched = ctx(1.0, 0.1, 0.2, alpha_buff=0.5)
    split = step_size_bundle(np.zeros(1), np.ones(1), np.ones(1), 1, b, sched,
                             Constants(ell_f=1.0, kappa_inf=1.0, sigma_inf=0.5), delta=2.0)
    summed = step_size_bundle(np.zeros(1), np.ones(1), np.ones(1), 1, b, sched,
                              Constants(ell_f=1.0, kappa_inf=1.5), delta=2.0)
    exact = step_size_bundle(np.zeros(1), np.ones(1), np.ones(1), 1, b, sched,
                             Constants(ell_f=1.0, kappa_inf=1.0), delta=2.0)
    assert split == summed
    assert split.gamma_min < exact.gamma_min


def test_bundle_zero_gradient():
    b = box([0.0], [2.0])
    bundle = step_size_bundle(np.array([1.0]), np.zeros(1), np.ones(1), 1, b,
                              ctx(0.1, 0.05, 0.1), Constants(ell_f=1.0, kappa_inf=1.5),
                              delta=2.0)
    assert bundle.gamma_bar == bundle.gamma_max
    # ell_k at (x, x): unit slacks on both sides
    assert_allclose(bundle.ell_k, 1.0 + 0.1 + 0.1)
    assert_allclose(bundle.alpha_k, min(1.0 / bundle.ell_k, bundle.alpha_max))


def test_bundle_requires_prior_neighborhood():
    b = box([0.0], [2.0])
    with pytest.raises(NotInPriorNeighborhood):
        step_size_bundle(np.array([0.05]), np.zeros(1), np.ones(1), 1, b,
                         ctx(1.0, 0.05, 0.1), Constants(ell_f=1.0, kappa_inf=1.0),
                         delta=2.0)
    with pytest.raises(ValueError):
        step_size_bundle(np.array([1.0]), np.zeros(1), np.zeros(1), 1, b,
                         ctx(1.0, 0.05, 0.1), Constants(ell_f=1.0, kappa_inf=1.0),
                         delta=2.0)


def test_bundle_orderings():
    rng = np.random.default_rng(31)
    b = box([-1.0, -1.0, -1.0], [1.0, 1.0, 1.0])
    const = Constants(ell_f=0.8, kappa_inf=1.2, sigma_inf=0.4)
    for trial in range(200):
        theta_prev = rng.uniform(0.02, 0.2)
        theta_k = rng.uniform(0.01, theta_prev)
        mu = rng.uniform(1e-4, 0.5)
        x = rng.uniform(-1 + theta_prev, 1 - theta_prev, size=3)
        q = rng.normal(size=3)
        h = rng.uniform(0.5, 3.0, size=3)
        k = int(rng.integers(1, 50))
        sched = ctx(mu, theta_k, theta_prev, t_alpha=-0.25,
                    alpha_buff=rng.uniform(0.0, 2.0), gamma_buff=rng.uniform(0.0, 1.0))
        bundle = step_size_bundle(x, q, h, k, b, sched, const, delta=2.0)
        assert bundle.alpha_min <= bundle.alpha_k <= bundle.alpha_max + 1e-15
        assert bundle.gamma_min <= bundle.gamma_max <= 1.0
        assert bundle.alpha_k <= bundle.alpha_pre + 1e-15


def reference_tail(x, d, bundle, bounds, theta_k):
    """The step's tail as it ran before the look-ahead shortcuts, kept as the
    reference: (gamma_bar, gamma_k, x_next) from both ratio tests and the full
    update, always."""
    inner_lo, inner_up = bounds.lower + theta_k, bounds.upper - theta_k
    margin = np.where(d < 0.0, inner_lo, inner_up) - x
    moving = d != 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        gamma_bar = stepsize._ratio(margin, d, bundle.alpha_pre, bundle.gamma_max, moving)
        gamma_k = stepsize._ratio(margin, d, bundle.alpha_k, bundle.gamma_max, moving)
    return gamma_bar, gamma_k, (x + (gamma_k * bundle.alpha_k) * d).clip(inner_lo, inner_up)


def random_step(rng, case):
    """(x, stepsize._step's arguments after x) for one seeded step of ``case``."""
    n = int(rng.integers(1, 7))
    lo, hi = rng.uniform(-3.0, -0.5, size=n), rng.uniform(0.5, 3.0, size=n)
    if case == "open-sides":
        kind = rng.integers(0, 3, size=n)
        lo[kind == 1] = -INF
        hi[kind == 2] = INF
    bounds = box(lo, hi)
    delta = range_gap(bounds, DELTA_CAP)
    mu = rng.uniform(1e-3, 0.5)
    constants = Constants(ell_f=rng.uniform(0.1, 3.0), kappa_inf=rng.uniform(0.5, 5.0))
    theta_prev = theta_k = rng.uniform(0.01, 0.2)
    gamma_buff = rng.uniform(0.0, 1.0)
    if case == "power-theta":
        theta_k = rng.uniform(0.001, theta_prev)
    if case == "gamma-max-zero":
        # theta at the root of gamma_min's bracket gives gamma_max 0, past it < 0
        root = 0.5 * mu * delta / (mu + 0.5 * constants.kappa_inf * delta)
        theta_prev = theta_k = root * rng.choice([1.0, 1.5])
        gamma_buff = 0.0
    x = rng.uniform(np.maximum(lo, -3.0) + theta_prev, np.minimum(hi, 3.0) - theta_prev)
    q = rng.normal(size=n) * 10.0 ** rng.uniform(-3.0, 2.0)
    if case == "signed-zeros":
        x[rng.random(n) < 0.5] = -0.0
        q[rng.random(n) < 0.5] = rng.choice([0.0, -0.0])   # d = -q/h: the other zero
    if case == "nan-direction":
        q[int(rng.integers(0, n))] = np.nan
    h_diag = rng.uniform(0.5, 3.0, size=n)
    # a negative buffer, which no caller passes, drives alpha_k below 0
    alpha_buff = -rng.uniform(0.5, 2.0) if case == "alpha-outside" else rng.uniform(0.0, 2.0)
    return x, (slacks(x, bounds), q, h_diag, int(rng.integers(1, 50)), bounds, mu, theta_k,
               theta_prev, rng.choice([0.0, -0.25]), alpha_buff, gamma_buff, constants, delta)


# case -> a property of (x, bundle, d, theta_k, theta_prev) that some of its steps have
STEP_CASES = {
    "alpha-outside": lambda x, b, d, tk, tp: (b.gamma_bar == b.gamma_max > 0.0
                                              and not 0.0 < b.alpha_k <= b.alpha_pre),
    "binding": lambda x, b, d, tk, tp: b.gamma_bar < b.gamma_max,
    "shorter-step": lambda x, b, d, tk, tp: (b.gamma_bar == b.gamma_max
                                             and b.alpha_k < b.alpha_pre),
    "gamma-max-zero": lambda x, b, d, tk, tp: b.gamma_max <= 0.0,
    "signed-zeros": lambda x, b, d, tk, tp: ((np.signbit(d) & (d == 0.0)).any()
                                             and (np.signbit(x) & (x == 0.0)).any()),
    "nan-direction": lambda x, b, d, tk, tp: np.isnan(d).any(),
    "open-sides": lambda x, b, d, tk, tp: True,
    "power-theta": lambda x, b, d, tk, tp: tk < tp,
}


@pytest.mark.parametrize("case", sorted(STEP_CASES))
def test_step_shortcuts_match_the_full_tail(case):
    """The kernel skips the second ratio test where gamma_max capped the
    look-ahead and 0 < alpha_k <= alpha_pre, and the update where the step
    equals the look-ahead; over seeded steps it still returns the reference
    tail's gamma_k and x_next bit for bit."""
    rng = np.random.default_rng(sorted(STEP_CASES).index(case))
    seen = 0
    for _ in range(300):
        x, args = random_step(rng, case)
        with np.errstate(divide="ignore", invalid="ignore"):   # as _step's callers run it
            bundle, d, gamma_k, x_next = stepsize._step(x, *args)
        bounds, theta_k, theta_prev = args[4], args[6], args[7]
        gamma_bar, want_gamma, want_x = reference_tail(x, d, bundle, bounds, theta_k)
        assert gamma_bar == bundle.gamma_bar
        assert np.float64(gamma_k).tobytes() == np.float64(want_gamma).tobytes()
        assert x_next.tobytes() == want_x.tobytes()
        seen += bool(STEP_CASES[case](x, bundle, d, theta_k, theta_prev))
    assert seen >= 10


def test_the_bundle_is_an_immutable_tuple_that_the_kernel_and_the_public_function_share():
    """The bundle is a NamedTuple: its fields cannot be set, ``_replace``
    gives a changed copy, and step_size_bundle returns the kernel's bundle."""
    bounds = box([-1.0, -1.0, 0.0], [1.0, 1.0, INF])
    x, q, h_diag = np.array([0.2, -0.1, 0.5]), np.array([0.5, -0.3, 0.0]), np.full(3, 2.0)
    sched = ScheduleContext(mu_k=0.1, theta_k=0.05, theta_prev=0.05, t_alpha=0.0,
                            alpha_buff=1.0, gamma_buff=0.5)
    constants = Constants(ell_f=1.0, kappa_inf=2.0)
    delta = range_gap(bounds, DELTA_CAP)
    bundle = step_size_bundle(x, q, h_diag, 3, bounds, sched, constants, delta)
    with np.errstate(divide="ignore", invalid="ignore"):
        kernel = stepsize._step(x, slacks(x, bounds), q, h_diag, 3, bounds, 0.1, 0.05, 0.05,
                                0.0, 1.0, 0.5, constants, delta)[0]
    assert type(bundle) is type(kernel) is stepsize.StepSizeBundle
    assert bundle == kernel
    assert bundle._fields == ("alpha_min", "alpha_pre", "gamma_bar", "ell_k", "alpha_max",
                              "alpha_k", "gamma_min", "gamma_max")
    with pytest.raises(AttributeError):
        bundle.alpha_k = 0.0
    changed = bundle._replace(ell_k=0.0)
    assert changed.ell_k == 0.0 and bundle.ell_k > 0.0
    assert changed._replace(ell_k=bundle.ell_k) == bundle
