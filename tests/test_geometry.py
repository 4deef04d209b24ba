import re
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sipm import (Bounds, Constants, ScheduleContext, barrier_gradient, barrier_value,
                  build_hk, default_chi, in_neighborhood, kkt_certificate, mu1_init,
                  project_to_neighborhood, projected_gradient_norm, range_gap, ratio_test,
                  shifted_barrier_value, step_size_bundle, theta0_init)
from sipm import geometry
from sipm.errors import (DimensionMismatch, DomainError, EmptyNeighborhood, InvalidConstants,
                         InvalidSpec, NotInterior, SipmError)
from sipm.geometry import slacks

INF = np.inf


def box(lo, hi):
    return Bounds(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))


def random_box(rng, n):
    """Box with a mix of finite, one-sided, and doubly finite coordinates."""
    lo = rng.uniform(-2.0, -0.5, size=n)
    hi = rng.uniform(0.5, 2.0, size=n)
    kind = rng.integers(0, 3, size=n)
    lo[kind == 1] = -INF
    hi[kind == 2] = INF
    if not (np.isfinite(lo).any() or np.isfinite(hi).any()):
        lo[0] = -1.0
    return box(lo, hi)


def interior_point(rng, bounds, margin=0.05):
    lo = np.where(bounds.finite_lower, bounds.lower + margin, -1.5)
    hi = np.where(bounds.finite_upper, bounds.upper - margin, 1.5)
    return rng.uniform(lo, hi)


def test_bounds_validation():
    with pytest.raises(ValueError):
        box([0.0], [0.0])
    with pytest.raises(ValueError):
        box([-INF], [INF])
    b = box([0.0, -INF], [2.0, 5.0])
    assert b.finite_lower.tolist() == [True, False]
    assert b.finite_upper.tolist() == [True, True]


def test_bad_bounds_raise_invalid_spec():
    # a reversed side used to raise a bare ValueError; InvalidSpec is still one
    with pytest.raises(InvalidSpec, match="lower < upper") as info:
        Bounds([1.0], [0.0])
    assert isinstance(info.value, SipmError) and isinstance(info.value, ValueError)
    with pytest.raises(InvalidSpec, match="equal length"):
        Bounds([0.0, 0.0], [1.0])
    with pytest.raises(InvalidSpec, match="at least one bound must be finite"):
        Bounds([-INF], [INF])


def test_range_gap():
    assert range_gap(box([0.0, 0.0], [2.0, 5.0]), 100.0) == 2.0
    assert range_gap(box([0.0], [INF]), 100.0) == 100.0
    assert range_gap(box([-1.0, -1.0], [1.0, 1.0]), 0.5) == 0.5


@pytest.mark.parametrize("cap", [0.0, -1.0, np.nan])
def test_range_gap_rejects_a_cap_that_is_not_positive(cap):
    # a NaN cap used to pass the guard and return nan
    with pytest.raises(DomainError, match="must be positive") as err:
        range_gap(box([0.0], [2.0]), cap)
    assert isinstance(err.value, ValueError)


@pytest.mark.parametrize("chi", [1.0, np.nan])
def test_shifted_barrier_rejects_chi_not_above_one(chi):
    with pytest.raises(DomainError, match="must exceed 1"):
        shifted_barrier_value(0.0, [1.0], box([0.0], [2.0]), 1.0, chi)


def test_in_neighborhood():
    b = box([0.0], [2.0])
    assert in_neighborhood([0.1], b, 0.1)
    assert not in_neighborhood([0.05], b, 0.1)
    assert in_neighborhood([1.95], box([0.0], [INF]), 0.1)


def stacked_slack_cases():
    """Seeded (x, bounds) pairs: boxes open on either side, -0.0 in the
    bounds and in x, points on a finite side, and NaN entries of both signs."""
    rng = np.random.default_rng(29)
    for _ in range(400):
        n = int(rng.integers(1, 9))
        lo = rng.choice([-1.0, -0.0, -3.0, -INF], size=n)
        hi = rng.choice([1.0, 2.0, -0.0, INF], size=n)
        hi[(lo == 0.0) & (hi == 0.0)] = 1.0
        if not (np.isfinite(lo).any() or np.isfinite(hi).any()):
            lo[0] = -1.0
        x = rng.uniform(-1.0, 1.0, size=n)
        pick = rng.integers(0, 7, size=n)
        x[pick == 1] = np.where(np.isfinite(lo), lo, -0.0)[pick == 1]
        x[pick == 2] = np.where(np.isfinite(hi), hi, 0.0)[pick == 2]
        x[pick == 3] = -0.0
        x[pick == 4] = 0.0
        x[pick == 5] = rng.choice([np.nan, -np.nan])
        yield x, box(lo, hi)


def test_stacked_slacks_are_the_two_differences_bit_for_bit():
    """slacks() is one (2, n) array whose rows are x - lower and upper - x,
    byte for byte, also for signed zeros, infinite sides, points on a side
    and NaN entries."""
    for x, b in stacked_slack_cases():
        s = slacks(x, b)
        assert s.shape == (2, b.n)
        assert s[0].tobytes() == (x - b.lower).tobytes()
        assert s[1].tobytes() == (b.upper - x).tobytes()
        lo, up = s   # callers may still unpack the two rows
        assert lo.tobytes() == s[0].tobytes() and up.tobytes() == s[1].tobytes()


def test_stacked_neighborhood_test_matches_the_two_sided_one():
    """in_neighborhood compares -x >= theta - upper for the upper side; that
    is x <= upper - theta for every case of the stacked-slack draws."""
    for x, b in stacked_slack_cases():
        for theta in (0.0, 0.05, 0.5):
            two_sided = bool((x >= b.lower + theta).all() and (x <= b.upper - theta).all())
            assert in_neighborhood(x, b, theta) == two_sided


def test_neighborhood_nesting():
    rng = np.random.default_rng(11)
    for _ in range(200):
        b = random_box(rng, rng.integers(1, 6))
        x = interior_point(rng, b)
        theta = rng.uniform(0.0, 0.2)
        smaller = rng.uniform(0.0, theta)
        if in_neighborhood(x, b, theta):
            assert in_neighborhood(x, b, smaller)


def test_project_to_neighborhood():
    b = box([0.0], [2.0])
    assert_allclose(project_to_neighborhood([-1.0], b, 0.1), [0.1])
    assert_allclose(project_to_neighborhood([1.0], b, 0.1), [1.0])
    b2 = box([0.0, 0.0], [2.0, 2.0])
    assert_allclose(project_to_neighborhood([3.0, -3.0], b2, 0.25), [1.75, 0.25])
    with pytest.raises(EmptyNeighborhood):
        project_to_neighborhood([1.0, 1.0], b2, 1.0)
    # an infinite range binds only an infinite theta
    open_sides = box([0.0, -INF], [INF, 1.0])
    assert_allclose(project_to_neighborhood([-1.0, 5.0], open_sides, 50.0), [50.0, -49.0])
    with pytest.raises(EmptyNeighborhood):
        project_to_neighborhood([1.0, 0.0], open_sides, INF)



def test_project_to_neighborhood_refuses_a_nan_theta():
    """theta >= half the smallest range is False for a NaN theta, so the
    projection used to return NaN coordinates; it now raises DomainError
    naming theta, not EmptyNeighborhood."""
    with pytest.raises(DomainError, match=r"^theta=nan is NaN$"):
        project_to_neighborhood(np.zeros(2), Bounds.cube(2), np.nan)
    with pytest.raises(DomainError, match="theta=nan"):
        project_to_neighborhood([1.0, 0.0], box([0.0, -INF], [INF, 1.0]), float("nan"))


def test_projection_idempotent_and_member():
    rng = np.random.default_rng(5)
    for _ in range(200):
        b = random_box(rng, rng.integers(1, 6))
        theta = rng.uniform(0.0, 0.2)
        x = rng.uniform(-5.0, 5.0, size=b.n)
        p = project_to_neighborhood(x, b, theta)
        assert in_neighborhood(p, b, theta)
        assert_allclose(project_to_neighborhood(p, b, theta), p)


def test_barrier_value_examples():
    assert barrier_value(0.0, [1.0, 1.0], box([0, 0], [2, 2]), 0.5) == 0.0
    assert_allclose(barrier_value(1.0, [0.5], box([0.0], [2.0]), 1.0),
                    1.0 - np.log(0.5) - np.log(1.5), rtol=1e-14)
    assert_allclose(barrier_value(2.0, [5.0], box([0.0], [INF]), 1.0),
                    2.0 - np.log(5.0), rtol=1e-14)
    with pytest.raises(NotInterior):
        barrier_value(0.0, [0.0], box([0.0], [2.0]), 1.0)


def test_shifted_barrier_identity():
    rng = np.random.default_rng(7)
    for _ in range(100):
        b = random_box(rng, rng.integers(1, 5))
        x = interior_point(rng, b)
        mu = rng.uniform(1e-4, 2.0)
        chi = rng.uniform(1.001, 10.0)
        count = int(b.finite_lower.sum() + b.finite_upper.sum())
        phi = barrier_value(0.3, x, b, mu)
        assert shifted_barrier_value(0.3, x, b, mu, chi) == phi + mu * np.log(chi) * count


def test_shifted_barrier_examples():
    b = box([0.0], [2.0])
    phi = barrier_value(0.0, [1.0], b, 1.0)
    assert_allclose(shifted_barrier_value(0.0, [1.0], b, 1.0, np.e), phi + 2.0, rtol=1e-14)
    b1 = box([0.0], [INF])
    phi1 = barrier_value(0.0, [1.0], b1, 2.0)
    assert_allclose(shifted_barrier_value(0.0, [1.0], b1, 2.0, np.e ** 2), phi1 + 4.0,
                    rtol=1e-14)
    # vanishing shift as chi -> 1+
    assert_allclose(shifted_barrier_value(0.0, [1.0], b, 1.0, 1.0 + 1e-12), phi,
                    atol=1e-10)


def test_default_chi():
    assert default_chi(box([0.0, -1.0], [2.0, 1.0])) == 3.0
    assert default_chi(box([0.0], [INF])) == 1.0 + 1e-6


def test_barrier_gradient_examples():
    assert_allclose(barrier_gradient([3.0], [1.0], box([0.0], [2.0]), 1.0), [3.0])
    assert_allclose(barrier_gradient([0.0], [2.0], box([0.0], [INF]), 1.0), [-0.5])
    assert_allclose(barrier_gradient([0.0, 0.0], [0.5, 1.5], box([0, 0], [2, 2]), 1.0),
                    [-4.0 / 3.0, 4.0 / 3.0], rtol=1e-14)


def test_barrier_gradient_matches_finite_differences():
    rng = np.random.default_rng(19)
    h = 1e-6
    for _ in range(50):
        b = random_box(rng, rng.integers(1, 5))
        x = interior_point(rng, b, margin=0.2)
        mu = rng.uniform(0.01, 1.0)
        grad = barrier_gradient(np.zeros(b.n), x, b, mu)
        fd = np.empty(b.n)
        for i in range(b.n):
            e = np.zeros(b.n)
            e[i] = h
            fd[i] = (barrier_value(0.0, x + e, b, mu)
                     - barrier_value(0.0, x - e, b, mu)) / (2 * h)
        assert_allclose(fd, grad, rtol=1e-6, atol=1e-8)


def test_projected_gradient_norm():
    b = box([0.0], [1.0])
    assert projected_gradient_norm([0.5], [0.0], b) == 0.0
    assert_allclose(projected_gradient_norm([0.5], [0.2], b), 0.2)
    assert projected_gradient_norm([1.0], [-1.0], b) == 0.0


def test_projected_gradient_norm_zero_at_kkt_points():
    # boundary minimizer of a quadratic whose center lies outside the box
    b = box([-1.0, -1.0], [1.0, 1.0])
    center = np.array([2.0, -3.0])
    xstar = np.clip(center, -1.0, 1.0)
    g = xstar - center  # gradient of 0.5*||x - center||^2
    assert projected_gradient_norm(xstar, g, b) == 0.0
    # interior stationary point
    assert projected_gradient_norm([0.3, -0.2], [0.0, 0.0], b) == 0.0


def test_kkt_certificate():
    cert = kkt_certificate([1.0], [0.0], box([0.0], [2.0]), 0.5)
    assert_allclose(cert.y, [0.5])
    assert_allclose(cert.z, [0.5])
    assert cert.stationarity_residual == 0.0
    assert cert.complementarity_residual == 0.5

    cert = kkt_certificate([0.5], [2.0], box([0.0], [INF]), 1.0)
    assert_allclose(cert.y, [2.0])
    assert_allclose(cert.z, [0.0])
    assert cert.stationarity_residual == 0.0

    # constructed stationarity: g := y - z makes the residual vanish
    rng = np.random.default_rng(3)
    for _ in range(50):
        b = random_box(rng, rng.integers(1, 5))
        x = interior_point(rng, b)
        mu = rng.uniform(0.01, 1.0)
        ref = kkt_certificate(x, np.zeros(b.n), b, mu)
        cert = kkt_certificate(x, ref.y - ref.z, b, mu)
        assert cert.stationarity_residual <= 1e-15


CUBE3 = Bounds.cube(3)
X3 = np.array([0.1, -0.2, 0.3])
CTX = ScheduleContext(mu_k=0.1, theta_k=0.01, theta_prev=0.02, t_alpha=0.0, alpha_buff=0.0,
                      gamma_buff=0.0)
CONSTANTS = Constants(ell_f=1.0, kappa_inf=1.0)
# name -> (call with one array of the given length, the argument's name in the message)
MISSHAPEN = {
    "barrier_gradient-g": (lambda v: barrier_gradient(v, X3, CUBE3, 0.1), "g"),
    "barrier_gradient-x": (lambda v: barrier_gradient(X3, v, CUBE3, 0.1), "x"),
    "projected_gradient_norm-g": (lambda v: projected_gradient_norm(X3, v, CUBE3), "g"),
    "projected_gradient_norm-x": (lambda v: projected_gradient_norm(v, X3, CUBE3), "x"),
    "kkt_certificate-g": (lambda v: kkt_certificate(X3, v, CUBE3, 0.1), "g"),
    "kkt_certificate-x": (lambda v: kkt_certificate(v, X3, CUBE3, 0.1), "x"),
    "ratio_test-direction": (lambda v: ratio_test(X3, v, 0.5, CUBE3, 0.01, 1.0), "direction"),
    "ratio_test-x": (lambda v: ratio_test(v, X3, 0.5, CUBE3, 0.01, 1.0), "x"),
    "step_size_bundle-q": (lambda v: step_size_bundle(X3, v, np.ones(3), 2, CUBE3, CTX,
                                                      CONSTANTS, 2.0), "q"),
    "step_size_bundle-h_diag": (lambda v: step_size_bundle(X3, X3, v, 2, CUBE3, CTX,
                                                           CONSTANTS, 2.0), "h_diag"),
    "mu1_init-g1": (lambda v: mu1_init(v, X3, CUBE3), "g1"),
    "build_hk-x": (lambda v: build_hk(v, CUBE3, 0.1, 1.0), "x"),
    "barrier_value-x": (lambda v: barrier_value(0.0, v, CUBE3, 0.1), "x"),
    "shifted_barrier_value-x": (lambda v: shifted_barrier_value(0.0, v, CUBE3, 0.1, 3.0), "x"),
    "project_to_neighborhood-x": (lambda v: project_to_neighborhood(v, CUBE3, 0.1), "x"),
    "in_neighborhood-x": (lambda v: in_neighborhood(v, CUBE3, 0.1), "x"),
    "theta0_init-x1": (lambda v: theta0_init(v, CUBE3, 1.0, 0.0, 0.1, 2.0), "x1"),
}


@pytest.mark.parametrize("length", [1, 2, 4])
@pytest.mark.parametrize("case", sorted(MISSHAPEN))
def test_public_helpers_refuse_arrays_of_another_length(case, length):
    """A length-1 array used to broadcast silently (barrier_gradient(ones(1),
    zeros(3), cube(3), 0.1) gave [1, 1, 1]) and other lengths failed as bare
    numpy errors or, for mu1_init's g1, were ignored; each now raises
    DimensionMismatch naming both shapes."""
    call, name = MISSHAPEN[case]
    message = f"{name} has shape ({length},), but the bounds have shape (3,)"
    with pytest.raises(DimensionMismatch, match=re.escape(message)):
        call(np.full(length, 0.1))


# name-parameter -> call with one value of that scalar parameter
NEGATIVE_OR_NAN = {
    "in_neighborhood-theta": lambda v: in_neighborhood([1.2, 0.0, 0.0], CUBE3, v),
    "project_to_neighborhood-theta": lambda v: project_to_neighborhood([5.0, -5.0, 0.0],
                                                                       CUBE3, v),
    "ratio_test-theta": lambda v: ratio_test(X3, X3, 0.5, CUBE3, v, 1.0),
    "ratio_test-scale": lambda v: ratio_test(np.zeros(3), [1.0, -2.0, 0.5], v, CUBE3, 0.1, 1.0),
    "ratio_test-gamma_max": lambda v: ratio_test(np.zeros(3), [1.0, -2.0, 0.5], 1.0, CUBE3,
                                                 0.1, v),
    "build_hk-mu": lambda v: build_hk(X3, CUBE3, v, 1.0),
    "build_hk-ell_f_bar": lambda v: build_hk(np.zeros(3), CUBE3, 0.1, v),
    "step_size_bundle-k": lambda v: step_size_bundle(X3, X3, np.ones(3), v, CUBE3, CTX,
                                                     CONSTANTS, 2.0),
    **{f"step_size_bundle-{field}": (
        lambda v, field=field: step_size_bundle(X3, X3, np.ones(3), 2, CUBE3,
                                                replace(CTX, **{field: v}), CONSTANTS, 2.0))
       for field in ("mu_k", "alpha_buff", "gamma_buff")},
    "barrier_value-mu": lambda v: barrier_value(0.0, X3, CUBE3, v),
    "shifted_barrier_value-mu": lambda v: shifted_barrier_value(0.0, X3, CUBE3, v, 3.0),
    "barrier_gradient-mu": lambda v: barrier_gradient(X3, X3, CUBE3, v),
    "kkt_certificate-mu": lambda v: kkt_certificate(X3, X3, CUBE3, v),
}


@pytest.mark.parametrize("value, says", [(-0.5, "is negative"), (np.nan, "is NaN")],
                         ids=["negative", "nan"])
@pytest.mark.parametrize("case", sorted(NEGATIVE_OR_NAN))
def test_public_helpers_refuse_a_negative_or_nan_theta_or_mu(case, value, says):
    """project_to_neighborhood([5, -5, 0], cube(3), -0.5) used to return
    [1.5, -1.5, 0], outside the box; in_neighborhood([1.2, 0, 0], cube(3),
    -0.5) returned True, build_hk with mu=-1 a negative diagonal and
    barrier_value with mu=nan a NaN.  The step helpers' other scalars went the
    same way: ratio_test(zeros(3), [1, -2, 0.5], nan, cube(3), 0.1, 1) returned
    1 and a scale of -1 returned 0, a NaN gamma_max returned 0, build_hk with
    ell_f_bar=-5 a -4.8 diagonal, and step_size_bundle with k=-1 failed as a
    TypeError about complex numbers; with mu_k=-0.1 it returned alpha_min=-0.0005,
    with alpha_buff=-1 alpha_k=-0.9995, and a NaN gamma_buff passed silently.
    Each now raises DomainError naming the parameter."""
    name = case.rsplit("-", 1)[1]
    with pytest.raises(DomainError, match=f"^{name}={value} {says}$"):
        NEGATIVE_OR_NAN[case](value)


def test_step_size_bundle_refuses_an_iteration_zero_and_a_non_finite_t_alpha():
    """k=0 with t_alpha=-0.5 used to fail as a ZeroDivisionError in 0**-0.5,
    and with t_alpha=0.5 as one in gamma_min, after alpha_max came out 0; a
    NaN t_alpha gave NaN step sizes."""
    with pytest.raises(DomainError, match="^k=0 is not an iteration: they count from 1$"):
        step_size_bundle(X3, X3, np.ones(3), 0, CUBE3, replace(CTX, t_alpha=-0.5),
                         CONSTANTS, 2.0)
    for t_alpha in (np.nan, -np.inf, np.inf):
        with pytest.raises(DomainError, match=f"^t_alpha={t_alpha} is not finite$"):
            step_size_bundle(X3, X3, np.ones(3), 2, CUBE3, replace(CTX, t_alpha=t_alpha),
                             CONSTANTS, 2.0)


@pytest.mark.parametrize("value", [0.0, -0.5, np.nan], ids=["zero", "negative", "nan"])
@pytest.mark.parametrize("name", ["theta_k", "delta"])
def test_step_size_bundle_refuses_a_theta_k_or_delta_that_is_not_positive(name, value):
    """theta_k=0 failed as a bare ZeroDivisionError in 2 mu / theta_k**2;
    a negative or NaN theta_k or delta gave wrong or NaN step sizes."""
    sched = replace(CTX, theta_k=value) if name == "theta_k" else CTX
    delta = value if name == "delta" else 2.0
    with pytest.raises(DomainError, match=f"^{name}={value} is not positive$"):
        step_size_bundle(X3, X3, np.ones(3), 2, CUBE3, sched, CONSTANTS, delta)


@pytest.mark.parametrize("name, value", [("ell_f", -1.0), ("kappa_inf", np.nan),
                                         ("sigma_inf", np.inf), ("kappa_inf", "1")])
def test_step_size_bundle_refuses_constants_as_run_does(name, value):
    """Constants(ell_f=-1) gave alpha_k=-1.56 and a NaN kappa_inf a gamma_max
    of 1.0; step_size_bundle now applies run's rule, InvalidConstants naming
    the field."""
    with pytest.raises(InvalidConstants, match=f"^{name}={value} must be nonnegative"):
        step_size_bundle(X3, X3, np.ones(3), 2, CUBE3, CTX,
                         replace(CONSTANTS, **{name: value}), 2.0)


def test_zero_theta_and_mu_stay_valid():
    """So do a zero ratio-test scale, which leaves x where it is, a zero
    gamma_max and a zero ell_f_bar."""
    assert in_neighborhood([1.0, 0.0, -1.0], CUBE3, 0.0)
    assert ratio_test(np.zeros(3), [1.0, -2.0, 0.5], 0.0, CUBE3, 0.1, 1.0) == 1.0
    assert ratio_test(np.zeros(3), [1.0, -2.0, 0.5], 1.0, CUBE3, 0.1, 0.0) == 0.0
    assert build_hk(X3, CUBE3, 0.0, 0.0)[0].tolist() == [0.0, 0.0, 0.0]
    assert project_to_neighborhood([5.0, -5.0, 0.0], CUBE3, 0.0).tolist() == [1.0, -1.0, 0.0]
    assert build_hk(X3, CUBE3, 0.0, 1.0)[0].tolist() == [1.0, 1.0, 1.0]
    assert barrier_gradient(X3, X3, CUBE3, 0.0).tolist() == X3.tolist()


def test_inner_sides_are_kept_only_for_a_held_nonzero_theta():
    """_inner_sides returns lower + theta and upper - theta with their bits.
    Each Bounds keeps the pair, read-only, where theta equals the previous
    step's theta and is nonzero (a zero theta's sign reaches the sides' signed
    zeros); a theta that moves is built fresh and leaves the kept pair alone."""
    box = Bounds(np.array([-0.0, -1.0, -np.inf]), np.array([0.5, -0.0, 1.0]))
    other = Bounds(box.lower.copy(), box.upper.copy())
    for bounds, theta, theta_prev in [
            (box, 0.25, None), (box, 0.25, 0.25), (box, 0.1, 0.25), (box, 0.1, 0.1),
            (other, 0.1, 0.1), (box, 0.0, 0.0), (box, -0.0, -0.0), (box, -0.0, 0.0),
            (box, 0.0, -0.0), (other, 0.0, 0.1), (box, 0.1, 0.1)]:
        lo, up = geometry._inner_sides(bounds, theta, theta_prev)
        assert lo.tobytes() == (bounds.lower + theta).tobytes()
        assert up.tobytes() == (bounds.upper - theta).tobytes()
    held = geometry._inner_sides(box, 0.1, 0.1)
    assert held is geometry._inner_sides(box, 0.1, 0.1)
    assert not any(side.flags.writeable for side in held)
    assert geometry._inner_sides(other, 0.1, 0.1) is not held
    moving = geometry._inner_sides(box, 0.1, 0.2)
    assert moving is not held and all(side.flags.writeable for side in moving)
    geometry._inner_sides(box, 0.3, 0.2)
    assert geometry._inner_sides(box, 0.1, 0.1) is held
