import numpy as np
import pytest
from numpy.testing import assert_allclose

from sipm import (Bounds, barrier_gradient, barrier_value, default_chi,
                  in_neighborhood, kkt_certificate, project_to_neighborhood,
                  projected_gradient_norm, range_gap, shifted_barrier_value)
from sipm.errors import DomainError, EmptyNeighborhood, InvalidSpec, NotInterior, SipmError

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
