"""The kernel helpers let an open side's infinite slack do the masking.

Each helper is compared bit for bit with the masked formula it replaced,
which sums or minimizes over the finite sides only, on random boxes with
open sides.
"""

import math

import numpy as np
import pytest

from sipm import barrier_gradient, build_hk, kkt_certificate, mu1_init, ratio_test, theta0_init
from sipm.geometry import slacks
from sipm.solver import _active_set_certificate
from sipm.stepsize import _slack_products

from test_stepsize import box, random_instance

INF = np.inf
DRAWS = 2000


def same(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def masked_slacks(x, bounds):
    return x - bounds.lower, bounds.upper - x


def masked_ratio_test(x, d, scale, bounds, theta, gamma_max):
    gamma = float(gamma_max)
    down = (d < 0.0) & bounds.finite_lower
    if down.any():
        gamma = min(gamma, float(np.min(
            (bounds.lower[down] + theta - x[down]) / (scale * d[down]))))
    up = (d > 0.0) & bounds.finite_upper
    if up.any():
        gamma = min(gamma, float(np.min(
            (bounds.upper[up] - theta - x[up]) / (scale * d[up]))))
    return max(0.0, gamma)


def masked_barrier_gradient(g, x, bounds, mu):
    lo, up = masked_slacks(x, bounds)
    q = g.copy()
    q[bounds.finite_lower] -= mu / lo[bounds.finite_lower]
    q[bounds.finite_upper] += mu / up[bounds.finite_upper]
    return q


def masked_hk(x, bounds, mu, ell_f_bar):
    lo, up = masked_slacks(x, bounds)
    diag = np.full(x.size, float(ell_f_bar))
    diag[bounds.finite_lower] += mu / lo[bounds.finite_lower] ** 2
    diag[bounds.finite_upper] += mu / up[bounds.finite_upper] ** 2
    return diag, float(np.min(diag)), float(np.max(diag))


def masked_slack_products(x, xbar, bounds):
    lo_x, up_x = masked_slacks(x, bounds)
    lo_b, up_b = masked_slacks(xbar, bounds)

    def side(s_x, s_b, m):
        return float(np.min(s_x[m] * np.minimum(s_x[m], s_b[m]))) if m.any() else math.inf

    return side(lo_x, lo_b, bounds.finite_lower), side(up_x, up_b, bounds.finite_upper)


def masked_kkt(x, g, bounds, mu):
    lo, up = masked_slacks(x, bounds)
    y = np.where(bounds.finite_lower, mu / lo, 0.0)
    z = np.where(bounds.finite_upper, mu / up, 0.0)
    return y, z, float(np.max(np.abs(g - y + z)))


def masked_active_set(x, g, bounds):
    lo, up = masked_slacks(x, bounds)
    y = np.where(bounds.finite_lower & (lo <= 0.0), np.maximum(g, 0.0), 0.0)
    z = np.where(bounds.finite_upper & (up <= 0.0), np.maximum(-g, 0.0), 0.0)
    return y, z, float(np.max(np.abs(g - y + z)))


def masked_mu1(g1, x1, bounds):
    lo, up = masked_slacks(x1, bounds)
    d = (np.where(bounds.finite_upper, 1.0 / up, 0.0)
         - np.where(bounds.finite_lower, 1.0 / lo, 0.0))
    norm_d = float(np.max(np.abs(d)))
    ratio = math.inf if norm_d == 0.0 else 1e-3 * float(np.linalg.norm(g1)) / norm_d
    return max(1e-5, min(ratio, 1.0))


def masked_theta0(x1, bounds, kappa_inf, sigma_inf, mu1, delta):
    lo, up = masked_slacks(x1, bounds)
    low_min = float(np.min(lo[bounds.finite_lower])) if bounds.finite_lower.any() else math.inf
    up_min = float(np.min(up[bounds.finite_upper])) if bounds.finite_upper.any() else math.inf
    return min(low_min, up_min, 1.0 / (2.0 / delta + (kappa_inf + sigma_inf) / mu1))


def instances():
    rng = np.random.default_rng(20260515)
    for _ in range(DRAWS):
        x, d, scale, bounds, theta, gamma_max = random_instance(rng)
        if theta == 0.0:
            continue  # x may sit on the box itself
        g = rng.normal(size=x.size)
        mu = 10.0 ** rng.uniform(-6.0, 0.0)
        yield rng, x, d, scale, bounds, theta, gamma_max, g, mu


def test_ratio_test_matches_masked_formula():
    for _, x, d, scale, bounds, theta, gamma_max, _, _ in instances():
        assert same(ratio_test(x, d, scale, bounds, theta, gamma_max),
                    masked_ratio_test(x, d, scale, bounds, theta, gamma_max))


def test_barrier_terms_match_masked_formulas():
    for _, x, _, _, bounds, _, _, g, mu in instances():
        assert same(barrier_gradient(g, x, bounds, mu), masked_barrier_gradient(g, x, bounds, mu))
        diag, lam_min, lam_max = build_hk(x, bounds, mu, 0.7, "practical")
        ref_diag, ref_min, ref_max = masked_hk(x, bounds, mu, 0.7)
        assert same(diag, ref_diag) and same(lam_min, ref_min) and same(lam_max, ref_max)
        cert = kkt_certificate(x, g, bounds, mu)
        y, z, residual = masked_kkt(x, g, bounds, mu)
        assert same(cert.y, y) and same(cert.z, z)
        assert same(cert.stationarity_residual, residual)


def test_slack_products_match_masked_formula():
    for _, x, d, scale, bounds, theta, gamma_max, _, _ in instances():
        gamma = ratio_test(x, d, scale, bounds, theta, gamma_max)
        xbar = x + (0.5 * gamma * scale) * d
        a, b = _slack_products(slacks(x, bounds), slacks(xbar, bounds))
        a_masked, b_masked = masked_slack_products(x, xbar, bounds)
        assert same(a, a_masked) and same(b, b_masked)


def test_start_parameters_match_masked_formulas():
    for rng, x, _, _, bounds, _, _, g, _ in instances():
        mu1 = mu1_init(g, x, bounds)
        assert same(mu1, masked_mu1(g, x, bounds))
        kappa, sigma, delta = rng.uniform(0.1, 5.0, size=3)
        assert same(theta0_init(x, bounds, kappa, sigma, mu1, delta),
                    masked_theta0(x, bounds, kappa, sigma, mu1, delta))


def test_active_set_certificate_matches_masked_formula():
    for rng, x, _, _, bounds, _, _, g, _ in instances():
        on_box = np.clip(x + rng.normal(scale=3.0, size=x.size), bounds.lower, bounds.upper)
        cert = _active_set_certificate(on_box, g, bounds)
        y, z, residual = masked_active_set(on_box, g, bounds)
        assert same(cert.y, y) and same(cert.z, z)
        assert same(cert.stationarity_residual, residual)


@pytest.mark.parametrize("lo, hi", [([-1.0, -INF, 0.0], [1.0, 2.0, INF]),
                                    ([-INF, -INF], [1.0, 3.0])])
def test_zero_direction_returns_gamma_max(lo, hi):
    bounds = box(lo, hi)
    x = np.zeros(len(lo)) + 0.5 * np.isfinite(bounds.lower)
    assert ratio_test(x, np.zeros(len(lo)), 0.8, bounds, 0.1, 0.7) == 0.7


def test_nan_direction_entry_imposes_no_limit():
    bounds = box([-1.0, -1.0, -INF], [1.0, INF, 1.0])
    x, d = np.zeros(3), np.array([np.nan, -2.0, 1.0])
    assert same(ratio_test(x, d, 1.0, bounds, 0.1, 1.0),
                masked_ratio_test(x, d, 1.0, bounds, 0.1, 1.0))


@pytest.mark.parametrize("d0", [-1.0, -1e-300])
def test_outward_move_from_neighborhood_boundary_returns_zero(d0):
    bounds = box([-1.0, -INF, 0.0], [1.0, 2.0, INF])
    theta = 0.1
    x = np.array([-1.0 + theta, 0.0, 5.0])
    gamma = ratio_test(x, np.array([d0, -3.0, 2.0]), 0.5, bounds, theta, 1.0)
    assert same(gamma, 0.0)
