"""Slack-product Lipschitz machinery and the step-size pipeline.

The step size of one iteration is assembled in a fixed order: the floor
alpha_min from the conservative curvature bound, the ceiling alpha_max from
the buffer allowance, a look-ahead step alpha_pre from the current point's
own slacks, the largest admissible fraction gamma_bar of that look-ahead
step, the local Lipschitz constant ell_k along the look-ahead segment, and
finally alpha_k itself.  The step-fraction floor gamma_min and ceiling
gamma_max are built from alpha_max so they are available before any ratio
test runs.

Public functions validate their input, then call the slack-based helpers
(leading underscore) that the solver kernel calls with its own slacks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotInPriorNeighborhood
from .geometry import in_neighborhood, require_interior, slacks


@dataclass(frozen=True)
class Constants:
    """Problem-level constants consumed by the step-size rules."""

    ell_f: float
    kappa_inf: float
    sigma_inf: float = 0.0


@dataclass(frozen=True)
class ScheduleContext:
    """Per-iteration schedule values needed by the step-size pipeline."""

    mu_k: float
    theta_k: float
    theta_prev: float
    t_alpha: float
    alpha_buff: float
    gamma_buff: float


@dataclass(frozen=True)
class SlackProducts:
    """Minimal products of current and look-ahead slacks on each side.

    Infinite on a side with no finite bound (the minimum over an empty set).
    """

    a: float
    b: float


@dataclass(frozen=True)
class StepSizeBundle:
    alpha_min: float
    alpha_pre: float
    gamma_bar: float
    ell_k: float
    alpha_max: float
    alpha_k: float
    gamma_min: float
    gamma_max: float


def slack_products(x, xbar, bounds):
    """a = min_i (x_i - l_i) * min(x_i - l_i, xbar_i - l_i) over finite lower
    sides, and the analogous product b over finite upper sides."""
    return _slack_products(*require_interior(x, bounds), *require_interior(xbar, bounds))


def _slack_products(lo_x, up_x, lo_b, up_b):
    """slack_products from the slacks of x and of xbar; an open side's
    infinite slacks give an infinite product, which the minimum ignores."""
    return SlackProducts(a=float(np.min(lo_x * np.minimum(lo_x, lo_b))),
                         b=float(np.min(up_x * np.minimum(up_x, up_b))))


def local_lipschitz(mu, x, xbar, bounds, ell_f):
    """Lipschitz constant of the barrier gradient on the segment [x, xbar]:
    ell_f + mu/a + mu/b with mu/inf = 0."""
    return _lipschitz(mu, slack_products(x, xbar, bounds), ell_f)


def _lipschitz(mu, products, ell_f):
    """ell_f + mu/a + mu/b for the slack products (a, b)."""
    return ell_f + mu / products.a + mu / products.b


def ratio_test(x, direction, scale, bounds, theta, gamma_max):
    """Largest fraction gamma in [0, gamma_max] with x + gamma*scale*direction
    inside the theta-neighborhood.

    Closed form: the minimum of gamma_max and, over coordinates with a
    nonzero direction, of (bound margin)/(scale * d_i) toward the side the
    coordinate moves to.  An infinite side gives an infinite ratio, so it
    imposes no limit.  Returns 0 when x sits on the neighborhood boundary and
    the direction points outward.
    """
    x = np.asarray(x, dtype=float)
    d = np.asarray(direction, dtype=float)
    target = np.where(d < 0.0, bounds.lower + theta, bounds.upper - theta)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = (target - x) / (scale * d)
    # fmin skips a NaN ratio, so a NaN direction entry imposes no limit
    gamma = min(float(gamma_max), float(np.fmin.reduce(ratios, where=d != 0.0, initial=np.inf)))
    return max(0.0, gamma)


def step_size_bundle(x, q, h_diag, k, bounds, sched, constants, delta, stochastic=False):
    """Run the full step-size pipeline at iteration k.

    ``sched`` carries the current mu/theta values and buffer allowances, and
    ``constants`` the problem-level bounds.  In stochastic mode the gradient
    magnitude bound is kappa_inf + sigma_inf; the step-fraction floor always
    uses alpha_max in its denominator, which is a valid lower bound because
    alpha_k never exceeds alpha_max.
    """
    lo, up = require_interior(x, bounds)
    if not in_neighborhood(x, bounds, sched.theta_prev):
        raise NotInPriorNeighborhood(
            f"iterate left the previous neighborhood (theta={sched.theta_prev})")
    h_diag = np.asarray(h_diag, dtype=float)
    return _step_sizes(np.asarray(x, dtype=float), lo, up, np.asarray(q, dtype=float), h_diag,
                       float(np.min(h_diag)), k, bounds, sched, constants, delta, stochastic)[0]


def _step_sizes(x, lo, up, q, h_diag, lam_min, k, bounds, sched, constants, delta,
                stochastic):
    """step_size_bundle from the slacks (lo, up) of x and the smallest entry
    lam_min of h_diag; also returns the scaled direction d = -q / h_diag."""
    if not lam_min > 0.0:
        raise ValueError("scaling diagonal must be strictly positive")
    k_pow = float(k) ** sched.t_alpha
    mu = sched.mu_k
    alpha_min = lam_min * k_pow / (constants.ell_f + 2.0 * mu / sched.theta_k ** 2)
    alpha_max = alpha_min + sched.alpha_buff

    grad_bound = constants.kappa_inf + (constants.sigma_inf if stochastic else 0.0)
    bracket = 0.5 * mu * delta / (mu + 0.5 * grad_bound * delta) - sched.theta_k
    gamma_min = min(1.0, lam_min * bracket
                    / (alpha_max * (grad_bound + mu / sched.theta_prev)))
    gamma_max = min(1.0, gamma_min + sched.gamma_buff)

    self_products = _slack_products(lo, up, lo, up)
    alpha_pre = lam_min * k_pow / _lipschitz(mu, self_products, constants.ell_f)
    d = -q / h_diag
    gamma_bar = ratio_test(x, d, alpha_pre, bounds, sched.theta_k, gamma_max)
    lo_pre, up_pre = slacks(x + (gamma_bar * alpha_pre) * d, bounds)
    ell_k = _lipschitz(mu, _slack_products(lo, up, lo_pre, up_pre), constants.ell_f)
    alpha_k = min(lam_min * k_pow / ell_k, alpha_max)

    return StepSizeBundle(alpha_min=alpha_min, alpha_pre=alpha_pre,
                          gamma_bar=gamma_bar, ell_k=ell_k, alpha_max=alpha_max,
                          alpha_k=alpha_k, gamma_min=gamma_min, gamma_max=gamma_max), d
