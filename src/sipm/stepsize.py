"""Slack-product Lipschitz machinery and the step-size pipeline.

``_step`` owns one iteration after the scaling H_k and the barrier gradient q,
in a fixed order: lam_min = min(H_k), alpha_min from the conservative
curvature bound, alpha_max from the buffer allowance, gamma_min and gamma_max
from alpha_max, the look-ahead step alpha_pre from the current point's
smallest slacks, its largest admissible fraction gamma_bar, ell_k along the
look-ahead segment, alpha_k, the ratio test's gamma_k and the clipped update.
It takes the neighborhood sides (once per staircase level, ``_inner_sides``)
and the ratio-test margin once, for both ratio tests and the clip, and the
mask of moving coordinates once, for both.

The second ratio test runs only where the look-ahead binds (gamma_bar <
gamma_max) or alpha_k lies outside (0, alpha_pre]; otherwise gamma_k = gamma_bar.
The update runs only where gamma_k or alpha_k differs from the look-ahead's;
otherwise x_next is x_pre, clipped.  Proof: rounding is monotone, so
|fl(alpha_k*d_i)| <= |fl(alpha_pre*d_i)| and a ratio at or above gamma_max > 0
stays there or was NaN (a zero gamma_max gives 0 both ways); equal factors give
equal bits.

Public functions validate their input, then call the same slack-based helpers
(leading underscore) as the solver kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, InvalidConstants, NotInPriorNeighborhood
from .geometry import (_SIGNS, _inner_sides, _require_nonnegative, _vector, in_neighborhood,
                       require_interior)
from .problems import _number


@dataclass(frozen=True)
class Constants:
    """Problem-level constants consumed by the step-size rules."""

    ell_f: float
    kappa_inf: float
    sigma_inf: float = 0.0


def _require_constants(constants):
    """InvalidConstants naming the first field of ``constants`` that is not a
    number in [0, inf)."""
    for name, value in vars(constants).items():
        if not (_number(value) and 0.0 <= value < math.inf):
            raise InvalidConstants(f"{name}={value} must be nonnegative and finite")


@dataclass(frozen=True)
class ScheduleContext:
    """Per-iteration schedule values needed by the step-size pipeline."""

    mu_k: float
    theta_k: float
    theta_prev: float
    t_alpha: float
    alpha_buff: float
    gamma_buff: float


class StepSizeBundle(NamedTuple):
    alpha_min: float
    alpha_pre: float
    gamma_bar: float
    ell_k: float
    alpha_max: float
    alpha_k: float
    gamma_min: float
    gamma_max: float


def _slack_products(s_x, s_b):
    """(a, b) from the stacked slacks of x and of xbar: a = min_i (x_i - l_i) *
    min(x_i - l_i, xbar_i - l_i), b the analogous product over the upper
    sides.  An open side's infinite slacks give infinite products, which min
    ignores, so a side with no finite bound gives inf."""
    return tuple(np.minimum.reduce(s_x * np.minimum(s_x, s_b), axis=1).tolist())


@np.errstate(divide="ignore", invalid="ignore")
def ratio_test(x, direction, scale, bounds, theta, gamma_max):
    """Largest fraction gamma in [0, gamma_max] with x + gamma*scale*direction
    inside the theta-neighborhood.

    Closed form: the minimum of gamma_max and, over coordinates with a
    nonzero direction, of (bound margin)/(scale * d_i) toward the side the
    coordinate moves to.  An infinite side gives an infinite ratio, so it
    imposes no limit.  Returns 0 when x sits on the neighborhood boundary and
    the direction points outward.  x and direction must have the bounds'
    shape (DimensionMismatch), and theta, scale and gamma_max must each be at
    least 0 (DomainError); a zero scale leaves x where it is.
    """
    x = _vector("x", x, bounds)
    d = _vector("direction", direction, bounds)
    _require_nonnegative("theta", theta)
    _require_nonnegative("scale", scale)
    _require_nonnegative("gamma_max", gamma_max)
    margin = np.where(d < 0.0, bounds.lower + theta, bounds.upper - theta) - x
    return _ratio(margin, d, scale, gamma_max, d != 0.0)


def _ratio(margin, d, scale, gamma_max, moving):
    """ratio_test from the margin to the side each coordinate moves to, over
    the coordinates ``moving`` (d != 0).  A zero or NaN d makes a ratio that
    divides by 0 or is NaN, so both callers ignore those numpy warnings."""
    ratios = margin / (scale * d)
    # fmin skips a NaN ratio, so a NaN direction entry imposes no limit
    gamma = min(float(gamma_max), float(np.fmin.reduce(ratios, where=moving, initial=np.inf)))
    return max(0.0, gamma)


@np.errstate(divide="ignore", invalid="ignore")   # for both ratio tests
def step_size_bundle(x, q, h_diag, k, bounds, sched, constants, delta):
    """Run the full step-size pipeline at iteration k.

    ``sched`` carries the current mu/theta values and buffer allowances, and
    ``constants`` the problem-level bounds.  The gradient magnitude bound is
    kappa_inf + sigma_inf, where exact gradients carry sigma_inf = 0; the
    step-fraction floor always uses alpha_max in its denominator, which is a
    valid lower bound because alpha_k never exceeds alpha_max.  x, q and
    h_diag must have the bounds' shape (DimensionMismatch), k must be positive
    and sched.t_alpha finite (DomainError), so that k**t_alpha is positive and
    finite; sched.mu_k, alpha_buff and gamma_buff must be at least 0, and
    theta_k and delta positive (DomainError), and the constants as ``run``
    takes them (InvalidConstants).
    """
    _require_nonnegative("k", k)
    if k == 0:
        raise DomainError("k=0 is not an iteration: they count from 1")
    if not np.isfinite(sched.t_alpha):
        raise DomainError(f"t_alpha={sched.t_alpha} is not finite")
    for name in ("mu_k", "alpha_buff", "gamma_buff"):
        _require_nonnegative(name, getattr(sched, name))
    for name, value in (("theta_k", sched.theta_k), ("delta", delta)):
        if not value > 0.0:
            raise DomainError(f"{name}={value} is not positive")
    _require_constants(constants)
    x = _vector("x", x, bounds)
    q = _vector("q", q, bounds)
    h_diag = _vector("h_diag", h_diag, bounds)
    s = require_interior(x, bounds)
    if not in_neighborhood(x, bounds, sched.theta_prev):
        raise NotInPriorNeighborhood(
            f"iterate left the previous neighborhood (theta={sched.theta_prev})")
    return _step(x, s, q, h_diag, k, bounds, sched.mu_k, sched.theta_k, sched.theta_prev,
                 sched.t_alpha, sched.alpha_buff, sched.gamma_buff, constants, delta)[0]


def _step(x, s, q, h_diag, k, bounds, mu, theta_k, theta_prev, t_alpha, alpha_buff,
          gamma_buff, constants, delta):
    """One step from x and its stacked slacks s: returns (bundle, d = -q / h_diag,
    gamma_k, x_next), x_next clipped to theta_k.  Its callers turn off numpy's
    divide and invalid warnings, which a zero or NaN entry of d raises."""
    lam_min = float(np.minimum.reduce(h_diag))
    if not lam_min > 0.0:
        raise InvalidConstants(f"iteration {k}: scaling diagonal must be strictly positive")
    k_pow = float(k) ** t_alpha
    alpha_min = lam_min * k_pow / (constants.ell_f + 2.0 * mu / theta_k ** 2)
    alpha_max = alpha_min + alpha_buff

    grad_bound = constants.kappa_inf + constants.sigma_inf
    bracket = 0.5 * mu * delta / (mu + 0.5 * grad_bound * delta) - theta_k
    gamma_min = min(1.0, lam_min * bracket / (alpha_max * (grad_bound + mu / theta_prev)))
    gamma_max = min(1.0, gamma_min + gamma_buff)

    # min(lo)**2 is min(lo**2) bit for bit: slacks are nonnegative and rounding
    # is monotone, so the smallest slack squared rounds to the smallest square
    a, b = np.minimum.reduce(s, axis=1).tolist()
    alpha_pre = lam_min * k_pow / (constants.ell_f + mu / (a * a) + mu / (b * b))
    d = -q / h_diag
    inner_lo, inner_up = _inner_sides(bounds, theta_k, theta_prev)
    margin = np.where(d < 0.0, inner_lo, inner_up) - x
    moving = d != 0.0
    gamma_bar = _ratio(margin, d, alpha_pre, gamma_max, moving)
    x_pre = x + (gamma_bar * alpha_pre) * d
    a, b = _slack_products(s, _SIGNS * x_pre - bounds.sides)
    ell_k = constants.ell_f + mu / a + mu / b
    alpha_k = min(lam_min * k_pow / ell_k, alpha_max)
    if gamma_bar == gamma_max and 0.0 < alpha_k <= alpha_pre:
        gamma_k = gamma_bar   # gamma_max capped the look-ahead, so it caps this step
    else:
        gamma_k = _ratio(margin, d, alpha_k, gamma_max, moving)
    # The binding ratio is exact in real arithmetic; the fused update can land
    # an ulp outside the neighborhood, so snap it back.
    same = gamma_k == gamma_bar and alpha_k == alpha_pre   # then x_pre is the update
    x_next = (x_pre if same else x + (gamma_k * alpha_k) * d).clip(inner_lo, inner_up)
    return StepSizeBundle(alpha_min, alpha_pre, gamma_bar, ell_k, alpha_max, alpha_k,
                          gamma_min, gamma_max), d, gamma_k, x_next
