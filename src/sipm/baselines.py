"""Projection baselines and the simplified neighborhood-projection variant.

PSGM clamps a plain (stochastic) gradient step back onto the box.  The
simplified interior-point variant replaces the ratio test with an orthogonal
projection onto the inner neighborhood and pays for it with the conservative
curvature-bound step size, whose recurrence stalls at a positive floor; the
``recurrence_ratio`` diagnostic exposes that floor numerically.

``run_simplified`` takes each iterate's stacked slacks in one interior check
and steps with ``_simplified_step``: the barrier gradient from those slacks
and a clip onto the neighborhood, whose capped theta keeps it nonempty.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, InvalidBudget
from .geometry import DELTA_CAP, _barrier_gradient, _inner_sides, range_gap, require_interior
from .problems import gradient_oracle
from .solver import RunResult, _final_metrics, _first_iterate

C_CAP = 1e6


def c_constant(bounds, kappa_inf, mu1):
    """Neighborhood link constant min_i 1 / (kappa_inf + 2*mu1/(u_i - l_i)).

    A coordinate with an infinite side contributes 1/kappa_inf, which never
    undercuts the others.  Degenerate inputs that would make the constant
    infinite are capped at 1e6.
    """
    largest = float(np.max(kappa_inf + 2.0 * mu1 / bounds.gaps()))  # min of reciprocals
    if largest <= 0.0:
        return C_CAP
    return min(1.0 / largest, C_CAP)


def _simplified_step(x, g, s, bounds, mu, theta, ell_f, theta_prev=None):
    """One step of the projection variant from the stacked slacks s of x: the
    barrier gradient q, the conservative step size alpha = 1/(ell_f +
    2*mu/theta**2), and the orthogonal projection of x - alpha*q onto the
    theta neighborhood, which must be nonempty.  theta_prev is the previous
    step's theta (``_inner_sides``)."""
    q = _barrier_gradient(g, s, mu)
    alpha = 1.0 / (ell_f + 2.0 * mu / theta ** 2)
    return (x - alpha * q).clip(*_inner_sides(bounds, theta, theta_prev))


def recurrence_ratio(mu_seq, c, psi, ell_f, C):
    """The non-vanishing error-to-contraction ratio of the simplified variant.

    For each mu in the sequence, with alpha = 1/(ell_f + 2*mu/(c*mu)**2) and
    contraction v = sqrt(1 - alpha*psi), returns C*mu / (1 - v).  As mu
    vanishes the ratio tends to 4*C/(c**2 * psi) instead of zero, which is
    why the plain contraction argument cannot close.
    """
    mu = np.asarray(mu_seq, dtype=float)
    alpha_psi = psi / (ell_f + 2.0 / (c ** 2 * mu))
    if np.any(alpha_psi > 1.0):
        raise DomainError("alpha*psi exceeds 1 somewhere; need psi <= ell_f")
    v = np.sqrt(1.0 - alpha_psi)
    return C * mu / (1.0 - v)


def match_sipm_endpoints(shape, alpha_first, alpha_last):
    """Rescale a decreasing shape sequence (starting at 1) geometrically so the
    produced steps match the given first and last values."""
    shape = np.asarray(shape, dtype=float)
    if shape.size == 0:
        return shape
    s_end = shape[-1]
    if s_end >= 1.0 or alpha_first <= 0.0 or alpha_last <= 0.0:
        return np.full(shape.size, alpha_first)
    exponent = np.log(shape) / np.log(s_end)
    return alpha_first * (alpha_last / alpha_first) ** exponent


def _require_length(name, sequence, maxiter, positive):
    """InvalidBudget unless ``sequence`` has maxiter entries; DomainError naming
    the first that is NaN, infinite, negative or, if ``positive``, zero."""
    if len(sequence) < maxiter:
        raise InvalidBudget(f"{name} has {len(sequence)} entries, fewer than maxiter={maxiter}")
    values = np.asarray(sequence[:maxiter], dtype=float)
    bad = np.flatnonzero(~((values > 0.0 if positive else values >= 0.0) & (values < np.inf)))
    if bad.size:
        raise DomainError(f"{name}[{bad[0]}]={float(values[bad[0]])} must be finite and "
                          + ("positive" if positive else "nonnegative"))


def run_psgm(objective, bounds, steps, x1, maxiter, mode="deterministic",
             batch_fraction=0.01, seed=0):
    """Run the projected-(stochastic-)gradient baseline for maxiter iterations.

    Each iteration clamps x - steps[k] * g onto the box, with maxiter finite
    ``steps`` of at least 0 (``_require_length``).  Final metrics use true
    gradients, mirroring the interior-point runs.
    """
    x = _first_iterate(x1, bounds, maxiter)
    _require_length("steps", steps, maxiter, positive=False)
    gradient = gradient_oracle(objective, mode, batch_fraction, seed)
    for k in range(maxiter):
        x = (x - steps[k] * gradient(x)).clip(bounds.lower, bounds.upper)
    # the final iterate may sit on the box boundary: active-set certificate
    return RunResult(final_x=x, **_final_metrics(objective, bounds, x))


def run_simplified(objective, bounds, mu_seq, ell_f, c, x1, maxiter,
                   mode="deterministic", batch_fraction=0.01, seed=0):
    """Run the simplified projection variant with theta_k = c * mu_k.

    theta is clamped just below half the box width, so each step clips onto a
    nonempty neighborhood without checking it.  ``mu_seq`` needs maxiter
    finite positive entries (``_require_length``).
    """
    x = _first_iterate(x1, bounds, maxiter)
    _require_length("mu_seq", mu_seq, maxiter, positive=True)
    theta_cap = 0.499 * range_gap(bounds, DELTA_CAP)
    gradient = gradient_oracle(objective, mode, batch_fraction, seed)
    theta = None
    for k in range(maxiter):
        mu = float(mu_seq[k])
        theta_prev, theta = theta, min(c * mu, theta_cap)
        x = _simplified_step(x, gradient(x), require_interior(x, bounds), bounds, mu,
                             theta, ell_f, theta_prev)
    mu_last = float(mu_seq[maxiter - 1]) if maxiter >= 1 else None
    return RunResult(final_x=x, **_final_metrics(objective, bounds, x, mu_last=mu_last))
