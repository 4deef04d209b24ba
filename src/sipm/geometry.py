"""Box geometry, log-barrier evaluation, inner neighborhoods, and stationarity measures.

All operations here are pure functions of their arguments and safe to call
from any number of concurrent solver runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, EmptyNeighborhood, InvalidSpec, NotInterior


@dataclass(frozen=True, eq=False)
class Bounds:
    """An axis-aligned box [lower, upper] with extended-real sides.

    Every coordinate must satisfy ``lower < upper`` and at least one side of
    one coordinate must be finite; a box that breaks either rule, or has
    sides of unequal length, raises InvalidSpec.  Masks of the finite-bound
    index sets are cached for the logarithms, side counts and ranges;
    elsewhere an open side's infinite slack already contributes nothing.
    """

    lower: np.ndarray
    upper: np.ndarray
    finite_lower: np.ndarray = field(init=False, repr=False)
    finite_upper: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lower.ndim != 1 or lower.shape != upper.shape:
            raise InvalidSpec("lower and upper must be 1-D arrays of equal length")
        if not np.all(lower < upper):
            raise InvalidSpec("every coordinate needs lower < upper")
        finite_lower = np.isfinite(lower)
        finite_upper = np.isfinite(upper)
        if not (finite_lower.any() or finite_upper.any()):
            raise InvalidSpec("at least one bound must be finite")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "finite_lower", finite_lower)
        object.__setattr__(self, "finite_upper", finite_upper)

    @classmethod
    def cube(cls, n, lo=-1.0, hi=1.0):
        """The box [lo, hi]^n."""
        return cls(np.full(n, float(lo)), np.full(n, float(hi)))

    @property
    def n(self):
        return self.lower.size

    def gaps(self):
        """Per-coordinate ranges upper - lower (infinite where one side is)."""
        return self.upper - self.lower


@dataclass(frozen=True)
class KktCertificate:
    """Bound multipliers and residuals at a strictly interior point."""

    y: np.ndarray
    z: np.ndarray
    stationarity_residual: float
    complementarity_residual: float


def slacks(x, bounds):
    """Distances to the two sides: (x - lower, upper - x); infinite on open sides."""
    x = np.asarray(x, dtype=float)
    return x - bounds.lower, bounds.upper - x


def require_interior(x, bounds):
    """The slacks of x, after raising NotInterior unless every finite-side
    slack is strictly positive (open sides have infinite slack)."""
    lo, up = slacks(x, bounds)
    bad = (lo <= 0.0) | (up <= 0.0)
    if bad.any():
        i = int(np.argmax(bad))
        raise NotInterior(f"coordinate {i} has nonpositive slack to a finite bound")
    return lo, up


# Cap on the box-width constant delta that every solver and the harness use.
DELTA_CAP = 100.0


def range_gap(bounds, cap):
    """min(cap, smallest coordinate range), the finite box-width constant."""
    if not cap > 0:
        raise DomainError(f"cap={cap} must be positive")
    return float(min(cap, np.min(bounds.gaps())))


def in_neighborhood(x, bounds, theta):
    """True iff lower + theta <= x <= upper - theta (infinite sides always pass)."""
    x = np.asarray(x, dtype=float)
    return bool((x >= bounds.lower + theta).all() and (x <= bounds.upper - theta).all())


def project_to_neighborhood(x, bounds, theta):
    """Componentwise clamp onto {x : lower + theta <= x <= upper - theta}.

    Raises EmptyNeighborhood when theta is at least half the smallest range,
    which would make the target set empty; an infinite range binds only an
    infinite theta.  A NaN theta, which no comparison catches, raises
    DomainError.
    """
    if np.isnan(theta):
        raise DomainError(f"theta={theta} is NaN")
    if theta >= 0.5 * np.min(bounds.gaps()):
        raise EmptyNeighborhood(f"theta={theta} is not below half the smallest range")
    x = np.asarray(x, dtype=float)
    return np.clip(x, bounds.lower + theta, bounds.upper - theta)


def barrier_value(f_value, x, bounds, mu):
    """Log-barrier-augmented objective value at a strictly interior point.

    Returns ``f_value - mu * sum(log(x_i - lower_i)) - mu * sum(log(upper_i - x_i))``
    with each sum running over the finite sides only.
    """
    return _barrier_value(f_value, *require_interior(x, bounds), bounds, mu)


def _barrier_value(f_value, lo, up, bounds, mu, chi=None):
    """barrier_value from the slacks (lo, up); shifted_barrier_value given chi."""
    # an empty sum is 0, so a side with no finite bound subtracts 0
    total = float(f_value) - mu * float(np.add.reduce(np.log(lo[bounds.finite_lower])))
    total -= mu * float(np.add.reduce(np.log(up[bounds.finite_upper])))
    if chi is not None:   # the shift of shifted_barrier_value, on |L| + |U| sides
        total += mu * np.log(chi) * int(bounds.finite_lower.sum() + bounds.finite_upper.sum())
    return total


def default_chi(bounds):
    """Default slack-scaling constant: largest doubly finite range plus one.

    Clamped below by 1 + 1e-6 so the shifted barrier is always well defined.
    On a fully bounded box this dominates every feasible slack.
    """
    both = bounds.finite_lower & bounds.finite_upper
    base = float(np.max(bounds.gaps()[both])) if both.any() else 0.0
    return max(1.0 + 1e-6, base + 1.0)


def shifted_barrier_value(f_value, x, bounds, mu, chi):
    """Barrier value with each slack scaled by 1/chi.

    Algebraically equal to ``barrier_value + mu * log(chi) * (|L| + |U|)``;
    the shift keeps the function bounded below when chi dominates the slacks,
    without changing gradients.
    """
    if not chi > 1.0:
        raise DomainError(f"chi={chi} must exceed 1")
    return _barrier_value(f_value, *require_interior(x, bounds), bounds, mu, chi)


def barrier_gradient(g, x, bounds, mu):
    """Gradient of the barrier-augmented function given a gradient (estimate) g.

    q_i = g_i - mu / (x_i - lower_i) + mu / (upper_i - x_i), where an open
    side's infinite slack contributes zero.
    """
    return _barrier_gradient(g, *require_interior(x, bounds), mu)


def _barrier_gradient(g, lo, up, mu):
    """barrier_gradient from the slacks (lo, up) of an interior point."""
    return np.asarray(g, dtype=float) - mu / lo + mu / up


def projected_gradient_norm(x, g, bounds):
    """Stationarity measure: inf-norm of proj_[l,u](x - g) - x."""
    x = np.asarray(x, dtype=float)
    step = np.clip(x - np.asarray(g, dtype=float), bounds.lower, bounds.upper) - x
    return float(np.max(np.abs(step))) if step.size else 0.0


def kkt_certificate(x, g, bounds, mu):
    """Bound multipliers y = mu/(x-l), z = mu/(u-x) and the induced residuals.

    The complementarity products (x_i - l_i) * y_i and (u_i - x_i) * z_i equal
    mu exactly by construction, so the complementarity residual is reported as
    mu rather than recomputed coordinatewise.
    """
    lo, up = require_interior(x, bounds)
    y = mu / lo
    z = mu / up
    residual = float(np.max(np.abs(np.asarray(g, dtype=float) - y + z)))
    return KktCertificate(y=y, z=z, stationarity_residual=residual,
                          complementarity_residual=float(mu))
