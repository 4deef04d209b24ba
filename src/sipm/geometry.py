"""Box geometry, log-barrier evaluation, inner neighborhoods, and stationarity measures.

All operations here are pure functions of their arguments and safe to call
from any number of concurrent solver runs; ``_inner_sides`` keeps its last
result on the bounds, in one tuple that it reads and replaces whole.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, DomainError, EmptyNeighborhood, InvalidSpec, NotInterior

_SIGNS = np.array([[1.0], [-1.0]])


@dataclass(frozen=True, eq=False)
class Bounds:
    """An axis-aligned box [lower, upper] with extended-real sides.

    Every coordinate must satisfy ``lower < upper`` and at least one side of
    one coordinate must be finite; a box that breaks either rule, or has
    sides of unequal length, raises InvalidSpec.  ``sides`` = [lower; -upper]
    is kept for ``slacks``, finite-side masks for the logarithms, side counts
    and ranges; elsewhere an open side's infinite slack contributes nothing.
    """

    lower: np.ndarray
    upper: np.ndarray
    finite_lower: np.ndarray = field(init=False, repr=False)
    finite_upper: np.ndarray = field(init=False, repr=False)
    sides: np.ndarray = field(init=False, repr=False)

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
        object.__setattr__(self, "sides", np.array((lower, -upper)))
        object.__setattr__(self, "_inner", (None, None))   # _inner_sides' last theta, sides

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
    """One (2, n) array: x - lower and (-x) - (-upper), which is upper - x bit for
    bit (negation is exact, IEEE addition commutes); infinite on open sides."""
    return _SIGNS * np.asarray(x, dtype=float) - bounds.sides


def require_interior(x, bounds):
    """The slacks of x, after raising NotInterior unless every finite-side
    slack is strictly positive (open sides have infinite slack)."""
    s = slacks(x, bounds)
    bad = s <= 0.0
    if np.logical_or.reduce(bad, axis=None):
        i = int(np.argmax(np.logical_or.reduce(bad)))
        raise NotInterior(f"coordinate {i} has nonpositive slack to a finite bound")
    return s


def _vector(name, value, bounds):
    """value as a float array, after raising DimensionMismatch, naming both
    shapes, unless it has the shape of the bounds."""
    array = np.asarray(value, dtype=float)
    if array.shape != bounds.lower.shape:
        raise DimensionMismatch(f"{name} has shape {array.shape}, but the bounds have shape "
                                f"{bounds.lower.shape}")
    return array


def _require_nonnegative(name, value):
    """DomainError naming value unless it is at least 0 (a NaN is not)."""
    if not value >= 0.0:
        raise DomainError(f"{name}={value} is " + ("negative" if value < 0.0 else "NaN"))


# Cap on the box-width constant delta that every solver and the harness use.
DELTA_CAP = 100.0


def range_gap(bounds, cap):
    """min(cap, smallest coordinate range), the finite box-width constant."""
    if not cap > 0:
        raise DomainError(f"cap={cap} must be positive")
    return float(min(cap, np.min(bounds.gaps())))


def in_neighborhood(x, bounds, theta):
    """True iff lower + theta <= x <= upper - theta (infinite sides always pass);
    the upper side is compared as -x >= theta - upper, which rounds to the
    negation of upper - theta.  An x not of the bounds' shape raises
    DimensionMismatch, a negative or NaN theta DomainError."""
    _require_nonnegative("theta", theta)
    x = _vector("x", x, bounds)
    return bool(np.logical_and.reduce(_SIGNS * x >= bounds.sides + theta, axis=None))


def _inner_sides(bounds, theta, theta_prev):
    """(lower + theta, upper - theta).  Where theta equals the previous step's
    theta_prev, as on a staircase level, the bounds keep the pair for the next
    such call, read-only since every such call shares it; a theta that moves
    every step (a power schedule) is built directly and never kept.  A zero
    theta is always built, because its sign reaches the sides' signed zeros."""
    if theta != theta_prev or not theta:
        return bounds.lower + theta, bounds.upper - theta
    memo_theta, sides = bounds._inner
    if memo_theta == theta:
        return sides
    sides = bounds.lower + theta, bounds.upper - theta
    for side in sides:
        side.flags.writeable = False
    object.__setattr__(bounds, "_inner", (theta, sides))
    return sides


def project_to_neighborhood(x, bounds, theta):
    """Componentwise clamp onto {x : lower + theta <= x <= upper - theta}.

    Raises EmptyNeighborhood when theta is at least half the smallest range,
    which would make the target set empty; an infinite range binds only an
    infinite theta.  A negative or NaN theta, whose clamp would leave the
    box or be NaN, raises DomainError, and an x not of the bounds' shape
    DimensionMismatch.
    """
    _require_nonnegative("theta", theta)
    if theta >= 0.5 * np.min(bounds.gaps()):
        raise EmptyNeighborhood(f"theta={theta} is not below half the smallest range")
    return np.clip(_vector("x", x, bounds), bounds.lower + theta, bounds.upper - theta)


def barrier_value(f_value, x, bounds, mu):
    """Log-barrier-augmented objective value at a strictly interior point.

    Returns ``f_value - mu * sum(log(x_i - lower_i)) - mu * sum(log(upper_i - x_i))``
    with each sum running over the finite sides only.  An x not of the
    bounds' shape raises DimensionMismatch, a negative or NaN mu DomainError.
    """
    _require_nonnegative("mu", mu)
    return _barrier_value(f_value, require_interior(_vector("x", x, bounds), bounds), bounds, mu)


def _barrier_value(f_value, s, bounds, mu, shift=None):
    """barrier_value from the stacked slacks s; shifted_barrier_value given
    shift = _barrier_shift(bounds, chi), which a run takes once."""
    # an empty sum is 0, so a side with no finite bound subtracts 0
    total = float(f_value) - mu * float(np.add.reduce(np.log(s[0][bounds.finite_lower])))
    total -= mu * float(np.add.reduce(np.log(s[1][bounds.finite_upper])))
    if shift is not None:   # shifted_barrier_value's mu * log(chi) on |L| + |U| sides
        total += mu * shift[0] * shift[1]
    return total


def _barrier_shift(bounds, chi):
    """(log chi, |L| + |U|), the shift's parts that depend on the box and chi only."""
    return np.log(chi), int(bounds.finite_lower.sum() + bounds.finite_upper.sum())


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
    without changing gradients.  Checks as barrier_value, and chi > 1.
    """
    if not chi > 1.0:
        raise DomainError(f"chi={chi} must exceed 1")
    _require_nonnegative("mu", mu)
    s = require_interior(_vector("x", x, bounds), bounds)
    return _barrier_value(f_value, s, bounds, mu, _barrier_shift(bounds, chi))


def barrier_gradient(g, x, bounds, mu):
    """Gradient of the barrier-augmented function given a gradient (estimate) g.

    q_i = g_i - mu / (x_i - lower_i) + mu / (upper_i - x_i), where an open
    side's infinite slack contributes zero.  g and x must have the bounds'
    shape (DimensionMismatch) and mu must be at least 0 (DomainError).
    """
    g = _vector("g", g, bounds)
    _require_nonnegative("mu", mu)
    return _barrier_gradient(g, require_interior(_vector("x", x, bounds), bounds), mu)


def _barrier_gradient(g, s, mu):
    """barrier_gradient from the stacked slacks s of an interior point."""
    r = mu / s
    return np.asarray(g, dtype=float) - r[0] + r[1]


def projected_gradient_norm(x, g, bounds):
    """Stationarity measure: inf-norm of proj_[l,u](x - g) - x.  x and g must
    have the bounds' shape (DimensionMismatch)."""
    x = _vector("x", x, bounds)
    step = np.clip(x - _vector("g", g, bounds), bounds.lower, bounds.upper) - x
    return float(np.max(np.abs(step))) if step.size else 0.0


def kkt_certificate(x, g, bounds, mu):
    """Bound multipliers y = mu/(x-l), z = mu/(u-x) and the induced residuals.

    The complementarity products (x_i - l_i) * y_i and (u_i - x_i) * z_i equal
    mu exactly by construction, so the complementarity residual is reported as
    mu rather than recomputed coordinatewise.  x and g must have the bounds'
    shape (DimensionMismatch) and mu must be at least 0 (DomainError).
    """
    g = _vector("g", g, bounds)
    _require_nonnegative("mu", mu)
    y, z = mu / require_interior(_vector("x", x, bounds), bounds)
    residual = float(np.max(np.abs(g - y + z)))
    return KktCertificate(y=y, z=z, stationarity_residual=residual,
                          complementarity_residual=float(mu))
