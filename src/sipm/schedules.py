"""Barrier, neighborhood, and buffer parameter sequences.

Two schedule families are provided: power laws ``mu_k = mu1 * k**t_mu`` with
the shifted neighborhood indexing ``theta_{k-1} = theta0 * k**t_theta``, and
the budgeted staircase of decreasing powers of ten ending at the 1e-8 barrier
floor.  Exponent triples are validated against the admissible regions of the
deterministic and stochastic convergence regimes.

Indexing note: ``schedule.theta(k)`` returns theta_k, which for the power
family is ``theta0 * (k+1)**t_theta``.  The shift is deliberate and matches
the pairing of mu_k with theta_{k-1} used everywhere else in the package, so
callers should never add their own off-by-one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import HorizonExceeded, InvalidMu1, InvalidTheta0
from .geometry import require_interior

MU_FLOOR = 1e-8


@dataclass(frozen=True)
class ExponentTriple:
    """Decay exponents (t_mu, t_theta, t_alpha) of the parameter sequences."""

    t_mu: float
    t_theta: float
    t_alpha: float


def validate_exponents(triple, setting):
    """Check an exponent triple against the admissible region for a setting.

    Returns the full list of violated constraints as strings; an empty list
    means the triple is admissible.  Violations are data, not faults, so no
    exception is raised for an inadmissible triple.
    """
    t_mu, t_theta, t_alpha = triple.t_mu, triple.t_theta, triple.t_alpha
    violations = []
    if setting == "deterministic":
        if t_mu != t_theta:
            violations.append("t_mu must equal t_theta")
        if not t_mu < 0.0:
            violations.append("t_mu must be negative")
        if not t_alpha <= 0.0:
            violations.append("t_alpha must be nonpositive")
        if not -1.0 <= t_mu + t_alpha < 0.0:
            violations.append("t_mu + t_alpha must lie in [-1, 0)")
    elif setting == "stochastic":
        if t_mu != t_theta:
            violations.append("t_mu must equal t_theta")
        if not -1.0 < t_mu < -0.5:
            violations.append("t_mu must lie in (-1, -1/2)")
        if not t_alpha < 0.0:
            violations.append("t_alpha must be negative")
        if not -1.0 <= t_mu + t_alpha < 0.0:
            violations.append("t_mu + t_alpha must lie in [-1, 0)")
        if not t_mu + 2.0 * t_alpha < -1.0:
            violations.append("t_mu + 2*t_alpha must be below -1")
    else:
        raise ValueError(f"unknown setting {setting!r}")
    return violations


@dataclass(frozen=True)
class PowerSchedule:
    """mu_k = mu1 * k**t_mu and theta_k = theta0 * (k+1)**t_theta."""

    mu1: float
    theta0: float
    exponents: ExponentTriple

    def mu(self, k):
        if k < 1:
            raise HorizonExceeded(f"mu is defined for k >= 1, got {k}")
        return self.mu1 * float(k) ** self.exponents.t_mu

    def theta(self, k):
        if k < 0:
            raise HorizonExceeded(f"theta is defined for k >= 0, got {k}")
        return self.theta0 * float(k + 1) ** self.exponents.t_theta

    @property
    def t_alpha(self):
        return self.exponents.t_alpha


@dataclass(frozen=True)
class StaircaseSchedule:
    """Equal-length repetitions of decreasing levels, final level 1e-8/mu1.

    mu_k = mu1 * s_k and theta_k = theta0 * s_k for k in [1, maxiter]; any
    remainder iterations beyond the equal repetitions sit on the last level,
    which keeps mu_maxiter at the 1e-8 floor.
    """

    mu1: float
    theta0: float
    maxiter: int
    levels: tuple
    repetition_length: int
    degenerate: bool = False

    def s(self, k):
        if not 1 <= k <= self.maxiter:
            raise HorizonExceeded(f"k={k} outside staircase horizon [1, {self.maxiter}]")
        idx = min((k - 1) // self.repetition_length, len(self.levels) - 1)
        return self.levels[idx]

    def mu(self, k):
        return self.mu1 * self.s(k)

    def theta(self, k):
        if k == 0:
            return self.theta0
        return self.theta0 * self.s(k)

    @property
    def t_alpha(self):
        # Budgeted runs use flat step-size decay.
        return 0.0


def build_staircase(mu1, maxiter, theta0=1.0):
    """Construct the staircase schedule for a barrier start mu1 and a budget.

    The levels are {1, 1e-1, ..., 10**-nu, 1e-8/mu1}, where nu is the largest
    integer with 10**-nu > 1e-8/mu1, each repeated floor(maxiter/levels) times
    with the remainder absorbed by the last level.  When mu1 equals the 1e-8
    floor no such nu exists; the schedule collapses to a constant and is
    flagged as degenerate.
    """
    if mu1 < MU_FLOOR:
        raise InvalidMu1(f"mu1={mu1} is below the terminal barrier value {MU_FLOOR}")
    if maxiter < 1:
        raise ValueError("maxiter must be a positive integer")
    final = MU_FLOOR / mu1
    # nu is the largest integer with -nu > log10(final); snap near-integer
    # exponents so float rounding in the quotient cannot shift the count.
    t = 8.0 + math.log10(mu1)
    t_round = round(t)
    nu = int(t_round) - 1 if abs(t - t_round) < 1e-9 else math.floor(t)
    if nu < 0:
        levels = (1.0, 1.0)
        degenerate = True
    else:
        levels = tuple(10.0 ** -j for j in range(nu + 1)) + (final,)
        degenerate = False
    repetition = max(1, maxiter // len(levels))
    return StaircaseSchedule(mu1=float(mu1), theta0=float(theta0), maxiter=int(maxiter),
                             levels=levels, repetition_length=repetition,
                             degenerate=degenerate)


@dataclass(frozen=True)
class BufferSequences:
    """Decaying allowances above the minimal step size and step fraction.

    theory mode evaluates ``alpha_buff_base * k**(2*t_mu)`` and
    ``gamma_buff_base * k**t_mu``, the largest decay the stochastic noise
    bound tolerates.  practical mode evaluates ``(maxiter/k)**1.1`` and
    ``(maxiter/k)**0.55``, which stay above 1 inside the budget so the raw
    step size and a unit step fraction are never clipped.
    """

    mode: str
    alpha_buff_base: float = 0.0
    gamma_buff_base: float = 0.0
    t_mu: float | None = None
    maxiter: int | None = None

    def __post_init__(self):
        if self.mode == "theory":
            if self.t_mu is None:
                raise ValueError("theory buffers need t_mu")
        elif self.mode == "practical":
            if self.maxiter is None:
                raise ValueError("practical buffers need maxiter")
        else:
            raise ValueError(f"unknown buffer mode {self.mode!r}")

    @classmethod
    def zero(cls):
        return cls(mode="theory", alpha_buff_base=0.0, gamma_buff_base=0.0, t_mu=-1.0)

    def alpha(self, k):
        if self.mode == "theory":
            return self.alpha_buff_base * float(k) ** (2.0 * self.t_mu)
        return (self.maxiter / k) ** 1.1

    def gamma(self, k):
        if self.mode == "theory":
            return self.gamma_buff_base * float(k) ** self.t_mu
        return (self.maxiter / k) ** 0.55


def mu1_init(g1, x1, bounds):
    """Initial barrier parameter from the gradient (estimate) at the start point.

    mu1 = max(1e-5, min(1e-3 * ||g1||_2 / ||D||, 1)) where D is the diagonal
    difference of reciprocal slacks diag(u - x1)^-1 - diag(x1 - l)^-1 and
    ||D|| is its spectral norm, i.e. the largest absolute diagonal entry.
    Reciprocals of infinite slacks are zero; a zero D gives an infinite ratio
    so the minimum selects 1.
    """
    lo, up = require_interior(x1, bounds)
    d = 1.0 / up - 1.0 / lo
    norm_d = float(np.max(np.abs(d)))
    g_norm = float(np.linalg.norm(np.asarray(g1, dtype=float)))
    ratio = math.inf if norm_d == 0.0 else 1e-3 * g_norm / norm_d
    return max(1e-5, min(ratio, 1.0))


def theta0_init(x1, bounds, kappa_inf, sigma_inf, mu1, delta):
    """Initial neighborhood margin: min of the start slacks and the cap
    1 / (2/delta + (kappa_inf + sigma_inf)/mu1)."""
    lo, up = require_interior(x1, bounds)
    theta_bar = 1.0 / (2.0 / delta + (kappa_inf + sigma_inf) / mu1)
    return min(float(np.min(lo)), float(np.min(up)), theta_bar)


def min_mu1_threshold(theta0, kappa_inf, sigma_inf, delta):
    """Strict lower threshold on mu1 required for a positive step-fraction floor.

    Returns ``0.5 * theta0 * (kappa_inf + sigma_inf) * delta / (0.5*delta - theta0)``.
    Deterministic configurations pass sigma_inf = 0.
    """
    if theta0 >= 0.5 * delta:
        raise InvalidTheta0(f"theta0={theta0} must be below delta/2={0.5 * delta}")
    return 0.5 * theta0 * (kappa_inf + sigma_inf) * delta / (0.5 * delta - theta0)
