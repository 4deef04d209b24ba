"""Barrier, neighborhood, and buffer parameter sequences.

Two schedule families are provided: power laws ``mu_k = mu1 * k**t_mu`` with
the shifted neighborhood indexing ``theta_{k-1} = theta0 * k**t_theta``, and
the budgeted staircase of decreasing powers of ten ending at the 1e-8 barrier
floor.  Both have the shape ``s(k)`` with ``mu_k = mu1 * s(k)``.  Exponent
triples are validated against the admissible regions of the deterministic
and stochastic convergence regimes.

No sequence depends on the iterates, so ``sequences`` evaluates one run's
values once, before its first iteration, and a staircase shorter than the
run raises HorizonExceeded there, and a power that overflows a float
InvalidExponents.  Each ``SolverConfig`` builds its run's table, which the
solver kernel and both baselines read; this module is the only one that
evaluates a schedule or a buffer.

Indexing note: ``schedule.theta(k)`` returns theta_k, which for the power
family is ``theta0 * (k+1)**t_theta``.  The shift is deliberate and matches
the pairing of mu_k with theta_{k-1} used everywhere else in the package, so
callers should never add their own off-by-one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (HorizonExceeded, InvalidBudget, InvalidChoice, InvalidExponents,
                     InvalidMu1, InvalidSpec, ThetaTooLarge)
from .geometry import _vector, require_interior
from .problems import MODES, _number, _require_integer

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
    if setting not in MODES:
        raise InvalidChoice("setting", setting, MODES)
    violations = ["t_mu must equal t_theta"] if t_mu != t_theta else []
    if setting == "deterministic":
        if not t_mu < 0.0:
            violations.append("t_mu must be negative")
        if not t_alpha <= 0.0:
            violations.append("t_alpha must be nonpositive")
    else:
        if not -1.0 < t_mu < -0.5:
            violations.append("t_mu must lie in (-1, -1/2)")
        if not t_alpha < 0.0:
            violations.append("t_alpha must be negative")
    if not -1.0 <= t_mu + t_alpha < 0.0:
        violations.append("t_mu + t_alpha must lie in [-1, 0)")
    if setting == "stochastic" and not t_mu + 2.0 * t_alpha < -1.0:
        violations.append("t_mu + 2*t_alpha must be below -1")
    return violations


@dataclass(frozen=True)
class PowerSchedule:
    """mu_k = mu1 * k**t_mu and theta_k = theta0 * (k+1)**t_theta."""

    mu1: float
    theta0: float
    exponents: ExponentTriple

    def s(self, k):
        if k < 1:
            raise HorizonExceeded(f"s and mu are defined for k >= 1, got {k}")
        return float(k) ** self.exponents.t_mu

    def mu(self, k):
        return self.mu1 * self.s(k)

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
    t_alpha = 0.0   # a constant, not a field: budgeted runs use flat step-size decay

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


def build_staircase(mu1, maxiter, theta0=1.0):
    """Construct the staircase schedule for a barrier start mu1 and a budget.

    The levels are {1, 1e-1, ..., 10**-nu, 1e-8/mu1}, where nu is the largest
    integer with 10**-nu > 1e-8/mu1, each repeated floor(maxiter/levels) times
    with the remainder absorbed by the last level.  When mu1 equals the 1e-8
    floor nu is -1, and the one level 1e-8/mu1 = 1 holds mu constant.
    """
    if not (_number(mu1) and MU_FLOOR <= mu1 < math.inf):
        raise InvalidMu1(f"mu1={mu1!r} must be a finite number of at least the terminal "
                         f"barrier value {MU_FLOOR}")
    _require_integer(InvalidBudget, "staircase: maxiter", maxiter, 1)
    final = MU_FLOOR / mu1
    # nu is the largest integer with -nu > log10(final); snap near-integer
    # exponents so float rounding in the quotient cannot shift the count.
    t = 8.0 + math.log10(mu1)
    t_round = round(t)
    nu = int(t_round) - 1 if abs(t - t_round) < 1e-9 else math.floor(t)
    levels = tuple(10.0 ** -j for j in range(nu + 1)) + (final,)
    repetition = max(1, maxiter // len(levels))
    return StaircaseSchedule(mu1=float(mu1), theta0=float(theta0), maxiter=int(maxiter),
                             levels=levels, repetition_length=repetition)


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
                raise InvalidSpec("theory buffers need t_mu")
        elif self.mode == "practical":
            _require_integer(InvalidBudget, "practical buffers: maxiter", self.maxiter, 1)
        else:
            raise InvalidChoice("mode", self.mode, ("theory", "practical"))

    def alpha(self, k):
        if self.mode == "theory":
            return self.alpha_buff_base * float(k) ** (2.0 * self.t_mu)
        return (self.maxiter / k) ** 1.1

    def gamma(self, k):
        if self.mode == "theory":
            return self.gamma_buff_base * float(k) ** self.t_mu
        return (self.maxiter / k) ** 0.55


def _evaluated(name, method, ks):
    """[method(k) for k in ks], where a power that overflows a float raises
    InvalidExponents naming the sequence and the first such k."""
    values = []
    for k in ks:
        try:
            values.append(method(k))
        except OverflowError:
            raise InvalidExponents(f"{name}_k overflows a float at k={k}; only exponents "
                                   "outside every admissible region grow") from None
    return values


def sequences(schedule, buffers, maxiter):
    """One run's parameters, each per-k method evaluated once: a dict of
    float lists indexed by k, with NaN at k = 0 for all but ``theta``.  ``mu``
    ends with mu_{maxiter+1}, or mu_maxiter again where a staircase ends."""
    ks = range(1, maxiter + 1)
    mu = [math.nan] + _evaluated("mu", schedule.mu, ks)
    try:
        mu += _evaluated("mu", schedule.mu, [maxiter + 1])
    except HorizonExceeded:
        mu.append(mu[-1])
    return dict(theta=_evaluated("theta", schedule.theta, range(maxiter + 1)),
                s=[math.nan] + _evaluated("s", schedule.s, ks), mu=mu,
                alpha_buff=[math.nan] + _evaluated("alpha_buff", buffers.alpha, ks),
                gamma_buff=[math.nan] + _evaluated("gamma_buff", buffers.gamma, ks))


def mu1_init(g1, x1, bounds):
    """Initial barrier parameter from the gradient (estimate) at the start point.

    mu1 = max(1e-5, min(1e-3 * ||g1||_2 / ||D||, 1)) where D is the diagonal
    difference of reciprocal slacks diag(u - x1)^-1 - diag(x1 - l)^-1 and
    ||D|| is its spectral norm, i.e. the largest absolute diagonal entry.
    Reciprocals of infinite slacks are zero; a zero D gives an infinite ratio
    so the minimum selects 1.  g1 and x1 must have the bounds' shape
    (DimensionMismatch).
    """
    g1 = _vector("g1", g1, bounds)
    r = 1.0 / require_interior(_vector("x1", x1, bounds), bounds)
    norm_d = float(np.max(np.abs(r[1] - r[0])))
    g_norm = float(np.linalg.norm(g1))
    ratio = math.inf if norm_d == 0.0 else 1e-3 * g_norm / norm_d
    return max(1e-5, min(ratio, 1.0))


def theta0_init(x1, bounds, kappa_inf, sigma_inf, mu1, delta):
    """Initial neighborhood margin: min of the start slacks and the cap
    1 / (2/delta + (kappa_inf + sigma_inf)/mu1).  x1 must have the bounds'
    shape (DimensionMismatch)."""
    lo, up = require_interior(_vector("x1", x1, bounds), bounds)
    theta_bar = 1.0 / (2.0 / delta + (kappa_inf + sigma_inf) / mu1)
    return min(float(np.min(lo)), float(np.min(up)), theta_bar)


def min_mu1_threshold(theta0, kappa_inf, sigma_inf, delta):
    """Strict lower threshold on mu1 required for a positive step-fraction floor.

    Returns ``0.5 * theta0 * (kappa_inf + sigma_inf) * delta / (0.5*delta - theta0)``.
    Deterministic configurations pass sigma_inf = 0.
    """
    if theta0 >= 0.5 * delta:
        raise ThetaTooLarge(f"theta0={theta0} must be below delta/2={0.5 * delta}")
    return 0.5 * theta0 * (kappa_inf + sigma_inf) * delta / (0.5 * delta - theta0)
