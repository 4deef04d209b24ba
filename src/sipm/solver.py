"""Interior-point main loop with prescribed parameter sequences.

Every iterate is kept inside a shrinking inner neighborhood of the box by a
closed-form ratio test, so no fraction-to-the-boundary rule, line search, or
step acceptance test is needed.  A ``SolverConfig`` builds its run's table
and step context (all a step reads of it) once; ``sipm_step`` reads them,
takes the slacks of x once (``run`` hands on the audit's), and
``stepsize._step`` does the rest.  The loop
runs with either exact gradients or seeded mini-batch estimates; with
auditing on ``run`` checks each step's record against the contracts the
step-size rules are supposed to guarantee, and any failure raises
InvariantViolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (InfeasibleStart, InvalidBudget, InvalidChoice, InvalidConstants,
                     InvalidExponents, InvalidMu1, InvalidTheta0, InvariantViolation,
                     ThetaTooLarge)
from .geometry import (DELTA_CAP, Bounds, KktCertificate, _barrier_gradient, _barrier_shift,
                       _barrier_value, _inner_sides, _require_nonnegative, _vector, default_chi,
                       in_neighborhood, kkt_certificate, projected_gradient_norm, range_gap,
                       require_interior, slacks)
from .problems import MODES, _require_integer, gradient_oracle
from .schedules import (BufferSequences, PowerSchedule, StaircaseSchedule, sequences,
                        validate_exponents)
from .stepsize import Constants, _require_constants, _slack_products, _step

CONFIG_CHOICES = {"mode": MODES, "audit_level": ("off", "invariants", "full_trace")}


@dataclass(frozen=True)
class SolverConfig:
    mode: str                         # "deterministic" | "stochastic"
    bounds: Bounds
    schedule: PowerSchedule | StaircaseSchedule
    buffers: BufferSequences
    constants: Constants
    maxiter: int
    rng_seed: int = 0
    batch_fraction: float = 0.01
    audit_level: str = "off"          # "off" | "invariants" | "full_trace"

    # built on first read and kept; not fields, so replace() starts them afresh
    @cached_property
    def delta(self):
        return range_gap(self.bounds, DELTA_CAP)

    @cached_property
    def sequences(self):   # the run's one parameter table
        return sequences(self.schedule, self.buffers, self.maxiter)

    @cached_property
    def step_context(self):   # what sipm_step reads, in the order it unpacks it
        seq = self.sequences
        return (self.bounds, self.constants, self.constants.ell_f, self.schedule.t_alpha,
                self.delta, seq["mu"], seq["theta"], seq["alpha_buff"], seq["gamma_buff"])


@dataclass
class RunResult:
    final_x: np.ndarray
    final_objective: float
    final_projected_grad_norm: float
    final_kkt: object
    records: list = field(default_factory=list)
    stall_count: int = 0
    alpha_first: float = math.nan
    alpha_last: float = math.nan


def _active_set_certificate(x, g, bounds):
    """KKT residuals at a possibly-boundary point, multipliers from the
    active set.  Complementarity is exact: multipliers live only on active
    bounds, where the slack is zero."""
    g = np.asarray(g, dtype=float)
    lo, up = slacks(x, bounds)
    y = np.where(lo <= 0.0, np.maximum(g, 0.0), 0.0)
    z = np.where(up <= 0.0, np.maximum(-g, 0.0), 0.0)
    residual = float(np.max(np.abs(g - y + z)))
    return KktCertificate(y=y, z=z, stationarity_residual=residual,
                          complementarity_residual=0.0)


def _final_metrics(objective, bounds, x, mu_last=None):
    """Final metrics with true gradients, also after a stochastic run.
    Interior iterates (mu_last given) get barrier multipliers; iterates that
    may sit on the boundary get active-set ones."""
    g = objective.gradient(x)
    if mu_last is None:
        cert = _active_set_certificate(x, g, bounds)
    else:
        cert = kkt_certificate(x, g, bounds, mu_last)
    return dict(final_objective=float(objective.value(x)),
                final_projected_grad_norm=projected_gradient_norm(x, g, bounds),
                final_kkt=cert)


def build_hk(x, bounds, mu, ell_f_bar, strategy="practical"):
    """Diagonal scaling for one iteration, with its extreme eigenvalues:
    ell_f_bar + mu/(x_i - l_i)^2 + mu/(u_i - x_i)^2 per coordinate (infinite
    sides contribute nothing).  ``strategy`` names this one rule; any other
    value raises InvalidChoice, an x not of the bounds' shape
    DimensionMismatch, and a negative or NaN mu or ell_f_bar DomainError."""
    if strategy != "practical":
        raise InvalidChoice("strategy", strategy, ("practical",))
    _require_nonnegative("mu", mu)
    _require_nonnegative("ell_f_bar", ell_f_bar)
    diag = _hk(require_interior(_vector("x", x, bounds), bounds), mu, ell_f_bar)
    return diag, float(diag.min()), float(diag.max())


def _hk(s, mu, ell_f_bar):
    """build_hk's diagonal from the stacked slacks s of an interior point."""
    r = mu / (s * s)
    return float(ell_f_bar) + r[0] + r[1]


def _first_iterate(x1, bounds, maxiter):
    """A float copy of x1, after the entry checks that all three solvers share."""
    x = _vector("x1", x1, bounds).copy()
    _require_integer(InvalidBudget, "maxiter", maxiter, 0)
    outside = np.flatnonzero(~((bounds.lower <= x) & (x <= bounds.upper)))
    if outside.size:
        i = outside[0]
        raise InfeasibleStart(f"x1[{i}]={x[i]} lies outside [{bounds.lower[i]}, "
                              f"{bounds.upper[i]}]")
    return x


def _rel_ok(lhs, rhs, tol):
    """lhs <= rhs up to a relative slack of tol."""
    return lhs <= rhs + tol * (1.0 + abs(rhs))


@np.errstate(divide="ignore", invalid="ignore")   # run() sets this once for its loop
def sipm_step(x, k, g, config):
    """Iteration k from x: scaling, barrier gradient, then ``stepsize._step``.

    ``g`` is the (estimated) gradient at x.  Returns the step's one record, a
    dict that ``run`` hands to its observer and takes its stall count, step
    sizes, audits and trace row from; ``config.step_context`` gives the rest.

    Every quantity derives from the slacks of x, taken once as one (2, n)
    array, the record's s: rows x - l and u - x.  Nothing is validated or
    audited: ``run`` checks its inputs at entry and audits each record, and
    the final clip keeps x_next in the theta_k (the next prior) neighborhood.
    """
    return _sipm_step(x, slacks(x, config.bounds), k, g, config)


def _sipm_step(x, s, k, g, config):
    """sipm_step from the stacked slacks s of x, which ``run`` hands on from
    the audit of the step before."""
    bounds, constants, ell_f, t_alpha, delta, mu, theta, alpha_buff, gamma_buff = \
        config.step_context
    mu_k, theta_k, theta_prev = mu[k], theta[k], theta[k - 1]
    h_diag = _hk(s, mu_k, ell_f)
    q = _barrier_gradient(g, s, mu_k)
    bundle, d, gamma_k, x_next = _step(
        x, s, q, h_diag, k, bounds, mu_k, theta_k, theta_prev, t_alpha, alpha_buff[k],
        gamma_buff[k], constants, delta)
    return dict(k=k, x=x, x_next=x_next, g=g, q=q, d=d, s=s, h_diag=h_diag,
                bundle=bundle, gamma_k=gamma_k, mu_k=mu_k, theta_k=theta_k,
                theta_prev=theta_prev, stalled=gamma_k == 0.0 and bool((d != 0.0).any()))


def _audit_step(config, step):
    """Check one step's contracts; returns the stacked slacks of x_next."""
    k, x_next, q, d = step["k"], step["x_next"], step["q"], step["d"]
    bundle, gamma_k, mu_k, theta_k = step["bundle"], step["gamma_k"], step["mu_k"], step["theta_k"]
    bounds, ell_f = config.bounds, config.constants.ell_f
    # the sides the step clipped to: x <= u - theta is -x >= -u + theta, as
    # rounding is symmetric in sign
    inner_lo, inner_up = _inner_sides(bounds, theta_k, step["theta_prev"])
    inside = (inner_lo <= x_next) & (x_next <= inner_up)
    if np.count_nonzero(inside) < inside.size:
        raise InvariantViolation(k, "next iterate left the theta_k neighborhood")
    tol = 1e-12
    s_next = require_interior(x_next, bounds)
    a, b = _slack_products(step["s"], s_next)
    ell_pair = ell_f + mu_k / a + mu_k / b
    ell_cap = ell_f + 2.0 * mu_k / theta_k ** 2
    if not _rel_ok(ell_pair, bundle.ell_k, tol):
        raise InvariantViolation(k, "segment Lipschitz constant exceeds ell_k")
    if not _rel_ok(bundle.ell_k, ell_cap, tol):
        raise InvariantViolation(k, "ell_k exceeds the conservative curvature cap")
    if not _rel_ok(bundle.alpha_min, bundle.alpha_k, tol) \
            or not _rel_ok(bundle.alpha_k, bundle.alpha_max, tol):
        raise InvariantViolation(k, "alpha_k escaped [alpha_min, alpha_max]")
    if not _rel_ok(bundle.gamma_min, gamma_k, tol) \
            or not _rel_ok(gamma_k, bundle.gamma_max, tol):
        raise InvariantViolation(k, "gamma_k escaped [gamma_min, gamma_max]")
    if not _rel_ok(gamma_k * bundle.alpha_k, bundle.gamma_bar * bundle.alpha_pre, tol):
        raise InvariantViolation(k, "realized step exceeds the look-ahead step")
    if np.count_nonzero(q) and not float(q @ d) < 0.0:
        raise InvariantViolation(k, "direction is not a descent direction for q")
    return s_next


def run(objective, config, x1, observer=None):
    """Execute ``config.maxiter`` iterations from x1 and report final metrics.

    The final objective value, projected-gradient norm, and KKT certificate
    are always computed with the true gradient, also in stochastic mode.
    Seeded stochastic runs are exactly reproducible.  ``observer``, when
    given, receives each iteration's ``sipm_step`` dict to read, not to
    change: the loop has taken the slacks of its x_next; under ``full_trace``
    only, ``records`` keeps one row of that step's scalars per iteration.

    Inputs are validated once, here; the oracle rejects non-finite gradients,
    and the iterations check nothing else unless auditing is enabled, when
    ``_audit_step`` checks each step before the observer sees it and a
    non-finite objective value raises InvariantViolation.  The loop, observer
    included, runs under one ``np.errstate`` with divide and invalid off, so a
    global ``np.seterr`` for divide or invalid does not apply inside it.
    """
    bounds = config.bounds
    x = _first_iterate(x1, bounds, config.maxiter)
    for name, allowed in CONFIG_CHOICES.items():
        if getattr(config, name) not in allowed:
            raise InvalidChoice(name, getattr(config, name), allowed)
    if isinstance(config.schedule, PowerSchedule):
        violations = validate_exponents(config.schedule.exponents, config.mode)
        if violations:
            raise InvalidExponents(f"exponents invalid for the {config.mode} setting: "
                                   + "; ".join(violations))
    _require_constants(config.constants)
    unscaled = np.flatnonzero(~(bounds.finite_lower | bounds.finite_upper))
    if config.constants.ell_f == 0.0 and unscaled.size:
        raise InvalidConstants(f"ell_f=0 leaves coordinate {unscaled[0]} unscaled: it has "
                               "no finite bound, so H_k is 0 there")
    delta, seq = config.delta, config.sequences
    theta0, mu1 = seq["theta"][0], seq["mu"][1]
    if not 0.0 < mu1 < math.inf:
        raise InvalidMu1(f"mu1={mu1} must be positive and finite")
    if not theta0 > 0.0:
        raise InvalidTheta0(f"theta0={theta0} must be positive")
    if theta0 >= 0.5 * delta:
        raise ThetaTooLarge(f"theta0={theta0} must be below delta/2={0.5 * delta}")
    if not in_neighborhood(x, bounds, theta0):
        raise InfeasibleStart("x1 is outside the theta0 neighborhood")
    s = require_interior(x, bounds)   # l + theta0 can round to l on a wide box

    gradient = gradient_oracle(objective, config.mode, config.batch_fraction,
                               config.rng_seed)

    audit = config.audit_level != "off"
    audit_decrease = audit and config.mode == "deterministic"
    keep_trace = config.audit_level == "full_trace"
    need_f = audit_decrease or keep_trace
    shift = _barrier_shift(bounds, default_chi(bounds)) if need_f else None

    records = []   # trace rows, scalars only
    stall_count = 0
    alpha_first = math.nan
    alpha_last = math.nan
    # the shifted barrier at the current iterate with its mu_k, on the slacks of
    # its interior check: the trace row's phi_tilde, the decrease check's left side
    phi_curr = _barrier_value(objective.value(x), s, bounds, mu1, shift) if need_f else math.nan
    if need_f and not math.isfinite(phi_curr):   # a NaN difference passes the check below
        raise InvariantViolation(1, "objective value is not finite")

    with np.errstate(divide="ignore", invalid="ignore"):   # once, not once per sipm_step
        for k in range(1, config.maxiter + 1):
            step = _sipm_step(x, s, k, gradient(x), config)
            # the slacks of x_{k+1}: the audit takes them in its interior check
            s = _audit_step(config, step) if audit else slacks(step["x_next"], bounds)
            if observer is not None:
                observer(step)
            x = step["x_next"]
            alpha_k = step["bundle"].alpha_k
            if step["stalled"]:
                stall_count += 1
            if keep_trace:
                records.append(dict(k=k, mu_k=step["mu_k"], theta_k=step["theta_k"],
                                    alpha_k=alpha_k, gamma_k=step["gamma_k"],
                                    ell_k=step["bundle"].ell_k,
                                    q_norm=math.sqrt(step["q"] @ step["q"]),   # norm's bits
                                    phi_tilde=phi_curr, stalled=step["stalled"]))
            if math.isnan(alpha_first):
                alpha_first = alpha_k
            alpha_last = alpha_k

            if need_f:
                phi_next = _barrier_value(objective.value(x), s, bounds, seq["mu"][k + 1], shift)
                if not math.isfinite(phi_next):
                    raise InvariantViolation(k, "objective value is not finite")
                if audit_decrease:
                    q, h_diag = step["q"], step["h_diag"]
                    descent = (0.5 * step["gamma_k"] * alpha_k
                               * float(np.add.reduce(q * q / h_diag)))
                    if phi_next - phi_curr > -descent + 1e-10 * (1.0 + abs(phi_curr)):
                        raise InvariantViolation(k, "barrier decrease inequality failed")
                phi_curr = phi_next

    mu_last = seq["mu"][max(config.maxiter, 1)]
    return RunResult(final_x=x, records=records, stall_count=stall_count,
                     alpha_first=alpha_first, alpha_last=alpha_last,
                     **_final_metrics(objective, bounds, x, mu_last))
