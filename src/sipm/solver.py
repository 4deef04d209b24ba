"""Interior-point main loop with prescribed parameter sequences.

Every iterate is kept inside a shrinking inner neighborhood of the box by a
closed-form ratio test, so no fraction-to-the-boundary rule, line search, or
step acceptance test is needed.  The loop runs with either exact gradients
or seeded mini-batch estimates; with auditing enabled each iteration is
checked against the contracts the step-size rules are supposed to guarantee
and any failure raises InvariantViolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (HorizonExceeded, InfeasibleStart, InvalidChoice, InvalidExponents,
                     InvalidMu1, InvalidTheta0, InvariantViolation, ThetaTooLarge)
from .geometry import (DELTA_CAP, Bounds, KktCertificate, _barrier_gradient, default_chi,
                       in_neighborhood, kkt_certificate, projected_gradient_norm,
                       range_gap, require_interior, shifted_barrier_value, slacks)
from .problems import gradient_oracle
from .schedules import BufferSequences, PowerSchedule, StaircaseSchedule, validate_exponents
from .stepsize import Constants, ScheduleContext, _step_sizes, local_lipschitz, ratio_test

CONFIG_CHOICES = {"mode": ("deterministic", "stochastic"),
                  "hk_strategy": ("practical", "identity"),
                  "audit_level": ("off", "invariants", "full_trace")}


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
    hk_strategy: str = "practical"    # "practical" | "identity"
    audit_level: str = "off"          # "off" | "invariants" | "full_trace"


@dataclass(frozen=True)
class IterationRecord:
    k: int
    mu_k: float
    theta_k: float
    alpha_k: float
    gamma_k: float
    ell_k: float
    q_norm: float
    phi_tilde: float
    stalled: bool


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


def build_hk(x, bounds, mu, ell_f_bar, strategy):
    """Diagonal scaling for one iteration, with its extreme eigenvalues.

    practical: ell_f_bar + mu/(x_i - l_i)^2 + mu/(u_i - x_i)^2 per coordinate
    (infinite sides contribute nothing), identity: all ones.
    """
    return _hk(*require_interior(x, bounds), mu, ell_f_bar, strategy)


def _hk(lo, up, mu, ell_f_bar, strategy):
    """build_hk from the slacks (lo, up) of an interior point."""
    if strategy == "practical":
        diag = float(ell_f_bar) + mu / lo ** 2 + mu / up ** 2
    elif strategy == "identity":
        diag = np.ones(lo.size)
    else:
        raise ValueError(f"unknown scaling strategy {strategy!r}")
    return diag, float(np.min(diag)), float(np.max(diag))


def _rel_ok(lhs, rhs, tol):
    """lhs <= rhs up to a relative slack of tol."""
    return lhs <= rhs + tol * (1.0 + abs(rhs))


def sipm_step(x, k, g, config, delta, phi_tilde=math.nan):
    """Iteration k from x: scaling, barrier gradient, step sizes, ratio test, update.

    ``g`` is the (estimated) gradient at x.  ``phi_tilde`` (the shifted
    barrier at x with mu_k) only fills the trace record's field of that name.
    Returns the next iterate, the iteration record, and the dict of internal
    quantities that ``run`` hands to its observer.

    Every quantity derives from the slacks of x, taken once.  Nothing is
    validated here: ``run`` checks its inputs at entry, and the final clip
    keeps x_next in the theta_k (the next prior) neighborhood.
    """
    sched = config.schedule
    mu_k = sched.mu(k)
    theta_k = sched.theta(k)
    theta_prev = sched.theta(k - 1)
    bounds = config.bounds

    lo, up = slacks(x, bounds)
    h_diag, lam_min, lam_max = _hk(lo, up, mu_k, config.constants.ell_f, config.hk_strategy)
    q = _barrier_gradient(g, lo, up, mu_k)
    ctx = ScheduleContext(mu_k=mu_k, theta_k=theta_k, theta_prev=theta_prev,
                          t_alpha=sched.t_alpha,
                          alpha_buff=config.buffers.alpha(k),
                          gamma_buff=config.buffers.gamma(k))
    bundle, d = _step_sizes(x, lo, up, q, h_diag, lam_min, k, bounds, ctx,
                            config.constants, delta, config.mode == "stochastic")
    gamma_k = ratio_test(x, d, bundle.alpha_k, bounds, theta_k, bundle.gamma_max)
    x_next = x + (gamma_k * bundle.alpha_k) * d
    # The binding ratio is exact in real arithmetic; the fused update can land
    # an ulp outside the neighborhood, so snap it back.
    x_next = np.clip(x_next, bounds.lower + theta_k, bounds.upper - theta_k)

    stalled = gamma_k == 0.0 and bool(np.any(d != 0.0))

    if config.audit_level != "off":
        _audit_step(config, k, x, x_next, q, d, bundle, gamma_k, mu_k, theta_k)

    record = IterationRecord(k=k, mu_k=mu_k, theta_k=theta_k, alpha_k=bundle.alpha_k,
                             gamma_k=gamma_k, ell_k=bundle.ell_k,
                             q_norm=float(np.linalg.norm(q)), phi_tilde=phi_tilde,
                             stalled=stalled)
    info = dict(k=k, x=x, x_next=x_next, g=g, q=q, d=d,
                h_diag=h_diag, lam_min=lam_min, lam_max=lam_max,
                bundle=bundle, gamma_k=gamma_k, mu_k=mu_k,
                theta_k=theta_k, theta_prev=theta_prev)
    return x_next, record, info


def _audit_step(config, k, x, x_next, q, d, bundle, gamma_k, mu_k, theta_k):
    bounds = config.bounds
    if not in_neighborhood(x_next, bounds, theta_k):
        raise InvariantViolation(k, "next iterate left the theta_k neighborhood")
    tol = 1e-12
    ell_pair = local_lipschitz(mu_k, x, x_next, bounds, config.constants.ell_f)
    ell_cap = config.constants.ell_f + 2.0 * mu_k / theta_k ** 2
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
    if np.any(q != 0.0) and not float(q @ d) < 0.0:
        raise InvariantViolation(k, "direction is not a descent direction for q")


def run(objective, config, x1, observer=None):
    """Execute ``config.maxiter`` iterations from x1 and report final metrics.

    The final objective value, projected-gradient norm, and KKT certificate
    are always computed with the true gradient, also in stochastic mode.
    Seeded stochastic runs are exactly reproducible.  ``observer``, when
    given, receives one dict per iteration with the internal quantities,
    among them the gradient (estimate) ``g`` the step used.

    Inputs are validated once, here; the oracle rejects non-finite gradients,
    and the iterations check nothing else unless auditing is enabled.
    """
    for name, allowed in CONFIG_CHOICES.items():
        if getattr(config, name) not in allowed:
            raise InvalidChoice(name, getattr(config, name), allowed)
    bounds = config.bounds
    x = np.asarray(x1, dtype=float).copy()
    delta = range_gap(bounds, DELTA_CAP)
    theta0 = config.schedule.theta(0)
    mu1 = config.schedule.mu(1)
    if not 0.0 < mu1 < math.inf:
        raise InvalidMu1(f"mu1={mu1} must be positive and finite")
    if not theta0 > 0.0:
        raise InvalidTheta0(f"theta0={theta0} must be positive")
    if theta0 >= 0.5 * delta:
        raise ThetaTooLarge(f"theta0={theta0} must be below delta/2={0.5 * delta}")
    if not in_neighborhood(x, bounds, theta0):
        raise InfeasibleStart("x1 is outside the theta0 neighborhood")
    require_interior(x, bounds)   # l + theta0 can round to l on a wide box
    if isinstance(config.schedule, StaircaseSchedule) and config.maxiter > config.schedule.maxiter:
        raise HorizonExceeded(
            f"maxiter={config.maxiter} exceeds staircase horizon {config.schedule.maxiter}")
    if isinstance(config.schedule, PowerSchedule):
        violations = validate_exponents(config.schedule.exponents, config.mode)
        if violations:
            raise InvalidExponents(f"exponents invalid for the {config.mode} setting: "
                                   + "; ".join(violations))

    gradient = gradient_oracle(objective, config.mode, config.batch_fraction,
                               config.rng_seed)
    if config.mode == "stochastic" and config.constants.sigma_inf < 0.0:
        raise ValueError("stochastic mode needs sigma_inf >= 0")

    audit_decrease = config.audit_level != "off" and config.mode == "deterministic"
    keep_trace = config.audit_level == "full_trace"
    need_f = audit_decrease or keep_trace
    chi = default_chi(bounds)

    records = []
    stall_count = 0
    alpha_first = math.nan
    alpha_last = math.nan
    # the shifted barrier at the current iterate with its mu_k: it fills the
    # trace record and is the left side of the decrease check
    phi_curr = (shifted_barrier_value(objective.value(x), x, bounds, mu1, chi)
                if need_f else math.nan)

    for k in range(1, config.maxiter + 1):
        x_next, record, info = sipm_step(x, k, gradient(x), config, delta, phi_curr)
        if observer is not None:
            observer(info)
        x = x_next
        if record.stalled:
            stall_count += 1
        if keep_trace:
            records.append(record)
        if math.isnan(alpha_first):
            alpha_first = record.alpha_k
        alpha_last = record.alpha_k

        if need_f:
            try:
                mu_next = config.schedule.mu(k + 1)
            except HorizonExceeded:
                mu_next = record.mu_k
            phi_next = shifted_barrier_value(objective.value(x), x, bounds, mu_next, chi)
            if audit_decrease:
                q, h_diag = info["q"], info["h_diag"]
                descent = 0.5 * record.gamma_k * record.alpha_k * float(np.sum(q * q / h_diag))
                if phi_next - phi_curr > -descent + 1e-10 * (1.0 + abs(phi_curr)):
                    raise InvariantViolation(k, "barrier decrease inequality failed")
            phi_curr = phi_next

    mu_last = config.schedule.mu(max(config.maxiter, 1))
    return RunResult(final_x=x, records=records, stall_count=stall_count,
                     alpha_first=alpha_first, alpha_last=alpha_last,
                     **_final_metrics(objective, bounds, x, mu_last))
