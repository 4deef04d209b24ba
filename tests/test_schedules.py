import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sipm import (Bounds, BufferSequences, ExponentTriple, PowerSchedule,
                  StaircaseSchedule, build_staircase, min_mu1_threshold, mu1_init,
                  sequences, theta0_init, validate_exponents)
from sipm.errors import (HorizonExceeded, InvalidBudget, InvalidChoice, InvalidExponents,
                         InvalidMu1, InvalidSpec, InvalidTheta0, SipmError)

INF = np.inf


def test_exponent_gate_examples():
    ok = ExponentTriple(-0.75, -0.75, -0.25)
    assert validate_exponents(ok, "stochastic") == []
    assert validate_exponents(ExponentTriple(-1.0, -1.0, 0.0), "deterministic") == []
    assert validate_exponents(ExponentTriple(-1.0, -1.0, 0.0), "stochastic") != []
    assert validate_exponents(ExponentTriple(-0.5, -0.5, -0.25), "stochastic") != []


def test_exponent_boundaries():
    rng = np.random.default_rng(2)
    for _ in range(200):
        # the line t_mu + t_alpha = -1 is inside the deterministic region
        t_mu = rng.uniform(-1.0, -0.01)
        det = ExponentTriple(t_mu, t_mu, -1.0 - t_mu)
        assert validate_exponents(det, "deterministic") == []
        # t_mu = -1/2 and t_mu + 2 t_alpha = -1 are outside the stochastic one
        t_alpha = rng.uniform(-0.5, -0.01)
        assert validate_exponents(ExponentTriple(-0.5, -0.5, t_alpha), "stochastic")
        t_mu = rng.uniform(-0.99, -0.51)
        edge = ExponentTriple(t_mu, t_mu, 0.5 * (-1.0 - t_mu))
        assert any("2*t_alpha" in v for v in validate_exponents(edge, "stochastic"))
    with pytest.raises(ValueError):
        validate_exponents(ExponentTriple(-1, -1, 0), "nonsense")


@pytest.mark.parametrize("triple, setting, violations", [
    ((0.5, 0.25, 0.5), "deterministic",
     ["t_mu must equal t_theta", "t_mu must be negative", "t_alpha must be nonpositive",
      "t_mu + t_alpha must lie in [-1, 0)"]),
    ((-0.5, -0.5, -0.75), "deterministic", ["t_mu + t_alpha must lie in [-1, 0)"]),
    ((0.0, -0.5, 0.0), "stochastic",
     ["t_mu must equal t_theta", "t_mu must lie in (-1, -1/2)", "t_alpha must be negative",
      "t_mu + t_alpha must lie in [-1, 0)", "t_mu + 2*t_alpha must be below -1"]),
    ((-0.75, -0.75, -0.5), "stochastic", ["t_mu + t_alpha must lie in [-1, 0)"]),
], ids=["deterministic-all", "deterministic-sum", "stochastic-all", "stochastic-sum"])
def test_exponent_violations_come_in_order(triple, setting, violations):
    assert validate_exponents(ExponentTriple(*triple), setting) == violations


def test_power_schedule_values():
    sched = PowerSchedule(mu1=1.0, theta0=0.2, exponents=ExponentTriple(-1.0, -0.5, 0.0))
    assert sched.mu(4) == 0.25
    assert_allclose(sched.theta(3), 0.2 * 4.0 ** -0.5)  # theta_3 = 0.1
    assert sched.theta(0) == 0.2
    with pytest.raises(HorizonExceeded):
        sched.mu(0)
    with pytest.raises(HorizonExceeded):
        sched.theta(-1)


def test_power_schedule_monotone_vanishing():
    sched = PowerSchedule(mu1=2.0, theta0=0.3, exponents=ExponentTriple(-0.75, -0.75, -0.25))
    mus = [sched.mu(k) for k in range(1, 2000)]
    thetas = [sched.theta(k) for k in range(0, 2000)]
    assert all(a >= b > 0.0 for a, b in zip(mus, mus[1:]))
    assert all(a >= b > 0.0 for a, b in zip(thetas, thetas[1:]))
    assert mus[-1] < 1e-2 and thetas[-1] < 1e-2


def test_staircase_structure():
    sched = build_staircase(1.0, 100)
    assert len(sched.levels) == 9
    assert sched.repetition_length == 11
    assert sched.levels[-1] == 1e-8
    assert sched.mu(100) == 1e-8
    # strictly decreasing levels, total iterations add up to maxiter
    assert all(a > b for a, b in zip(sched.levels, sched.levels[1:]))
    counts = {}
    for k in range(1, 101):
        counts[sched.s(k)] = counts.get(sched.s(k), 0) + 1
    assert sum(counts.values()) == 100
    assert counts[1e-8] == 11 + 1  # last level absorbs the remainder


def test_staircase_examples():
    sched = build_staircase(1e-5, 40)
    assert sched.levels == (1.0, 0.1, 0.01, 1e-8 / 1e-5)
    assert sched.repetition_length == 10
    assert_allclose(sched.mu(40), 1e-8, rtol=1e-12)

    degenerate = build_staircase(1e-8, 10)
    assert degenerate.levels == (1.0,)
    assert degenerate.repetition_length == 10
    assert degenerate.mu(5) == degenerate.mu(10) == 1e-8
    assert degenerate.theta(7) == degenerate.theta0

    with pytest.raises(InvalidMu1):
        build_staircase(1e-9, 10)
    with pytest.raises(HorizonExceeded):
        sched.mu(41)


def test_staircase_final_value_across_mu1():
    for mu1 in (1.0, 0.33, 0.0075, 1e-4, 2.5e-7):
        sched = build_staircase(mu1, 200)
        assert_allclose(sched.mu(200), 1e-8, rtol=1e-12)


def test_mu1_init():
    bounds = Bounds(np.array([0.0]), np.array([2.0]))
    assert mu1_init(np.zeros(1), np.array([0.5]), bounds) == 1e-5
    # centered start in a symmetric box gives a zero diagonal, so the cap binds
    assert mu1_init(np.array([3.0]), np.array([1.0]), bounds) == 1.0
    assert_allclose(mu1_init(np.array([10.0]), np.array([0.5]), bounds), 0.0075)


def test_theta0_init():
    bounds = Bounds(np.array([-10.0]), np.array([10.0]))
    assert_allclose(theta0_init(np.zeros(1), bounds, 1.0, 0.0, 1.0, 2.0), 0.5)
    tight = Bounds(np.array([0.0]), np.array([10.0]))
    assert_allclose(theta0_init(np.array([0.01]), tight, 1.0, 0.0, 1.0, 2.0), 0.01)
    one_sided = Bounds(np.array([0.0]), np.array([np.inf]))
    got = theta0_init(np.array([5.0]), one_sided, 1.0, 0.0, 1.0, 2.0)
    assert_allclose(got, 0.5)  # upper slack is infinite and drops out


def test_min_mu1_threshold():
    assert_allclose(min_mu1_threshold(0.25, 1.0, 0.0, 2.0), 1.0 / 3.0)
    assert min_mu1_threshold(0.25, 1e-9, 0.0, 2.0) < 1e-9
    assert min_mu1_threshold(0.999999, 1.0, 0.0, 2.0) > 1e5
    with pytest.raises(InvalidTheta0):
        min_mu1_threshold(1.0, 1.0, 0.0, 2.0)


def test_buffer_sequences():
    theory = BufferSequences(mode="theory", alpha_buff_base=2.0, gamma_buff_base=3.0,
                             t_mu=-0.75)
    for k in (1, 5, 50, 500):
        # the bound shape: buff * k^{-decay} stays equal to the base
        assert_allclose(theory.alpha(k) * k ** 1.5, 2.0)
        assert_allclose(theory.gamma(k) * k ** 0.75, 3.0)
    practical = BufferSequences(mode="practical", maxiter=100)
    assert practical.alpha(100) == 1.0
    assert practical.gamma(100) == 1.0
    assert practical.alpha(1) == 100.0 ** 1.1
    for k in (1, 10, 100):
        assert practical.alpha(k) >= 1.0 and practical.gamma(k) >= 1.0
    with pytest.raises(ValueError):
        BufferSequences(mode="theory")
    with pytest.raises(ValueError):
        BufferSequences(mode="practical")


SCHEDULES = {
    # 100 iterations over 9 levels: the last level absorbs the remainder
    "staircase-uneven": lambda: build_staircase(1.0, 100, theta0=0.2),
    "staircase-degenerate": lambda: build_staircase(1e-8, 10, theta0=0.2),
    "power": lambda: PowerSchedule(mu1=0.3, theta0=0.05,
                                   exponents=ExponentTriple(-0.75, -0.75, -0.2)),
}
BUFFERS = {
    "theory": lambda horizon: BufferSequences(mode="theory", alpha_buff_base=2.0,
                                              gamma_buff_base=1.5, t_mu=-0.75),
    "practical": lambda horizon: BufferSequences(mode="practical", maxiter=horizon),
}


def _hexes(values):
    return [float.hex(v) for v in values]


@pytest.mark.parametrize("buffer_mode", sorted(BUFFERS))
@pytest.mark.parametrize("family", sorted(SCHEDULES))
@pytest.mark.parametrize("at_horizon", [True, False], ids=["maxiter-at-horizon",
                                                           "maxiter-below-horizon"])
def test_sequences_match_the_per_k_methods(family, buffer_mode, at_horizon):
    schedule = SCHEDULES[family]()
    horizon = getattr(schedule, "maxiter", 60)
    maxiter = horizon if at_horizon else horizon - 3
    buffers = BUFFERS[buffer_mode](horizon)
    seq = sequences(schedule, buffers, maxiter)

    ks = range(1, maxiter + 1)
    assert _hexes(seq["theta"]) == _hexes(schedule.theta(k) for k in range(maxiter + 1))
    for name, method in (("s", schedule.s), ("mu", schedule.mu),
                         ("alpha_buff", buffers.alpha), ("gamma_buff", buffers.gamma)):
        assert math.isnan(seq[name][0])
        assert _hexes(seq[name][1:maxiter + 1]) == _hexes(method(k) for k in ks)
    assert len(seq["s"]) == len(seq["alpha_buff"]) == len(seq["gamma_buff"]) == maxiter + 1
    # one more mu: mu_{maxiter+1}, or mu_maxiter again where a staircase ends
    assert len(seq["mu"]) == maxiter + 2
    ends = isinstance(schedule, StaircaseSchedule) and maxiter == schedule.maxiter
    mu_next = schedule.mu(maxiter if ends else maxiter + 1)
    assert float.hex(seq["mu"][-1]) == float.hex(mu_next)
    if isinstance(schedule, PowerSchedule):
        # mu(k) = mu1 * s(k) keeps the bits of the direct power law
        t_mu = schedule.exponents.t_mu
        assert _hexes(seq["mu"][1:]) == _hexes(0.3 * float(k) ** t_mu
                                               for k in range(1, maxiter + 2))


def test_sequences_reject_a_staircase_shorter_than_the_run():
    with pytest.raises(HorizonExceeded):
        sequences(build_staircase(0.5, 10), BufferSequences(mode="theory", t_mu=-1.0), 11)
    with pytest.raises(HorizonExceeded):
        PowerSchedule(mu1=1.0, theta0=0.2, exponents=ExponentTriple(-1, -1, 0)).s(0)


@pytest.mark.parametrize("make, message", [
    (lambda: BufferSequences(mode="practical", maxiter=-3), "practical buffers: maxiter=-3"),
    (lambda: BufferSequences(mode="practical"), "practical buffers: maxiter=None"),
    (lambda: build_staircase(0.1, 2.5), "staircase: maxiter=2.5"),
    (lambda: build_staircase(0.1, math.nan), "staircase: maxiter=nan"),
    (lambda: BufferSequences(mode="practical", maxiter=True), "practical buffers: maxiter=True"),
    (lambda: build_staircase(0.5, True), "staircase: maxiter=True"),
], ids=["buffers-negative", "buffers-none", "staircase-float", "staircase-nan", "buffers-bool",
        "staircase-bool"])
def test_schedule_and_buffer_budgets_are_positive_integers(make, message):
    """Negative practical buffers used to give complex allowances, a float
    staircase budget was truncated to 2 iterations and a NaN one failed as a
    bare ValueError from int().  A bool budget passed as the integer 1: a
    one-iteration staircase, and buffers holding ``maxiter=True``."""
    with pytest.raises(InvalidBudget, match=f"^{message} must be an integer of at least 1$"):
        make()


@pytest.mark.parametrize("make, error", [
    (lambda: validate_exponents(ExponentTriple(-1, -1, 0), "nonsense"), InvalidChoice),
    (lambda: BufferSequences(mode="bogus"), InvalidChoice),
    (lambda: BufferSequences(mode="theory"), InvalidSpec),
    (lambda: build_staircase(math.nan, 10), InvalidMu1),
    (lambda: build_staircase(math.inf, 10), InvalidMu1),
], ids=["setting", "buffer-mode", "theory-without-t-mu", "staircase-mu1-nan",
        "staircase-mu1-inf"])
def test_bad_schedule_arguments_are_typed_errors(make, error):
    """build_staircase(nan, 10) used to fail as a bare ValueError (a NaN to
    int) and build_staircase(inf, 10) as a bare OverflowError."""
    with pytest.raises(error) as err:
        make()
    assert isinstance(err.value, SipmError) and isinstance(err.value, ValueError)


@pytest.mark.parametrize("exponents, buffers, message", [
    ((1000.0, 1000.0, 0.0), BufferSequences(mode="practical", maxiter=50), "mu_k"),
    ((-1.0, 1000.0, 0.0), BufferSequences(mode="practical", maxiter=50), "theta_k"),
    ((-1.0, -1.0, 0.0), BufferSequences(mode="theory", alpha_buff_base=1.0,
                                        gamma_buff_base=1.0, t_mu=200.0), "alpha_buff_k"),
], ids=["mu", "theta", "theory-buffer"])
def test_overflowing_power_is_a_typed_error(exponents, buffers, message):
    """A power that overflows a float used to escape as OverflowError; the
    table names the sequence and the first k: 3**1000 and 6**400 overflow,
    2**1000 and 5**400 do not."""
    first = {"mu_k": 3, "theta_k": 2, "alpha_buff_k": 6}[message]
    schedule = PowerSchedule(mu1=0.1, theta0=0.01, exponents=ExponentTriple(*exponents))
    with pytest.raises(InvalidExponents, match=f"^{message} overflows a float at k={first};"):
        sequences(schedule, buffers, 50)
