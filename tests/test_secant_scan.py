"""The bootstrap's blocked secant scan against the per-pair scan it replaced.

``secant_scan._BlockScan`` folds blocks of up to ``SCAN_BLOCK`` steps with a
batched row dot, and ``secant_scan._PairScan`` takes the pairs one by one where
n is too large for a block; the reference below is the per-pair observer they
replaced, float operation for float operation, and every comparison is ``==``.
"""

import math

import numpy as np
import pytest

from sipm import (Bounds, Objective, estimate_constants, harness, initial_point,
                  logistic_objective, quadratic_objective, secant_scan,
                  synthetic_classification)
from sipm.solver import run


def reference_scan(x1, g1):
    """The per-pair scan: an observer and a function returning (kappa, ell)."""
    kappa = ell = 0.0
    prev = x1, g1

    def scan(step):
        nonlocal kappa, ell, prev
        x, g = step["x"], step["g"]
        kappa = max(kappa, float(np.abs(g).max()))
        dx = x - prev[0]
        move = math.sqrt(dx @ dx)
        if move > 1e-14:
            dg = g - prev[1]
            ell = max(ell, math.sqrt(dg @ dg) / move)
        prev = x, g

    return scan, lambda: (kappa, ell)


def reference_estimate(objective, x1, bounds):
    """(kappa, ell) of the per-pair scan over the bootstrap's own run."""
    g1 = objective.gradient(x1)
    config = harness._solver_config(harness.BOOTSTRAP_SPEC, g1, x1, bounds,
                                    harness.BOOTSTRAP_CONSTANTS, harness.BOOTSTRAP_ITERS)
    scan, result = reference_scan(x1, g1)
    run(objective, config, x1, observer=scan)
    kappa, ell = result()
    return kappa, ell if ell != 0.0 else 1.0


class LinearObjective(Objective):
    """f(x) = c . x: the gradient never changes, so no secant is usable."""

    def __init__(self, c):
        self.c = np.asarray(c, dtype=float)
        self.n = self.c.size

    def value(self, x):
        return float(self.c @ x)

    def gradient(self, x):
        return self.c.copy()

    def stochastic_gradient(self, x, batch):
        return self.c.copy()


def _quadratic(n):
    rng = np.random.default_rng(n)
    return (quadratic_objective(rng.uniform(-0.5, 0.5, n), rng.uniform(0.5, 2.0, n)),
            Bounds.cube(n, -1.0, 1.0))


def _logistic_half_open():
    A, y = synthetic_classification(60, 8, seed=3)
    obj = logistic_objective((A, y))
    return obj, Bounds(np.full(obj.n, -1.0), np.full(obj.n, np.inf))


PROBLEMS = {
    "quadratic-50": lambda: _quadratic(50),
    "quadratic-1": lambda: _quadratic(1),
    "quadratic-300": lambda: _quadratic(300),
    "quadratic-2000": lambda: _quadratic(2000),   # a block of 15 steps
    "quadratic-4000": lambda: _quadratic(4000),   # one pair per step
    "logistic-half-open": _logistic_half_open,
    "linear": lambda: (LinearObjective([0.4, -1.5, 0.2]), Bounds.cube(3, -1.0, 1.0)),
}


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_blocked_scan_matches_the_per_pair_scan(name):
    objective, bounds = PROBLEMS[name]()
    x1 = initial_point(objective.n, 0)
    est = estimate_constants(objective, x1, bounds)
    assert (est.kappa_inf_bar, est.ell_f_bar) == reference_estimate(objective, x1, bounds)
    if name == "linear":
        assert est.ell_f_bar == 1.0


# bootstrap lengths around the block of SCAN_BLOCK = B steps
LENGTHS = {"1": lambda B: 1, "B-1": lambda B: B - 1, "B": lambda B: B,
           "B+1": lambda B: B + 1, "37": lambda B: 37}


@pytest.mark.parametrize("length", sorted(LENGTHS))
def test_blocked_scan_matches_at_every_block_boundary(length, monkeypatch):
    monkeypatch.setattr(harness, "BOOTSTRAP_ITERS", LENGTHS[length](secant_scan.SCAN_BLOCK))
    objective, bounds = _quadratic(50)
    x1 = initial_point(50, 0)
    est = estimate_constants(objective, x1, bounds)
    assert (est.kappa_inf_bar, est.ell_f_bar) == reference_estimate(objective, x1, bounds)


def _feed(points, n):
    """(kappa, ell) of both scans over points[1:], starting from points[0]."""
    (x1, g1), steps = points[0], [dict(x=x, g=g) for x, g in points[1:]]
    scan, result = reference_scan(x1, g1)
    blocked = secant_scan._secant_scan(x1, g1)
    for step in steps:
        scan(step)
        blocked(step)
    blocked.fold()
    return result(), (blocked.kappa, blocked.ell)


@pytest.mark.parametrize("n", [1, 7, 50, 251, 4000])
def test_blocked_scan_matches_on_walks_with_zero_and_tiny_moves(n):
    rng = np.random.default_rng(n)
    points = [(rng.uniform(-1, 1, n), rng.standard_normal(n))]
    for k in range(150):
        x, g = points[-1]
        kind = k % 5
        if kind == 0:     # no move, a new gradient: a skipped pair
            points.append((x.copy(), rng.standard_normal(n)))
        elif kind == 1:   # a move at most 1e-14 long: skipped too
            points.append((x + 1e-16, rng.standard_normal(n)))
        else:
            points.append((x + rng.standard_normal(n) * 10.0 ** rng.integers(-6, 1),
                           g + rng.standard_normal(n)))
    reference, blocked = _feed(points, n)
    assert blocked == reference and reference[1] > 0.0


@pytest.mark.parametrize("n", [1, 50, 251])
def test_each_pairs_ratio_has_the_per_pair_bits(n):
    """A two-point scan's ell is that pair's ratio, so every single ratio is
    compared, not only the largest."""
    rng = np.random.default_rng(100 + n)
    for _ in range(64):
        x0, g0 = rng.standard_normal(n), rng.standard_normal(n)
        points = [(x0, g0), (x0 + rng.standard_normal(n), g0 + rng.standard_normal(n))]
        reference, blocked = _feed(points, n)
        assert blocked == reference


def test_a_scan_without_a_usable_pair_keeps_zero():
    x, g = np.ones(4), np.arange(4.0)
    reference, blocked = _feed([(x, g), (x.copy(), -g), (x.copy(), g)], 4)
    assert blocked == reference == (3.0, 0.0)


def test_the_row_dot_has_the_bits_of_a_vector_dot():
    """_row_dots is the batched form of ``v @ v``; every row of every length
    1-600 has the same bytes, with signed zeros and magnitudes of 1e+-150."""
    rng = np.random.default_rng(20)
    for n in range(1, 601):
        rows = rng.standard_normal((5, n)) * 10.0 ** rng.integers(-150, 151, size=(5, 1))
        rows[rng.random(rows.shape) < 0.1] = -0.0
        batched = secant_scan._row_dots(rows)
        single = np.array([row.copy() @ row.copy() for row in rows])
        assert batched.tobytes() == single.tobytes(), n


@pytest.mark.parametrize("n, block", [(1, 32), (50, 32), (992, 32), (993, 32 - 1),
                                      (2000, 15), (3640, 8), (3641, None), (4000, None)])
def test_the_scan_block_stays_within_its_byte_cap(n, block, monkeypatch):
    """Each block array holds at most SCAN_BYTES; where that leaves fewer than
    SCAN_MIN_BLOCK steps, the scan keeps no block and takes one pair a step."""
    scans, make = [], secant_scan._secant_scan

    def recorded(x1, g1):
        scans.append(make(x1, g1))
        return scans[-1]

    monkeypatch.setattr(harness, "_secant_scan", recorded)
    monkeypatch.setattr(harness, "BOOTSTRAP_ITERS", 5)
    objective, bounds = _quadratic(n)
    estimate_constants(objective, initial_point(n, 0), bounds)
    (scan,) = scans
    if block is None:
        assert isinstance(scan, secant_scan._PairScan)
    else:
        assert len(scan.xs) == len(scan.gs) == block + 1
        assert max(scan.xs.nbytes, scan.gs.nbytes) <= secant_scan.SCAN_BYTES
