"""The bootstrap's secant scan: the largest gradient inf-norm (kappa) and
secant ratio (ell) along ``estimate_constants``' bootstrap path, as the run
makes it, in O(n) memory.

``_secant_scan`` picks the observer by n.  A ``_BlockScan`` copies each step
into a block and folds the block in a few numpy calls; the fold's row dots
have the bits of ``row @ row``, so both maxima are the per-pair scan's.  It
holds SCAN_BLOCK steps, fewer where an array would pass SCAN_BYTES (n > 992).
Where that leaves fewer than SCAN_MIN_BLOCK steps (n > 3640), a block no
longer pays for its copies, and a ``_PairScan`` takes one pair a step.
"""

from __future__ import annotations

import math

import numpy as np

SCAN_BLOCK, SCAN_BYTES, SCAN_MIN_BLOCK = 32, 1 << 18, 8


def _row_dots(a):
    """Each row's dot product with itself, with the bits of ``row @ row``: a
    batched (1, n) @ (n, 1) matmul runs each row through the same dot kernel."""
    return np.matmul(a[:, None, :], a[:, :, None]).reshape(-1)


def _secant_scan(x1, g1):
    """The bootstrap's observer from (x1, g1): a ``_BlockScan`` of as many steps
    as the module's SCAN_* limits allow, or a ``_PairScan`` above them."""
    block = min(SCAN_BLOCK, SCAN_BYTES // (8 * np.size(g1)) - 1)
    return _BlockScan(x1, g1, block) if block >= SCAN_MIN_BLOCK else _PairScan(x1, g1)


class _PairScan:
    """The largest gradient inf-norm (kappa) and secant ratio (ell) along the
    path from (x1, g1), skipping pairs that move by at most 1e-14, one pair
    per step; ``fold`` has nothing left to scan."""

    def __init__(self, x1, g1):
        self.prev = x1, g1
        self.kappa = self.ell = 0.0   # gradient inf-norms and secant ratios are nonnegative

    def __call__(self, step):
        x, g = step["x"], step["g"]
        self.kappa = max(self.kappa, float(np.abs(g).max()))
        dx = x - self.prev[0]
        move = math.sqrt(dx @ dx)   # np.linalg.norm's bits, a 1-D norm being sqrt(dot)
        if move > 1e-14:
            dg = g - self.prev[1]
            self.ell = max(self.ell, math.sqrt(dg @ dg) / move)
        self.prev = x, g

    def fold(self):
        pass


class _BlockScan:
    """``_PairScan``'s maxima, bit for bit, from blocks of ``block`` steps:
    each step is copied into two (block + 1, n) arrays, row 0 holding the last
    point scanned, and ``fold`` scans them in a few calls, each pair's norms
    with ``math.sqrt(d @ d)``'s bits."""

    def __init__(self, x1, g1, block):
        shape = block + 1, np.size(g1)
        self.xs, self.gs = np.empty(shape), np.empty(shape)
        self.xs[0], self.gs[0] = x1, g1
        self.filled = 0   # rows after row 0 not folded yet
        self.kappa = self.ell = 0.0

    def __call__(self, step):
        i = self.filled = self.filled + 1
        self.xs[i], self.gs[i] = step["x"], step["g"]
        if i == len(self.xs) - 1:
            self.fold()

    @np.errstate(divide="ignore", invalid="ignore")   # the skipped pairs' ratios
    def fold(self):
        i, self.filled = self.filled, 0
        if i:
            xs, gs = self.xs[:i + 1], self.gs[:i + 1]
            self.kappa = max(self.kappa, float(np.abs(gs[1:]).max()))
            moves = np.sqrt(_row_dots(xs[1:] - xs[:-1]))
            ratios = np.sqrt(_row_dots(gs[1:] - gs[:-1])) / moves
            # fmax skips a NaN ratio, as max(ell, nan) keeps ell
            self.ell = max(self.ell, float(np.fmax.reduce(ratios, where=moves > 1e-14,
                                                          initial=0.0)))
            xs[0], gs[0] = xs[i], gs[i]
