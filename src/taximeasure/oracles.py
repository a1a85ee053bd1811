"""Brute-force discretization oracles, independent of the quadrature engine.

Each oracle partitions the domain uniformly, augments the partition with the
profile's declared breakpoints, and sums an elementary closed-form piece per
cell:

    polyline  dx + |df|                                  (taxicab chord length)
    frustum   4 (f0 + f1)(dx + |df|) sqrt(dx^2 + df^2/2) / sqrt(dx^2 + df^2)
    disk      2 f(mid)^2 dx

Because the pieces telescope, the polyline sum is exact on monotone spans at
any n, and the frustum sum is exact on linear spans; for smooth profiles both
converge as the partition refines.  The oracle sums never call the
quadrature engine, so they stay an independent check on it.  This module uses
measures only for the nonnegativity check it shares with the quadrature and
for the table's reference values.

The three oracles share one loop over blocks of BLOCK cells.  Each block
evaluates the profile on its own nodes (midpoints for the disk), records its
lowest sample for the nonnegativity check of surface and volume, and has a
kernel add up its cell terms pairwise with numpy.sum.  math.fsum joins the
blocks' sums, so a partition of at most BLOCK cells gives one pairwise sum,
and a larger one is as accurate: the telescoping sums stay exact to rounding
on million-cell partitions.  A call holds the partition and one block's
temporaries.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from . import measures
from .errors import DomainError
from .geometry import MAX_CELLS, Interval, check_cells
from .profiles import ProfileFunction, restrict, sorted_insert

# Cells per block: the nodes, values and kernel temporaries of one block,
# 128 KiB each, stay in L2.
BLOCK = 1 << 14


class ConvergenceRow(NamedTuple):
    n: int
    oracle: float
    reference: float
    abs_error: float


def _partition(f: ProfileFunction, domain: Interval, n: int) -> np.ndarray:
    """n uniform cells over domain, f's own, cut at f's breakpoints."""
    check_cells((n,))
    lo, hi = domain.lo, domain.hi
    xs = np.linspace(lo, hi, n + 1)
    # On a domain narrower than a few float spacings per cell, linspace
    # repeats nodes, and the frustum term of a zero-width cell is 0/0: keep
    # each node once.  Any wider domain has strictly increasing nodes and
    # skips this.  A zero-width domain keeps one node and has no cell, so
    # every oracle sums to 0 there, as the quadrature does.
    if hi - lo < 8.0 * n * math.ulp(max(abs(lo), abs(hi))):
        xs = xs[np.concatenate(([True], xs[1:] != xs[:-1]))]
    if f.breakpoints:
        xs = sorted_insert(xs, f.breakpoints)
    return xs


def polyline_sum(xs: np.ndarray, fx: np.ndarray) -> float:
    """Sum of dx + |df| over the cells, dx and |df| summed apart."""
    return np.sum(xs[1:] - xs[:-1]) + np.sum(np.abs(fx[1:] - fx[:-1]))


def frustum_sum(xs: np.ndarray, fx: np.ndarray) -> float:
    """Sum of 4 (f0 + f1)(dx + |df|) sqrt(dx^2 + df^2/2) / sqrt(dx^2 + df^2) over the cells."""
    dx = xs[1:] - xs[:-1]
    df = fx[1:] - fx[:-1]
    slant = np.sqrt(dx * dx + 0.5 * df * df)
    chord = np.sqrt(dx * dx + df * df)
    return np.sum(4.0 * (fx[:-1] + fx[1:]) * (dx + np.abs(df)) * slant / chord)


def disk_sum(xs: np.ndarray, fm: np.ndarray) -> float:
    """Sum of 2 f(mid)^2 dx over the cells, from the midpoint values fm."""
    return np.sum(2.0 * fm * fm * (xs[1:] - xs[:-1]))


def _sum_cells(kernel, f: ProfileFunction, n: int, *,
               mids: bool = False, signed: bool = True) -> float:
    """The oracles' block loop: kernel sums the block's cells from f at its
    nodes, or its cell midpoints; signed checks f >= 0."""
    xs = _partition(f, f.domain, n)
    sums, lows = [], []
    for i in range(0, xs.size - 1, BLOCK):
        x = xs[i:i + BLOCK + 1]  # neighbouring blocks share their end node
        at = 0.5 * (x[:-1] + x[1:]) if mids else x
        fx = np.ascontiguousarray(f.evaluate(at), dtype=float)
        if signed:
            lows.append(measures.lowest_sample(at, fx))
        sums.append(kernel(x, fx))
    measures.check_nonnegative(lows)
    return math.fsum(sums)


def polyline_arclength_oracle(f: ProfileFunction, n: int) -> float:
    """Sum of taxicab chord lengths over the breakpoint-augmented partition."""
    return _sum_cells(polyline_sum, f, n, signed=False)


def frustum_surface_oracle(f: ProfileFunction, n: int) -> float:
    """Sum of taxicab frustum lateral surfaces over the augmented partition."""
    return _sum_cells(frustum_sum, f, n)


def disk_volume_oracle(f: ProfileFunction, n: int) -> float:
    """Midpoint-rule sum of taxicab disk volumes over the augmented partition."""
    return _sum_cells(disk_sum, f, n, mids=True)


_ORACLES = {
    "arclength": polyline_arclength_oracle,
    "surface": frustum_surface_oracle,
    "volume": disk_volume_oracle,
}


def convergence_table(kind: str, f: ProfileFunction, domain: Interval | None = None,
                      ns: Sequence[int] = ()) -> list[ConvergenceRow]:
    """Oracle values against the quadrature reference for each n in ns.

    The reference is computed once; ns must be non-empty, strictly
    increasing and within 1..MAX_CELLS.  A domain restricts f to it.
    """
    if kind not in _ORACLES:
        raise DomainError(f"kind must be one of {sorted(_ORACLES)}, got {kind!r}")
    ns = [int(n) for n in ns]
    check_cells(ns)
    if domain is not None:
        f = restrict(f, domain)

    reference = measures.quadrature_measure(kind)(f)
    oracle_fn = _ORACLES[kind]
    rows = []
    for n in ns:
        val = oracle_fn(f, n)
        rows.append(ConvergenceRow(n, val, reference, abs(val - reference)))
    return rows
