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

The three oracles share one loop over the blocks of the partition.  Each
block evaluates the profile on its own nodes (midpoints for the disk),
records its lowest sample for the nonnegativity check of surface and volume,
and has a kernel add up its cell terms pairwise with numpy's sum.
math.fsum joins the blocks' sums, so a partition of at most BLOCK cells
gives one pairwise sum, and a larger one is as accurate: the telescoping
sums stay exact to rounding on million-cell partitions.

A block is a chunk of BLOCK uniform cells, with the nodes linspace would
give and the breakpoints that fall among them, built as the loop reaches
it, so no call builds the whole partition.  The kernels write their
temporaries into one workspace per call, so a call holds one block and one
workspace, 1.3-1.5 MB and ~56 B more per breakpoint, whatever n is.
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

# 0, 1, 2, ... as floats, enough for the BLOCK + 1 nodes of a chunk.
_IDX = np.arange(BLOCK + 1, dtype=float)
_IDX.flags.writeable = False


class ConvergenceRow(NamedTuple):
    n: int
    oracle: float
    reference: float
    abs_error: float


def _linspace_nodes(first: int, last: int, lo: float, hi: float, n: int) -> np.ndarray:
    """Nodes first..last of np.linspace(lo, hi, n + 1), each computed as
    linspace computes it."""
    x = np.add(_IDX[:last + 1 - first], first)
    step = (hi - lo) / n
    if step == 0.0:  # linspace's branch for a step that underflows
        x /= n
        x *= hi - lo
    else:
        x *= step
    x += lo
    if last == n:
        x[-1] = hi
    return x


def _blocks(f: ProfileFunction, n: int):
    """The partition of n uniform cells over f's domain, cut at f's
    breakpoints, one block per chunk of BLOCK uniform cells; neighbouring
    blocks share their end node.

    A chunk's nodes are those np.linspace computes, and it takes in the
    breakpoints up to its last node, one on a node being dropped, so a block
    has up to BLOCK cells and one more per breakpoint among them.

    On a domain narrower than a few float spacings per cell, linspace repeats
    nodes, and the frustum term of a zero-width cell is 0/0: each node is
    kept once.  A zero-width domain keeps one node and has no cell, hence no
    block, so every oracle sums to 0 there, as the quadrature does.  Any
    wider domain has strictly increasing nodes.
    """
    lo, hi = f.domain.lo, f.domain.hi
    pts = np.asarray(f.breakpoints, dtype=float)
    narrow = hi - lo < 8.0 * n * math.ulp(max(abs(lo), abs(hi)))
    j = 0  # the first breakpoint not yet in
    for first in range(0, n, BLOCK):
        x = _linspace_nodes(first, min(first + BLOCK, n), lo, hi, n)
        if narrow:
            x = x[np.concatenate(([True], x[1:] != x[:-1]))]
        if j < pts.size and pts[j] <= x[-1]:
            k = np.searchsorted(pts, x[-1], side="right")
            x, j = sorted_insert(x, pts[j:k]), k
        if x.size > 1:
            yield x


def workspace(cells: int) -> np.ndarray:
    """Scratch rows for the kernels' temporaries on up to `cells` cells, and
    one more for the disk's midpoints."""
    return np.empty((6, cells))


def polyline_sum(xs: np.ndarray, fx: np.ndarray, work: np.ndarray) -> float:
    """Sum of dx + |df| over the cells, dx and |df| summed apart."""
    dx, df = work[:2, :xs.size - 1]
    np.subtract(xs[1:], xs[:-1], dx)
    np.subtract(fx[1:], fx[:-1], df)
    return dx.sum() + np.abs(df, df).sum()


def frustum_sum(xs: np.ndarray, fx: np.ndarray, work: np.ndarray) -> float:
    """Sum of 4 (f0 + f1)(dx + |df|) sqrt(dx^2 + df^2/2) / sqrt(dx^2 + df^2) over the cells."""
    dx, df, slant, chord, term = work[:5, :xs.size - 1]
    np.subtract(xs[1:], xs[:-1], dx)
    np.subtract(fx[1:], fx[:-1], df)
    np.multiply(dx, dx, chord)
    np.multiply(df, 0.5, slant)
    slant *= df
    slant += chord
    np.sqrt(slant, slant)                # sqrt(dx^2 + 0.5 df^2)
    np.multiply(df, df, term)
    chord += term
    np.sqrt(chord, chord)                # sqrt(dx^2 + df^2)
    np.abs(df, df)
    df += dx                             # dx + |df|
    np.add(fx[:-1], fx[1:], term)
    term *= 4.0
    term *= df
    term *= slant
    term /= chord
    return term.sum()


def disk_sum(xs: np.ndarray, fm: np.ndarray, work: np.ndarray) -> float:
    """Sum of 2 f(mid)^2 dx over the cells, from the midpoint values fm."""
    term, dx = work[:2, :xs.size - 1]
    np.multiply(fm, 2.0, term)
    term *= fm
    term *= np.subtract(xs[1:], xs[:-1], dx)
    return term.sum()


def _sum_cells(kernel, f: ProfileFunction, n: int, *,
               mids: bool = False, signed: bool = True) -> float:
    """The oracles' block loop: kernel sums the block's cells from f at its
    nodes, or its cell midpoints; signed checks f >= 0."""
    check_cells((n,))
    work = workspace(min(n, BLOCK) + len(f.breakpoints))
    sums, lows = [], []
    for x in _blocks(f, n):
        at = x
        if mids:
            at = np.add(x[:-1], x[1:], work[5, :x.size - 1])
            at *= 0.5
        fx = np.ascontiguousarray(f.evaluate(at), dtype=float)
        if signed:
            lows.append(measures.lowest_sample(at, fx))
        sums.append(kernel(x, fx, work))
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
