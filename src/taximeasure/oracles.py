"""Brute-force discretization oracles, independent of the quadrature engine.

Each oracle partitions the domain uniformly, augments the partition with the
profile's declared breakpoints, and sums an elementary closed-form piece per
cell:

    polyline  dx + |df|                                  (taxicab chord length)
    frustum   4 (f0 + f1)(dx + |df|) sqrt(1/2 + 1/(2(1 + t^2))),  t = |df|/dx
    disk      2 f(mid)^2 dx

Because the pieces telescope, the polyline sum is exact on monotone spans at
any n, and the frustum sum is exact on linear spans; for smooth profiles both
converge as the partition refines.  The oracle sums never call the
quadrature engine, so they stay an independent check on it.  This module uses
measures only for the nonnegativity check it shares with the quadrature and
for the table's reference values.  Which oracle computes a quantity, and
whether it needs f >= 0, is read from geometry.PROFILE_QUANTITIES.

The three oracles share one loop over the blocks of the partition.  Each
block evaluates the profile on its own nodes (midpoints for the disk), adds
its samples to one running summary for the nonnegativity check of surface
and volume (measures.LowestSample), and has a kernel add up its cell terms
pairwise with numpy's sum.  math.fsum joins the blocks' sums, so a
partition of at most BLOCK cells gives one pairwise sum, and a larger one
is as accurate: the telescoping sums stay exact to rounding on
million-cell partitions.

A block is a chunk of BLOCK uniform cells, with the nodes linspace would
give and the breakpoints that fall among them, built as the loop reaches
it, so no call builds the whole partition.  Each kernel allocates its
temporaries for the block it sums: a call holds one block and that block's
kernel temporaries, whatever n and the profile's breakpoint count are.

The three sums are right wherever their terms and sums are normal floats.
The frustum term takes its radical from the slope, which no magnitude
moves, and squares no length, so it scales as the surface does: its sums
hold from magnitudes of ~1e-150 to ~1e150, past which the surface itself
leaves the normal floats.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from . import measures
from .errors import DomainError
from .geometry import MAX_CELLS, PROFILE_QUANTITIES, Interval, check_cells
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


def _linspace_nodes(idx: np.ndarray, lo: float, hi: float, n: int) -> np.ndarray:
    """Nodes idx of np.linspace(lo, hi, n + 1), each computed as linspace
    computes it; idx holds increasing indices as floats, and is overwritten
    with the nodes."""
    last = idx[-1] == n
    step = (hi - lo) / n
    if step == 0.0:  # linspace's branch for a step that underflows
        idx /= n
        idx *= hi - lo
    else:
        idx *= step
    idx += lo
    if last:
        idx[-1] = hi
    return idx


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
    pts = f.breakpoint_array
    narrow = hi - lo < 8.0 * n * math.ulp(max(abs(lo), abs(hi)))
    j = 0  # the first breakpoint not yet in
    for first in range(0, n, BLOCK):
        x = _linspace_nodes(np.add(_IDX[:min(BLOCK, n - first) + 1], first), lo, hi, n)
        if narrow:
            x = x[np.concatenate(([True], x[1:] != x[:-1]))]
        if j < pts.size and pts[j] <= x[-1]:
            k = np.searchsorted(pts, x[-1], side="right")
            x, j = sorted_insert(x, pts[j:k]), k
        if x.size > 1:
            yield x


def polyline_sum(xs: np.ndarray, fx: np.ndarray) -> float:
    """Sum of dx + |df| over the cells, dx and |df| summed apart."""
    df = np.subtract(fx[1:], fx[:-1])
    return np.subtract(xs[1:], xs[:-1]).sum() + np.abs(df, df).sum()


def frustum_sum(xs: np.ndarray, fx: np.ndarray) -> float:
    """Sum of 4 (f0 + f1)(dx + |df|) sqrt(1/2 + 1/(2(1 + t^2))) over the
    cells, with slope t = |df|/dx; the factor 4 multiplies the sum.

    The radical is sqrt(dx^2 + df^2/2) / sqrt(dx^2 + df^2) written in the
    slope, so it lies in [sqrt(1/2), 1] and no length is squared: a term
    holds wherever (f0 + f1)(dx + |df|) is a normal float.  A slope, or its
    square, past the largest float gives the limit sqrt(1/2) exactly.
    """
    rows = np.empty((3, xs.size - 1))
    dx, df, w = rows
    np.subtract(xs[1:], xs[:-1], dx)
    np.subtract(fx[1:], fx[:-1], df)
    np.abs(df, df)
    with np.errstate(over="ignore", divide="ignore"):
        np.divide(df, dx, w)             # t
        w *= w                           # t^2
    w += 1.0
    np.divide(0.5, w, w)
    w += 0.5
    np.sqrt(w, w)                        # sqrt(1/2 + 1/(2(1 + t^2)))
    dx += df                             # dx + |df|
    term = np.add(fx[:-1], fx[1:], df)   # f0 + f1, in the row of |df|
    term *= dx
    term *= w
    return 4.0 * term.sum()


def disk_sum(xs: np.ndarray, fm: np.ndarray) -> float:
    """Sum of 2 f(mid)^2 dx over the cells, from the midpoint values fm; the
    factor 2 multiplies the sum, which is exact."""
    term = np.multiply(fm, fm)
    term *= np.subtract(xs[1:], xs[:-1])
    return 2.0 * term.sum()


def _sum_cells(kernel, f: ProfileFunction, n: int, quantity: str, *,
               mids: bool = False) -> float:
    """The oracles' block loop: kernel sums the block's cells from f at its
    nodes, or its cell midpoints, and checks f >= 0 if quantity needs it."""
    check_cells((n,))
    sums = []
    lowest = measures.LowestSample()
    for x in _blocks(f, n):
        at = x
        if mids:
            at = np.add(x[:-1], x[1:])
            at *= 0.5
        fx = np.ascontiguousarray(f.evaluate(at), dtype=float)
        if fx.shape != at.shape:  # a map that returns a scalar
            fx = np.full(at.shape, fx)
        if PROFILE_QUANTITIES[quantity].signed:
            lowest.add(at, fx)
        sums.append(kernel(x, fx))
    lowest.check_nonnegative()
    return math.fsum(sums)


def polyline_arclength_oracle(f: ProfileFunction, n: int) -> float:
    """Sum of taxicab chord lengths over the breakpoint-augmented partition."""
    return _sum_cells(polyline_sum, f, n, "arclength")


def frustum_surface_oracle(f: ProfileFunction, n: int) -> float:
    """Sum of taxicab frustum lateral surfaces over the augmented partition."""
    return _sum_cells(frustum_sum, f, n, "surface")


def disk_volume_oracle(f: ProfileFunction, n: int) -> float:
    """Midpoint-rule sum of taxicab disk volumes over the augmented partition."""
    return _sum_cells(disk_sum, f, n, "volume", mids=True)


# A tracer that wraps an oracle replaces its entry here as well.
_ORACLES = {q: globals()[entry.oracle] for q, entry in PROFILE_QUANTITIES.items()}


def convergence_table(kind: str, f: ProfileFunction, domain: Interval | None = None,
                      ns: Sequence[int] = ()) -> list[ConvergenceRow]:
    """Oracle values against the quadrature reference for each n in ns.

    The reference is computed once; ns must be non-empty, strictly
    increasing and within 1..MAX_CELLS.  A domain restricts f to it.
    """
    if kind not in _ORACLES:
        raise DomainError(f"kind must be one of {sorted(_ORACLES)}, got {kind!r}")
    ns = list(ns)
    check_cells(ns)
    ns = [int(n) for n in ns]
    if domain is not None:
        f = restrict(f, domain)

    reference = measures.quadrature_measure(kind)(f)
    oracle_fn = _ORACLES[kind]
    rows = []
    for n in ns:
        val = oracle_fn(f, n)
        rows.append(ConvergenceRow(n, val, reference, abs(val - reference)))
    return rows
