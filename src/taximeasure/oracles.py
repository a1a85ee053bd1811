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
measures only for the shared domain and nonnegativity checks and for the
table's reference values.

The partition is walked in blocks of BLOCK cells.  Each block evaluates the
profile on its own nodes (midpoints for the disk), records its lowest sample
for the nonnegativity check and writes its summands into one buffer of all
cells, so a call holds the partition, that buffer and one block's
temporaries: about 3 floats per cell for the polyline, which keeps dx and
|df| apart, and 2 for the others.  One numpy.sum over the buffer then adds
the cells in the same pairwise order as a sum over full-length arrays.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from . import measures
from ._kernels import disk_sum, frustum_sum, polyline_sum
from .errors import DomainError
from .geometry import MAX_CELLS, Interval, check_cells
from .profiles import ProfileFunction, sorted_insert

# Cells per block: the nodes, values and kernel temporaries of one block,
# 128 KiB each, stay in L2.
BLOCK = 1 << 14


class ConvergenceRow(NamedTuple):
    n: int
    oracle: float
    reference: float
    abs_error: float


def _partition(f: ProfileFunction, domain: Interval, n: int) -> np.ndarray:
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
    inner = [b for b in f.breakpoints if domain.lo < b < domain.hi]
    if inner:
        xs = sorted_insert(xs, inner)
    return xs


def _blocks(xs: np.ndarray):
    """(first cell, nodes) of each block of at most BLOCK cells of the
    partition xs; neighbouring blocks share their end node."""
    for i in range(0, xs.size - 1, BLOCK):
        yield i, xs[i:i + BLOCK + 1]


def _values(f: ProfileFunction, xs: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(f.evaluate(xs), dtype=float)


def polyline_arclength_oracle(f: ProfileFunction, domain: Interval | None = None,
                              n: int = 1000) -> float:
    """Sum of taxicab chord lengths over the breakpoint-augmented partition."""
    dom = measures.resolve_domain(f, domain)
    xs = _partition(f, dom, n)
    terms = np.empty((2, xs.size - 1))
    for i, x in _blocks(xs):
        polyline_sum(x, _values(f, x), terms[:, i:i + x.size - 1])
    return float(np.sum(terms[0]) + np.sum(terms[1]))


def frustum_surface_oracle(f: ProfileFunction, domain: Interval | None = None,
                           n: int = 1000) -> float:
    """Sum of taxicab frustum lateral surfaces over the augmented partition."""
    dom = measures.resolve_domain(f, domain)
    xs = _partition(f, dom, n)
    terms = np.empty(xs.size - 1)
    lows = []
    for i, x in _blocks(xs):
        fx = _values(f, x)
        lows.append(measures.lowest_sample(x, fx))
        frustum_sum(x, fx, terms[i:i + x.size - 1])
    measures.check_nonnegative(lows)
    return float(np.sum(terms))


def disk_volume_oracle(f: ProfileFunction, domain: Interval | None = None,
                       n: int = 1000) -> float:
    """Midpoint-rule sum of taxicab disk volumes over the augmented partition."""
    dom = measures.resolve_domain(f, domain)
    xs = _partition(f, dom, n)
    terms = np.empty(xs.size - 1)
    lows = []
    for i, x in _blocks(xs):
        mids = 0.5 * (x[:-1] + x[1:])
        fm = _values(f, mids)
        lows.append(measures.lowest_sample(mids, fm))
        disk_sum(x, fm, terms[i:i + mids.size])
    measures.check_nonnegative(lows)
    return float(np.sum(terms))


_ORACLES = {
    "arclength": polyline_arclength_oracle,
    "surface": frustum_surface_oracle,
    "volume": disk_volume_oracle,
}


def convergence_table(kind: str, f: ProfileFunction, domain: Interval | None = None,
                      ns: Sequence[int] = ()) -> list[ConvergenceRow]:
    """Oracle values against the quadrature reference for each n in ns.

    The reference is computed once; ns must be non-empty, strictly
    increasing and within 1..MAX_CELLS.
    """
    if kind not in _ORACLES:
        raise DomainError(f"kind must be one of {sorted(_ORACLES)}, got {kind!r}")
    ns = [int(n) for n in ns]
    check_cells(ns)

    reference = measures.quadrature_measure(kind)(f, domain)
    oracle_fn = _ORACLES[kind]
    rows = []
    for n in ns:
        val = oracle_fn(f, domain, n)
        rows.append(ConvergenceRow(n, val, reference, abs(val - reference)))
    return rows
