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
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from . import measures
from ._kernels import disk_sum, frustum_sum, polyline_sum
from .errors import DomainError
from .geometry import Interval
from .profiles import ProfileFunction

# Largest partition an oracle builds.  It bounds the memory one call can ask
# for (a few arrays of MAX_CELLS floats) against a cell count from the CLI.
MAX_CELLS = 10**7


class ConvergenceRow(NamedTuple):
    n: int
    oracle: float
    reference: float
    abs_error: float


def _check_cells(n: int) -> None:
    if not 1 <= n <= MAX_CELLS:
        raise DomainError(f"oracle needs 1 <= n <= {MAX_CELLS} cells, got {n}")


def _partition(f: ProfileFunction, domain: Interval, n: int) -> np.ndarray:
    _check_cells(n)
    xs = np.linspace(domain.lo, domain.hi, n + 1)
    inner = [b for b in f.breakpoints if domain.lo < b < domain.hi]
    if inner:
        xs = np.union1d(xs, np.asarray(inner, dtype=float))
    return xs


def polyline_arclength_oracle(f: ProfileFunction, domain: Interval | None = None,
                              n: int = 1000) -> float:
    """Sum of taxicab chord lengths over the breakpoint-augmented partition."""
    dom = measures.resolve_domain(f, domain)
    xs = _partition(f, dom, n)
    fx = np.ascontiguousarray(f.evaluate(xs), dtype=float)
    return float(polyline_sum(xs, fx))


def frustum_surface_oracle(f: ProfileFunction, domain: Interval | None = None,
                           n: int = 1000) -> float:
    """Sum of taxicab frustum lateral surfaces over the augmented partition."""
    dom = measures.resolve_domain(f, domain)
    xs = _partition(f, dom, n)
    fx = np.ascontiguousarray(f.evaluate(xs), dtype=float)
    measures.check_nonnegative_values(xs, fx)
    return float(frustum_sum(xs, fx))


def disk_volume_oracle(f: ProfileFunction, domain: Interval | None = None,
                       n: int = 1000) -> float:
    """Midpoint-rule sum of taxicab disk volumes over the augmented partition."""
    dom = measures.resolve_domain(f, domain)
    xs = _partition(f, dom, n)
    mids = 0.5 * (xs[:-1] + xs[1:])
    fm = np.ascontiguousarray(f.evaluate(mids), dtype=float)
    measures.check_nonnegative_values(mids, fm)
    return float(disk_sum(xs, fm))


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
    if not ns:
        raise DomainError("ns must not be empty")
    if any(n2 <= n1 for n1, n2 in zip(ns, ns[1:])):
        raise DomainError(f"ns must be strictly increasing, got {ns}")
    _check_cells(ns[0])
    _check_cells(ns[-1])

    reference = measures.quadrature_measure(kind)(f, domain)
    oracle_fn = _ORACLES[kind]
    rows = []
    for n in ns:
        val = oracle_fn(f, domain, n)
        rows.append(ConvergenceRow(n, val, reference, abs(val - reference)))
    return rows
