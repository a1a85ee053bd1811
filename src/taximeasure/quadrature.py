"""Globally adaptive Gauss-Kronrod quadrature over arrays of cells.

The domain is first cut at every mandatory split point (profile breakpoints
plus detected derivative sign changes), which restores smoothness inside each
piece, and each piece starts as one cell.  Every round applies the 15-point
Kronrod rule and its embedded 7-point Gauss rule to the new cells, takes
|K15 - G7| as a cell's error, and bisects the cells with the largest errors
until the summed error is at most REL_TOL times the K15 integral of |g|.
That bound scales with g, so one REL_TOL means the same at every magnitude,
and it equals REL_TOL * |value| wherever g keeps one sign, as every measure
integrand does.  It is 0 only when every sample is 0, and then so is the
error, so zero and cancelling integrals still stop.  This is the QAG scheme
of QUADPACK (Piessens et al. 1983), whose resabs is the integral of |g|, run
over NumPy arrays: the nodes of all new cells go to the integrand in one
call, so integrands take and return arrays.  A cell is bisected while its
midpoint is a float strictly inside it; MAX_EVALS bounds the work.

The two end pieces are integrated in u = sqrt(|x - e|) for their domain
endpoint e (x = e +- u^2, Jacobian 2u), which turns integrable power-law
singularities at the ends, such as the inverse square root of a Euclidean
circle arc, into smooth integrands.  Abscissas are clipped into the open
domain, so the integrand is never evaluated at a domain endpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ConvergenceError, DomainError, IntegrandError
from .geometry import Interval

# Kronrod nodes and weights on [-1, 1] (QUADPACK qk15), ascending; the odd
# entries are the 7-point Gauss nodes, weighted by _WG.
_XK_POS = (0.991455371120812639, 0.949107912342758525, 0.864864423359769073,
           0.741531185599394440, 0.586087235467691130, 0.405845151377397167,
           0.207784955007898468)
_WK_POS = (0.022935322010529225, 0.063092092629978553, 0.104790010322250184,
           0.140653259715525919, 0.169004726639267903, 0.190350578064785410,
           0.204432940075298892)
_XK = np.array([-x for x in _XK_POS] + [0.0] + list(reversed(_XK_POS)))
_WK = np.array(list(_WK_POS) + [0.209482141084727828] + list(reversed(_WK_POS)))
_WG = np.array([0.129484966168869693, 0.279705391489276668, 0.381830050505118945,
                0.417959183673469388,
                0.381830050505118945, 0.279705391489276668, 0.129484966168869693])

# Points of the uniform grid on which detect_sign_changes looks for brackets,
# and of the grid it then places inside each bracket per round of refinement.
_SCAN_POINTS = 257
_FRACTIONS = np.arange(1, _SCAN_POINTS + 1) / (_SCAN_POINTS + 1)

REL_TOL = 1e-9
MAX_EVALS = 500_000


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    subdivisions: int
    split_points: tuple[float, ...]


def _call(g: Callable, x: np.ndarray, bad: Callable) -> np.ndarray:
    """g at the 1-D array x, broadcast to its shape; IntegrandError at the
    first value flagged by bad."""
    v = np.asarray(g(x), dtype=float)
    if v.shape != x.shape:
        v = np.broadcast_to(v, x.shape)
    flags = bad(v)
    if flags.any():
        i = int(np.argmax(flags))
        raise IntegrandError(x[i], float(v[i]))
    return v


def _clean_splits(lo: float, hi: float, splits: Iterable[float]) -> list[float]:
    width = hi - lo
    eps = 1e-13 * width
    cleaned: list[float] = []
    for s in sorted(float(s) for s in splits):
        if not (lo <= s <= hi):
            raise DomainError(f"split point {s} lies outside [{lo}, {hi}]")
        if s - lo <= eps or hi - s <= eps:
            continue
        if cleaned and s - cleaned[-1] <= eps:
            continue
        cleaned.append(s)
    return cleaned


def integrate(g: Callable[[np.ndarray], np.ndarray], domain: Interval,
              mandatory_splits: Sequence[float] = ()) -> QuadratureResult:
    """Integrate g over the interval, never sampling its endpoints.

    g takes a 1-D array of abscissas and returns the integrand there (a
    scalar is broadcast).  mandatory_splits are forced cell boundaries; pass
    every known breakpoint of the integrand.  Raises IntegrandError on a
    non-finite sample and ConvergenceError when the error estimate cannot be
    brought below REL_TOL times the integral of |g| within MAX_EVALS samples.
    """
    lo, hi = domain.lo, domain.hi
    if hi == lo:
        return QuadratureResult(0.0, 0.0, 0, ())
    splits = _clean_splits(lo, hi, mandatory_splits)
    # Cut a split-free domain at its midpoint so that each end piece has one
    # domain endpoint to substitute around.
    ends = np.array([lo, *(splits or [0.5 * (lo + hi)]), hi])
    n = len(ends) - 1

    # Piece p maps its own coordinate u to x = origin + direction * t(u),
    # t = u^2 (Jacobian 2u) on the squared end pieces and t = u inside.
    origin = ends[:-1].copy()
    origin[-1] = hi
    direction = np.ones(n)
    direction[-1] = -1.0
    squared = np.zeros(n, dtype=bool)
    squared[[0, -1]] = True
    open_lo, open_hi = math.nextafter(lo, hi), math.nextafter(hi, lo)

    def rules(a, b, piece):
        c = 0.5 * (a + b)[:, None]
        h = 0.5 * (b - a)
        u = c + h[:, None] * _XK
        sq = squared[piece][:, None]
        o = origin[piece][:, None]
        x = np.clip(o + direction[piece][:, None] * np.where(sq, u * u, u), open_lo, open_hi)
        fx = _call(g, x.ravel(), lambda v: ~np.isfinite(v)).reshape(u.shape)
        # The Jacobian 2u is taken at the abscissa actually sampled, u =
        # sqrt(|x - e|): rounding x then moves the node slightly in u, where
        # the integrand is smooth, instead of shifting a 1/sqrt(|x - e|)
        # singularity by a relative error of order ulp(e) / u^2.
        fx = fx * np.where(sq, 2.0 * np.sqrt(np.abs(x - o)), 1.0)
        kronrod = h * (fx @ _WK)
        return kronrod, np.abs(kronrod - h * (fx[:, 1::2] @ _WG)), h * (np.abs(fx) @ _WK)

    # Cells are [a, b] in the coordinate of their piece.  Each round
    # evaluates the new cells and joins them to the kept ones.
    b0 = np.diff(ends)
    b0[[0, -1]] = np.sqrt(b0[[0, -1]])
    new = (np.zeros(n), b0, np.arange(n))
    a = b = value = error = scale = np.zeros(0)
    piece = np.zeros(0, dtype=int)
    evals = subdivisions = 0
    total, err = 0.0, math.inf
    while True:
        evals += _XK.size * new[0].size
        if evals > MAX_EVALS:
            raise ConvergenceError(
                f"quadrature exhausted its evaluation budget ({MAX_EVALS} samples)",
                value=total, error_estimate=err)
        a, b, piece, value, error, scale = (
            np.concatenate([old, add]) for old, add in
            zip((a, b, piece, value, error, scale), (*new, *rules(*new))))

        total = float(np.sum(value))
        err = float(np.sum(error))
        tol = REL_TOL * float(np.sum(scale))
        if err <= tol or not math.isfinite(err):
            # A non-finite sum of finite samples has overflowed: no bisection
            # can bring it back, so it is returned for the caller to judge.
            break

        mid = 0.5 * (a + b)
        can = (a < mid) & (mid < b)
        stuck = float(np.sum(error[~can]))
        if stuck >= tol:
            raise ConvergenceError(
                "quadrature did not reach the requested tolerance: the cells "
                "holding the error cannot be bisected further",
                value=total, error_estimate=err)
        # Bisect the largest errors until the rest is within half of what the
        # cells that cannot be bisected leave of the tolerance.
        order = np.flatnonzero(can)
        order = order[np.argsort(-error[order], kind="stable")]
        rest = (err - stuck) - np.cumsum(error[order])
        pick = order[:1 + np.count_nonzero(rest > 0.5 * (tol - stuck))]
        subdivisions += pick.size
        new = (np.concatenate([a[pick], mid[pick]]), np.concatenate([mid[pick], b[pick]]),
               np.tile(piece[pick], 2))
        keep = np.ones(a.size, dtype=bool)
        keep[pick] = False
        a, b, piece, value, error, scale = (
            arr[keep] for arr in (a, b, piece, value, error, scale))

    return QuadratureResult(total, err, subdivisions, tuple(splits))


def detect_sign_changes(g: Callable[[np.ndarray], np.ndarray],
                        domain: Interval, known: Sequence[float] = ()) -> list[float]:
    """Locate sign changes of g by scanning a uniform midpoint grid, closed by
    the first and last floats inside the domain so that the two end
    half-cells are scanned too, in one array call; then refine every
    bracketing pair together, each round placing the same number of evenly
    spaced points inside every bracket in one call and keeping the cell
    where the sign first changes (multisection), down to 1e-13 of the
    domain width, or to the float spacing where that is wider.  A round
    shrinks a bracket 258-fold, so five rounds follow the scan.  A refining
    point where g is exactly 0 ends its bracket's refinement there.  The
    domain endpoints themselves are never sampled.  Returns the refined
    abscissas, sorted.

    known holds points the caller already splits at, such as declared
    breakpoints.  The two floats next to each join the scan, so the bracket
    around a sign change at a known point is two floats wide and needs no
    refinement, while a sign change beside it still gets a bracket of its
    own.  A point found within 1e-13 of the width of a known one is that
    point again and is left out.
    """
    lo, hi = domain.lo, domain.hi
    width = hi - lo
    if width <= 0.0:
        return []
    grid = lo + (np.arange(_SCAN_POINTS) + 0.5) * (width / _SCAN_POINTS)
    xs = np.concatenate([[math.nextafter(lo, hi)], grid, [math.nextafter(hi, lo)]])
    if len(known):
        ks = np.asarray(known, dtype=float)
        near = np.concatenate([np.nextafter(ks, lo), np.nextafter(ks, hi)])
        # A point scanned twice is harmless: both copies have the same sign.
        xs = np.sort(np.concatenate([xs, np.minimum(np.maximum(near, xs[0]), xs[-1])]))
    signs = np.sign(_call(g, xs, np.isnan))

    # A bracket ends at a nonzero sign that differs from the previous nonzero
    # one, and starts at the scan point just before it.
    nonzero = np.flatnonzero(signs)
    flips = np.flatnonzero(signs[nonzero[:-1]] != signs[nonzero[1:]])
    right = nonzero[flips + 1]
    a, b = xs[right - 1], xs[right]
    sign_a = signs[nonzero[flips]]
    target = 1e-13 * width
    # Far from 0 on a narrow domain, adjacent floats can lie further apart
    # than target.  A bracket wider than the largest float spacing in the
    # domain always has its midpoint, the middle one of the refining points,
    # strictly inside, so every round narrows every bracket.
    stop = max(target, math.ulp(max(abs(lo), abs(hi))))
    active = np.flatnonzero(b - a > stop)
    while active.size:
        aa, ba, sa = a[active], b[active], sign_a[active]
        inner = aa[:, None] + (ba - aa)[:, None] * _FRACTIONS
        s = np.sign(_call(g, inner.ravel(), np.isnan)).reshape(inner.shape)
        # Each bracket ends at its first point whose sign differs from
        # sign_a (b's always does) and starts at the point before it.
        # An exact zero closes the bracket on itself.
        nodes = np.column_stack([aa, inner, ba])
        s = np.column_stack([s, -sa])
        rows = np.arange(active.size)
        k = np.argmax(s != sa[:, None], axis=1)
        b[active] = nodes[rows, k + 1]
        a[active] = np.where(s[rows, k] == 0.0, b[active], nodes[rows, k])
        active = active[b[active] - a[active] > stop]

    found = np.sort(np.concatenate([xs[signs == 0.0], 0.5 * (a + b)]))
    deduped: list[float] = []
    for x in found.tolist():
        if not deduped or x - deduped[-1] > target:
            deduped.append(x)
    if not len(known) or not deduped:
        return deduped
    # Keep what lies further than target from its nearest known point.
    pts, ks = np.array(deduped), np.sort(ks)
    at = np.searchsorted(ks, pts)
    gap = np.minimum(np.abs(pts - ks[np.maximum(at - 1, 0)]),
                     np.abs(pts - ks[np.minimum(at, ks.size - 1)]))
    return pts[gap > target].tolist()
