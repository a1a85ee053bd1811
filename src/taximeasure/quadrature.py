"""Globally adaptive Gauss-Kronrod quadrature over arrays of cells.

The domain is first cut at every mandatory split point (profile breakpoints
plus detected derivative sign changes), which restores smoothness inside each
piece, and each piece starts as one cell.  The splits are kept as given,
however close: only repeats and splits at a domain end are dropped.  Every
round applies the 15-point Kronrod rule and its embedded 7-point Gauss rule
to the new cells, takes |K15 - G7| as a cell's error, and bisects the cells
with the largest errors until the summed error is at most REL_TOL times the
K15 integral of |g|.  That bound scales with g, so one REL_TOL means the same
at every magnitude, and it equals REL_TOL * |value| wherever g keeps one
sign, as every measure integrand does.  Below the rounding of subnormal
samples it takes that rounding instead, so zero, cancelling and underflowing
integrals still stop.  Rounding an abscissa to a float moves it by up to
half its float spacing, which no bisection lowers: g moves by that times its
variation, and at the end pieces, whose Jacobian is taken at the rounded
abscissa, the Jacobian moves too, even where g is constant.  A rounded node
stays inside its piece, whose ends are the split floats, so a jump of g at a
split moves only where a node rounds onto it, and the variation over the
nodes then holds that jump.  Where some piece is narrower than _NARROW float
spacings, the first round bounds that cost from its own samples: per piece,
half its spacing times the variation of g over the 15 nodes, plus on the end
pieces the sum of h * w_i * |g_i| * |2 sqrt(|x_i - e|) - 2 u_i|; where the
bound exceeds the tolerance it raises ConvergenceError instead of refining.
This is the QAG scheme of QUADPACK (Piessens et al. 1983), whose resabs is
the integral of |g|, run over NumPy arrays: the nodes of all new cells go to
the integrand in one call, so integrands take and return arrays.  A cell is
bisected while its midpoint is a float strictly inside it; MAX_EVALS bounds
the work.

The two end pieces are integrated in u = sqrt(|x - e|) for their domain
endpoint e (x = e +- u^2, Jacobian 2u), which turns integrable power-law
singularities at the ends, such as the inverse square root of a Euclidean
circle arc, into smooth integrands.  Abscissas are clipped into the open
domain, so the integrand is never evaluated at a domain endpoint.  Piece
p maps its own coordinate u to x = origin + direction * t, with t = u^2 on
the squared end pieces and t = u inside; column p of a (3, n) table holds
its origin, direction and squared flag, and each round gathers the columns
of its cells' pieces in one indexing.
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
# Float spacings, ten times 1 / REL_TOL: only where some piece is narrower
# than this does the first round bound what rounding its abscissas costs.
_NARROW = 1e10


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    subdivisions: int
    split_points: tuple[float, ...]
    evals: int
    rounds: int


def _call(g: Callable, x: np.ndarray) -> np.ndarray:
    """g at the 1-D array x, broadcast to its shape; IntegrandError at its first NaN."""
    v = np.asarray(g(x), dtype=float)
    if v.shape != x.shape:
        v = np.broadcast_to(v, x.shape)
    nan = np.isnan(v)
    if nan.any():
        i = int(np.argmax(nan))
        raise IntegrandError(x[i], float(v[i]))
    return v


def _clean_splits(lo: float, hi: float, splits: Iterable[float]) -> list[float]:
    cleaned = sorted({float(s) for s in splits})
    for s in cleaned:
        if not (lo <= s <= hi):
            raise DomainError(f"split point {s} lies outside [{lo}, {hi}]")
    return [s for s in cleaned if lo < s < hi]


def integrate(g: Callable[[np.ndarray], np.ndarray], domain: Interval,
              mandatory_splits: Sequence[float] = ()) -> QuadratureResult:
    """Integrate g over the interval, never sampling its endpoints.

    g takes a 1-D array of abscissas and returns the integrand there (a
    scalar is broadcast).  mandatory_splits are forced cell boundaries, kept
    as given except for repeats and the domain ends; pass every known
    breakpoint of the integrand.  Raises IntegrandError on a non-finite
    sample and ConvergenceError when the error estimate cannot be brought
    below REL_TOL times the integral of |g| within MAX_EVALS samples, or when
    the domain or a piece between splits is too few float spacings wide.
    """
    lo, hi = domain.lo, domain.hi
    if hi == lo:
        return QuadratureResult(0.0, 0.0, 0, (), 0, 0)
    splits = _clean_splits(lo, hi, mandatory_splits)
    # Cut a split-free domain at its midpoint so that each end piece has one
    # domain endpoint to substitute around.
    ends = [lo, *(splits or [0.5 * (lo + hi)]), hi]
    n = len(ends) - 1
    # Column p holds piece p's origin, direction and squared flag.
    table = np.array([[*ends[:-2], hi], [1.0] * (n - 1) + [-1.0],
                      [1.0] + [0.0] * (n - 2) + [1.0]])
    open_lo, open_hi = math.nextafter(lo, hi), math.nextafter(hi, lo)

    # Cells are [a, b] in the coordinate of their piece.  The first round's
    # cells are the pieces; each later round evaluates the halves of the
    # bisected cells and joins them to the kept ones.
    widths = [right - left for left, right in zip(ends, ends[1:])]
    narrow = min(widths) < _NARROW * math.ulp(max(abs(lo), abs(hi)))
    widths[0], widths[-1] = math.sqrt(widths[0]), math.sqrt(widths[-1])
    new_a, new_b, new_piece = np.zeros(n), np.array(widths), np.arange(n)
    # Samples below the smallest normal float are rounded to multiples of
    # ulp(0), so the tolerance never falls below that rounding of K15 and G7:
    # about _XK.size * ulp(0) per unit of u, over a total width in u that
    # bisection keeps.
    underflow = _XK.size * math.ulp(0.0) * float(new_b.sum())
    evals = rounds = subdivisions = 0
    total, err = 0.0, math.inf
    while True:
        evals += _XK.size * new_a.size
        if evals > MAX_EVALS:
            raise ConvergenceError(
                f"quadrature exhausted its evaluation budget ({MAX_EVALS} samples)",
                value=total, error_estimate=err)
        rounds += 1
        h = 0.5 * (new_b - new_a)
        u = 0.5 * (new_a + new_b)[:, None] + h[:, None] * _XK
        o, d, sq = table[:, new_piece, None]
        x = np.minimum(np.maximum(o + d * np.where(sq, u * u, u), open_lo), open_hi)
        flat = x.ravel()
        gx = np.asarray(g(flat), dtype=float)
        if gx.shape != flat.shape:
            gx = np.broadcast_to(gx, flat.shape)
        if not np.isfinite(gx).all():
            i = int(np.argmax(~np.isfinite(gx)))
            raise IntegrandError(flat[i], float(gx[i]))
        gx = gx.reshape(u.shape)
        # The Jacobian 2u is taken at the abscissa actually sampled, u =
        # sqrt(|x - e|): rounding x then moves the node slightly in u, where
        # the integrand is smooth, instead of shifting a 1/sqrt(|x - e|)
        # singularity by a relative error of order ulp(e) / u^2.
        jacobian = np.where(sq, 2.0 * np.sqrt(np.abs(x - o)), 1.0)
        fx = gx * jacobian
        kronrod = h * (fx @ _WK)
        cells = (new_a, new_b, new_piece, kronrod,
                 np.abs(kronrod - h * (fx[:, 1::2] @ _WG)), h * (np.abs(fx) @ _WK))
        if rounds > 1:
            cells = (np.concatenate([old[keep], add]) for old, add in
                     zip((a, b, piece, value, error, scale), cells))
        a, b, piece, value, error, scale = cells

        total = float(value.sum())
        err = float(error.sum())
        tol = max(REL_TOL * float(scale.sum()), underflow)
        if narrow and rounds == 1:
            # The module docstring's bound on what rounded abscissas cost.
            spacing = 0.5 * np.spacing(np.abs(x).max(axis=1))
            bent = h @ ((np.abs(gx) * np.abs(jacobian - np.where(sq, 2.0 * u, 1.0))) @ _WK)
            floor = float(spacing @ np.abs(np.diff(gx, axis=1)).sum(axis=1) + bent)
            if floor > tol:
                raise ConvergenceError(
                    "quadrature cannot reach the requested tolerance: the domain or a piece "
                    "of it is too few float spacings wide for its abscissas to be exact",
                    value=total, error_estimate=max(err, floor))
        if err <= tol:
            break
        if not math.isfinite(err):
            # A non-finite sum of finite samples has overflowed: no bisection
            # can bring it back, so it is returned for the caller to judge.
            break

        mid = 0.5 * (a + b)
        can = (a < mid) & (mid < b)
        stuck = float(error[~can].sum())
        # Step, spike and bit-noise integrands end at the budget, the narrow
        # piece bound or convergence before this.  It stays as the loop's only
        # exit when no cell can be bisected: pick would be empty, every later
        # round would add no cell and no evaluation, and err would not change.
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
        new_a, new_b = np.concatenate([a[pick], mid[pick]]), np.concatenate([mid[pick], b[pick]])
        new_piece = np.tile(piece[pick], 2)
        keep = np.ones(a.size, dtype=bool)
        keep[pick] = False

    return QuadratureResult(total, err, subdivisions, tuple(splits), evals, rounds)


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
    signs = np.sign(_call(g, xs))

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
        s = np.sign(_call(g, inner.ravel())).reshape(inner.shape)
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
