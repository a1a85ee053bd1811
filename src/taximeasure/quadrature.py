"""Globally adaptive Gauss-Kronrod quadrature over arrays of cells.

The domain is first cut at every mandatory split point (profile breakpoints
plus detected derivative sign changes), which restores smoothness inside each
piece, and each piece starts as one cell.  Every round applies the 15-point
Kronrod rule and its embedded 7-point Gauss rule to the new cells, takes
|K15 - G7| as a cell's error, and bisects the cells with the largest errors
until the summed error is at most max(abs_tol, rel_tol * |value|).  This is
the QAG scheme of QUADPACK (Piessens et al. 1983), run over NumPy arrays: the
nodes of all new cells go to the integrand in one call, so integrands take
and return arrays.

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


@dataclass(frozen=True)
class QuadratureConfig:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-9
    max_depth: int = 40
    kink_scan_points: int = 257
    max_evals: int = 500_000

    def __post_init__(self):
        if not (math.isfinite(self.abs_tol) and self.abs_tol > 0.0):
            raise DomainError(f"abs_tol must be > 0, got {self.abs_tol!r}")
        if not (math.isfinite(self.rel_tol) and self.rel_tol > 0.0):
            raise DomainError(f"rel_tol must be > 0, got {self.rel_tol!r}")
        if self.max_depth < 1:
            raise DomainError(f"max_depth must be >= 1, got {self.max_depth!r}")
        if self.kink_scan_points < 3:
            raise DomainError(f"kink_scan_points must be >= 3, got {self.kink_scan_points!r}")
        if self.max_evals < 100:
            raise DomainError(f"max_evals must be >= 100, got {self.max_evals!r}")


DEFAULT_CONFIG = QuadratureConfig()


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    subdivisions: int
    split_points: tuple[float, ...]


def _call(g: Callable, x: np.ndarray, bad: Callable) -> np.ndarray:
    """g at the 1-D array x, broadcast to its shape; IntegrandError at the
    first value flagged by bad."""
    v = np.broadcast_to(np.asarray(g(x), dtype=float), x.shape)
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
              mandatory_splits: Sequence[float] = (),
              cfg: QuadratureConfig = DEFAULT_CONFIG) -> QuadratureResult:
    """Integrate g over the interval, never sampling its endpoints.

    g takes a 1-D array of abscissas and returns the integrand there (a
    scalar is broadcast).  mandatory_splits are forced cell boundaries; pass
    every known breakpoint of the integrand.  Raises IntegrandError on a
    non-finite sample and ConvergenceError when the error estimate cannot be
    brought below max(abs_tol, rel_tol * |value|).
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
        return kronrod, np.abs(kronrod - h * (fx[:, 1::2] @ _WG))

    # Cells are [a, b] in the coordinate of their piece, at a bisection
    # depth.  Each round evaluates the new cells and joins them to the kept.
    b0 = np.diff(ends)
    b0[[0, -1]] = np.sqrt(b0[[0, -1]])
    new = (np.zeros(n), b0, np.arange(n), np.zeros(n, dtype=int))
    a = b = value = error = np.zeros(0)
    piece = depth = np.zeros(0, dtype=int)
    evals = subdivisions = 0
    total, err = 0.0, math.inf
    while True:
        evals += _XK.size * new[0].size
        if evals > cfg.max_evals:
            raise ConvergenceError(
                f"quadrature exhausted its evaluation budget ({cfg.max_evals} samples)",
                value=total, error_estimate=err)
        a, b, piece, depth, value, error = (
            np.concatenate([old, add]) for old, add in
            zip((a, b, piece, depth, value, error), (*new, *rules(*new[:3]))))

        total = float(np.sum(value))
        err = float(np.sum(error))
        tol = max(cfg.abs_tol, cfg.rel_tol * abs(total))
        if err <= tol or not math.isfinite(err):
            # A non-finite sum of finite samples has overflowed: no bisection
            # can bring it back, so it is returned for the caller to judge.
            break

        mid = 0.5 * (a + b)
        can = (depth < cfg.max_depth) & (a < mid) & (mid < b)
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
               np.tile(piece[pick], 2), np.tile(depth[pick] + 1, 2))
        keep = np.ones(a.size, dtype=bool)
        keep[pick] = False
        a, b, piece, depth, value, error = (
            arr[keep] for arr in (a, b, piece, depth, value, error))

    return QuadratureResult(total, err, subdivisions, tuple(splits))


def detect_sign_changes(g: Callable[[np.ndarray], np.ndarray], domain: Interval,
                        n_scan: int = DEFAULT_CONFIG.kink_scan_points) -> list[float]:
    """Locate sign changes of g by scanning a uniform midpoint grid (which never
    touches the domain endpoints) in one array call, then bisecting every
    bracketing pair together down to 1e-13 of the domain width.  Returns the
    refined abscissas, sorted.
    """
    if n_scan < 3:
        raise DomainError(f"n_scan must be >= 3, got {n_scan}")
    lo, hi = domain.lo, domain.hi
    width = hi - lo
    if width <= 0.0:
        return []
    xs = lo + (np.arange(n_scan) + 0.5) * (width / n_scan)
    signs = np.sign(_call(g, xs, np.isnan))

    # A bracket ends at a nonzero sign that differs from the previous nonzero
    # one, and starts at the scan point just before it.
    nonzero = np.flatnonzero(signs)
    flips = np.flatnonzero(signs[nonzero[:-1]] != signs[nonzero[1:]])
    right = nonzero[flips + 1]
    a, b = xs[right - 1], xs[right]
    sign_a = signs[nonzero[flips]]
    target = 1e-13 * width
    active = np.flatnonzero(b - a > target)
    while active.size:
        m = 0.5 * (a[active] + b[active])
        sm = np.sign(_call(g, m, np.isnan))
        # An exact zero closes its bracket on the midpoint.
        a[active] = np.where((sm == sign_a[active]) | (sm == 0.0), m, a[active])
        b[active] = np.where(sm != sign_a[active], m, b[active])
        active = active[b[active] - a[active] > target]

    found = np.sort(np.concatenate([xs[signs == 0.0], 0.5 * (a + b)]))
    deduped: list[float] = []
    for x in found.tolist():
        if not deduped or x - deduped[-1] > target:
            deduped.append(x)
    return deduped
