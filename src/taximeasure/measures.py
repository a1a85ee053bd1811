"""Taxicab measure operations built on the quadrature engine.

Taxicab arc length depends only on how far each coordinate travels: it is
the sum of the total variations of the coordinates (Jordan 1881).  Between
consecutive turning points t_i (the domain ends, the declared breakpoints
and the sign changes of each x_k') every coordinate is monotone, so

    L = sum over k and i of |x_k(t_{i+1}) - x_k(t_i)|,

which for the graph of f is (b - a) + sum |f(t_{i+1}) - f(t_i)|.  The same
length is the integral of the coordinate speeds, sum |x_k'|, or 1 + |f'| for
a graph.  Quadrature of that integral is right whether or not the kink scan
found every turning point, and the variation only when it did, so the two
disagree exactly where the scan missed one.

For a solid of revolution with radius profile f >= 0:

    surface = integral of 2*pi_t * f * (1 + |f'|) * sqrt(1 - f'^2 / (2(1 + f'^2)))
    volume  = integral of (pi_t / 2) * f^2
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import DomainError
from .geometry import PI_T, Interval
# The rotated-plane area is scalar and lives in geometry; measures still
# offers its names.
from .geometry import RotationAngles, area_scaling_factor, taxicab_area_rotated
from .profiles import ParametricCurve, ProfileFunction, sorted_insert
from .quadrature import detect_sign_changes, integrate

# Grid resolution for the sampled non-negativity check of surface and volume
# profiles.  It is a heuristic by design: the declared breakpoints and their
# one-sided neighborhoods are always included.
_CHECK_GRID = 1024


def resolve_domain(curve, domain: Interval | None) -> Interval:
    """The requested domain, or the curve's own when none is given."""
    if domain is None:
        return curve.domain
    if not curve.domain.covers(domain):
        raise DomainError(
            f"requested domain [{domain.lo}, {domain.hi}] is not contained in "
            f"the curve domain [{curve.domain.lo}, {curve.domain.hi}]")
    return domain


def _interior_breakpoints(curve, domain: Interval) -> list[float]:
    return [b for b in curve.breakpoints if domain.lo < b < domain.hi]


def _check_sample_grid(domain: Interval, breakpoints: list[float]) -> np.ndarray:
    lo, hi = domain.lo, domain.hi
    xs = np.linspace(lo, hi, _CHECK_GRID)
    if breakpoints:
        h = 1e-9 * (hi - lo)
        near = np.array([v for b in breakpoints for v in (b - h, b, b + h)])
        xs = sorted_insert(xs, np.clip(near, lo, hi))
    return xs


def lowest_sample(xs: np.ndarray, vals: np.ndarray) -> tuple:
    """The first lowest sample of a profile and the largest |value|:
    (x, f(x), max |f|)."""
    worst = int(np.argmin(vals))
    return xs[worst], vals[worst], np.max(np.abs(vals))


def check_nonnegative(lows: list[tuple]) -> None:
    """Raise DomainError if a sampled profile value is negative beyond
    rounding, -1e-12 * max(1, max |f|).  lows holds the lowest_sample of each
    block of samples, in sample order, so the message names the first lowest
    sample of all of them.  A partition without cells has no block."""
    if not lows:
        return
    xs, vals, peaks = zip(*lows)
    tol = -1e-12 * max(1.0, float(np.max(peaks)))
    worst = int(np.argmin(vals))
    if vals[worst] < tol:
        raise DomainError(
            f"profile must be nonnegative on the domain: f({xs[worst]!r}) = {vals[worst]!r}")


def _check_nonnegative(f: ProfileFunction, domain: Interval) -> None:
    xs = _check_sample_grid(domain, _interior_breakpoints(f, domain))
    check_nonnegative([lowest_sample(xs, np.asarray(f.evaluate(xs), dtype=float))])


def _splits(curve, domain: Interval, *derivatives) -> list[float]:
    """Declared interior breakpoints plus the detected sign changes of each
    derivative.  The scan is told the declared points, so it neither refines
    towards them nor returns them a second time: each piece ends exactly at
    a declared point."""
    declared = _interior_breakpoints(curve, domain)
    return declared + [s for d in derivatives
                       for s in detect_sign_changes(d, domain, declared)]


def arclength_functional(f: ProfileFunction, domain: Interval | None = None) -> float:
    """Taxicab arc length of the graph of f: integral of 1 + |f'|."""
    dom = resolve_domain(f, domain)
    splits = _splits(f, dom, f.derivative)

    def integrand(x: np.ndarray) -> np.ndarray:
        return 1.0 + np.abs(f.derivative(x))

    return integrate(integrand, dom, splits).value


def arclength_variation(c: ParametricCurve, domain: Interval | None = None) -> float:
    """Taxicab arc length of c as the total variation of its coordinates:
    sum over k and i of |x_k(t_{i+1}) - x_k(t_i)|, where the t_i are the
    domain ends, the declared breakpoints and the detected sign changes of
    every x_k'.  Exact when those include every turning point; a turning
    point the kink scan misses makes it too small, and arclength_parametric
    then disagrees with it."""
    dom = resolve_domain(c, domain)
    ts = np.array([dom.lo, *sorted(_splits(c, dom, *c.derivatives)), dom.hi])
    total = 0.0
    for x in c.coords:
        v = np.broadcast_to(np.asarray(x(ts), dtype=float), ts.shape)
        # math.fsum rounds only the total: where the differences are exact
        # (Sterbenz), a monotone coordinate split at many points still sums
        # to its end-to-end difference.
        total += math.fsum(np.abs(np.diff(v)))
    return total


def arclength_parametric(c: ParametricCurve, domain: Interval | None = None) -> float:
    """Taxicab arc length of c by quadrature: integral of sum |x_k'|."""
    dom = resolve_domain(c, domain)
    splits = _splits(c, dom, *c.derivatives)

    def integrand(t: np.ndarray) -> np.ndarray:
        return sum(np.abs(d(t)) for d in c.derivatives)

    return integrate(integrand, dom, splits).value


def surface_of_revolution(f: ProfileFunction, domain: Interval | None = None) -> float:
    """Lateral taxicab surface area of the solid obtained by revolving f >= 0
    around the x axis."""
    dom = resolve_domain(f, domain)
    _check_nonnegative(f, dom)
    splits = _splits(f, dom, f.derivative)

    def integrand(x: np.ndarray) -> np.ndarray:
        d = f.derivative(x)
        # sqrt(1 - d^2 / (2(1 + d^2))), written so that it tends to sqrt(1/2)
        # as |d| grows.
        radical = np.sqrt(0.5 + 0.5 / (1.0 + d * d))
        return 2.0 * PI_T * f.evaluate(x) * (1.0 + np.abs(d)) * radical

    return integrate(integrand, dom, splits).value


def volume_of_revolution(f: ProfileFunction, domain: Interval | None = None) -> float:
    """Taxicab volume of the solid obtained by revolving f >= 0 around the
    x axis: integral of (pi_t / 2) * f^2."""
    dom = resolve_domain(f, domain)
    _check_nonnegative(f, dom)
    splits = _splits(f, dom)

    def integrand(x: np.ndarray) -> np.ndarray:
        fx = f.evaluate(x)
        return 0.5 * PI_T * fx * fx

    return integrate(integrand, dom, splits).value


def quadrature_measure(quantity: str) -> Callable:
    """The quadrature measure of a profile quantity: arclength, surface or volume."""
    # Built per call so that each name is the function bound in this module
    # at call time, not a reference captured at import.
    return {
        "arclength": arclength_functional,
        "surface": surface_of_revolution,
        "volume": volume_of_revolution,
    }[quantity]
