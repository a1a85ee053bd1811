"""Taxicab measure operations built on the quadrature engine.

Arc length of a graph y = f(x) integrates 1 + |f'|; a parametric curve
integrates the sum of its component speeds |dx/dt| + |dy/dt| (+ |dz/dt|).
For monotone graphs the arc length is path-independent and collapses to the
closed form (b - a) + |f(b) - f(a)|.

Rotating a plane region out of a coordinate plane by angles (alpha, beta)
scales its taxicab area by (|cos a| + |sin a|)(|cos b| + |sin b|).

For a solid of revolution with radius profile f >= 0:

    surface = integral of 2*pi_t * f * (1 + |f'|) * sqrt(1 - f'^2 / (2(1 + f'^2)))
    volume  = integral of (pi_t / 2) * f^2
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, MonotonicityError
from .geometry import PI_T, AngleRad, Interval
from .profiles import ParametricCurve2, ParametricCurve3, ProfileFunction
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, detect_sign_changes, integrate

# Grid resolution for the sampled precondition checks (nonnegativity,
# monotonicity).  These are heuristics by design: the declared breakpoints and
# their one-sided neighborhoods are always included.
_CHECK_GRID = 1024


@dataclass(frozen=True)
class RotationAngles:
    """Tilt angles of a rotated plane against two coordinate axes."""

    alpha: AngleRad
    beta: AngleRad

    def __post_init__(self):
        if not isinstance(self.alpha, AngleRad):
            object.__setattr__(self, "alpha", AngleRad(float(self.alpha)))
        if not isinstance(self.beta, AngleRad):
            object.__setattr__(self, "beta", AngleRad(float(self.beta)))


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
        xs = np.union1d(xs, np.clip(near, lo, hi))
    return xs


def check_nonnegative_values(xs: np.ndarray, vals: np.ndarray) -> None:
    """Raise DomainError if a sampled profile value is negative beyond rounding."""
    tol = -1e-12 * max(1.0, float(np.max(np.abs(vals))))
    worst = int(np.argmin(vals))
    if vals[worst] < tol:
        raise DomainError(
            f"profile must be nonnegative on the domain: f({xs[worst]!r}) = {vals[worst]!r}")


def _check_nonnegative(f: ProfileFunction, domain: Interval) -> None:
    xs = _check_sample_grid(domain, _interior_breakpoints(f, domain))
    check_nonnegative_values(xs, np.asarray(f.evaluate(xs), dtype=float))


def _splits(curve, domain: Interval, cfg: QuadratureConfig, *derivatives) -> list[float]:
    """Declared interior breakpoints plus the detected sign changes of each
    derivative.  A detected point within 1e-13 of the width of a declared one
    is the same kink found by bisection, which can land just short of it; it
    is dropped so that the piece ends exactly at the declared point."""
    declared = _interior_breakpoints(curve, domain)
    eps = 1e-13 * (domain.hi - domain.lo)
    detected = [s for d in derivatives
                for s in detect_sign_changes(d, domain, cfg.kink_scan_points)
                if all(abs(s - b) > eps for b in declared)]
    return declared + detected


def arclength_functional(f: ProfileFunction, domain: Interval | None = None,
                         cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Taxicab arc length of the graph of f: integral of 1 + |f'|."""
    dom = resolve_domain(f, domain)
    splits = _splits(f, dom, cfg, f.derivative)

    def integrand(x: np.ndarray) -> np.ndarray:
        return 1.0 + np.abs(f.derivative(x))

    return integrate(integrand, dom, splits, cfg).value


def arclength_monotone_closed(f: ProfileFunction, domain: Interval | None = None) -> float:
    """Path-independent arc length (b - a) + |f(b) - f(a)| for monotone f.

    Monotonicity is checked by sampling f' on a uniform interior grid plus
    one-sided neighborhoods of every breakpoint; a strict sign change raises
    MonotonicityError with the witnesses.
    """
    dom = resolve_domain(f, domain)
    lo, hi = dom.lo, dom.hi
    if hi > lo:
        inner = np.linspace(lo, hi, _CHECK_GRID + 2)[1:-1]
        bks = _interior_breakpoints(f, dom)
        if bks:
            h = 1e-9 * (hi - lo)
            near = np.array([v for b in bks for v in (b - h, b + h)])
            inner = np.union1d(inner, np.clip(near, np.nextafter(lo, hi), np.nextafter(hi, lo)))
        d = np.asarray(f.derivative(inner), dtype=float)
        pos = d > 0.0
        neg = d < 0.0
        if pos.any() and neg.any():
            xp = float(inner[pos][0])
            xn = float(inner[neg][0])
            raise MonotonicityError(
                "f is not monotone on the domain: "
                f"f'({xp:.12g}) = {d[pos][0]:.6g} but f'({xn:.12g}) = {d[neg][0]:.6g}")
    return (hi - lo) + abs(float(f.evaluate(hi)) - float(f.evaluate(lo)))


def arclength_parametric_2d(c: ParametricCurve2, domain: Interval | None = None,
                            cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Taxicab arc length of (x(t), y(t)): integral of |x'| + |y'|."""
    dom = resolve_domain(c, domain)
    splits = _splits(c, dom, cfg, c.dx, c.dy)

    def integrand(t: np.ndarray) -> np.ndarray:
        return np.abs(c.dx(t)) + np.abs(c.dy(t))

    return integrate(integrand, dom, splits, cfg).value


def arclength_parametric_3d(c: ParametricCurve3, domain: Interval | None = None,
                            cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Taxicab arc length of (x(t), y(t), z(t)): integral of |x'| + |y'| + |z'|."""
    dom = resolve_domain(c, domain)
    splits = _splits(c, dom, cfg, c.dx, c.dy, c.dz)

    def integrand(t: np.ndarray) -> np.ndarray:
        return np.abs(c.dx(t)) + np.abs(c.dy(t)) + np.abs(c.dz(t))

    return integrate(integrand, dom, splits, cfg).value


def area_scaling_factor(angles: RotationAngles) -> float:
    """Taxicab area multiplier of a plane tilted by (alpha, beta).

    The mathematical range is [1, 2]; the product is clamped to it so the
    boundary identities survive floating-point rounding of the angles.
    """
    a = angles.alpha.value
    b = angles.beta.value
    fa = abs(math.cos(a)) + abs(math.sin(a))
    fb = abs(math.cos(b)) + abs(math.sin(b))
    # Angles that are right-angle multiples must scale by exactly 1, but
    # sin(pi) evaluates to ~1.2e-16 and rounds |cos|+|sin| up one ulp; snap
    # each factor back (near a multiple of pi/2 the factor is 1 + distance).
    if fa < 1.0 + 4e-16:
        fa = 1.0
    if fb < 1.0 + 4e-16:
        fb = 1.0
    return min(2.0, max(1.0, fa * fb))


def taxicab_area_rotated(area_e: float, angles: RotationAngles) -> float:
    """Taxicab area of a rotated plane region of ordinary area area_e."""
    if not math.isfinite(area_e) or area_e < 0.0:
        raise DomainError(f"area_e must be finite and >= 0, got {area_e!r}")
    return area_e * area_scaling_factor(angles)


def surface_of_revolution(f: ProfileFunction, domain: Interval | None = None,
                          cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Lateral taxicab surface area of the solid obtained by revolving f >= 0
    around the x axis."""
    dom = resolve_domain(f, domain)
    _check_nonnegative(f, dom)
    splits = _splits(f, dom, cfg, f.derivative)

    def integrand(x: np.ndarray) -> np.ndarray:
        d = f.derivative(x)
        # sqrt(1 - d^2 / (2(1 + d^2))), written so that it tends to sqrt(1/2)
        # as |d| grows.
        radical = np.sqrt(0.5 + 0.5 / (1.0 + d * d))
        return 2.0 * PI_T * f.evaluate(x) * (1.0 + np.abs(d)) * radical

    return integrate(integrand, dom, splits, cfg).value


def volume_of_revolution(f: ProfileFunction, domain: Interval | None = None,
                         cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Taxicab volume of the solid obtained by revolving f >= 0 around the
    x axis: integral of (pi_t / 2) * f^2."""
    dom = resolve_domain(f, domain)
    _check_nonnegative(f, dom)
    splits = _splits(f, dom, cfg)

    def integrand(x: np.ndarray) -> np.ndarray:
        fx = f.evaluate(x)
        return 0.5 * PI_T * fx * fx

    return integrate(integrand, dom, splits, cfg).value


def quadrature_measure(quantity: str) -> Callable:
    """The quadrature measure of a profile quantity: arclength, surface or volume."""
    # Built per call so that each name is the function bound in this module
    # at call time, not a reference captured at import.
    return {
        "arclength": arclength_functional,
        "surface": surface_of_revolution,
        "volume": volume_of_revolution,
    }[quantity]
