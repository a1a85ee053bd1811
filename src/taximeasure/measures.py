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
disagree exactly where the scan missed one.  A curve that declares
monotone_pieces has no turning point but its breakpoints and is not
scanned.

For a solid of revolution with radius profile f >= 0:

    surface = integral of 2*pi_t * f * (1 + |f'|) * sqrt(1 - f'^2 / (2(1 + f'^2)))
    volume  = integral of (pi_t / 2) * f^2

Each measure gives only its integrand to the one body, _measure: it takes
the splits, checks f >= 0 (at them too) where geometry.PROFILE_QUANTITIES
says the quantity needs it, and integrates.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import DomainError
from .geometry import PI_T, PROFILE_QUANTITIES
from .profiles import ParametricCurve, ProfileFunction, sorted_insert
from .quadrature import detect_sign_changes, integrate

# Grid resolution for the sampled non-negativity check of surface and volume
# profiles without monotone pieces; a profile with them is checked exactly at
# its piece ends.  It is a heuristic by design: the splits (declared and
# scanned) and their one-sided neighborhoods are always included.
_CHECK_GRID = 1024


class LowestSample:
    """A running summary of a profile's samples, added block by block in
    sample order: the lowest value, where it is first taken if it is
    negative, and the largest value.  Only a block whose minimum is a new
    negative lowest pays for an argmin."""

    def __init__(self):
        self.x, self.low, self.high = None, math.inf, -math.inf

    def add(self, xs: np.ndarray, vals: np.ndarray) -> None:
        low = vals.min()
        # A NaN sample is the lowest for good, as argmin takes it, so that
        # check_nonnegative lets the NaN through to the result.
        if low < self.low or (low != low and self.low == self.low):
            self.low = low
            if low < 0.0:
                self.x = xs[int(vals.argmin())]
        self.high = max(self.high, vals.max())

    def check_nonnegative(self) -> None:
        """Raise DomainError if the lowest sample is negative beyond
        rounding, -1e-12 * max |f| at any magnitude, naming the first lowest
        sample.  Without samples there is nothing to check."""
        if self.low < -1e-12 * max(self.high, -self.low):
            raise DomainError(
                f"profile must be nonnegative on the domain: "
                f"f({float(self.x)!r}) = {float(self.low)!r}")


def _check_nonnegative(f: ProfileFunction, splits: list[float]) -> None:
    lo, hi = f.domain.lo, f.domain.hi
    if f.monotone_pieces:
        # A monotone piece has its minimum at one of its ends.
        xs = np.concatenate(([lo], f.breakpoint_array, [hi]))
    else:
        xs = np.linspace(lo, hi, _CHECK_GRID)
        if splits:
            h = 1e-9 * (hi - lo)
            near = np.array([v for b in splits for v in (b - h, b, b + h)])
            xs = sorted_insert(xs, np.clip(near, lo, hi))
    lowest = LowestSample()
    lowest.add(xs, np.asarray(f.evaluate(xs), dtype=float))
    lowest.check_nonnegative()


def _splits(curve, *derivatives) -> list[float]:
    """Declared breakpoints plus, unless the curve declares monotone pieces,
    the detected sign changes of each derivative.  The scan is told the
    declared points, so it neither refines towards them nor returns them a
    second time: each piece ends exactly at a declared point."""
    declared = list(curve.breakpoints)
    if curve.monotone_pieces:
        return declared
    return declared + [s for d in derivatives
                       for s in detect_sign_changes(d, curve.domain, declared)]


def _measure(quantity: str, curve, integrand, *derivatives) -> float:
    """The one measure body: the splits, the check that f >= 0 where quantity
    needs it, and the integral of integrand over the domain cut at them."""
    splits = _splits(curve, *derivatives)
    if PROFILE_QUANTITIES[quantity].signed:
        _check_nonnegative(curve, splits)
    return integrate(integrand, curve.domain, splits).value


def arclength_functional(f: ProfileFunction) -> float:
    """Taxicab arc length of the graph of f: integral of 1 + |f'|."""
    return _measure("arclength", f, lambda x: 1.0 + np.abs(f.derivative(x)), f.derivative)


def arclength_variation(c: ParametricCurve) -> float:
    """Taxicab arc length of c as the total variation of its coordinates:
    sum over k and i of |x_k(t_{i+1}) - x_k(t_i)|, where the t_i are the
    domain ends, the declared breakpoints and, without monotone_pieces, the
    detected sign changes of every x_k'.  Exact when those include every
    turning point; a turning point the kink scan misses makes it too small,
    and arclength_parametric then disagrees with it."""
    ts = np.array([c.domain.lo, *sorted(_splits(c, *c.derivatives)), c.domain.hi])
    total = 0.0
    for x in c.coords:
        v = np.broadcast_to(np.asarray(x(ts), dtype=float), ts.shape)
        # math.fsum rounds only the total: where the differences are exact
        # (Sterbenz), a monotone coordinate split at many points still sums
        # to its end-to-end difference.
        total += math.fsum(np.abs(np.diff(v)))
    return total


def arclength_parametric(c: ParametricCurve) -> float:
    """Taxicab arc length of c by quadrature: integral of sum |x_k'|."""
    return _measure("arclength", c, lambda t: sum(np.abs(d(t)) for d in c.derivatives),
                    *c.derivatives)


def surface_of_revolution(f: ProfileFunction) -> float:
    """Lateral taxicab surface area of the solid obtained by revolving f >= 0
    around the x axis."""
    def integrand(x: np.ndarray) -> np.ndarray:
        d = f.derivative(x)
        # sqrt(1 - d^2 / (2(1 + d^2))), written so that it tends to sqrt(1/2)
        # as |d| grows, and is sqrt(1/2) where d * d overflows.
        with np.errstate(over="ignore"):
            radical = np.sqrt(0.5 + 0.5 / (1.0 + d * d))
        return 2.0 * PI_T * f.evaluate(x) * (1.0 + np.abs(d)) * radical

    return _measure("surface", f, integrand, f.derivative)


def volume_of_revolution(f: ProfileFunction) -> float:
    """Taxicab volume of the solid obtained by revolving f >= 0 around the
    x axis: integral of (pi_t / 2) * f^2."""
    def integrand(x: np.ndarray) -> np.ndarray:
        fx = f.evaluate(x)
        return 0.5 * PI_T * fx * fx

    return _measure("volume", f, integrand)


def quadrature_measure(quantity: str) -> Callable:
    """The quadrature measure of a quantity of geometry.PROFILE_QUANTITIES,
    the function bound to its name here at call time."""
    return globals()[PROFILE_QUANTITIES[quantity].measure]
