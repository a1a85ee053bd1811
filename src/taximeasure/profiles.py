"""Profile curves and the builders of the catalog profiles.

A ProfileFunction bundles a curve f with its exact derivative and the list of
interior breakpoints where f' jumps.  The quadrature and oracle layers cut
their partitions at the declared breakpoints (sorted_insert puts them into a
sampling grid); nothing is auto-detected here, so constructors must declare
every kink.

A profile may also declare monotone_pieces: f is monotone on each piece
between the domain ends and the breakpoints.  The catalog constructors and
PiecewiseLinearProfile.to_profile declare it, so the measures take their
splits from the breakpoints alone and check f >= 0 at the piece ends.  Only
a profile without it gets the kink scan of f' and the sampled check.

Evaluation maps are NumPy expressions: they take an array of abscissas and
return an array of the same shape.  The quadrature calls them with arrays
only; a float still works and gives a NumPy scalar.  _catalog_profile builds
a row of geometry.CATALOG_PARAMS, for parse_profile_spec and shapes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import DomainError
from .geometry import CATALOG_PARAMS, Interval, check_profile_spec
from .shapes import CircleSpec, EllipsoidSpec, ParaboloidSpec, _require_positive


def _checked_breakpoints(breakpoints, domain: Interval) -> tuple[float, ...]:
    """breakpoints as floats, checked to be strictly increasing and strictly
    inside the domain."""
    bks = tuple(float(b) for b in breakpoints)
    lo, hi = domain.lo, domain.hi
    for b in bks:
        if not lo < b < hi:
            raise DomainError(f"breakpoint {b} is not strictly inside [{lo}, {hi}]")
    if any(b2 <= b1 for b1, b2 in zip(bks, bks[1:])):
        raise DomainError(f"breakpoints must be strictly increasing, got {bks}")
    return bks


def sorted_insert(grid: np.ndarray, points) -> np.ndarray:
    """The sorted union of a strictly increasing grid and some points, as
    numpy's union1d returns it, without sorting a large grid.

    The points may come in any order and repeat.  Into a large grid, each
    one not already on it is scattered to its searchsorted position plus the
    number of new points before it, and the grid fills the rest: one copy of
    the grid instead of a sort of it.  A small grid, or one with points
    of comparable number, is sorted together with them.  Unlike union1d,
    whose np.unique imports numpy.ma, it imports nothing.
    """
    pts = np.asarray(points, dtype=float).ravel()
    # Sorting grid and points together costs ~9 ns per element; the scatter
    # costs ~70 ns per point, ~1 ns per grid node and ~20 us, the price of
    # sorting ~2,500 elements.
    if grid.size < 8 * pts.size + 2500:
        merged = np.sort(np.concatenate([grid, pts]))
        fresh = np.ones(merged.size, dtype=bool)
        np.not_equal(merged[1:], merged[:-1], out=fresh[1:])
        return merged[fresh]
    pts = np.sort(pts)
    fresh = np.ones(pts.size, dtype=bool)
    np.not_equal(pts[1:], pts[:-1], out=fresh[1:])
    at = np.searchsorted(grid, pts)
    fresh &= grid[np.minimum(at, grid.size - 1)] != pts
    pts = pts[fresh]
    # New point i has at[i] grid points and i new points before it.
    at = at[fresh] + np.arange(pts.size)
    out = np.empty(grid.size + pts.size)
    out[at] = pts
    rest = np.ones(out.size, dtype=bool)
    rest[at] = False
    out[rest] = grid
    return out


@dataclass(frozen=True)
class ProfileFunction:
    """A real function of one variable with exact derivative and declared breakpoints.

    breakpoints must be strictly increasing and strictly inside the domain.
    monotone_pieces declares that f is monotone on each piece between the
    domain ends and the breakpoints; the measures then trust the breakpoints
    as every turning point of f and do not scan f' for more.

    breakpoint_array holds the same breakpoints as one read-only float array,
    built with the profile, so that the array code (the oracles' partition,
    the nonnegativity check) does not convert the tuple on every call.
    """

    evaluate: Callable
    derivative: Callable
    domain: Interval
    breakpoints: tuple[float, ...] = ()
    label: str = ""
    monotone_pieces: bool = False
    breakpoint_array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        bks = _checked_breakpoints(self.breakpoints, self.domain)
        array = np.array(bks, dtype=float)
        array.flags.writeable = False
        object.__setattr__(self, "breakpoints", bks)
        object.__setattr__(self, "breakpoint_array", array)

    def __call__(self, x):
        return self.evaluate(x)


@dataclass(frozen=True)
class ParametricCurve:
    """Curve t -> (x_1(t), ..., x_n(t)) in any dimension n, with the exact
    derivative of each coordinate and declared breakpoints, checked as for
    ProfileFunction.  monotone_pieces declares that every coordinate is
    monotone on each piece between the domain ends and the breakpoints."""

    coords: tuple[Callable, ...]
    derivatives: tuple[Callable, ...]
    domain: Interval
    breakpoints: tuple[float, ...] = ()
    label: str = ""
    monotone_pieces: bool = False

    def __post_init__(self):
        n, m = len(self.coords), len(self.derivatives)
        if n == 0 or n != m:
            raise DomainError(f"a curve needs one derivative per coordinate, got "
                              f"{n} coordinates and {m} derivatives")
        object.__setattr__(self, "breakpoints",
                           _checked_breakpoints(self.breakpoints, self.domain))


def restrict(curve, domain: Interval):
    """A ProfileFunction or ParametricCurve on a sub-interval of its domain,
    with the breakpoints strictly inside it; label and monotone_pieces are
    kept.  Every measure and oracle takes a sub-domain this way."""
    if not curve.domain.covers(domain):
        raise DomainError(
            f"requested domain [{domain.lo}, {domain.hi}] is not contained in "
            f"the curve domain [{curve.domain.lo}, {curve.domain.hi}]")
    inner = tuple(b for b in curve.breakpoints if domain.lo < b < domain.hi)
    return replace(curve, domain=domain, breakpoints=inner)


def graph(f: ProfileFunction) -> ParametricCurve:
    """The graph of f as the curve t -> (t, f(t)); t -> t is monotone, so it
    has monotone pieces where f has."""
    return ParametricCurve((lambda t: t, f.evaluate),
                           (lambda t: np.ones(np.shape(t)), f.derivative),
                           f.domain, f.breakpoints, f.label, f.monotone_pieces)


@dataclass(frozen=True)
class PiecewiseLinearProfile:
    """Polygonal curve through vertices with strictly increasing x coordinates."""

    vertices: tuple[tuple[float, float], ...]

    def __post_init__(self):
        vs = tuple((float(x), float(y)) for x, y in self.vertices)
        if len(vs) < 2:
            raise DomainError("piecewise-linear profile needs at least two vertices")
        for x, y in vs:
            if not (math.isfinite(x) and math.isfinite(y)):
                raise DomainError(f"vertex ({x!r}, {y!r}) is not finite")
        for (x0, _), (x1, _) in zip(vs, vs[1:]):
            if not x1 > x0:
                raise DomainError(
                    f"vertex x coordinates must be strictly increasing, got {x0} then {x1}")
        object.__setattr__(self, "vertices", vs)

    def to_profile(self) -> ProfileFunction:
        xs = np.array([v[0] for v in self.vertices], dtype=float)
        ys = np.array([v[1] for v in self.vertices], dtype=float)
        # Checked first: no x step is wider than the domain.
        domain = Interval(float(xs[0]), float(xs[-1]))
        slopes = np.diff(ys) / np.diff(xs)
        inner = xs[1:-1]

        def evaluate(x):
            return np.interp(x, xs, ys)

        def derivative(x):
            # At a vertex the slope of the segment to its right is reported;
            # left of the domain the first slope, right of it (and at NaN) the last.
            return slopes[np.searchsorted(inner, x, side="right")]

        return ProfileFunction(
            evaluate, derivative, domain, breakpoints=tuple(float(x) for x in xs[1:-1]),
            label=f"piecewise_linear[{len(self.vertices)} vertices]",
            monotone_pieces=True,
        )


# ---------------------------------------------------------------------------
# Catalog constructors
# ---------------------------------------------------------------------------

def profile_linear(slope: float, intercept: float, domain: Interval) -> ProfileFunction:
    for name, v in (("slope", slope), ("intercept", intercept)):
        if not math.isfinite(v):
            raise DomainError(f"profile_linear: {name} must be finite, got {v!r}")

    def evaluate(x):
        return slope * x + intercept

    def derivative(x):
        return np.full(np.shape(x), slope)

    return ProfileFunction(evaluate, derivative, domain,
                           label=f"linear(slope={slope:g}, intercept={intercept:g})",
                           monotone_pieces=True)


def profile_euclidean_circle_quadrant(r: float) -> ProfileFunction:
    """f(x) = sqrt(r^2 - x^2) on [0, r]; |f'| is unbounded at x = r."""
    _require_positive("profile_euclidean_circle_quadrant", r=r)

    # sqrt(r + x) * sqrt(r - x) neither overflows nor underflows where r^2
    # would, and r - x is exact near x = r (Sterbenz).
    def evaluate(x):
        return np.sqrt(r + x) * np.sqrt(np.maximum(r - x, 0.0))

    def derivative(x):
        with np.errstate(divide="ignore"):
            return -x / evaluate(x)

    return ProfileFunction(evaluate, derivative, Interval(0.0, r),
                           label=f"euclidean_circle_quadrant(r={r:g})", monotone_pieces=True)


def profile_euclidean_parabola_quadrant(r: float) -> ProfileFunction:
    """f(x) = r - x^2/r on [0, r]: a smooth monotone arc from (0, r) to (r, 0)."""
    _require_positive("profile_euclidean_parabola_quadrant", r=r)

    def evaluate(x):
        return r - x * x / r

    def derivative(x):
        return -2.0 * x / r

    return ProfileFunction(evaluate, derivative, Interval(0.0, r),
                           label=f"euclidean_parabola_quadrant(r={r:g})", monotone_pieces=True)


def profile_taxicab_circle_upper(r: float) -> ProfileFunction:
    """Upper half of the taxicab circle of radius r: f(x) = r - |x| on [-r, r]."""
    CircleSpec(r)  # checks r as the circle does

    def evaluate(x):
        return r - np.abs(x)

    def derivative(x):
        return np.where(x < 0.0, 1.0, -1.0)

    return ProfileFunction(evaluate, derivative, Interval(-r, r), breakpoints=(0.0,),
                           label=f"taxicab_circle_upper(r={r:g})", monotone_pieces=True)


def profile_taxicab_parabola(a: float, h: float) -> ProfileFunction:
    """Taxicab parabola profile in the axis variable y:

        f(y) = y   for 0 <= y <= a,
        f(y) = a   for a < y <= h.

    Revolving it about the axis gives the taxicab paraboloid of apex half-width
    a and height h.
    """
    ParaboloidSpec(a, h)  # checks a and h as the paraboloid does

    def evaluate(y):
        return np.minimum(y, a)

    def derivative(y):
        return np.where(y < a, 1.0, 0.0)

    breakpoints = (a,) if a < h else ()
    return ProfileFunction(evaluate, derivative, Interval(0.0, h), breakpoints=breakpoints,
                           label=f"taxicab_parabola(a={a:g}, h={h:g})", monotone_pieces=True)


def profile_taxicab_ellipse_upper(a: float, b: float, s: float) -> ProfileFunction:
    """Upper half of the taxicab ellipse with semi-axes a >= b and size
    parameter s (the constant sum of taxicab distances to the two foci):

        f(x) = x + s/2   on [-a, b - s/2)      (rising side)
        f(x) = b         on [b - s/2, s/2 - b] (flat top)
        f(x) = s/2 - x   on (s/2 - b, a]       (falling side)

    s = 2a collapses the flat top's x-extent to the degenerate hexagon case,
    and additionally a = b gives the taxicab circle of radius a.
    """
    EllipsoidSpec(a, b, s)  # checks a, b and s as the ellipsoid does

    p = b - s / 2.0   # end of the rising side
    q = s / 2.0 - b   # start of the falling side
    half_s = s / 2.0

    def evaluate(x):
        return np.where(x < p, x + half_s, np.where(x <= q, b, half_s - x))

    def derivative(x):
        return np.where(x < p, 1.0, np.where(x <= q, 0.0, -1.0))

    breakpoints = tuple(sorted({v for v in (p, q) if -a < v < a}))
    return ProfileFunction(evaluate, derivative, Interval(-a, a), breakpoints=breakpoints,
                           label=f"taxicab_ellipse_upper(a={a:g}, b={b:g}, s={s:g})",
                           monotone_pieces=True)


# ---------------------------------------------------------------------------
# JSON profile specs
# ---------------------------------------------------------------------------

def _linear_from_params(slope: float, intercept: float, lo: float,
                        hi: float) -> ProfileFunction:
    return profile_linear(slope, intercept, Interval(lo, hi))


def _catalog_profile(name: str, values) -> ProfileFunction:
    """The catalog profile of geometry.CATALOG_PARAMS built from its
    parameter values, by the builder bound to its name here at call time."""
    return globals()[CATALOG_PARAMS[name].builder](*values)


def parse_profile_spec(spec) -> ProfileFunction:
    """Build a profile from its JSON object form.

    Either {"catalog": <name>, "params": {...}} for a catalog profile, or
    {"piecewise_linear": [[x0, y0], [x1, y1], ...]} for a polygonal one;
    geometry.check_profile_spec checks it.
    """
    name, values = check_profile_spec(spec)
    if name is None:
        return PiecewiseLinearProfile(tuple(values)).to_profile()
    return _catalog_profile(name, values)
