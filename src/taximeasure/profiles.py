"""Profile curves and the catalog of named profiles.

A ProfileFunction bundles a curve f with its exact derivative and the list of
interior breakpoints where f' jumps.  The quadrature and oracle layers cut
their partitions at the declared breakpoints (sorted_insert puts them into a
sampling grid); nothing is auto-detected here, so constructors must declare
every kink.

Evaluation maps are NumPy expressions: they take an array of abscissas and
return an array of the same shape.  The quadrature calls them with arrays
only; a float still works and gives a NumPy scalar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, SpecError
from .geometry import Interval, _as_number, take_params
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
    one not already on it is inserted at its searchsorted position: one copy
    of the grid instead of a sort of it.  A small grid, or one with points
    of comparable number, is sorted together with them.  Unlike union1d,
    whose np.unique imports numpy.ma, it imports nothing.
    """
    pts = np.asarray(points, dtype=float).ravel()
    # Sorting grid and points together costs ~8 ns per element; inserting
    # costs ~70 ns per point plus np.insert's ~15 us, the price of sorting
    # ~2,000 elements.
    if grid.size < 16 * pts.size + 2048:
        merged = np.sort(np.concatenate([grid, pts]))
        fresh = np.ones(merged.size, dtype=bool)
        np.not_equal(merged[1:], merged[:-1], out=fresh[1:])
        return merged[fresh]
    pts = np.sort(pts)
    fresh = np.ones(pts.size, dtype=bool)
    np.not_equal(pts[1:], pts[:-1], out=fresh[1:])
    at = np.searchsorted(grid, pts)
    fresh &= grid[np.minimum(at, grid.size - 1)] != pts
    return np.insert(grid, at[fresh], pts[fresh])


@dataclass(frozen=True)
class ProfileFunction:
    """A real function of one variable with exact derivative and declared breakpoints.

    breakpoints must be strictly increasing and strictly inside the domain.
    """

    evaluate: Callable
    derivative: Callable
    domain: Interval
    breakpoints: tuple[float, ...] = ()
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "breakpoints",
                           _checked_breakpoints(self.breakpoints, self.domain))

    def __call__(self, x):
        return self.evaluate(x)


@dataclass(frozen=True)
class ParametricCurve:
    """Curve t -> (x_1(t), ..., x_n(t)) in any dimension n, with the exact
    derivative of each coordinate and declared breakpoints, checked as for
    ProfileFunction."""

    coords: tuple[Callable, ...]
    derivatives: tuple[Callable, ...]
    domain: Interval
    breakpoints: tuple[float, ...] = ()
    label: str = ""

    def __post_init__(self):
        n, m = len(self.coords), len(self.derivatives)
        if n == 0 or n != m:
            raise DomainError(f"a curve needs one derivative per coordinate, got "
                              f"{n} coordinates and {m} derivatives")
        object.__setattr__(self, "breakpoints",
                           _checked_breakpoints(self.breakpoints, self.domain))


def graph(f: ProfileFunction) -> ParametricCurve:
    """The graph of f as the curve t -> (t, f(t))."""
    return ParametricCurve((lambda t: t, f.evaluate),
                           (lambda t: np.ones(np.shape(t)), f.derivative),
                           f.domain, f.breakpoints, f.label)


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
        slopes = np.diff(ys) / np.diff(xs)

        def evaluate(x):
            return np.interp(x, xs, ys)

        def derivative(x):
            # At a vertex the slope of the segment to its right is reported.
            return slopes[np.clip(np.searchsorted(xs, x, side="right") - 1, 0, len(slopes) - 1)]

        return ProfileFunction(
            evaluate, derivative, Interval(float(xs[0]), float(xs[-1])),
            breakpoints=tuple(float(x) for x in xs[1:-1]),
            label=f"piecewise_linear[{len(self.vertices)} vertices]",
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
                           label=f"linear(slope={slope:g}, intercept={intercept:g})")


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
                           label=f"euclidean_circle_quadrant(r={r:g})")


def profile_euclidean_parabola_quadrant(r: float) -> ProfileFunction:
    """f(x) = r - x^2/r on [0, r]: a smooth monotone arc from (0, r) to (r, 0)."""
    _require_positive("profile_euclidean_parabola_quadrant", r=r)

    def evaluate(x):
        return r - x * x / r

    def derivative(x):
        return -2.0 * x / r

    return ProfileFunction(evaluate, derivative, Interval(0.0, r),
                           label=f"euclidean_parabola_quadrant(r={r:g})")


def profile_taxicab_circle_upper(r: float) -> ProfileFunction:
    """Upper half of the taxicab circle of radius r: f(x) = r - |x| on [-r, r]."""
    CircleSpec(r)  # checks r as the circle does

    def evaluate(x):
        return r - np.abs(x)

    def derivative(x):
        return np.where(x < 0.0, 1.0, -1.0)

    return ProfileFunction(evaluate, derivative, Interval(-r, r), breakpoints=(0.0,),
                           label=f"taxicab_circle_upper(r={r:g})")


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
                           label=f"taxicab_parabola(a={a:g}, h={h:g})")


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
                           label=f"taxicab_ellipse_upper(a={a:g}, b={b:g}, s={s:g})")


# ---------------------------------------------------------------------------
# Derivative consistency check
# ---------------------------------------------------------------------------

_CONSISTENCY_POINTS = 64
_CONSISTENCY_SEED = 0


def derivative_is_consistent(profile: ProfileFunction) -> bool:
    """Central finite differences at _CONSISTENCY_POINTS random interior points,
    drawn with the fixed seed _CONSISTENCY_SEED so that the answer is
    repeatable, must agree with the declared derivative within
    max(1e-6, 1e-6*|f'|).

    Sample points keep a margin of 1e-4 of the domain width away from
    endpoints and breakpoints, and the step shrinks near those boundaries so
    the check stays meaningful next to singular endpoints.  They are drawn
    uniformly from the gaps between boundaries that are wider than twice the
    margin; DomainError is raised when there is no such gap.
    """
    lo, hi = profile.domain.lo, profile.domain.hi
    w = hi - lo
    if w <= 0.0:
        return True
    rng = np.random.default_rng(_CONSISTENCY_SEED)
    margin = 1e-4 * w
    boundaries = np.array([lo, *profile.breakpoints, hi], dtype=float)
    starts, ends = boundaries[:-1] + margin, boundaries[1:] - margin
    wide = ends > starts
    if not wide.any():
        raise DomainError(f"{profile.label or 'profile'}: no gap between breakpoints "
                          f"is wider than twice the sampling margin {margin!r}")
    starts, ends = starts[wide], ends[wide]
    lengths = ends - starts
    gap = rng.choice(lengths.size, _CONSISTENCY_POINTS, p=lengths / np.sum(lengths))
    xs = rng.uniform(starts[gap], ends[gap])

    right = np.searchsorted(boundaries, xs)
    dist = np.minimum(xs - boundaries[right - 1], boundaries[right] - xs)
    h = np.minimum(1e-6 * w, 1e-3 * dist)
    fd = (np.asarray(profile.evaluate(xs + h), dtype=float)
          - np.asarray(profile.evaluate(xs - h), dtype=float)) / (2.0 * h)
    exact = np.asarray(profile.derivative(xs), dtype=float)
    return bool(np.all(np.abs(fd - exact) <= np.maximum(1e-6, 1e-6 * np.abs(exact))))


# ---------------------------------------------------------------------------
# JSON profile specs
# ---------------------------------------------------------------------------

def _linear_from_params(slope: float, intercept: float, lo: float,
                        hi: float) -> ProfileFunction:
    return profile_linear(slope, intercept, Interval(lo, hi))


# Catalog name -> (constructor, parameter keys in the constructor's order).
_CATALOG: dict[str, tuple[Callable[..., ProfileFunction], tuple[str, ...]]] = {
    "linear": (_linear_from_params, ("slope", "intercept", "lo", "hi")),
    "euclidean_circle_quadrant": (profile_euclidean_circle_quadrant, ("r",)),
    "euclidean_parabola_quadrant": (profile_euclidean_parabola_quadrant, ("r",)),
    "taxicab_circle_upper": (profile_taxicab_circle_upper, ("r",)),
    "taxicab_parabola": (profile_taxicab_parabola, ("a", "h")),
    "taxicab_ellipse_upper": (profile_taxicab_ellipse_upper, ("a", "b", "s")),
}


def parse_profile_spec(spec) -> ProfileFunction:
    """Build a profile from its JSON object form.

    Either {"catalog": <name>, "params": {...}} for a catalog profile, or
    {"piecewise_linear": [[x0, y0], [x1, y1], ...]} for a polygonal one.
    """
    if not isinstance(spec, dict):
        raise SpecError(f"profile spec must be a JSON object, got {spec!r}")

    if "piecewise_linear" in spec:
        extra = [k for k in spec if k != "piecewise_linear"]
        if extra:
            raise SpecError(f"piecewise_linear spec has unexpected keys {extra}")
        vertices = spec["piecewise_linear"]
        if not isinstance(vertices, list):
            raise SpecError("'piecewise_linear' must be a list of [x, y] pairs")
        pairs = []
        for item in vertices:
            if not isinstance(item, list) or len(item) != 2:
                raise SpecError(f"vertex {item!r} is not an [x, y] pair")
            pairs.append((_as_number("piecewise_linear", "x", item[0]),
                          _as_number("piecewise_linear", "y", item[1])))
        return PiecewiseLinearProfile(tuple(pairs)).to_profile()

    if "catalog" not in spec:
        raise SpecError("profile spec needs a 'catalog' or 'piecewise_linear' key")
    extra = [k for k in spec if k not in ("catalog", "params")]
    if extra:
        raise SpecError(f"profile spec has unexpected keys {extra}")
    name = spec["catalog"]
    if not isinstance(name, str) or name not in _CATALOG:
        raise SpecError(f"unknown catalog profile {name!r}")
    build, keys = _CATALOG[name]
    return build(*take_params(name, spec.get("params", {}), keys))
