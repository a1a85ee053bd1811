"""Profile curves and the catalog of named profiles.

A ProfileFunction bundles a curve f with its exact derivative and the list of
interior breakpoints where f' jumps.  The quadrature and oracle layers cut
their partitions at the declared breakpoints; nothing is auto-detected here,
so constructors must declare every kink.

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
from .geometry import Interval


def _require_finite(label: str, **params: float) -> None:
    for name, v in params.items():
        if not math.isfinite(v):
            raise DomainError(f"{label}: {name} must be finite, got {v!r}")


@dataclass(frozen=True)
class ProfileFunction:
    """A real function of one variable with exact derivative and declared breakpoints.

    breakpoints must be strictly increasing and strictly inside the domain.
    singular_endpoints lists domain endpoints where |f'| is unbounded but the
    arc-length integrand stays integrable (e.g. a quarter circle at x = r).
    """

    evaluate: Callable
    derivative: Callable
    domain: Interval
    breakpoints: tuple[float, ...] = ()
    label: str = ""
    singular_endpoints: tuple[float, ...] = ()

    def __post_init__(self):
        bks = tuple(float(b) for b in self.breakpoints)
        lo, hi = self.domain.lo, self.domain.hi
        for b in bks:
            if not lo < b < hi:
                raise DomainError(f"breakpoint {b} is not strictly inside [{lo}, {hi}]")
        if any(b2 <= b1 for b1, b2 in zip(bks, bks[1:])):
            raise DomainError(f"breakpoints must be strictly increasing, got {bks}")
        object.__setattr__(self, "breakpoints", bks)
        object.__setattr__(self, "singular_endpoints",
                           tuple(float(s) for s in self.singular_endpoints))

    def __call__(self, x):
        return self.evaluate(x)


@dataclass(frozen=True)
class ParametricCurve2:
    """Plane curve (x(t), y(t)) with exact component derivatives."""

    x: Callable
    y: Callable
    dx: Callable
    dy: Callable
    domain: Interval
    breakpoints: tuple[float, ...] = ()
    label: str = ""

    def __post_init__(self):
        bks = tuple(float(b) for b in self.breakpoints)
        for b in bks:
            if not self.domain.lo < b < self.domain.hi:
                raise DomainError(f"breakpoint {b} is not strictly inside the domain")
        object.__setattr__(self, "breakpoints", bks)


@dataclass(frozen=True)
class ParametricCurve3:
    """Space curve (x(t), y(t), z(t)) with exact component derivatives."""

    x: Callable
    y: Callable
    z: Callable
    dx: Callable
    dy: Callable
    dz: Callable
    domain: Interval
    breakpoints: tuple[float, ...] = ()
    label: str = ""

    def __post_init__(self):
        bks = tuple(float(b) for b in self.breakpoints)
        for b in bks:
            if not self.domain.lo < b < self.domain.hi:
                raise DomainError(f"breakpoint {b} is not strictly inside the domain")
        object.__setattr__(self, "breakpoints", bks)


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
    _require_finite("profile_linear", slope=slope, intercept=intercept)

    def evaluate(x):
        return slope * x + intercept

    def derivative(x):
        return np.full(np.shape(x), slope)

    return ProfileFunction(evaluate, derivative, domain,
                           label=f"linear(slope={slope:g}, intercept={intercept:g})")


def profile_euclidean_circle_quadrant(r: float) -> ProfileFunction:
    """f(x) = sqrt(r^2 - x^2) on [0, r]; |f'| is unbounded at x = r."""
    _require_finite("profile_euclidean_circle_quadrant", r=r)
    if not r > 0.0:
        raise DomainError(f"profile_euclidean_circle_quadrant requires r > 0, got {r}")

    def evaluate(x):
        return np.sqrt(np.maximum((r - x) * (r + x), 0.0))

    def derivative(x):
        with np.errstate(divide="ignore"):
            return -x / np.sqrt(np.maximum((r - x) * (r + x), 0.0))

    return ProfileFunction(evaluate, derivative, Interval(0.0, r),
                           label=f"euclidean_circle_quadrant(r={r:g})",
                           singular_endpoints=(r,))


def profile_euclidean_parabola_quadrant(r: float) -> ProfileFunction:
    """f(x) = r - x^2/r on [0, r]: a smooth monotone arc from (0, r) to (r, 0)."""
    _require_finite("profile_euclidean_parabola_quadrant", r=r)
    if not r > 0.0:
        raise DomainError(f"profile_euclidean_parabola_quadrant requires r > 0, got {r}")

    def evaluate(x):
        return r - x * x / r

    def derivative(x):
        return -2.0 * x / r

    return ProfileFunction(evaluate, derivative, Interval(0.0, r),
                           label=f"euclidean_parabola_quadrant(r={r:g})")


def profile_taxicab_circle_upper(r: float) -> ProfileFunction:
    """Upper half of the taxicab circle of radius r: f(x) = r - |x| on [-r, r]."""
    _require_finite("profile_taxicab_circle_upper", r=r)
    if not r > 0.0:
        raise DomainError(f"profile_taxicab_circle_upper requires r > 0, got {r}")

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
    _require_finite("profile_taxicab_parabola", a=a, h=h)
    if not a > 0.0:
        raise DomainError(f"profile_taxicab_parabola requires a > 0, got a={a}")
    if not a <= h:
        raise DomainError(f"profile_taxicab_parabola requires a <= h, got a={a}, h={h}")

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
    _require_finite("profile_taxicab_ellipse_upper", a=a, b=b, s=s)
    if not b > 0.0:
        raise DomainError(f"profile_taxicab_ellipse_upper requires b > 0, got b={b}")
    if not a >= b:
        raise DomainError(f"profile_taxicab_ellipse_upper requires a >= b, got a={a}, b={b}")
    if not s >= 2.0 * a:
        raise DomainError(f"profile_taxicab_ellipse_upper requires s >= 2a, got s={s}, a={a}")
    if not s <= 2.0 * (a + b):
        raise DomainError(
            f"profile_taxicab_ellipse_upper requires s <= 2(a + b), got s={s}, a={a}, b={b}")

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

def derivative_is_consistent(profile: ProfileFunction, n_points: int = 64,
                             seed: int = 0) -> bool:
    """Central finite differences at random interior points must agree with the
    declared derivative within max(1e-6, 1e-6*|f'|).

    Sample points keep a margin of 1e-4 of the domain width away from
    endpoints and breakpoints, and the step shrinks near those boundaries so
    the check stays meaningful next to singular endpoints.
    """
    lo, hi = profile.domain.lo, profile.domain.hi
    w = hi - lo
    if w <= 0.0:
        return True
    rng = np.random.default_rng(seed)
    margin = 1e-4 * w
    boundaries = np.array([lo, hi, *profile.breakpoints], dtype=float)

    kept: list[float] = []
    while len(kept) < n_points:
        x = float(rng.uniform(lo, hi))
        if np.min(np.abs(boundaries - x)) >= margin:
            kept.append(x)

    for x in kept:
        dist = float(np.min(np.abs(boundaries - x)))
        h = min(1e-6 * w, 1e-3 * dist)
        fd = (float(profile.evaluate(x + h)) - float(profile.evaluate(x - h))) / (2.0 * h)
        exact = float(profile.derivative(x))
        if abs(fd - exact) > max(1e-6, 1e-6 * abs(exact)):
            return False
    return True


# ---------------------------------------------------------------------------
# JSON profile specs
# ---------------------------------------------------------------------------

def _as_number(spec_name: str, key: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecError(f"{spec_name}: parameter {key!r} must be a number, got {value!r}")
    return float(value)


def take_params(spec_name: str, params, keys: tuple[str, ...]) -> list[float]:
    """The numbers params holds for keys, in order; exactly those keys allowed."""
    if not isinstance(params, dict):
        raise SpecError(f"{spec_name}: 'params' must be an object, got {params!r}")
    missing = [k for k in keys if k not in params]
    if missing:
        raise SpecError(f"{spec_name}: missing parameters {missing}")
    extra = [k for k in params if k not in keys]
    if extra:
        raise SpecError(f"{spec_name}: unexpected parameters {extra}")
    return [_as_number(spec_name, k, params[k]) for k in keys]


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
