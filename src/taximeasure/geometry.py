"""Core types and the orientation factor of taxicab (L1) geometry.

In the taxicab metric the unit circle is the diamond |x| + |y| = 1, whose
circumference is 8, so the circle constant is 4 rather than 3.14159...

Taxicab length depends on orientation: a segment of Euclidean length d at
inclination t has taxicab length d(|cos t| + |sin t|), and rotating a plane
region out of a coordinate plane by angles (alpha, beta) scales its taxicab
area by the product of that factor at alpha and at beta.  One function
computes the factor for both, exactly 1 at every right-angle multiple.

This module holds scalar types and closed forms, the tables of catalog
profiles and profile quantities, which name their builders, measures and
oracles, and the checks of the command-line arguments: spec parameters,
profile specs and cell counts.
It imports neither NumPy nor dataclasses (whose inspect costs a cold process
more than the rest of the package), so the shape closed forms, the
rotated-plane area and the argument errors of a command-line process load
neither.  Its records are named tuples, so they compare equal to plain
tuples of their fields.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import DomainError, SpecError

# Ratio of taxicab circumference to diameter.  Exact: the taxicab circle of
# radius r is a diamond with four sides of taxicab length 2r.
PI_T: float = 4.0

_TWO_PI = 2.0 * math.pi

# Largest partition an oracle builds.  A call holds one block of it at a
# time, so this bounds the time a cell count from the CLI can ask for, not
# the memory; the CLI's help text reads it here without loading NumPy.
MAX_CELLS = 10**7


def check_cells(ns) -> None:
    """Check the cell counts of one oracle call or of one convergence table:
    non-empty, strictly increasing, each within 1..MAX_CELLS."""
    if not ns:
        raise DomainError("ns must not be empty")
    if any(n2 <= n1 for n1, n2 in zip(ns, ns[1:])):
        raise DomainError(f"ns must be strictly increasing, got {ns}")
    for n in (ns[0], ns[-1]):
        if not 1 <= n <= MAX_CELLS:
            raise DomainError(f"oracle needs 1 <= n <= {MAX_CELLS} cells, got {n}")


def _require_finite(label: str, *values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise DomainError(f"{label}: expected finite value, got {v!r}")


class _Checked(tuple):
    """First base of the validating records: _make and _replace run __new__."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class Point2(_Checked, namedtuple("Point2", "x y")):
    __slots__ = ()

    def __new__(cls, x: float, y: float):
        _require_finite("Point2", x, y)
        return super().__new__(cls, x, y)


class Interval(_Checked, namedtuple("Interval", "lo hi")):
    """Closed interval [lo, hi] with lo <= hi, both finite, of finite width."""

    __slots__ = ()

    def __new__(cls, lo: float, hi: float):
        _require_finite("Interval", lo, hi)
        if lo > hi:
            raise DomainError(f"Interval requires lo <= hi, got [{lo}, {hi}]")
        if not math.isfinite(hi - lo):
            raise DomainError(f"Interval [{lo}, {hi}] is wider than the largest float")
        return super().__new__(cls, lo, hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def __contains__(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def covers(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi


class AngleRad(_Checked, namedtuple("AngleRad", "value")):
    """An angle in radians, normalized into [0, 2*pi)."""

    __slots__ = ()

    def __new__(cls, value: float):
        _require_finite("AngleRad", value)
        v = math.fmod(value, _TWO_PI)
        if v < 0.0:
            v += _TWO_PI
        if v >= _TWO_PI:  # fmod can land on 2*pi after the rounding above
            v = 0.0
        return super().__new__(cls, v)


class RotationAngles(_Checked, namedtuple("RotationAngles", "alpha beta")):
    """Tilt angles of a rotated plane against two coordinate axes."""

    __slots__ = ()

    def __new__(cls, alpha: "AngleRad | float", beta: "AngleRad | float"):
        if not isinstance(alpha, AngleRad):
            alpha = AngleRad(float(alpha))
        if not isinstance(beta, AngleRad):
            beta = AngleRad(float(beta))
        return super().__new__(cls, alpha, beta)


def _angle_value(theta: "AngleRad | float") -> float:
    if isinstance(theta, AngleRad):
        return theta.value
    return AngleRad(float(theta)).value


def euclidean_dist_2d(p: Point2, q: Point2) -> float:
    return math.hypot(q.x - p.x, q.y - p.y)


def segment_angle(p: Point2, q: Point2) -> AngleRad:
    """Inclination of the segment p->q against the +x axis."""
    if p == q:
        raise DomainError("segment_angle requires two distinct points")
    return AngleRad(math.atan2(q.y - p.y, q.x - p.x))


def _rotation_factor(t: float) -> float:
    """|cos t| + |sin t|: the taxicab length of a unit segment at
    inclination t, in [1, sqrt(2)]."""
    f = abs(math.cos(t)) + abs(math.sin(t))
    # Right-angle multiples must scale by exactly 1, but sin(pi) evaluates to
    # ~1.2e-16 and rounds |cos|+|sin| up one ulp; snap the factor back (near
    # a multiple of pi/2 the factor is 1 + distance).
    return 1.0 if f < 1.0 + 4e-16 else f


def taxicab_length_from_angle(d_e: float, theta: "AngleRad | float") -> float:
    """Taxicab length of a straight segment of Euclidean length d_e at
    inclination theta: d_e * (|cos theta| + |sin theta|)."""
    _require_finite("taxicab_length_from_angle", d_e)
    if d_e < 0.0:
        raise DomainError(f"taxicab_length_from_angle: d_e must be >= 0, got {d_e}")
    return d_e * _rotation_factor(_angle_value(theta))


def area_scaling_factor(angles: RotationAngles) -> float:
    """Taxicab area multiplier of a plane tilted by (alpha, beta).

    The mathematical range is [1, 2]; the product is clamped to it so the
    boundary identities survive floating-point rounding of the angles.
    """
    fa = _rotation_factor(angles.alpha.value)
    fb = _rotation_factor(angles.beta.value)
    return min(2.0, max(1.0, fa * fb))


def taxicab_area_rotated(area_e: float, angles: RotationAngles) -> float:
    """Taxicab area of a rotated plane region of ordinary area area_e."""
    if not math.isfinite(area_e) or area_e < 0.0:
        raise DomainError(f"area_e must be finite and >= 0, got {area_e!r}")
    return area_e * area_scaling_factor(angles)


def _as_number(spec_name: str, key: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecError(f"{spec_name}: parameter {key!r} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise DomainError(f"{spec_name}: parameter {key!r} is an integer too large "
                          f"for a float") from None


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


# Catalog profile name -> its parameter keys, in the order its builder takes
# them, and the name of that builder in profiles, which looks it up there.
CatalogProfile = namedtuple("CatalogProfile", "params builder")
CATALOG_PARAMS = {
    "linear": CatalogProfile(("slope", "intercept", "lo", "hi"), "_linear_from_params"),
    "euclidean_circle_quadrant": CatalogProfile(("r",), "profile_euclidean_circle_quadrant"),
    "euclidean_parabola_quadrant": CatalogProfile(("r",), "profile_euclidean_parabola_quadrant"),
    "taxicab_circle_upper": CatalogProfile(("r",), "profile_taxicab_circle_upper"),
    "taxicab_parabola": CatalogProfile(("a", "h"), "profile_taxicab_parabola"),
    "taxicab_ellipse_upper": CatalogProfile(("a", "b", "s"), "profile_taxicab_ellipse_upper"),
}


# Profile quantity -> the names of its quadrature measure in measures and of
# its oracle in oracles, so that a wrapper bound to a name later is the one
# called, and whether the quantity needs f >= 0.
ProfileQuantity = namedtuple("ProfileQuantity", "measure oracle signed")
PROFILE_QUANTITIES = {
    "arclength": ProfileQuantity("arclength_functional", "polyline_arclength_oracle", False),
    "surface": ProfileQuantity("surface_of_revolution", "frustum_surface_oracle", True),
    "volume": ProfileQuantity("volume_of_revolution", "disk_volume_oracle", True),
}


def check_profile_spec(spec) -> tuple[str | None, list]:
    """Check a profile spec's JSON object form and return what builds it.

    {"catalog": <name>, "params": {...}} gives the catalog name and its
    parameter values; {"piecewise_linear": [[x0, y0], [x1, y1], ...]} gives
    None and the (x, y) vertices.  The values are floats; their ranges are
    the profile constructors' to check.
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
        return None, pairs

    if "catalog" not in spec:
        raise SpecError("profile spec needs a 'catalog' or 'piecewise_linear' key")
    extra = [k for k in spec if k not in ("catalog", "params")]
    if extra:
        raise SpecError(f"profile spec has unexpected keys {extra}")
    name = spec["catalog"]
    if not isinstance(name, str) or name not in CATALOG_PARAMS:
        raise SpecError(f"unknown catalog profile {name!r}")
    return name, take_params(name, spec.get("params", {}), CATALOG_PARAMS[name].params)
