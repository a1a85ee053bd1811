"""Closed-form taxicab measures for the shape catalog.

All formulas use the taxicab circle constant pi_t = 4.  Shapes are described
by validated spec named tuples, which compare equal to plain tuples of their
fields; the ellipsoid's size parameter s spans the degenerate cases s = 2a
(hexagonal cross-section; a sphere when additionally a = b) through
s = 2(a + b) (cylinder of radius b and height s - 2b).

The expressions are arranged so the degenerate-case identities hold exactly
in floating point (for example a paraboloid with h = a is exactly half a
sphere, because its surface and volume terms are 2x-scalings of the sphere
ones and scaling by powers of two is exact).

_SHAPES is the one table of shapes.  parse_shape_spec, closed_form, from_profile
and revolution_profile all read it, so a new shape is one entry there.  An
entry names its revolution profile as a row of geometry.CATALOG_PARAMS.

The closed forms are Python float arithmetic.  Only revolution_profile, which
builds that row, imports the profiles module and NumPy.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import TYPE_CHECKING, Callable, NamedTuple

from .errors import DomainError, SpecError
from .geometry import PI_T, PROFILE_QUANTITIES, _Checked, take_params

if TYPE_CHECKING:
    from .profiles import ProfileFunction

_SQRT3 = math.sqrt(3.0)


def _require_positive(label: str, **params: float) -> None:
    for name, v in params.items():
        if not (math.isfinite(v) and v > 0.0):
            raise DomainError(f"{label} requires {name} > 0, got {name}={v!r}")


class CircleSpec(_Checked, namedtuple("CircleSpec", "r")):
    __slots__ = ()

    def __new__(cls, r: float):
        _require_positive("CircleSpec", r=r)
        return super().__new__(cls, r)


class SphereSpec(_Checked, namedtuple("SphereSpec", "r")):
    __slots__ = ()

    def __new__(cls, r: float):
        _require_positive("SphereSpec", r=r)
        return super().__new__(cls, r)


class CylinderSpec(_Checked, namedtuple("CylinderSpec", "r h")):
    __slots__ = ()

    def __new__(cls, r: float, h: float):
        _require_positive("CylinderSpec", r=r, h=h)
        return super().__new__(cls, r, h)


class ParaboloidSpec(_Checked, namedtuple("ParaboloidSpec", "a h")):
    """Taxicab paraboloid of apex half-width a and height h >= a."""

    __slots__ = ()

    def __new__(cls, a: float, h: float):
        _require_positive("ParaboloidSpec", a=a)
        if not (math.isfinite(h) and h >= a):
            raise DomainError(f"ParaboloidSpec requires h >= a, got a={a}, h={h}")
        return super().__new__(cls, a, h)


class EllipsoidSpec(_Checked, namedtuple("EllipsoidSpec", "a b s")):
    """Taxicab ellipsoid of revolution: semi-axes a >= b > 0 and focal-sum
    parameter s with 2a <= s <= 2(a + b)."""

    __slots__ = ()

    def __new__(cls, a: float, b: float, s: float):
        _require_positive("EllipsoidSpec", b=b)
        if not (math.isfinite(a) and a >= b):
            raise DomainError(f"EllipsoidSpec requires a >= b, got a={a}, b={b}")
        if not (math.isfinite(s) and s >= 2.0 * a):
            raise DomainError(f"EllipsoidSpec requires s >= 2a, got s={s}, a={a}")
        if not s <= 2.0 * (a + b):
            raise DomainError(f"EllipsoidSpec requires s <= 2(a + b), got s={s}, a={a}, b={b}")
        return super().__new__(cls, a, b, s)


def circle_circumference(spec: CircleSpec) -> float:
    return 2.0 * PI_T * spec.r


def circle_area(spec: CircleSpec) -> float:
    return 0.5 * PI_T * spec.r * spec.r


def sphere_surface(spec: SphereSpec) -> float:
    return 2.0 * PI_T * _SQRT3 * spec.r * spec.r


def sphere_volume(spec: SphereSpec) -> float:
    return PI_T * spec.r ** 3 / 3.0


def cylinder_volume(spec: CylinderSpec) -> float:
    return 0.5 * PI_T * spec.r * spec.r * spec.h


def cylinder_lateral_surface(spec: CylinderSpec) -> float:
    return 2.0 * PI_T * spec.r * spec.h


def paraboloid_surface(spec: ParaboloidSpec) -> float:
    a, h = spec.a, spec.h
    return PI_T * _SQRT3 * a * a + 2.0 * PI_T * a * (h - a)


def paraboloid_volume(spec: ParaboloidSpec) -> float:
    a, h = spec.a, spec.h
    return PI_T * a ** 3 / 6.0 + 0.5 * PI_T * a * a * (h - a)


def ellipsoid_volume(spec: EllipsoidSpec) -> float:
    a, b, s = spec.a, spec.b, spec.s
    return PI_T * b ** 3 / 3.0 - (s - 2.0 * a) ** 3 / 6.0 + 0.5 * PI_T * b * b * (s - 2.0 * b)


def ellipsoid_surface(spec: EllipsoidSpec) -> float:
    """Total surface including the two flat end caps (disks of radius s/2 - a,
    which vanish in the hexagonal case s = 2a)."""
    a, b, s = spec.a, spec.b, spec.s
    c = s / 2.0 - a
    return (2.0 * PI_T * _SQRT3 * b * b
            - 2.0 * PI_T * _SQRT3 * c * c
            + 2.0 * PI_T * b * (s - 2.0 * b)
            + PI_T * c * c)


def ellipsoid_cap_radius(spec: EllipsoidSpec) -> float:
    """Radius of each flat end cap: zero in the hexagonal case s = 2a."""
    return spec.s / 2.0 - spec.a


def _ellipsoid_caps_area(spec: EllipsoidSpec) -> float:
    c = ellipsoid_cap_radius(spec)
    return PI_T * c * c


class _Shape(NamedTuple):
    """A shape: its spec class, the row of geometry.CATALOG_PARAMS whose
    revolution generates it and that row's parameter values from a spec, its
    closed form per quantity, and the area of the flat end caps the
    revolution leaves out."""

    spec: type
    profile: str
    closed_forms: dict[str, Callable[..., float]]
    profile_params: Callable[..., tuple] = tuple
    caps_area: Callable[..., float] = lambda spec: 0.0


_SHAPES = {
    "circle": _Shape(CircleSpec, "taxicab_circle_upper",
                     {"circumference": circle_circumference, "area": circle_area}),
    "sphere": _Shape(SphereSpec, "taxicab_circle_upper",
                     {"surface": sphere_surface, "volume": sphere_volume}),
    "cylinder": _Shape(CylinderSpec, "linear",
                       {"surface": cylinder_lateral_surface, "volume": cylinder_volume},
                       profile_params=lambda spec: (0.0, spec.r, 0.0, spec.h)),
    "paraboloid": _Shape(ParaboloidSpec, "taxicab_parabola",
                         {"surface": paraboloid_surface, "volume": paraboloid_volume}),
    "ellipsoid": _Shape(EllipsoidSpec, "taxicab_ellipse_upper",
                        {"surface": ellipsoid_surface, "volume": ellipsoid_volume},
                        caps_area=_ellipsoid_caps_area),
}
_BY_SPEC = {shape.spec: shape for shape in _SHAPES.values()}


def _shape_of(spec) -> _Shape:
    shape = _BY_SPEC.get(type(spec))
    if shape is None:
        raise SpecError(f"{spec!r} is not a shape spec")
    return shape


def closed_form(spec, quantity: str) -> float:
    """The closed form of quantity for the shape spec describes."""
    fn = _shape_of(spec).closed_forms.get(quantity)
    if fn is None:
        raise SpecError(
            f"quantity {quantity!r} is not defined for shape {type(spec).__name__}")
    return fn(spec)


def revolution_profile(spec) -> ProfileFunction:
    """Radius profile whose revolution generates the shape (the upper-half
    cross-section curve for the 2D circle)."""
    from .profiles import _catalog_profile

    shape = _shape_of(spec)
    return _catalog_profile(shape.profile, shape.profile_params(spec))


def from_profile(spec, quantity: str, measure: Callable[[str, ProfileFunction], float]) -> float:
    """quantity of the shape spec describes from measure(profile_quantity,
    profile), a quadrature or an oracle, on its revolution profile: a surface
    adds the flat end caps, a circumference doubles the circle's upper half."""
    shape = _shape_of(spec)
    of_profile = "arclength" if quantity == "circumference" else quantity
    if quantity not in shape.closed_forms or of_profile not in PROFILE_QUANTITIES:
        raise SpecError(f"no profile measure gives the {quantity} of {type(spec).__name__}")
    value = measure(of_profile, revolution_profile(spec))
    if quantity == "circumference":
        return 2.0 * value
    return value + shape.caps_area(spec) if quantity == "surface" else value


def parse_shape_spec(spec):
    """Build a shape spec from its JSON object form
    {"shape": <name>, "params": {...}}."""
    if not isinstance(spec, dict):
        raise SpecError(f"shape spec must be a JSON object, got {spec!r}")
    extra = [k for k in spec if k not in ("shape", "params")]
    if extra:
        raise SpecError(f"shape spec has unexpected keys {extra}")
    if "shape" not in spec:
        raise SpecError("shape spec needs a 'shape' key")
    name = spec["shape"]
    if not isinstance(name, str) or name not in _SHAPES:
        raise SpecError(f"unknown shape {name!r}")
    cls = _SHAPES[name].spec
    return cls(*take_params(f"shape {name!r}", spec.get("params", {}), cls._fields))
