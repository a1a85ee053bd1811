"""Closed-form taxicab measures for the shape catalog.

All formulas use the taxicab circle constant pi_t = 4.  Shapes are described
by validated spec dataclasses; the ellipsoid's size parameter s spans the
degenerate cases s = 2a (hexagonal cross-section; a sphere when additionally
a = b) through s = 2(a + b) (cylinder of radius b and height s - 2b).

The expressions are arranged so the degenerate-case identities hold exactly
in floating point (for example a paraboloid with h = a is exactly half a
sphere, because its surface and volume terms are 2x-scalings of the sphere
ones and scaling by powers of two is exact).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import DomainError, SpecError
from .geometry import PI_T, Interval
from .profiles import (ProfileFunction, profile_linear, profile_taxicab_circle_upper,
                       profile_taxicab_ellipse_upper, profile_taxicab_parabola, take_params)

_SQRT3 = math.sqrt(3.0)


def _require_positive(label: str, **params: float) -> None:
    for name, v in params.items():
        if not (math.isfinite(v) and v > 0.0):
            raise DomainError(f"{label} requires {name} > 0, got {name}={v!r}")


@dataclass(frozen=True)
class CircleSpec:
    r: float

    def __post_init__(self):
        _require_positive("CircleSpec", r=self.r)


@dataclass(frozen=True)
class SphereSpec:
    r: float

    def __post_init__(self):
        _require_positive("SphereSpec", r=self.r)


@dataclass(frozen=True)
class CylinderSpec:
    r: float
    h: float

    def __post_init__(self):
        _require_positive("CylinderSpec", r=self.r, h=self.h)


@dataclass(frozen=True)
class ParaboloidSpec:
    """Taxicab paraboloid of apex half-width a and height h >= a."""

    a: float
    h: float

    def __post_init__(self):
        _require_positive("ParaboloidSpec", a=self.a)
        if not (math.isfinite(self.h) and self.h >= self.a):
            raise DomainError(f"ParaboloidSpec requires h >= a, got a={self.a}, h={self.h}")


@dataclass(frozen=True)
class EllipsoidSpec:
    """Taxicab ellipsoid of revolution: semi-axes a >= b > 0 and focal-sum
    parameter s with 2a <= s <= 2(a + b)."""

    a: float
    b: float
    s: float

    def __post_init__(self):
        _require_positive("EllipsoidSpec", b=self.b)
        if not (math.isfinite(self.a) and self.a >= self.b):
            raise DomainError(f"EllipsoidSpec requires a >= b, got a={self.a}, b={self.b}")
        if not (math.isfinite(self.s) and self.s >= 2.0 * self.a):
            raise DomainError(f"EllipsoidSpec requires s >= 2a, got s={self.s}, a={self.a}")
        if not self.s <= 2.0 * (self.a + self.b):
            raise DomainError(
                f"EllipsoidSpec requires s <= 2(a + b), got s={self.s}, a={self.a}, b={self.b}")


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


def revolution_profile(spec) -> ProfileFunction:
    """Radius profile whose revolution generates the shape (the upper-half
    cross-section curve for the 2D circle)."""
    if isinstance(spec, (CircleSpec, SphereSpec)):
        return profile_taxicab_circle_upper(spec.r)
    if isinstance(spec, CylinderSpec):
        return profile_linear(0.0, spec.r, Interval(0.0, spec.h))
    if isinstance(spec, ParaboloidSpec):
        return profile_taxicab_parabola(spec.a, spec.h)
    if isinstance(spec, EllipsoidSpec):
        return profile_taxicab_ellipse_upper(spec.a, spec.b, spec.s)
    raise SpecError(f"no revolution profile for {spec!r}")


# Shape name -> (spec class, parameter keys).  The keys are the dataclass
# fields, which list them in the constructor's order.
_SHAPES = {name: (cls, tuple(f.name for f in fields(cls))) for name, cls in (
    ("circle", CircleSpec),
    ("sphere", SphereSpec),
    ("cylinder", CylinderSpec),
    ("paraboloid", ParaboloidSpec),
    ("ellipsoid", EllipsoidSpec),
)}


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
    cls, keys = _SHAPES[name]
    return cls(*take_params(f"shape {name!r}", spec.get("params", {}), keys))
