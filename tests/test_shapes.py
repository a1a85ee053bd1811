import json
import math
from functools import partial

import pytest
from hypothesis import given, strategies as st

from taximeasure import (
    CircleSpec,
    CylinderSpec,
    DomainError,
    EllipsoidSpec,
    Interval,
    ParaboloidSpec,
    SpecError,
    SphereSpec,
    circle_area,
    circle_circumference,
    cylinder_lateral_surface,
    cylinder_volume,
    ellipsoid_cap_radius,
    ellipsoid_surface,
    ellipsoid_volume,
    paraboloid_surface,
    paraboloid_volume,
    parse_shape_spec,
    revolution_profile,
    sphere_surface,
    sphere_volume,
    surface_of_revolution,
    volume_of_revolution,
)
from taximeasure.cli import main
from taximeasure.profiles import (
    profile_taxicab_circle_upper,
    profile_taxicab_ellipse_upper,
    profile_taxicab_parabola,
)
from taximeasure.shapes import caps_area

SQRT3 = math.sqrt(3.0)


# ---------------------------------------------------------------------------
# closed-form values
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("r,expected", [(1.0, 8.0), (0.5, 4.0), (3.0, 24.0)])
def test_circle_circumference(r, expected):
    assert circle_circumference(CircleSpec(r)) == expected


@pytest.mark.parametrize("r,expected", [(1.0, 2.0), (2.0, 8.0), (math.sqrt(2.0), 4.0)])
def test_circle_area(r, expected):
    assert circle_area(CircleSpec(r)) == pytest.approx(expected, abs=1e-14)


def test_sphere_surface():
    assert sphere_surface(SphereSpec(1.0)) == pytest.approx(8.0 * SQRT3, abs=1e-14)
    assert sphere_surface(SphereSpec(2.0)) == pytest.approx(32.0 * SQRT3, abs=1e-13)


def test_sphere_volume():
    assert sphere_volume(SphereSpec(1.0)) == pytest.approx(4.0 / 3.0, abs=1e-15)
    assert sphere_volume(SphereSpec(3.0)) == pytest.approx(36.0, abs=1e-13)


@pytest.mark.parametrize("r,h,expected", [(1.0, 1.0, 2.0), (2.0, 3.0, 24.0), (1.0, 2.0, 4.0)])
def test_cylinder_volume(r, h, expected):
    assert cylinder_volume(CylinderSpec(r, h)) == expected


@pytest.mark.parametrize("r,h,expected", [(1.0, 2.0, 16.0), (1.0, 1.0, 8.0), (0.5, 4.0, 16.0)])
def test_cylinder_lateral_surface(r, h, expected):
    assert cylinder_lateral_surface(CylinderSpec(r, h)) == expected


def test_paraboloid_surface():
    assert paraboloid_surface(ParaboloidSpec(1.0, 3.0)) == pytest.approx(4.0 * SQRT3 + 16.0, abs=1e-13)
    assert paraboloid_surface(ParaboloidSpec(1.0, 1.0)) == pytest.approx(4.0 * SQRT3, abs=1e-14)
    assert paraboloid_surface(ParaboloidSpec(2.0, 2.0)) == pytest.approx(16.0 * SQRT3, abs=1e-13)


def test_paraboloid_volume():
    assert paraboloid_volume(ParaboloidSpec(1.0, 3.0)) == pytest.approx(14.0 / 3.0, abs=1e-14)
    assert paraboloid_volume(ParaboloidSpec(1.0, 1.0)) == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert paraboloid_volume(ParaboloidSpec(2.0, 2.0)) == pytest.approx(16.0 / 3.0, abs=1e-14)


def test_ellipsoid_volume():
    assert ellipsoid_volume(EllipsoidSpec(1.0, 1.0, 2.0)) == sphere_volume(SphereSpec(1.0))
    assert ellipsoid_volume(EllipsoidSpec(2.0, 1.0, 4.0)) == pytest.approx(16.0 / 3.0, abs=1e-14)
    assert ellipsoid_volume(EllipsoidSpec(2.0, 1.5, 5.0)) == pytest.approx(40.0 / 3.0, abs=1e-13)


def test_ellipsoid_surface():
    assert ellipsoid_surface(EllipsoidSpec(1.0, 1.0, 2.0)) == sphere_surface(SphereSpec(1.0))
    assert ellipsoid_surface(EllipsoidSpec(2.0, 1.0, 4.0)) == pytest.approx(8.0 * SQRT3 + 16.0, abs=1e-13)
    assert ellipsoid_surface(EllipsoidSpec(2.0, 1.5, 5.0)) == pytest.approx(16.0 * SQRT3 + 25.0, abs=1e-13)


def test_ellipsoid_cap_radius():
    assert ellipsoid_cap_radius(EllipsoidSpec(2.0, 1.5, 5.0)) == 0.5
    assert ellipsoid_cap_radius(EllipsoidSpec(2.0, 1.0, 4.0)) == 0.0


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------

BAD_SPECS = [
    partial(CircleSpec, 0.0),
    partial(CircleSpec, -1.0),
    partial(SphereSpec, float("nan")),
    partial(CylinderSpec, 1.0, 0.0),
    partial(CylinderSpec, 0.0, 1.0),
    partial(ParaboloidSpec, 0.0, 1.0),
    partial(ParaboloidSpec, 2.0, 1.0),
    partial(EllipsoidSpec, 1.0, 2.0, 4.0),
    partial(EllipsoidSpec, 1.0, 0.0, 2.0),
    partial(EllipsoidSpec, 1.0, 1.0, 1.0),
    partial(EllipsoidSpec, 1.0, 1.0, 5.0),
]


@pytest.mark.parametrize("make", BAD_SPECS)
def test_spec_validation(make):
    with pytest.raises(DomainError):
        make()


# Spec class -> the catalog name and constructor of the profile that takes
# the same parameters.
_PROFILE_OF = {
    CircleSpec: ("taxicab_circle_upper", profile_taxicab_circle_upper),
    ParaboloidSpec: ("taxicab_parabola", profile_taxicab_parabola),
    EllipsoidSpec: ("taxicab_ellipse_upper", profile_taxicab_ellipse_upper),
}


@pytest.mark.parametrize("make", [m for m in BAD_SPECS if m.func in _PROFILE_OF])
def test_profile_constructors_reject_what_the_specs_reject(make, capsys):
    name, build = _PROFILE_OF[make.func]
    with pytest.raises(DomainError):
        build(*make.args)
    params = dict(zip(make.func._fields, make.args))
    profile = json.dumps({"catalog": name, "params": params})
    assert main(["measure", "--quantity", "arclength", "--profile", profile]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


# ---------------------------------------------------------------------------
# degenerate-case identities (exact in floating point by construction)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("a", [0.3, 0.5, 1.0, 1.7, 2.0, 3.7])
def test_paraboloid_h_equals_a_is_exactly_half_a_sphere(a):
    par = ParaboloidSpec(a, a)
    sph = SphereSpec(a)
    assert paraboloid_surface(par) == sphere_surface(sph) / 2.0
    assert paraboloid_volume(par) == sphere_volume(sph) / 2.0


@pytest.mark.parametrize("b", [0.5, 1.0, 2.5])
def test_ellipsoid_circle_case_is_exactly_a_sphere(b):
    ell = EllipsoidSpec(b, b, 2.0 * b)
    assert ellipsoid_volume(ell) == sphere_volume(SphereSpec(b))
    assert ellipsoid_surface(ell) == sphere_surface(SphereSpec(b))


def test_ellipsoid_continuous_in_s_at_hexagon_boundary():
    # s >= 2a is a hard domain bound, so continuity is checked one-sided
    base_v = ellipsoid_volume(EllipsoidSpec(2.0, 1.0, 4.0))
    base_s = ellipsoid_surface(EllipsoidSpec(2.0, 1.0, 4.0))
    eps = 1e-9
    assert ellipsoid_volume(EllipsoidSpec(2.0, 1.0, 4.0 + eps)) == pytest.approx(base_v, abs=1e-7)
    assert ellipsoid_surface(EllipsoidSpec(2.0, 1.0, 4.0 + eps)) == pytest.approx(base_s, abs=1e-7)


def test_ellipsoid_continuous_at_equal_axes_boundary():
    ref_v = ellipsoid_volume(EllipsoidSpec(1.0, 1.0, 2.5))
    ref_s = ellipsoid_surface(EllipsoidSpec(1.0, 1.0, 2.5))
    eps = 1e-9
    assert ellipsoid_volume(EllipsoidSpec(1.0 + eps, 1.0, 2.5)) == pytest.approx(ref_v, abs=1e-7)
    assert ellipsoid_surface(EllipsoidSpec(1.0 + eps, 1.0, 2.5)) == pytest.approx(ref_s, abs=1e-7)


def test_sphere_surface_is_not_the_volume_derivative():
    # d/dr of (4/3) r^3 is 4 r^2; the surface is 8*sqrt(3) r^2, a ratio of 2*sqrt(3)
    for r in (0.5, 1.0, 2.0):
        dv = 4.0 * r * r
        assert sphere_surface(SphereSpec(r)) != dv
        assert sphere_surface(SphereSpec(r)) / dv == pytest.approx(2.0 * SQRT3, abs=1e-10)


@given(st.floats(min_value=0.05, max_value=50.0, allow_nan=False),
       st.floats(min_value=1.1, max_value=8.0, allow_nan=False))
def test_dilation_scaling_sphere(r, k):
    assert sphere_volume(SphereSpec(k * r)) == pytest.approx(
        k ** 3 * sphere_volume(SphereSpec(r)), rel=1e-12)
    assert sphere_surface(SphereSpec(k * r)) == pytest.approx(
        k ** 2 * sphere_surface(SphereSpec(r)), rel=1e-12)
    assert circle_circumference(CircleSpec(k * r)) == pytest.approx(
        k * circle_circumference(CircleSpec(r)), rel=1e-12)


@given(st.floats(min_value=1.5, max_value=4.0, allow_nan=False))
def test_dilation_scaling_ellipsoid(k):
    small = EllipsoidSpec(2.0, 1.5, 5.0)
    big = EllipsoidSpec(2.0 * k, 1.5 * k, 5.0 * k)
    assert ellipsoid_volume(big) == pytest.approx(k ** 3 * ellipsoid_volume(small), rel=1e-12)
    assert ellipsoid_surface(big) == pytest.approx(k ** 2 * ellipsoid_surface(small), rel=1e-12)


# ---------------------------------------------------------------------------
# closed forms vs the revolution integrals
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("r", [0.5, 1.0, 2.0, 3.7])
def test_sphere_closed_forms_match_quadrature(r):
    prof = revolution_profile(SphereSpec(r))
    assert surface_of_revolution(prof) == pytest.approx(sphere_surface(SphereSpec(r)), abs=1e-8)
    assert volume_of_revolution(prof) == pytest.approx(sphere_volume(SphereSpec(r)), abs=1e-8)


@pytest.mark.parametrize("r,h", [(0.5, 1.0), (1.0, 2.0), (2.0, 0.5), (3.7, 3.7)])
def test_cylinder_closed_forms_match_quadrature(r, h):
    cyl = CylinderSpec(r, h)
    prof = revolution_profile(cyl)
    assert surface_of_revolution(prof) == pytest.approx(cylinder_lateral_surface(cyl), abs=1e-8)
    assert volume_of_revolution(prof) == pytest.approx(cylinder_volume(cyl), abs=1e-8)


@pytest.mark.parametrize("a,h", [(1.0, 3.0), (1.0, 1.0), (2.0, 5.0), (0.5, 3.7)])
def test_paraboloid_closed_forms_match_quadrature(a, h):
    par = ParaboloidSpec(a, h)
    prof = revolution_profile(par)
    assert surface_of_revolution(prof) == pytest.approx(paraboloid_surface(par), abs=1e-8)
    assert volume_of_revolution(prof) == pytest.approx(paraboloid_volume(par), abs=1e-8)


@pytest.mark.parametrize("a,b,s", [(1.0, 1.0, 2.0), (2.0, 1.0, 4.0), (2.0, 1.5, 5.0)])
def test_ellipsoid_closed_forms_match_quadrature(a, b, s):
    ell = EllipsoidSpec(a, b, s)
    prof = revolution_profile(ell)
    caps = 2.0 * circle_area(CircleSpec(ellipsoid_cap_radius(ell))) if s > 2.0 * a else 0.0
    assert surface_of_revolution(prof) + caps == pytest.approx(ellipsoid_surface(ell), abs=1e-8)
    assert volume_of_revolution(prof) == pytest.approx(ellipsoid_volume(ell), abs=1e-8)


@pytest.mark.parametrize("a,b", [(2.0, 1.5), (1.0, 1.0), (3.7, 0.3), (1e3, 7.1), (0.2, 0.2)])
def test_ellipsoid_at_s_equal_2_a_plus_b_is_a_cylinder_with_caps(a, b):
    # At s = 2(a + b) the flat top spans the whole axis: a cylinder of radius
    # b and height s - 2b, closed by two caps of radius b.
    ell = EllipsoidSpec(a, b, 2.0 * (a + b))
    cyl = CylinderSpec(b, ell.s - 2.0 * b)
    assert ellipsoid_volume(ell) == cylinder_volume(cyl)
    caps = 2.0 * circle_area(CircleSpec(b))
    assert ellipsoid_surface(ell) == cylinder_lateral_surface(cyl) + caps
    prof = revolution_profile(ell)
    assert prof.breakpoints == ()
    assert volume_of_revolution(prof) == pytest.approx(ellipsoid_volume(ell), rel=1e-15)
    assert surface_of_revolution(prof) + caps_area(ell) == pytest.approx(
        ellipsoid_surface(ell), rel=1e-15)


# ---------------------------------------------------------------------------
# revolution profiles and JSON specs
# ---------------------------------------------------------------------------

def test_revolution_profile_mapping():
    assert revolution_profile(SphereSpec(2.0)).domain == Interval(-2.0, 2.0)
    assert revolution_profile(CircleSpec(1.0)).breakpoints == (0.0,)
    cyl_prof = revolution_profile(CylinderSpec(1.5, 3.0))
    assert cyl_prof(1.0) == 1.5 and cyl_prof.domain == Interval(0.0, 3.0)
    assert revolution_profile(ParaboloidSpec(1.0, 3.0)).breakpoints == (1.0,)
    assert revolution_profile(EllipsoidSpec(2.0, 1.5, 5.0)).breakpoints == (-1.0, 1.0)
    with pytest.raises(SpecError):
        revolution_profile("not a shape")


def test_parse_shape_spec():
    assert parse_shape_spec({"shape": "circle", "params": {"r": 1}}) == CircleSpec(1.0)
    assert parse_shape_spec({"shape": "sphere", "params": {"r": 2}}) == SphereSpec(2.0)
    assert parse_shape_spec({"shape": "cylinder", "params": {"r": 1, "h": 2}}) == CylinderSpec(1.0, 2.0)
    assert parse_shape_spec({"shape": "paraboloid", "params": {"a": 1, "h": 3}}) == ParaboloidSpec(1.0, 3.0)
    assert parse_shape_spec({"shape": "ellipsoid", "params": {"a": 2, "b": 1.5, "s": 5}}) == EllipsoidSpec(2.0, 1.5, 5.0)


@pytest.mark.parametrize("spec", [
    "sphere",
    {"shape": "pyramid", "params": {}},
    {"shape": "sphere"},
    {"shape": "sphere", "params": {"r": 1, "h": 2}},
    {"shape": "sphere", "params": {"r": "1"}},
    {"shape": "sphere", "params": {"r": True}},
    {"shape": "sphere", "params": 3},
    {"params": {"r": 1}},
    {"shape": "sphere", "params": {"r": 1}, "color": "red"},
])
def test_parse_shape_spec_rejects_malformed(spec):
    with pytest.raises(SpecError):
        parse_shape_spec(spec)


def test_parse_shape_spec_domain_errors_pass_through():
    with pytest.raises(DomainError):
        parse_shape_spec({"shape": "sphere", "params": {"r": -1}})
