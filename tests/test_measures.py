import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from taximeasure import (
    AngleRad,
    DomainError,
    Interval,
    MonotonicityError,
    RotationAngles,
    arclength_functional,
    arclength_monotone_closed,
    arclength_parametric_2d,
    arclength_parametric_3d,
    area_scaling_factor,
    surface_of_revolution,
    taxicab_area_rotated,
    volume_of_revolution,
)
from taximeasure.profiles import (
    ParametricCurve2,
    ParametricCurve3,
    ProfileFunction,
    profile_euclidean_circle_quadrant,
    profile_euclidean_parabola_quadrant,
    profile_linear,
    profile_taxicab_circle_upper,
)
from taximeasure.quadrature import integrate

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


def _profile(ev, dv, lo, hi, **kw):
    return ProfileFunction(ev, dv, Interval(lo, hi), **kw)


# ---------------------------------------------------------------------------
# arc length
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("r", [1.0, 2.5])
def test_quarter_circle_equality(r):
    # straight diagonal, Euclidean arc, and parabolic arc all measure 2r
    for prof in (profile_linear(-1.0, r, Interval(0.0, r)),
                 profile_euclidean_circle_quadrant(r),
                 profile_euclidean_parabola_quadrant(r)):
        assert arclength_functional(prof) == pytest.approx(2.0 * r, abs=1e-9)



@pytest.mark.parametrize("r", np.linspace(0.7, 1.3, 13).tolist())
def test_euclidean_quarter_circle_arclength_to_rounding(r):
    f = profile_euclidean_circle_quadrant(r)
    assert arclength_functional(f) == pytest.approx(2.0 * r, rel=2e-15, abs=0.0)

def test_arclength_on_subdomain():
    f = profile_linear(-1.0, 1.0, Interval(0.0, 1.0))
    assert arclength_functional(f, Interval(0.0, 0.5)) == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(DomainError):
        arclength_functional(f, Interval(0.0, 2.0))


def test_arclength_taxicab_halfcircle():
    f = profile_taxicab_circle_upper(1.0)
    assert arclength_functional(f) == pytest.approx(4.0, abs=1e-9)


def test_monotone_closed_exponential():
    f = _profile(np.exp, np.exp, 0.0, 1.0)
    assert arclength_monotone_closed(f) == pytest.approx(math.e, abs=1e-12)


def test_monotone_closed_constant():
    f = profile_linear(0.0, 5.0, Interval(2.0, 7.0))
    assert arclength_monotone_closed(f) == 5.0


def test_monotone_closed_quarter_circle():
    f = profile_euclidean_circle_quadrant(1.0)
    assert arclength_monotone_closed(f) == pytest.approx(2.0, abs=1e-12)


def test_monotone_closed_rejects_non_monotone_with_witnesses():
    f = _profile(np.sin, np.cos, 0.0, 3.0)
    with pytest.raises(MonotonicityError) as ei:
        arclength_monotone_closed(f)
    assert "f'(" in str(ei.value)


def test_monotone_closed_checks_breakpoint_neighborhoods():
    # derivative flips sign only at the declared kink
    f = profile_taxicab_circle_upper(1.0)
    with pytest.raises(MonotonicityError):
        arclength_monotone_closed(f)


def test_parametric_2d_quarter_circle():
    c = ParametricCurve2(np.cos, np.sin,
                         lambda t: -np.sin(t), np.cos,
                         Interval(0.0, math.pi / 2.0))
    assert arclength_parametric_2d(c) == pytest.approx(2.0, abs=1e-9)


def test_parametric_2d_full_circle():
    c = ParametricCurve2(np.cos, np.sin,
                         lambda t: -np.sin(t), np.cos,
                         Interval(0.0, 2.0 * math.pi))
    assert arclength_parametric_2d(c) == pytest.approx(8.0, abs=1e-8)


def test_parametric_2d_diagonal():
    c = ParametricCurve2(lambda t: t, lambda t: t,
                         lambda t: 1.0, lambda t: 1.0, Interval(0.0, 1.0))
    assert arclength_parametric_2d(c) == pytest.approx(2.0, abs=1e-12)


def test_parametric_3d_segment():
    c = ParametricCurve3(lambda t: t, lambda t: 2.0 * t, lambda t: 3.0 * t,
                         lambda t: 1.0, lambda t: 2.0, lambda t: 3.0,
                         Interval(0.0, 1.0))
    assert arclength_parametric_3d(c) == pytest.approx(6.0, abs=1e-12)


def test_parametric_3d_helix_quarter_turn():
    c = ParametricCurve3(np.cos, np.sin, lambda t: t,
                         lambda t: -np.sin(t), np.cos, lambda t: 1.0,
                         Interval(0.0, math.pi / 2.0))
    expected = 2.0 + math.pi / 2.0
    assert arclength_parametric_3d(c) == pytest.approx(expected, abs=1e-9)
    # discrete taxicab polyline over the same curve agrees
    ts = np.linspace(0.0, math.pi / 2.0, 100_001)
    xs, ys, zs = np.cos(ts), np.sin(ts), ts
    discrete = (np.sum(np.abs(np.diff(xs))) + np.sum(np.abs(np.diff(ys)))
                + np.sum(np.abs(np.diff(zs))))
    assert discrete == pytest.approx(expected, abs=1e-7)


def test_parametric_3d_axis_parallel():
    c = ParametricCurve3(lambda t: t, lambda t: 0.0, lambda t: 0.0,
                         lambda t: 1.0, lambda t: 0.0, lambda t: 0.0,
                         Interval(0.0, 4.0))
    assert arclength_parametric_3d(c) == pytest.approx(4.0, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.05, max_value=2.0, allow_nan=False),
       st.floats(min_value=0.05, max_value=2.0, allow_nan=False),
       st.floats(min_value=0.05, max_value=2.0, allow_nan=False),
       st.booleans())
def test_path_independence_random_monotone_cubics(c3, c2, c1, decreasing):
    sgn = -1.0 if decreasing else 1.0
    ev = lambda x: sgn * ((c3 * x + c2) * x + c1) * x
    dv = lambda x: sgn * ((3.0 * c3 * x + 2.0 * c2) * x + c1)
    f = _profile(ev, dv, 0.0, 1.5)
    assert arclength_functional(f) == pytest.approx(arclength_monotone_closed(f), abs=1e-8)


@pytest.mark.parametrize("prof", [
    profile_linear(-1.0, 1.0, Interval(0.0, 1.0)),
    profile_euclidean_parabola_quadrant(1.5),
    profile_taxicab_circle_upper(1.0),
])
def test_parametric_consistency_with_graph_form(prof):
    c = ParametricCurve2(lambda t: t, prof.evaluate, lambda t: 1.0, prof.derivative,
                         prof.domain, breakpoints=prof.breakpoints)
    assert arclength_parametric_2d(c) == pytest.approx(arclength_functional(prof), abs=1e-9)


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=-1.5, max_value=1.5, allow_nan=False),
       st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
def test_taxicab_arclength_dominates_euclidean(a, b):
    ev = lambda x: a * x * x + b * x
    dv = lambda x: 2.0 * a * x + b
    f = _profile(ev, dv, 0.0, 1.0)
    taxi = arclength_functional(f)
    euclid = integrate(lambda x: np.hypot(1.0, dv(x)), f.domain).value
    assert taxi >= euclid - 1e-9
    assert taxi >= f.domain.width - 1e-12


# ---------------------------------------------------------------------------
# area scaling
# ---------------------------------------------------------------------------

def test_area_scaling_factor_reference_angles():
    assert area_scaling_factor(RotationAngles(AngleRad(0.0), AngleRad(0.0))) == 1.0
    f = area_scaling_factor(RotationAngles(AngleRad(math.pi / 4), AngleRad(0.0)))
    assert f == pytest.approx(SQRT2, abs=1e-12)
    f = area_scaling_factor(RotationAngles(AngleRad(math.pi / 4), AngleRad(math.pi / 4)))
    assert f == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("k1", range(4))
@pytest.mark.parametrize("k2", range(4))
def test_area_scaling_factor_is_one_at_right_angles(k1, k2):
    angles = RotationAngles(AngleRad(k1 * math.pi / 2.0), AngleRad(k2 * math.pi / 2.0))
    assert area_scaling_factor(angles) == 1.0


@given(st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
       st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
def test_area_scaling_factor_range(alpha, beta):
    f = area_scaling_factor(RotationAngles(AngleRad(alpha), AngleRad(beta)))
    assert 1.0 <= f <= 2.0


def test_rotation_angles_coerce_floats():
    angles = RotationAngles(math.pi / 4, 0.0)
    assert isinstance(angles.alpha, AngleRad)
    assert area_scaling_factor(angles) == pytest.approx(SQRT2, abs=1e-12)


def test_taxicab_area_rotated():
    angles45 = RotationAngles(AngleRad(math.pi / 4), AngleRad(0.0))
    assert taxicab_area_rotated(1.0, angles45) == pytest.approx(SQRT2, abs=1e-12)
    both45 = RotationAngles(AngleRad(math.pi / 4), AngleRad(math.pi / 4))
    assert taxicab_area_rotated(4.0 * SQRT3, both45) == pytest.approx(8.0 * SQRT3, abs=1e-12)
    assert taxicab_area_rotated(7.0, RotationAngles(AngleRad(0.0), AngleRad(0.0))) == 7.0
    with pytest.raises(DomainError):
        taxicab_area_rotated(-1.0, angles45)


# ---------------------------------------------------------------------------
# revolution measures
# ---------------------------------------------------------------------------

def test_surface_of_revolution_half_sphere():
    f = profile_linear(-1.0, 1.0, Interval(0.0, 1.0))
    assert surface_of_revolution(f) == pytest.approx(4.0 * SQRT3, abs=1e-9)


def test_surface_of_revolution_cylinder():
    f = profile_linear(0.0, 1.0, Interval(0.0, 2.0))
    assert surface_of_revolution(f) == pytest.approx(16.0, abs=1e-10)


def test_surface_of_revolution_degenerate_axis():
    f = profile_linear(0.0, 0.0, Interval(0.0, 1.0))
    assert surface_of_revolution(f) == pytest.approx(0.0, abs=1e-12)


def test_surface_of_revolution_rejects_negative_profile():
    f = profile_linear(1.0, -0.5, Interval(0.0, 1.0))
    with pytest.raises(DomainError) as ei:
        surface_of_revolution(f)
    assert "nonnegative" in str(ei.value)


def test_volume_of_revolution_sphere():
    f = profile_taxicab_circle_upper(1.0)
    assert volume_of_revolution(f) == pytest.approx(4.0 / 3.0, abs=1e-9)


def test_volume_of_revolution_cylinder():
    f = profile_linear(0.0, 1.0, Interval(0.0, 2.0))
    assert volume_of_revolution(f) == pytest.approx(4.0, abs=1e-12)


def test_volume_of_revolution_degenerate():
    f = profile_linear(0.0, 0.0, Interval(0.0, 5.0))
    assert volume_of_revolution(f) == pytest.approx(0.0, abs=1e-12)


def test_volume_of_revolution_rejects_negative_profile():
    f = profile_linear(-1.0, 0.5, Interval(0.0, 1.0))
    with pytest.raises(DomainError):
        volume_of_revolution(f)


@pytest.mark.parametrize("m", [0.3, 1.0, 1.7])
def test_revolution_measures_are_additive(m):
    f = profile_taxicab_circle_upper(1.0)
    dom = f.domain
    lo_part = Interval(dom.lo, dom.lo + m * 0.5)
    hi_part = Interval(dom.lo + m * 0.5, dom.hi)
    for measure in (surface_of_revolution, volume_of_revolution):
        whole = measure(f)
        parts = measure(f, lo_part) + measure(f, hi_part)
        assert abs(whole - parts) <= 1e-9


def test_double_half_sphere_surface_matches_closed_form():
    from taximeasure import SphereSpec, sphere_surface
    f = profile_linear(-1.0, 1.0, Interval(0.0, 1.0))
    assert 2.0 * surface_of_revolution(f) == pytest.approx(
        sphere_surface(SphereSpec(1.0)), abs=1e-8)


# ---------------------------------------------------------------------------
# zigzags: f' changes sign at every declared breakpoint
# ---------------------------------------------------------------------------

def _zigzag(n_vertices):
    if n_vertices == 4:
        return ((0.0, 0.251), (0.721, 1.704), (1.552, 0.979), (1.827, 1.572))
    rng = np.random.default_rng(n_vertices)
    xs = np.cumsum(np.r_[0.0, rng.uniform(0.2, 1.0, n_vertices - 1)])
    ys = np.where(np.arange(n_vertices) % 2 == 0,
                  rng.uniform(0.2, 0.8, n_vertices), rng.uniform(1.2, 2.0, n_vertices))
    return tuple(zip(xs.tolist(), ys.tolist()))


def _zigzag_exact(vertices):
    arc, surface = [], []
    for (x0, y0), (x1, y1) in zip(vertices, vertices[1:]):
        dx, dy = x1 - x0, y1 - y0
        m = dy / dx
        arc.append(dx + abs(dy))
        radical = math.sqrt(1.0 - m * m / (2.0 * (1.0 + m * m)))
        surface.append(2.0 * 4.0 * (1.0 + abs(m)) * radical * dx * 0.5 * (y0 + y1))
    return math.fsum(arc), math.fsum(surface)


@pytest.mark.parametrize("n_vertices", [4, 5, 7, 10])
def test_zigzag_pieces_end_at_the_declared_kinks(monkeypatch, n_vertices):
    import taximeasure.measures as measures
    from taximeasure import PiecewiseLinearProfile

    samples = []

    def counting_integrate(g, *args, **kwargs):
        box = [0]

        def counted(x):
            box[0] += np.size(x)
            return g(x)

        result = integrate(counted, *args, **kwargs)
        samples.append(box[0])
        return result

    monkeypatch.setattr(measures, "integrate", counting_integrate)
    vertices = _zigzag(n_vertices)
    f = PiecewiseLinearProfile(vertices).to_profile()
    arc, surface = _zigzag_exact(vertices)
    assert arclength_functional(f) == pytest.approx(arc, rel=1e-12)
    assert surface_of_revolution(f) == pytest.approx(surface, rel=1e-12)
    assert len(samples) == 2 and max(samples) <= 1000
