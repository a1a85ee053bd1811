import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from taximeasure import (
    AngleRad,
    ConvergenceError,
    DomainError,
    Interval,
    Point2,
    RotationAngles,
    arclength_functional,
    arclength_parametric,
    arclength_variation,
    area_scaling_factor,
    euclidean_dist_2d,
    segment_angle,
    surface_of_revolution,
    taxicab_area_rotated,
    taxicab_length_from_angle,
    volume_of_revolution,
)
from taximeasure.oracles import (
    disk_volume_oracle,
    frustum_surface_oracle,
    polyline_arclength_oracle,
)
from taximeasure.profiles import (
    ParametricCurve,
    PiecewiseLinearProfile,
    ProfileFunction,
    graph,
    parse_profile_spec,
    profile_euclidean_circle_quadrant,
    profile_euclidean_parabola_quadrant,
    profile_linear,
    profile_taxicab_circle_upper,
    restrict,
)
from taximeasure.quadrature import REL_TOL, detect_sign_changes, integrate

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


@pytest.mark.parametrize("r", [1e-300, 1e-200, 1e-160, 1e160, 1e200, 1e300])
def test_euclidean_quarter_circle_arclength_at_extreme_radii(r):
    # r^2 - x^2 would overflow or underflow here
    f = profile_euclidean_circle_quadrant(r)
    assert arclength_functional(f) == pytest.approx(2.0 * r, rel=1e-14, abs=0.0)


def test_arclength_on_subdomain():
    f = profile_linear(-1.0, 1.0, Interval(0.0, 1.0))
    assert arclength_functional(restrict(f, Interval(0.0, 0.5))) == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(DomainError):
        arclength_functional(restrict(f, Interval(0.0, 2.0)))


def test_arclength_taxicab_halfcircle():
    f = profile_taxicab_circle_upper(1.0)
    assert arclength_functional(f) == pytest.approx(4.0, abs=1e-9)


def test_monotone_closed_exponential():
    f = _profile(np.exp, np.exp, 0.0, 1.0)
    assert arclength_variation(graph(f)) == pytest.approx(math.e, abs=1e-12)


def test_monotone_closed_constant():
    f = profile_linear(0.0, 5.0, Interval(2.0, 7.0))
    assert arclength_variation(graph(f)) == 5.0


def test_monotone_closed_quarter_circle():
    f = profile_euclidean_circle_quadrant(1.0)
    assert arclength_variation(graph(f)) == pytest.approx(2.0, abs=1e-12)


def test_parametric_2d_quarter_circle():
    c = ParametricCurve((np.cos, np.sin), (lambda t: -np.sin(t), np.cos),
                        Interval(0.0, math.pi / 2.0))
    assert arclength_parametric(c) == pytest.approx(2.0, abs=1e-9)


def test_parametric_2d_full_circle():
    c = ParametricCurve((np.cos, np.sin), (lambda t: -np.sin(t), np.cos),
                        Interval(0.0, 2.0 * math.pi))
    assert arclength_parametric(c) == pytest.approx(8.0, abs=1e-8)


def test_parametric_2d_diagonal():
    c = ParametricCurve((lambda t: t, lambda t: t), (lambda t: 1.0, lambda t: 1.0),
                        Interval(0.0, 1.0))
    assert arclength_parametric(c) == pytest.approx(2.0, abs=1e-12)


def test_parametric_3d_segment():
    c = ParametricCurve((lambda t: t, lambda t: 2.0 * t, lambda t: 3.0 * t),
                        (lambda t: 1.0, lambda t: 2.0, lambda t: 3.0),
                        Interval(0.0, 1.0))
    assert arclength_parametric(c) == pytest.approx(6.0, abs=1e-12)


def test_parametric_3d_helix_quarter_turn():
    c = ParametricCurve((np.cos, np.sin, lambda t: t),
                        (lambda t: -np.sin(t), np.cos, lambda t: 1.0),
                        Interval(0.0, math.pi / 2.0))
    expected = 2.0 + math.pi / 2.0
    assert arclength_parametric(c) == pytest.approx(expected, abs=1e-9)
    # discrete taxicab polyline over the same curve agrees
    ts = np.linspace(0.0, math.pi / 2.0, 100_001)
    xs, ys, zs = np.cos(ts), np.sin(ts), ts
    discrete = (np.sum(np.abs(np.diff(xs))) + np.sum(np.abs(np.diff(ys)))
                + np.sum(np.abs(np.diff(zs))))
    assert discrete == pytest.approx(expected, abs=1e-7)


def test_parametric_3d_axis_parallel():
    c = ParametricCurve((lambda t: t, lambda t: 0.0, lambda t: 0.0),
                        (lambda t: 1.0, lambda t: 0.0, lambda t: 0.0),
                        Interval(0.0, 4.0))
    assert arclength_parametric(c) == pytest.approx(4.0, abs=1e-12)


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
    assert arclength_functional(f) == pytest.approx(arclength_variation(graph(f)), abs=1e-8)


@pytest.mark.parametrize("prof", [
    profile_linear(-1.0, 1.0, Interval(0.0, 1.0)),
    profile_euclidean_parabola_quadrant(1.5),
    profile_taxicab_circle_upper(1.0),
])
def test_parametric_consistency_with_graph_form(prof):
    c = ParametricCurve((lambda t: t, prof.evaluate), (lambda t: 1.0, prof.derivative),
                        prof.domain, breakpoints=prof.breakpoints)
    assert arclength_parametric(c) == pytest.approx(arclength_functional(prof), abs=1e-9)
    assert arclength_parametric(graph(prof)) == pytest.approx(arclength_functional(prof),
                                                              abs=1e-9)
    assert arclength_variation(graph(prof)) == pytest.approx(arclength_functional(prof),
                                                             abs=1e-9)


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


@st.composite
def _zigzags(draw):
    n = draw(st.integers(min_value=3, max_value=40))
    dxs = draw(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=n - 1,
                        max_size=n - 1))
    ys = draw(st.lists(st.floats(min_value=-10.0, max_value=10.0), min_size=n, max_size=n))
    xs = np.concatenate([[0.0], np.cumsum(dxs)]).tolist()
    return PiecewiseLinearProfile(tuple(zip(xs, ys))).to_profile()


@st.composite
def _single_sines(draw):
    # s * (sin(omega x + phi) + 1.5) on [0, length] with omega * length <= 100,
    # so consecutive roots of f' lie several scan cells apart.
    s = draw(st.floats(min_value=0.01, max_value=100.0))
    length = draw(st.floats(min_value=0.1, max_value=20.0))
    omega = draw(st.floats(min_value=0.1, max_value=100.0)) / length
    phi = draw(st.floats(min_value=0.0, max_value=2.0 * math.pi))
    return _profile(lambda x: s * (np.sin(omega * x + phi) + 1.5),
                    lambda x: s * omega * np.cos(omega * x + phi), 0.0, length,
                    label=f"{s!r} * (sin({omega!r} x + {phi!r}) + 1.5)")


@settings(max_examples=60, deadline=None)
@given(st.one_of(_zigzags(), _single_sines()))
# f' has a root within half a scan cell of x = 0
@example(_profile(lambda x: np.sin(45.0 * x + 4.625) + 1.5,
                  lambda x: 45.0 * np.cos(45.0 * x + 4.625), 0.0, 1.0))
def test_variation_equals_quadrature(f):
    assert arclength_variation(graph(f)) == pytest.approx(arclength_functional(f),
                                                         rel=1e-12, abs=0.0)


def test_variation_disagrees_where_the_kink_scan_misses_a_bump():
    # f' underflows to 0 at every scan point, so the scan finds no turning
    # point and the variation sees a flat graph; quadrature and the polyline
    # oracle both see the bump of height 1 (length 1 + 2).
    w = 5e-5
    f = _profile(lambda x: np.exp(-((x - 0.3) / w) ** 2),
                 lambda x: -2.0 * (x - 0.3) / w ** 2 * np.exp(-((x - 0.3) / w) ** 2),
                 0.0, 1.0)
    variation = arclength_variation(graph(f))
    assert variation == pytest.approx(1.0, abs=1e-12)
    for other in (arclength_functional(f), polyline_arclength_oracle(f, n=1_000_000)):
        assert other == pytest.approx(3.0, abs=1e-9)
        assert other - variation > 1.0


# ---------------------------------------------------------------------------
# rounded abscissas on narrow pieces
# ---------------------------------------------------------------------------

def _narrow_polylines(count: int, seed: int):
    """Seeded polylines of 3-8 vertices at offsets 0 to 1e6 and scales 1e-3
    to 1e3, with y in [0.5, 2], where one vertex lies 10 to 10^9.5 float
    spacings (of its neighbour's x, or of 1 at x = 0) after another."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        k = int(rng.integers(2, 8))
        scale = 10.0 ** rng.uniform(-3.0, 3.0)
        offset = (0.0, 1.0, -7.5, 1e3, 1e6)[int(rng.integers(5))]
        xs = offset + scale * np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 1.0, k - 1))])
        while True:
            i = int(rng.integers(k - 1))
            x = xs[i] + 10.0 ** rng.uniform(1.0, 9.5) * np.spacing(abs(xs[i]) or 1.0)
            if x < xs[i + 1]:
                break
        xs = np.insert(xs, i + 1, x)
        yield xs, rng.uniform(0.5, 2.0, xs.size)


def _exact_volume(xs: np.ndarray, ys: np.ndarray) -> float:
    # (pi_t / 2) * integral of f^2, exact on each segment.
    return math.fsum(2.0 * (x1 - x0) * (y0 * y0 + y0 * y1 + y1 * y1) / 3.0
                     for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:]))


@pytest.mark.parametrize("quantity", ["arclength", "surface", "volume"])
def test_narrow_pieces_raise_or_stay_within_the_tolerance(quantity):
    # Rounding an abscissa moves it by up to half a float spacing, which is
    # a large share of a narrow piece.  Each measure must then either raise
    # or be within REL_TOL of the exact value.  A check on the domain width
    # and on the jumps of g at the splits alone passes 10 values of 7 of
    # these 600 polylines that are off by up to 2.3e-9.
    measure, exact = {
        "arclength": (arclength_functional, lambda f, xs, ys: arclength_variation(graph(f))),
        "surface": (surface_of_revolution, lambda f, xs, ys: frustum_surface_oracle(f, 1)),
        "volume": (volume_of_revolution, lambda f, xs, ys: _exact_volume(xs, ys)),
    }[quantity]
    answered, missed = 0, []
    for xs, ys in _narrow_polylines(600, seed=7):
        f = PiecewiseLinearProfile(tuple(zip(xs.tolist(), ys.tolist()))).to_profile()
        try:
            value = measure(f)
        except ConvergenceError:
            continue
        answered += 1
        want = exact(f, xs, ys)
        if abs(value - want) > REL_TOL * want:
            missed.append((xs.tolist(), ys.tolist(), value, want))
    assert missed == []
    # Refusing everything would pass the loop above.
    assert answered >= 100


# ---------------------------------------------------------------------------
# rotation laws
# ---------------------------------------------------------------------------

def _polyline(xs: np.ndarray, ys: np.ndarray) -> ParametricCurve:
    """The polyline through the points (xs[i], ys[i]) as a curve with t = i
    at vertex i, each segment one monotone piece."""
    ts = np.arange(xs.size, dtype=float)

    def coordinate(v):
        return lambda t: np.interp(t, ts, v)

    def derivative(v):
        d = np.diff(v)
        return lambda t: d[np.clip(np.floor(t).astype(int), 0, d.size - 1)]

    return ParametricCurve((coordinate(xs), coordinate(ys)), (derivative(xs), derivative(ys)),
                           Interval(0.0, ts[-1]), tuple(ts[1:-1]), monotone_pieces=True)


@st.composite
def _polylines(draw):
    # 2-40 vertices on a grid of 1/100 of a scale from 1e-3 to 1e3.  A
    # rotated coordinate is rounded at the scale, so a segment much shorter
    # than the scale would lose its relative accuracy to the rotation itself;
    # on the grid every segment is at least 1/100 of it.
    n = draw(st.integers(min_value=2, max_value=40))
    scale = 10.0 ** draw(st.floats(min_value=-3.0, max_value=3.0))
    grid = st.integers(min_value=-100, max_value=100)
    ks = draw(st.lists(st.tuples(grid, grid), min_size=n, max_size=n))
    points = np.array(ks, dtype=float) * (scale / 100.0)
    return points[:, 0], points[:, 1]


@settings(max_examples=60, deadline=None)
@given(_polylines())
def test_a_quarter_turn_keeps_the_taxicab_length_bit_for_bit(polyline):
    # (x, y) -> (-y, x) swaps the coordinates' variations and negates one.
    xs, ys = polyline
    assert arclength_variation(_polyline(-ys, xs)) == arclength_variation(_polyline(xs, ys))


def _rotated(xs: np.ndarray, ys: np.ndarray, theta: float) -> ParametricCurve:
    c, s = math.cos(theta), math.sin(theta)
    return _polyline(xs * c - ys * s, xs * s + ys * c)


def _segments(xs: np.ndarray, ys: np.ndarray) -> list[tuple[float, float]]:
    """Euclidean length and inclination of each non-degenerate segment."""
    points = [Point2(x, y) for x, y in zip(xs.tolist(), ys.tolist())]
    return [(euclidean_dist_2d(p, q), segment_angle(p, q).value)
            for p, q in zip(points, points[1:]) if p != q]


@settings(max_examples=60, deadline=None)
@given(_polylines(), st.floats(min_value=0.0, max_value=2.0 * math.pi))
def test_a_rotation_turns_every_segment_by_its_angle(polyline, theta):
    # Rotating by theta adds theta to each segment's inclination and keeps
    # its Euclidean length.
    xs, ys = polyline
    expected = math.fsum(taxicab_length_from_angle(d, phi + theta)
                         for d, phi in _segments(xs, ys))
    assert arclength_variation(_rotated(xs, ys, theta)) == pytest.approx(
        expected, rel=1e-12, abs=0.0)


@settings(max_examples=60, deadline=None)
@given(_polylines())
def test_an_eighth_turn_gives_sqrt2_times_the_chessboard_length(polyline):
    # Rotating by pi/4 maps a step (dx, dy) to ((dx - dy), (dx + dy)) / sqrt(2),
    # whose taxicab length is 2 max(|dx|, |dy|) / sqrt(2).
    xs, ys = polyline
    l_inf = math.fsum(np.maximum(np.abs(np.diff(xs)), np.abs(np.diff(ys))))
    assert arclength_variation(_rotated(xs, ys, math.pi / 4.0)) == pytest.approx(
        SQRT2 * l_inf, rel=1e-12, abs=0.0)


def _midpoint_angles(m: int) -> tuple[float, list[float]]:
    h = math.pi / (2 * m)
    return h, [(j + 0.5) * h for j in range(m)]


# The mean of L1(R_theta c) over theta is (4/pi) L2(c) (Cauchy-Crofton), and
# an M-point midpoint mean over [0, pi/2) misses it by at most (1/4) h^2 L2,
# h = pi/(2M).  For one segment of Euclidean length d at inclination phi,
# L1(R_theta) = d g(phi + theta) with g = |cos| + |sin|, of period pi/2 and
# mean 4/pi.  On one period g'' = -g, except at its kink, where g' jumps by 2.
# The midpoint rule's sum minus the integral is +(h^2/24) * 2 from the
# curvature, and -(h/2 - |u|)^2 from the cell whose midpoint is u away from
# the kink; so it lies in [-h^2/6, h^2/12], and the mean's error, that over
# pi/2, in [-h^2/(3 pi), h^2/(6 pi)].  The worst phase, 0.1061 h^2, measured
# at M = 8, 16, 32 and 64, is that 1/(3 pi).  A curve's error is the
# length-weighted sum of its segments' errors, so at most h^2 L2 / (3 pi);
# 1/4 leaves room for the O(h^4) terms and the rounding.
MEAN_BOUND = 0.25


@pytest.mark.parametrize("m", [16, 64])
@settings(max_examples=60, deadline=None)
@given(polyline=_polylines())
def test_the_mean_over_rotations_is_4_over_pi_times_the_euclidean_length(m, polyline):
    xs, ys = polyline
    h, thetas = _midpoint_angles(m)
    mean = math.fsum(arclength_variation(_rotated(xs, ys, t)) for t in thetas) / m
    segments = _segments(xs, ys)
    # Each segment's own midpoint mean: exact for a polyline.
    exact = math.fsum(taxicab_length_from_angle(d, phi + t)
                      for d, phi in segments for t in thetas) / m
    assert mean == pytest.approx(exact, rel=1e-12, abs=0.0)
    l2 = math.fsum(d for d, _ in segments)
    assert abs(mean - 4.0 / math.pi * l2) <= MEAN_BOUND * h * h * l2


def _lissajous(c: float = 1.0, s: float = 0.0) -> ParametricCurve:
    """The curve t -> (sin 3t, sin(2t + 0.5)) on [0, 2 pi], turned by the
    angle whose cosine and sine are c and s."""
    def turn(u, v):
        return (lambda t: c * u(t) - s * v(t)), (lambda t: s * u(t) + c * v(t))

    coords = turn(lambda t: np.sin(3.0 * t), lambda t: np.sin(2.0 * t + 0.5))
    derivatives = turn(lambda t: 3.0 * np.cos(3.0 * t), lambda t: 2.0 * np.cos(2.0 * t + 0.5))
    return ParametricCurve(coords, derivatives, Interval(0.0, 2.0 * math.pi))


def test_a_quarter_turn_keeps_a_smooth_curves_taxicab_length_bit_for_bit():
    # c = 0, s = 1 turns (x, y) into (-y, x) exactly.
    assert arclength_parametric(_lissajous(0.0, 1.0)) == arclength_parametric(_lissajous())


def test_the_mean_over_rotations_of_a_smooth_curve_is_4_over_pi_times_its_length():
    c = _lissajous()
    l2 = integrate(lambda t: np.hypot(*(d(t) for d in c.derivatives)), c.domain).value
    h, thetas = _midpoint_angles(64)
    mean = math.fsum(arclength_parametric(_lissajous(math.cos(t), math.sin(t)))
                     for t in thetas) / 64
    assert abs(mean - 4.0 / math.pi * l2) <= MEAN_BOUND * h * h * l2


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


@pytest.mark.parametrize("vertices,x", [
    (((0.0, 1.0), (1.0, -0.5), (2.0, 1.0)), 1.0),    # negative at a vertex only
    (((0.0, -0.25), (1.0, 0.5), (2.0, 1.0)), 0.0),   # negative at a domain end only
])
@pytest.mark.parametrize("measure", [surface_of_revolution, volume_of_revolution])
def test_monotone_pieces_are_checked_at_their_ends(vertices, x, measure):
    f = PiecewiseLinearProfile(vertices).to_profile()
    with pytest.raises(DomainError) as ei:
        measure(f)
    assert "nonnegative" in str(ei.value) and f"({x!r})" in str(ei.value)


@pytest.mark.parametrize("measure", [surface_of_revolution, volume_of_revolution])
def test_a_dip_between_two_scan_points_is_caught_by_the_sample_grid(measure):
    # f' has both roots of its dip inside one cell of the kink scan, the
    # close root pair that ROADMAP item 4 names, so the scan finds no
    # turning point and f is -1.69 between piece ends where it is positive.
    # Only the 1,024-point sample grid sees the dip.
    c, w = 78.5 / 257 - 4e-4, 1e-3

    def derivative(x):
        u = (x - c) / w
        return 1.0 + (6.0 / w) * u * np.exp(-u * u)

    f = _profile(lambda x: 1.0 + x - 3.0 * np.exp(-((x - c) / w) ** 2), derivative, 0.0, 1.0)
    assert detect_sign_changes(f.derivative, f.domain) == []
    with pytest.raises(DomainError) as ei:
        measure(f)
    assert "nonnegative" in str(ei.value) and f"({312 / 1023!r})" in str(ei.value)


def test_surface_checks_the_sign_at_the_turning_points_its_scan_found():
    # f = x(x - 1e-4) dips to -2.5e-9 at 5e-5, before the first point of
    # the 1,024-point sample grid; the scan of f' finds that turning point,
    # and the check samples it.  The oracles raise there at n = 1e5.
    f = _profile(lambda x: x * (x - 1e-4), lambda x: 2.0 * x - 1e-4, 0.0, 1.0)
    with pytest.raises(DomainError) as ei:
        surface_of_revolution(f)
    assert "nonnegative" in str(ei.value) and "= -2.5e-09" in str(ei.value)
    x = float(str(ei.value).split("f(")[1].split(")")[0])
    assert x == pytest.approx(5e-5, rel=1e-6)


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


@pytest.mark.parametrize("measure", [
    arclength_functional, lambda f: arclength_variation(graph(f)),
    surface_of_revolution, volume_of_revolution,
    lambda f: polyline_arclength_oracle(f, n=10), lambda f: frustum_surface_oracle(f, n=10),
    lambda f: disk_volume_oracle(f, n=10),
], ids=["functional", "variation", "surface", "volume", "polyline", "frustum", "disk"])
def test_a_domain_wider_than_the_largest_float_is_refused(measure):
    # The width overflows: the interval is refused before a measure gives inf
    # or an oracle nan.
    with pytest.raises(DomainError, match=r"\[-1e\+308, 1e\+308\] is wider than"):
        measure(parse_profile_spec({"piecewise_linear": [[-1e308, 1], [1e308, 2]]}))
    with pytest.raises(DomainError, match="is wider than"):
        measure(profile_taxicab_circle_upper(1e308))


@pytest.mark.parametrize("m", [0.3, 1.0, 1.7])
def test_revolution_measures_are_additive(m):
    f = profile_taxicab_circle_upper(1.0)
    dom = f.domain
    lo_part = Interval(dom.lo, dom.lo + m * 0.5)
    hi_part = Interval(dom.lo + m * 0.5, dom.hi)
    for measure in (surface_of_revolution, volume_of_revolution):
        whole = measure(f)
        parts = measure(restrict(f, lo_part)) + measure(restrict(f, hi_part))
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


def _counting_integrate(samples):
    """integrate, appending to samples the integrand points of each call."""
    def counting_integrate(g, *args, **kwargs):
        box = [0]

        def counted(x):
            box[0] += np.size(x)
            return g(x)

        result = integrate(counted, *args, **kwargs)
        samples.append(box[0])
        return result

    return counting_integrate


@pytest.mark.parametrize("n_vertices", [4, 5, 7, 10])
def test_zigzag_pieces_end_at_the_declared_kinks(monkeypatch, n_vertices):
    import taximeasure.measures as measures
    from taximeasure import PiecewiseLinearProfile

    samples = []
    monkeypatch.setattr(measures, "integrate", _counting_integrate(samples))
    vertices = _zigzag(n_vertices)
    f = PiecewiseLinearProfile(vertices).to_profile()
    arc, surface = _zigzag_exact(vertices)
    assert arclength_functional(f) == pytest.approx(arc, rel=1e-12)
    assert surface_of_revolution(f) == pytest.approx(surface, rel=1e-12)
    assert len(samples) == 2 and max(samples) <= 1000


def test_kink_scan_skips_the_declared_kink_of_the_taxicab_circle():
    # f' flips at the declared breakpoint 0: the scan needs no bisection.
    f = profile_taxicab_circle_upper(1.0)
    calls = []

    def derivative(x):
        calls.append(np.size(x))
        return f.derivative(x)

    counted = ProfileFunction(f.evaluate, derivative, f.domain, f.breakpoints)
    assert arclength_variation(graph(counted)) == 4.0
    assert len(calls) <= 1


@pytest.mark.parametrize("spec", [
    {"shape": "cylinder", "params": {"r": 1.0, "h": 2.0}},
    {"shape": "paraboloid", "params": {"a": 1.0, "h": 3.0}},
    {"shape": "ellipsoid", "params": {"a": 2.0, "b": 1.5, "s": 5.0}},
], ids=lambda spec: spec["shape"])
def test_monotone_pieces_take_few_integrand_points(monkeypatch, spec):
    # A scan would make a split of each exact 0 of f' on a flat run: the
    # cylinder would take 3,870 points where 30 are enough.
    import taximeasure.measures as measures
    from taximeasure.shapes import parse_shape_spec, revolution_profile

    samples = []
    monkeypatch.setattr(measures, "integrate", _counting_integrate(samples))
    monkeypatch.setattr(measures, "detect_sign_changes", None)
    f = revolution_profile(parse_shape_spec(spec))
    arclength_functional(f)
    surface_of_revolution(f)
    assert len(samples) == 2 and max(samples) <= 100


def test_profiles_without_monotone_pieces_are_still_scanned(monkeypatch):
    import taximeasure.measures as measures

    scans = []

    def counting_scan(g, *args):
        scans.append(g)
        return detect_sign_changes(g, *args)

    monkeypatch.setattr(measures, "detect_sign_changes", counting_scan)
    f = profile_taxicab_circle_upper(1.0)
    plain = ProfileFunction(f.evaluate, f.derivative, f.domain, f.breakpoints)
    for measure in (arclength_functional, surface_of_revolution):
        assert measure(plain) == measure(f)
    assert arclength_variation(graph(plain)) == arclength_variation(graph(f)) == 4.0
    assert scans.count(f.derivative) == 3
