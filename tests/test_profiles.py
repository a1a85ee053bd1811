import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from taximeasure import (
    DomainError,
    Interval,
    SpecError,
    arclength_functional,
    arclength_variation,
    profiles,
    surface_of_revolution,
    volume_of_revolution,
)
from taximeasure.geometry import CATALOG_PARAMS
from taximeasure.oracles import frustum_surface_oracle
from taximeasure.profiles import (
    ParametricCurve,
    ProfileFunction,
    graph,
    parse_profile_spec,
    profile_euclidean_circle_quadrant,
    profile_euclidean_parabola_quadrant,
    profile_linear,
    profile_piecewise_linear,
    profile_taxicab_circle_upper,
    profile_taxicab_ellipse_upper,
    profile_taxicab_parabola,
    restrict,
    sorted_insert,
)

# Each catalog profile as a builder of its copy under x, f -> s*x, s*f: every
# length parameter is scaled by s, the slope of the linear one is kept.
CATALOG_AT_SCALE = [
    lambda s: profile_linear(-1.0, s, Interval(0.0, s)),
    lambda s: profile_euclidean_circle_quadrant(s),
    lambda s: profile_euclidean_circle_quadrant(2.5 * s),
    lambda s: profile_euclidean_parabola_quadrant(s),
    lambda s: profile_taxicab_circle_upper(s),
    lambda s: profile_taxicab_parabola(s, 3.0 * s),
    lambda s: profile_taxicab_ellipse_upper(s, s, 2.0 * s),
    lambda s: profile_taxicab_ellipse_upper(2.0 * s, s, 4.0 * s),
    lambda s: profile_taxicab_ellipse_upper(2.0 * s, 1.5 * s, 5.0 * s),
]
ALL_CATALOG = [build(1.0) for build in CATALOG_AT_SCALE]


def test_linear_profile():
    f = profile_linear(-1.0, 1.0, Interval(0.0, 1.0))
    assert f(0.5) == 0.5
    assert f.breakpoints == ()
    const = profile_linear(0.0, 2.0, Interval(0.0, 3.0))
    assert const.derivative(1.0) == 0.0


def test_euclidean_circle_quadrant():
    f = profile_euclidean_circle_quadrant(1.0)
    assert f(0.0) == 1.0
    assert f(0.6) == pytest.approx(0.8, abs=1e-15)
    assert f.domain == Interval(0.0, 1.0)
    g = profile_euclidean_circle_quadrant(2.0)
    assert g.derivative(1.0) == pytest.approx(-1.0 / math.sqrt(3.0), abs=1e-12)
    with pytest.raises(DomainError):
        profile_euclidean_circle_quadrant(0.0)
    with pytest.raises(DomainError):
        profile_euclidean_circle_quadrant(-1.0)


def test_euclidean_parabola_quadrant():
    f = profile_euclidean_parabola_quadrant(2.0)
    assert f(0.0) == 2.0
    assert f(2.0) == 0.0
    assert f.derivative(1.0) == -1.0
    with pytest.raises(DomainError):
        profile_euclidean_parabola_quadrant(0.0)


def test_taxicab_circle_upper():
    f = profile_taxicab_circle_upper(1.0)
    assert f(0.0) == 1.0
    assert f(-0.25) == 0.75
    assert f(1.0) == 0.0 and f(-1.0) == 0.0
    assert profile_taxicab_circle_upper(2.0).breakpoints == (0.0,)
    assert f.derivative(-0.5) == 1.0 and f.derivative(0.5) == -1.0
    with pytest.raises(DomainError):
        profile_taxicab_circle_upper(0.0)


def test_taxicab_parabola():
    f = profile_taxicab_parabola(1.0, 3.0)
    assert f(0.5) == 0.5
    assert f(2.0) == 1.0
    assert f.breakpoints == (1.0,)
    assert f.derivative(0.5) == 1.0 and f.derivative(2.0) == 0.0
    # h == a leaves no interior breakpoint
    assert profile_taxicab_parabola(1.0, 1.0).breakpoints == ()
    with pytest.raises(DomainError):
        profile_taxicab_parabola(0.0, 1.0)
    with pytest.raises(DomainError):
        profile_taxicab_parabola(2.0, 1.0)


def test_taxicab_ellipse_circle_case():
    f = profile_taxicab_ellipse_upper(1.0, 1.0, 2.0)
    assert f(0.0) == 1.0
    assert f.breakpoints == (0.0,)
    circle = profile_taxicab_circle_upper(1.0)
    xs = np.linspace(-1.0, 1.0, 1000)
    assert np.array_equal(np.asarray(f(xs)), np.asarray(circle(xs)))


def test_taxicab_ellipse_hexagon_case():
    f = profile_taxicab_ellipse_upper(2.0, 1.0, 4.0)
    assert f(0.0) == 1.0
    assert f(1.5) == 0.5
    assert f.breakpoints == (-1.0, 1.0)
    assert f(-2.0) == 0.0 and f(2.0) == 0.0


def test_taxicab_ellipse_octagon_case():
    f = profile_taxicab_ellipse_upper(2.0, 1.5, 5.0)
    assert f(-2.0) == 0.5 and f(2.0) == 0.5  # end caps of radius s/2 - a
    assert f.breakpoints == (-1.0, 1.0)
    assert f(0.0) == 1.5


@pytest.mark.parametrize("a,b,s,frag", [
    (0.5, 1.0, 2.0, "a >= b"),
    (1.0, 0.0, 2.0, "b > 0"),
    (1.0, 1.0, 1.5, "s >= 2a"),
    (1.0, 1.0, 4.5, "s <= 2(a + b)"),
])
def test_ellipse_validation_names_the_inequality(a, b, s, frag):
    with pytest.raises(DomainError) as ei:
        profile_taxicab_ellipse_upper(a, b, s)
    assert frag in str(ei.value)


@pytest.mark.parametrize("prof", ALL_CATALOG, ids=lambda p: p.label)
def test_catalog_continuity_and_nonnegativity(prof):
    lo, hi = prof.domain.lo, prof.domain.hi
    xs = np.linspace(lo, hi, 1001)
    vals = np.asarray(prof(xs), dtype=float)
    assert np.all(vals >= -1e-12)
    # value agrees across each breakpoint from both sides
    for b in prof.breakpoints:
        h = 1e-13 * (hi - lo)
        assert abs(float(prof(b - h)) - float(prof(b + h))) <= 1e-12


# A measure reads f' only through |f'|, f'^2 and the points where f' changes
# sign.  The variation of the graph and the frustum oracle read f alone, so
# their agreement with the measures that read f' checks the declared
# derivative over the whole domain.

@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("build", CATALOG_AT_SCALE, ids=[p.label for p in ALL_CATALOG])
def test_catalog_derivative_agrees_with_the_measures_of_f_alone(build, scale):
    prof = build(scale)
    assert arclength_functional(prof) == pytest.approx(
        arclength_variation(graph(prof)), rel=1e-12, abs=0.0)
    assert surface_of_revolution(prof) == pytest.approx(
        frustum_surface_oracle(prof, n=10**5), rel=1e-8, abs=0.0)


SINE = ProfileFunction(lambda x: np.sin(x) + 1.5, np.cos, Interval(0.0, 20.0), label="sin")
ELLIPSE = profile_taxicab_ellipse_upper(2.0, 1.0, 4.0)


def _measured(prof):
    return (arclength_functional(prof), surface_of_revolution(prof),
            volume_of_revolution(prof), arclength_variation(graph(prof)))


@pytest.mark.parametrize("prof", [SINE, ELLIPSE], ids=lambda p: p.label)
def test_a_negated_derivative_changes_no_measure(prof):
    # |-f'| = |f'|, (-f')^2 = f'^2, and -f' changes sign where f' does.
    negated = replace(prof, derivative=lambda x: -prof.derivative(x))
    assert _measured(negated) == _measured(prof)


@pytest.mark.parametrize("prof,wrong", [
    (SINE, lambda x: 2.0 * np.cos(x)),
    # Wrong on (5, 6) only: the measures still see it.
    (SINE, lambda x: np.where((5.0 < x) & (x < 6.0), 3.0, 1.0) * np.cos(x)),
    (ELLIPSE, lambda x: 2.0 * ELLIPSE.derivative(x)),
], ids=["sin_doubled", "sin_tripled_on_5_6", "ellipse_doubled"])
def test_a_wrong_derivative_pulls_the_measures_apart(prof, wrong):
    bad = replace(prof, derivative=wrong)
    length, variation = arclength_functional(bad), arclength_variation(graph(bad))
    assert abs(length - variation) > 1e-3 * variation
    surface, oracle = surface_of_revolution(bad), frustum_surface_oracle(bad, n=10**5)
    assert abs(surface - oracle) > 1e-3 * oracle


def _keeps_its_claim(prof):
    """On a dense grid inside each piece between the domain ends and the
    breakpoints, f' keeps one sign or is 0, and f is monotone."""
    ends = [prof.domain.lo, *prof.breakpoints, prof.domain.hi]
    for a, b in zip(ends, ends[1:]):
        xs = np.linspace(a, b, 203)[1:-1]
        slopes = np.asarray(prof.derivative(xs), dtype=float)
        assert not (np.any(slopes > 0.0) and np.any(slopes < 0.0)), (prof.label, a, b)
        steps = np.diff(np.asarray(prof(xs), dtype=float))
        assert not (np.any(steps > 0.0) and np.any(steps < 0.0)), (prof.label, a, b)


positive = st.floats(min_value=1e-3, max_value=1e3)
finite = st.floats(min_value=-1e3, max_value=1e3)


@st.composite
def _flagged_catalog(draw):
    kind = draw(st.sampled_from(["linear", "ecq", "epq", "circle", "parabola", "ellipse"]))
    if kind == "linear":
        lo = draw(finite)
        return profile_linear(draw(finite), draw(finite), Interval(lo, lo + draw(positive)))
    if kind in ("ecq", "epq", "circle"):
        return {"ecq": profile_euclidean_circle_quadrant, "circle": profile_taxicab_circle_upper,
                "epq": profile_euclidean_parabola_quadrant}[kind](draw(positive))
    if kind == "parabola":
        a = draw(positive)
        return profile_taxicab_parabola(a, a * draw(st.floats(1.0, 10.0)))
    b = draw(positive)
    a = b * draw(st.floats(1.0, 10.0))
    return profile_taxicab_ellipse_upper(a, b, 2.0 * a + 2.0 * b * draw(st.floats(0.0, 1.0)))


@given(_flagged_catalog())
def test_catalog_profiles_are_monotone_on_their_declared_pieces(prof):
    assert prof.monotone_pieces
    _keeps_its_claim(prof)


@given(st.lists(st.tuples(st.floats(0.01, 10.0), finite), min_size=2, max_size=12))
def test_piecewise_linear_profiles_are_monotone_on_their_declared_pieces(steps):
    x, vertices = 0.0, []
    for dx, y in steps:
        x += dx
        vertices.append((x, y))
    prof = profile_piecewise_linear(tuple(vertices))
    assert prof.monotone_pieces
    _keeps_its_claim(prof)


def test_library_profiles_and_their_graphs_declare_no_monotone_pieces():
    prof = ProfileFunction(np.sin, np.cos, Interval(0.0, 10.0))
    assert not prof.monotone_pieces and not graph(prof).monotone_pieces
    assert graph(profile_taxicab_circle_upper(1.0)).monotone_pieces


def test_profile_function_breakpoint_validation():
    ev = lambda x: x
    dv = lambda x: 1.0
    with pytest.raises(DomainError):
        ProfileFunction(ev, dv, Interval(0.0, 1.0), breakpoints=(1.5,))
    with pytest.raises(DomainError):
        ProfileFunction(ev, dv, Interval(0.0, 1.0), breakpoints=(0.0,))
    with pytest.raises(DomainError):
        ProfileFunction(ev, dv, Interval(0.0, 1.0), breakpoints=(0.6, 0.4))
    with pytest.raises(DomainError):
        ProfileFunction(ev, dv, Interval(0.0, 1.0), breakpoints=(0.4, 0.4))


def test_parametric_curve_breakpoint_validation():
    circle = (np.cos, np.sin)
    speeds = (lambda t: -np.sin(t), np.cos)
    for derivatives, breakpoints in ((speeds, (2.0,)),        # outside the domain
                                     (speeds, (0.6, 0.4)),    # unordered
                                     (speeds, (0.4, 0.4)),    # duplicate
                                     (speeds[:1], ())):       # one derivative short
        with pytest.raises(DomainError):
            ParametricCurve(circle, derivatives, Interval(0.0, 1.0), breakpoints=breakpoints)


def test_restrict_keeps_the_breakpoints_inside_and_the_declarations():
    f = profile_taxicab_ellipse_upper(2.0, 1.0, 4.0)
    assert f.breakpoints == (-1.0, 1.0)
    part = restrict(f, Interval(-1.0, 2.0))
    assert part.domain == Interval(-1.0, 2.0)
    assert part.breakpoints == (1.0,)  # -1 is an end of the part, not inside it
    assert part.label == f.label and part.monotone_pieces
    assert part.evaluate is f.evaluate and part.derivative is f.derivative
    assert restrict(f, Interval(0.0, 0.0)).breakpoints == ()
    library = ProfileFunction(np.sin, np.cos, Interval(0.0, 10.0), breakpoints=(5.0,))
    assert not restrict(library, Interval(4.0, 6.0)).monotone_pieces


def test_breakpoint_array_holds_the_breakpoints_read_only():
    f = profile_taxicab_ellipse_upper(2.0, 1.0, 4.0)
    assert f.breakpoint_array.dtype == np.float64
    assert f.breakpoint_array.tolist() == list(f.breakpoints) == [-1.0, 1.0]
    with pytest.raises(ValueError):
        f.breakpoint_array[0] = 0.0
    # restrict builds it again for the part; equality and hashing leave it out.
    part = restrict(f, Interval(-1.0, 2.0))
    assert part.breakpoint_array.tolist() == [1.0]
    assert restrict(f, f.domain) == f and hash(restrict(f, f.domain)) == hash(f)
    assert restrict(f, Interval(0.0, 0.0)).breakpoint_array.size == 0


def test_restrict_takes_a_parametric_curve():
    c = ParametricCurve((np.cos, np.sin), (lambda t: -np.sin(t), np.cos), Interval(0.0, 2.0),
                        breakpoints=(0.5, 1.0, math.pi / 2), label="arc",
                        monotone_pieces=True)
    part = restrict(c, Interval(0.5, 1.25))
    assert isinstance(part, ParametricCurve)
    assert part.domain == Interval(0.5, 1.25) and part.breakpoints == (1.0,)
    assert part.coords == c.coords and part.derivatives == c.derivatives
    assert part.label == "arc" and part.monotone_pieces


@pytest.mark.parametrize("lo,hi", [(-3.0, 0.0), (0.0, 2.5), (-2.5, 2.5), (3.0, 4.0)])
def test_restrict_rejects_a_domain_the_curve_does_not_cover(lo, hi):
    f = profile_taxicab_circle_upper(2.0)
    with pytest.raises(DomainError, match="not contained"):
        restrict(f, Interval(lo, hi))
    with pytest.raises(DomainError, match="not contained"):
        restrict(graph(f), Interval(lo, hi))


def test_piecewise_linear_profile():
    f = profile_piecewise_linear(((0.0, 0.0), (1.0, 2.0), (3.0, 1.0)))
    assert f.domain == Interval(0.0, 3.0)
    assert f.breakpoints == (1.0,)
    assert f(0.5) == 1.0
    assert f(2.0) == 1.5
    assert f.derivative(0.5) == 2.0
    assert f.derivative(2.0) == -0.5
    assert "piecewise_linear" in f.label


@pytest.mark.parametrize("n", [2, 5, 5001])
def test_piecewise_linear_slope_lookup_matches_the_clipped_index(n):
    # The slope index searched among the inner vertices is the full search
    # minus 1, clipped to the slopes, wherever x lies, NaN and infinities too.
    rng = np.random.default_rng(n)
    xs = np.cumsum(rng.uniform(0.01, 1.0, n)) - 3.0
    ys = rng.uniform(-2.0, 2.0, n)
    f = profile_piecewise_linear(tuple(zip(xs.tolist(), ys.tolist())))
    slopes = np.diff(ys) / np.diff(xs)
    points = np.concatenate([xs, (xs[1:] + xs[:-1]) / 2.0,
                             [xs[0] - 1.0, xs[-1] + 1.0, -1e300, 1e300,
                              math.nan, math.inf, -math.inf]])
    clipped = slopes[np.clip(np.searchsorted(xs, points, side="right") - 1, 0, n - 2)]
    assert np.array_equal(f.derivative(points), clipped)
    for x, want in zip(points[-12:].tolist(), clipped[-12:].tolist()):
        assert f.derivative(x) == want


def test_piecewise_linear_validation():
    with pytest.raises(DomainError):
        profile_piecewise_linear(((0.0, 0.0),))
    with pytest.raises(DomainError):
        profile_piecewise_linear(((0.0, 0.0), (0.0, 1.0)))
    with pytest.raises(DomainError):
        profile_piecewise_linear(((1.0, 0.0), (0.5, 1.0)))
    with pytest.raises(DomainError):
        profile_piecewise_linear(((0.0, float("nan")), (1.0, 1.0)))


@given(st.lists(st.tuples(st.floats(min_value=-100, max_value=100, allow_nan=False),
                          st.floats(min_value=-100, max_value=100, allow_nan=False)),
                min_size=2, max_size=8))
def test_piecewise_linear_interpolates_its_vertices(points):
    xs = sorted({round(x, 6) for x, _ in points})
    if len(xs) < 2:
        return
    vertices = tuple((x, y) for x, (_, y) in zip(xs, points))
    f = profile_piecewise_linear(vertices)
    for x, y in vertices:
        assert float(f(x)) == pytest.approx(y, abs=1e-9)


def test_parse_profile_spec_catalog():
    f = parse_profile_spec({"catalog": "linear",
                            "params": {"slope": -1, "intercept": 1, "lo": 0, "hi": 1}})
    assert f(0.25) == 0.75
    f = parse_profile_spec({"catalog": "euclidean_circle_quadrant", "params": {"r": 1}})
    assert f(0.0) == 1.0
    f = parse_profile_spec({"catalog": "euclidean_parabola_quadrant", "params": {"r": 2}})
    assert f(0.0) == 2.0
    f = parse_profile_spec({"catalog": "taxicab_circle_upper", "params": {"r": 1}})
    assert f.breakpoints == (0.0,)
    f = parse_profile_spec({"catalog": "taxicab_parabola", "params": {"a": 1, "h": 3}})
    assert f(2.0) == 1.0
    f = parse_profile_spec({"catalog": "taxicab_ellipse_upper",
                            "params": {"a": 2, "b": 1.5, "s": 5}})
    assert f(2.0) == 0.5


def test_parse_profile_spec_piecewise():
    f = parse_profile_spec({"piecewise_linear": [[0, 0], [1, 2], [3, 1]]})
    assert f(0.5) == 1.0


@pytest.mark.parametrize("spec", [
    "not a dict",
    {},
    {"catalog": "no_such_profile", "params": {}},
    {"catalog": "linear", "params": {"slope": 1}},                      # missing params
    {"catalog": "taxicab_circle_upper", "params": {"r": 1, "x": 2}},    # extra param
    {"catalog": "taxicab_circle_upper", "params": {"r": True}},        # bool is not a number
    {"catalog": "taxicab_circle_upper", "params": {"r": "1"}},
    {"catalog": "linear", "params": {"slope": 1, "intercept": 0, "lo": 0, "hi": 1}, "junk": 1},
    {"piecewise_linear": [[0, 0], [1]]},
    {"piecewise_linear": "zigzag"},
    {"piecewise_linear": [[0, 0], [1, 1]], "catalog": "linear"},
])
def test_parse_profile_spec_rejects_malformed(spec):
    with pytest.raises(SpecError):
        parse_profile_spec(spec)


# Parameters of each catalog row, all distinct, so that values passed in an
# order other than the builder's give another profile or a DomainError.
CATALOG_SAMPLES = {
    "linear": {"slope": 2.0, "intercept": 0.5, "lo": -1.0, "hi": 3.0},
    "euclidean_circle_quadrant": {"r": 2.5},
    "euclidean_parabola_quadrant": {"r": 1.5},
    "taxicab_circle_upper": {"r": 0.75},
    "taxicab_parabola": {"a": 1.0, "h": 3.0},
    "taxicab_ellipse_upper": {"a": 3.0, "b": 2.0, "s": 7.0},
}


@pytest.mark.parametrize("name", list(CATALOG_PARAMS))
def test_every_catalog_row_builds_its_profile_from_its_keys(name):
    # The spec check takes the row's keys from geometry.CATALOG_PARAMS
    # without loading NumPy, and parse_profile_spec passes their values in
    # that order to the builder the row names: the builder's own parameters
    # must be those keys, in that order.
    keys, builder = CATALOG_PARAMS[name]
    params = CATALOG_SAMPLES[name]
    assert tuple(params) == keys
    f = parse_profile_spec({"catalog": name, "params": params})
    g = getattr(profiles, builder)(**params)
    assert (f.label, f.domain, f.breakpoints, f.monotone_pieces) == \
        (g.label, g.domain, g.breakpoints, g.monotone_pieces)
    xs = np.linspace(f.domain.lo, f.domain.hi, 33)
    assert np.array_equal(f(xs), g(xs))


def test_parse_profile_spec_domain_errors_pass_through():
    with pytest.raises(DomainError):
        parse_profile_spec({"catalog": "taxicab_circle_upper", "params": {"r": -1}})


def test_profiles_accept_arrays_and_scalars():
    for prof in ALL_CATALOG:
        lo, hi = prof.domain.lo, prof.domain.hi
        xs = np.linspace(lo, hi, 17)
        arr = np.asarray(prof(xs), dtype=float)
        for i, x in enumerate(xs):
            assert float(prof(float(x))) == pytest.approx(arr[i], abs=1e-15)
        darr = np.asarray(prof.derivative(xs[1:-1]), dtype=float)
        assert darr.shape == (15,)


# ---------------------------------------------------------------------------
# sorted_insert: union1d without sorting the grid
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("largest", [3000, 300_000])
def test_sorted_insert_equals_union1d(seed, largest):
    # Grids up to 3,000 points are merged by one sort, larger ones with few
    # points by insertion.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, largest))
    grid = np.sort(rng.uniform(-5.0, 5.0, n))
    grid = grid[np.concatenate(([True], np.diff(grid) > 0))]
    k = int(rng.integers(0, 40))
    # Points off the grid, on it (ends included), outside its range and
    # repeated, in no particular order.
    points = np.concatenate([rng.uniform(-6.0, 6.0, k),
                             rng.choice(grid, size=min(k, grid.size)),
                             grid[[0, -1]]])
    points = np.concatenate([points, points[: k // 2]])
    rng.shuffle(points)
    got = sorted_insert(grid, points)
    want = np.union1d(grid, points)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_sorted_insert_takes_any_sequence():
    grid = np.linspace(0.0, 1.0, 5)
    assert sorted_insert(grid, [0.6, 0.1, 0.6, 0.25]).tolist() == [
        0.0, 0.1, 0.25, 0.5, 0.6, 0.75, 1.0]
    assert sorted_insert(grid, ()).tolist() == grid.tolist()
