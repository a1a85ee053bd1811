import math
import pathlib

import pytest
from hypothesis import given, strategies as st

from taximeasure import (
    PI_T,
    AngleRad,
    CircleSpec,
    CylinderSpec,
    DomainError,
    EllipsoidSpec,
    Interval,
    ParaboloidSpec,
    Point2,
    Point3,
    RotationAngles,
    SphereSpec,
    euclidean_dist_2d,
    euclidean_dist_3d,
    segment_angle,
    taxicab_dist_1d,
    taxicab_dist_2d,
    taxicab_dist_3d,
    taxicab_length_from_angle,
)
from taximeasure.geometry import take_params

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def test_pi_t_is_exactly_four():
    assert PI_T == 4.0
    assert isinstance(PI_T, float)


@pytest.mark.parametrize("a,b,expected", [(0.0, 5.0, 5.0), (3.0, 3.0, 0.0), (-2.0, 1.5, 3.5)])
def test_dist_1d(a, b, expected):
    assert taxicab_dist_1d(a, b) == expected
    assert taxicab_dist_1d(b, a) == expected


@pytest.mark.parametrize("p,q,expected", [
    ((0, 0), (3, 4), 7.0),
    ((1, 2), (1, 9), 7.0),   # axis-parallel: equals the Euclidean distance
    ((0, 0), (1, 1), 2.0),
])
def test_dist_2d(p, q, expected):
    assert taxicab_dist_2d(Point2(*p), Point2(*q)) == expected


@pytest.mark.parametrize("p,q,expected", [
    ((0, 0, 0), (1, 2, 3), 6.0),
    ((1, 1, 1), (1, 1, 1), 0.0),
    ((0, 0, 0), (0, 0, -4), 4.0),
])
def test_dist_3d(p, q, expected):
    assert taxicab_dist_3d(Point3(*p), Point3(*q)) == expected


def test_non_finite_inputs_rejected():
    with pytest.raises(DomainError):
        taxicab_dist_1d(float("nan"), 0.0)
    with pytest.raises(DomainError):
        taxicab_dist_1d(0.0, float("inf"))
    with pytest.raises(DomainError):
        Point2(float("inf"), 0.0)
    with pytest.raises(DomainError):
        Point3(0.0, float("nan"), 0.0)


def test_length_from_angle_axis_parallel():
    assert taxicab_length_from_angle(5.0, AngleRad(0.0)) == 5.0


def test_length_from_angle_diagonal():
    # a Euclidean sqrt(2) diagonal has taxicab length 2
    assert taxicab_length_from_angle(math.sqrt(2.0), AngleRad(math.pi / 4)) == pytest.approx(2.0, abs=1e-12)


def test_length_from_angle_sixty_degrees():
    got = taxicab_length_from_angle(1.0, AngleRad(math.pi / 3))
    assert got == pytest.approx(0.5 + math.sqrt(3.0) / 2.0, abs=1e-12)
    # same segment measured coordinate-wise
    q = Point2(math.cos(math.pi / 3), math.sin(math.pi / 3))
    assert got == pytest.approx(taxicab_dist_2d(Point2(0.0, 0.0), q), abs=1e-12)


def test_length_from_angle_accepts_raw_float_angle():
    assert taxicab_length_from_angle(5.0, 0.0) == 5.0


def test_length_from_angle_rejects_negative_length():
    with pytest.raises(DomainError):
        taxicab_length_from_angle(-1.0, AngleRad(0.0))


def test_angle_normalization():
    assert AngleRad(2.0 * math.pi).value == 0.0
    assert AngleRad(-math.pi / 2).value == pytest.approx(1.5 * math.pi, abs=1e-15)
    assert AngleRad(5.0 * math.pi).value == pytest.approx(math.pi, abs=1e-12)
    assert 0.0 <= AngleRad(-1e-18).value < 2.0 * math.pi
    with pytest.raises(DomainError):
        AngleRad(float("inf"))


def test_interval_validation():
    iv = Interval(-1.0, 3.0)
    assert iv.width == 4.0
    assert 0.0 in iv and -1.0 in iv and 3.0 in iv and 3.5 not in iv
    assert iv.covers(Interval(0.0, 1.0))
    assert not iv.covers(Interval(0.0, 4.0))
    with pytest.raises(DomainError):
        Interval(1.0, 0.0)
    with pytest.raises(DomainError):
        Interval(0.0, float("nan"))


@pytest.mark.parametrize("record, field, bad", [
    (Point2(0.0, 1.0), "x", math.inf),
    (Point3(0.0, 1.0, 2.0), "z", math.nan),
    (Interval(0.0, 1.0), "lo", 5.0),
    (AngleRad(1.0), "value", math.inf),
    (RotationAngles(0.1, 0.2), "alpha", math.nan),
    (CircleSpec(1.0), "r", 0.0),
    (SphereSpec(1.0), "r", -1.0),
    (CylinderSpec(1.0, 2.0), "h", 0.0),
    (ParaboloidSpec(1.0, 2.0), "h", 0.5),
    (EllipsoidSpec(2.0, 1.0, 5.0), "s", 7.0),
], ids=lambda v: type(v).__name__ if isinstance(v, tuple) else None)
def test_make_and_replace_check_like_the_constructor(record, field, bad):
    cls = type(record)
    assert cls._make(record) == record
    values = record._asdict()
    values[field] = bad
    with pytest.raises(DomainError):
        cls._make(values.values())
    with pytest.raises(DomainError):
        record._replace(**{field: bad})


def test_make_and_replace_normalise_an_angle():
    assert AngleRad._make([-math.pi / 2]) == AngleRad(-math.pi / 2)
    assert AngleRad(0.0)._replace(value=5.0 * math.pi) == AngleRad(5.0 * math.pi)
    assert 0.0 <= AngleRad(0.0)._replace(value=-1e-18).value < 2.0 * math.pi


def test_an_integer_too_large_for_a_float_is_a_domain_error_naming_it():
    assert take_params("shape 'sphere'", {"r": 10 ** 300}, ("r",)) == [1e300]
    with pytest.raises(DomainError, match="shape 'sphere': parameter 'r'"):
        take_params("shape 'sphere'", {"r": 10 ** 400}, ("r",))


def test_segment_angle():
    assert segment_angle(Point2(0, 0), Point2(1, 1)).value == pytest.approx(math.pi / 4)
    with pytest.raises(DomainError):
        segment_angle(Point2(1, 1), Point2(1, 1))


@given(finite, finite, finite, finite)
def test_dist_2d_matches_angle_form(x1, y1, x2, y2):
    p, q = Point2(x1, y1), Point2(x2, y2)
    if p == q:
        return
    d_e = euclidean_dist_2d(p, q)
    via_angle = taxicab_length_from_angle(d_e, segment_angle(p, q))
    assert abs(taxicab_dist_2d(p, q) - via_angle) <= 1e-12 * max(1.0, d_e)


@given(finite, finite, finite, finite, finite, finite)
def test_triangle_inequality_2d(x1, y1, x2, y2, x3, y3):
    p, q, r = Point2(x1, y1), Point2(x2, y2), Point2(x3, y3)
    slack = 1e-9 * (1.0 + taxicab_dist_2d(p, q) + taxicab_dist_2d(q, r))
    assert taxicab_dist_2d(p, r) <= taxicab_dist_2d(p, q) + taxicab_dist_2d(q, r) + slack


@given(*(finite,) * 9)
def test_triangle_inequality_3d(x1, y1, z1, x2, y2, z2, x3, y3, z3):
    p, q, r = Point3(x1, y1, z1), Point3(x2, y2, z2), Point3(x3, y3, z3)
    slack = 1e-9 * (1.0 + taxicab_dist_3d(p, q) + taxicab_dist_3d(q, r))
    assert taxicab_dist_3d(p, r) <= taxicab_dist_3d(p, q) + taxicab_dist_3d(q, r) + slack


@given(finite, finite, finite)
def test_triangle_inequality_1d(a, b, c):
    assert taxicab_dist_1d(a, c) <= taxicab_dist_1d(a, b) + taxicab_dist_1d(b, c) + 1e-9


@given(finite, finite, finite, finite)
def test_ratio_to_euclidean_in_unit_sqrt2_band(x1, y1, x2, y2):
    p, q = Point2(x1, y1), Point2(x2, y2)
    d_e = euclidean_dist_2d(p, q)
    if d_e == 0.0:
        return
    ratio = taxicab_dist_2d(p, q) / d_e
    assert 1.0 - 1e-12 <= ratio <= math.sqrt(2.0) + 1e-12


@given(finite, finite, finite, finite,
       st.floats(min_value=-1e5, max_value=1e5, allow_nan=False),
       st.floats(min_value=-1e5, max_value=1e5, allow_nan=False))
def test_translation_invariance(x1, y1, x2, y2, tx, ty):
    p, q = Point2(x1, y1), Point2(x2, y2)
    pt, qt = Point2(x1 + tx, y1 + ty), Point2(x2 + tx, y2 + ty)
    scale = max(1.0, abs(tx), abs(ty), taxicab_dist_2d(p, q))
    assert abs(taxicab_dist_2d(p, q) - taxicab_dist_2d(pt, qt)) <= 1e-9 * scale


@given(st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
       st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
def test_length_from_angle_band(d_e, theta):
    got = taxicab_length_from_angle(d_e, AngleRad(theta))
    assert d_e * (1.0 - 1e-12) <= got <= d_e * (math.sqrt(2.0) + 1e-12)


def test_euclidean_3d_helper():
    assert euclidean_dist_3d(Point3(0, 0, 0), Point3(1, 2, 2)) == pytest.approx(3.0)


def test_no_union1d_in_the_sources():
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    hits = [p.name for p in src.rglob("*.py") if "np.union1d" in p.read_text()]
    assert hits == []
