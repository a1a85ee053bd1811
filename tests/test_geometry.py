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
    RotationAngles,
    SphereSpec,
    euclidean_dist_2d,
    segment_angle,
    taxicab_length_from_angle,
)
from taximeasure.geometry import take_params

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def test_pi_t_is_exactly_four():
    assert PI_T == 4.0
    assert isinstance(PI_T, float)


def test_non_finite_inputs_rejected():
    with pytest.raises(DomainError):
        Point2(float("inf"), 0.0)
    with pytest.raises(DomainError):
        Point2(0.0, float("nan"))


def test_length_from_angle_axis_parallel():
    assert taxicab_length_from_angle(5.0, AngleRad(0.0)) == 5.0


@pytest.mark.parametrize("k", [0, 1, 2, 3, -1])
@pytest.mark.parametrize("d_e", [1.0, 3.0, 0.1, 1e300])
def test_length_from_angle_is_exact_at_right_angles(k, d_e):
    # sin(pi) is ~1.2e-16, not 0: unsnapped, |cos| + |sin| is one ulp above 1.
    assert taxicab_length_from_angle(d_e, k * math.pi / 2.0) == d_e


@pytest.mark.parametrize("dx,dy", [(1.0, 0.0), (-1.0, 0.0), (0.0, 3.0), (0.0, -3.0),
                                   (-0.1, 0.0), (0.0, -2.5e-7)])
def test_an_axis_parallel_segment_has_its_coordinate_length_exactly(dx, dy):
    p = Point2(0.25, -1.5)
    q = Point2(p.x + dx, p.y + dy)
    length = taxicab_length_from_angle(euclidean_dist_2d(p, q), segment_angle(p, q))
    assert length == abs(q.x - p.x) + abs(q.y - p.y)


def test_length_from_angle_diagonal():
    # a Euclidean sqrt(2) diagonal has taxicab length 2
    assert taxicab_length_from_angle(math.sqrt(2.0), AngleRad(math.pi / 4)) == pytest.approx(2.0, abs=1e-12)


def test_length_from_angle_sixty_degrees():
    got = taxicab_length_from_angle(1.0, AngleRad(math.pi / 3))
    assert got == pytest.approx(0.5 + math.sqrt(3.0) / 2.0, abs=1e-12)
    # same segment measured coordinate-wise
    assert got == pytest.approx(abs(math.cos(math.pi / 3)) + abs(math.sin(math.pi / 3)),
                                abs=1e-12)


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
    assert Interval(-1e308, 7e307).width == 1.7e308
    with pytest.raises(DomainError, match=r"\[-1e\+308, 1e\+308\] is wider than"):
        Interval(-1e308, 1e308)


@pytest.mark.parametrize("record, field, bad", [
    (Point2(0.0, 1.0), "x", math.inf),
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
    assert abs(abs(x2 - x1) + abs(y2 - y1) - via_angle) <= 1e-12 * max(1.0, d_e)


@given(finite, finite, finite, finite)
def test_ratio_to_euclidean_in_unit_sqrt2_band(x1, y1, x2, y2):
    p, q = Point2(x1, y1), Point2(x2, y2)
    d_e = euclidean_dist_2d(p, q)
    if d_e == 0.0:
        return
    ratio = (abs(x2 - x1) + abs(y2 - y1)) / d_e
    assert 1.0 - 1e-12 <= ratio <= math.sqrt(2.0) + 1e-12


@given(st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
       st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
def test_length_from_angle_band(d_e, theta):
    got = taxicab_length_from_angle(d_e, AngleRad(theta))
    assert d_e * (1.0 - 1e-12) <= got <= d_e * (math.sqrt(2.0) + 1e-12)


def test_no_union1d_in_the_sources():
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    hits = [p.name for p in src.rglob("*.py") if "np.union1d" in p.read_text()]
    assert hits == []
