import math

import numpy as np
import pytest

import taximeasure.oracles as kernels
from taximeasure import RotationAngles, area_scaling_factor


def test_polyline_sum_telescopes_on_monotone_data():
    rng = np.random.default_rng(7)
    xs = np.sort(rng.uniform(0.0, 5.0, 100_001))
    xs[0], xs[-1] = 0.0, 5.0
    fx = np.sort(rng.uniform(-1.0, 4.0, 100_001))
    expected = (xs[-1] - xs[0]) + (fx[-1] - fx[0])
    got = kernels.polyline_sum(xs, fx)
    assert got == pytest.approx(expected, abs=1e-12)


def test_frustum_sum_constant_profile():
    xs = np.linspace(0.0, 2.0, 6)
    fx = np.full(6, 1.0)
    assert kernels.frustum_sum(xs, fx) == pytest.approx(16.0, abs=1e-13)


def test_frustum_sum_gives_a_cell_whose_squares_underflow_its_own_term():
    # The squares of [0, 1e-200] underflow to 0, so a term built from them
    # is 0/0 beside a unit cell.  The kernel squares only the slope, 0 here,
    # and the cell alone is f = 1 over dx = 1e-200.
    xs, fx = np.array([0.0, 1e-200, 1.0]), np.array([1.0, 1.0, 2.0])
    tiny = kernels.frustum_sum(xs[:2], fx[:2])
    assert tiny == 8e-200
    assert kernels.frustum_sum(xs, fx) == tiny + kernels.frustum_sum(xs[1:], fx[1:])


def test_frustum_sum_of_a_cell_whose_slope_overflows():
    # |df|/dx = 1/1e-320 overflows to inf, and the radical is its limit
    # sqrt(1/2): the term is 4 (f0 + f1)(dx + |df|) sqrt(1/2).
    xs, fx = np.array([0.0, 1e-320]), np.array([1.0, 2.0])
    assert kernels.frustum_sum(xs, fx) == 12.0 * (1.0 + 1e-320) * math.sqrt(0.5)


def test_disk_sum_constant_profile():
    xs = np.linspace(0.0, 2.0, 6)
    fm = np.full(5, 1.0)
    assert kernels.disk_sum(xs, fm) == pytest.approx(4.0, abs=1e-13)


def test_frustum_term_is_four_tilted_trapezoids():
    # A frustum cell is four planar faces.  Each is a Euclidean trapezoid of
    # area (sqrt(2)/2)(f0 + f1) sqrt(dx^2 + df^2/2), on a plane tilted by
    # atan(df/dx) against the axis and by pi/4 around it, so its taxicab area
    # is that times area_scaling_factor.
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(1000):
        x0 = rng.uniform(-5.0, 5.0)
        xs = np.array([x0, x0 + rng.uniform(1e-3, 2.0)])
        f0, f1 = rng.uniform(0.0, 3.0, 2)
        got = kernels.frustum_sum(xs, np.array([f0, f1]))
        dx, df = xs[1] - xs[0], f1 - f0
        face = math.sqrt(2.0) / 2.0 * (f0 + f1) * math.sqrt(dx * dx + df * df / 2.0)
        tilt = RotationAngles(math.atan(df / dx), math.pi / 4.0)
        want = 4.0 * face * area_scaling_factor(tilt)
        worst = max(worst, abs(got - want) / want)
    assert worst <= 4e-15, worst
