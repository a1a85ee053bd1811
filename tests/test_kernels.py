import numpy as np
import pytest

import taximeasure._kernels as kernels


def test_polyline_sum_telescopes_on_monotone_data():
    rng = np.random.default_rng(7)
    xs = np.sort(rng.uniform(0.0, 5.0, 100_001))
    xs[0], xs[-1] = 0.0, 5.0
    fx = np.sort(rng.uniform(-1.0, 4.0, 100_001))
    expected = (xs[-1] - xs[0]) + (fx[-1] - fx[0])
    assert kernels.polyline_sum(xs, fx) == pytest.approx(expected, abs=1e-12)


def test_frustum_sum_constant_profile():
    xs = np.linspace(0.0, 2.0, 6)
    fx = np.full(6, 1.0)
    assert kernels.frustum_sum(xs, fx) == pytest.approx(16.0, abs=1e-13)


def test_disk_sum_constant_profile():
    xs = np.linspace(0.0, 2.0, 6)
    fm = np.full(5, 1.0)
    assert kernels.disk_sum(xs, fm) == pytest.approx(4.0, abs=1e-13)
