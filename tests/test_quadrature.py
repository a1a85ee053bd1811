import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from taximeasure import ConvergenceError, DomainError, Interval, IntegrandError
from taximeasure.quadrature import (
    QuadratureResult,
    detect_sign_changes,
    integrate,
)

coeff = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


def test_kinked_integrand_with_declared_split():
    res = integrate(lambda x: 1.0 + np.abs(2.0 * x - 1.0), Interval(0.0, 1.0),
                    mandatory_splits=(0.5,))
    assert res.value == pytest.approx(1.5, abs=1e-12)
    assert res.split_points == (0.5,)


def test_constant_absolute_slope_integrand():
    res = integrate(lambda x: 1.0 + abs(-1.0), Interval(0.0, 1.0))
    assert res.value == pytest.approx(2.0, abs=1e-12)


def test_quarter_circle_integrand_with_endpoint_singularity():
    # 1 + x/sqrt(1-x^2) integrates to 2 although f' blows up at x = 1
    g = lambda x: 1.0 + x / np.sqrt(np.maximum(1.0 - x * x, 5e-324))
    res = integrate(g, Interval(0.0, 1.0))
    assert res.value == pytest.approx(2.0, abs=1e-9)
    assert res.error_estimate >= 0.0


def test_integrate_never_samples_domain_endpoints():
    seen = []

    def g(x):
        seen.append(x)
        return 1.0

    integrate(g, Interval(0.0, 1.0))
    assert seen
    xs = np.concatenate(seen)
    assert np.all((0.0 < xs) & (xs < 1.0))


def test_integrate_zero_width_domain():
    res = integrate(lambda x: 100.0, Interval(2.0, 2.0))
    assert res.value == 0.0 and res.error_estimate == 0.0


def test_integrate_reports_nonfinite_sample():
    def g(x):
        return np.where(x > 0.5, np.nan, 1.0)

    with pytest.raises(IntegrandError) as ei:
        integrate(g, Interval(0.0, 1.0))
    assert 0.5 < ei.value.abscissa < 1.0


def test_integrate_reports_nonconvergence_with_best_estimate():
    # the harmonic blow-up at 1 is not integrable
    with pytest.raises(ConvergenceError) as ei:
        integrate(lambda x: 1.0 / (1.0 - x), Interval(0.0, 1.0))
    assert math.isfinite(ei.value.value)
    assert ei.value.error_estimate > 0.0


def test_integrable_power_singularities():
    res = integrate(lambda x: 1.0 / np.sqrt(x), Interval(0.0, 1.0))
    assert res.value == pytest.approx(2.0, abs=1e-9)
    res = integrate(lambda x: -np.log(x), Interval(0.0, 1.0))
    assert res.value == pytest.approx(1.0, abs=1e-9)
    res = integrate(lambda x: (1.0 - x) ** -0.3, Interval(0.0, 1.0))
    assert res.value == pytest.approx(1.0 / 0.7, abs=1e-9)



@pytest.mark.parametrize("e", np.linspace(0.7, 1.3, 13).tolist())
def test_endpoint_singularity_is_resolved_to_rounding(e):
    # x = e - u^2 is rounded to a multiple of ulp(e); the Jacobian is taken at
    # the rounded abscissa, so the 1/sqrt(e - x) singularity costs no digits
    res = integrate(lambda x: 1.0 / np.sqrt(e - x), Interval(0.0, e))
    assert res.value == pytest.approx(2.0 * math.sqrt(e), rel=1e-15, abs=0.0)


def test_zero_and_cancelling_integrals_stop():
    # The tolerance is relative to the integral of |g|: it is 0 only when
    # every sample is, and then so is the error.
    res = integrate(lambda x: np.zeros_like(x), Interval(0.0, 1.0))
    assert res.value == 0.0 and res.error_estimate == 0.0
    res = integrate(np.sin, Interval(0.0, 2.0 * math.pi))
    assert abs(res.value) <= 1e-12


def test_mandatory_splits_validation():
    with pytest.raises(DomainError):
        integrate(lambda x: x, Interval(0.0, 1.0), mandatory_splits=(2.0,))
    # splits on (or a hair inside) the endpoints are dropped, not errors
    res = integrate(lambda x: x, Interval(0.0, 1.0), mandatory_splits=(0.0, 1.0))
    assert res.value == pytest.approx(0.5, abs=1e-12)
    assert res.split_points == ()


def test_result_shape():
    res = integrate(lambda x: x * x, Interval(0.0, 2.0), mandatory_splits=(1.0,))
    assert isinstance(res, QuadratureResult)
    assert res.value == pytest.approx(8.0 / 3.0, abs=1e-12)
    assert res.subdivisions >= 0
    assert res.split_points == (1.0,)


@pytest.mark.parametrize("coeffs,splits", [
    ((3.0, -2.0, 1.0, -7.0), ()),
    ((0.25, 0.0, -1.0, 2.0), (1.5,)),
    ((-1.0, 4.0, 0.0, 0.0), (1.25, 1.75)),
])
def test_cubics_are_integrated_exactly(coeffs, splits):
    c3, c2, c1, c0 = coeffs
    g = lambda x: ((c3 * x + c2) * x + c1) * x + c0
    exact = (c3 / 4.0 * (2.0 ** 4 - 1.0) + c2 / 3.0 * (2.0 ** 3 - 1.0)
             + c1 / 2.0 * (2.0 ** 2 - 1.0) + c0 * 1.0)
    res = integrate(g, Interval(1.0, 2.0), mandatory_splits=splits)
    assert abs(res.value - exact) <= 1e-12 * max(1.0, abs(exact))


def test_piecewise_cubic_with_declared_split_is_exact():
    def g(x):
        return np.where(x < 0.5, x ** 3, (x - 0.5) ** 2 + 0.125)

    exact = 0.5 ** 4 / 4.0 + (0.5 ** 3 / 3.0 + 0.125 * 0.5)
    res = integrate(g, Interval(0.0, 1.0), mandatory_splits=(0.5,))
    assert abs(res.value - exact) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(coeff, coeff, coeff, coeff, coeff, coeff)
def test_linearity_on_polynomial_pairs(a3, a1, b2, b0, ca, cb):
    g = lambda x: a3 * x ** 3 + a1 * x
    h = lambda x: b2 * x ** 2 + b0
    dom = Interval(-1.0, 2.0)
    combined = integrate(lambda x: ca * g(x) + cb * h(x), dom).value
    separate = ca * integrate(g, dom).value + cb * integrate(h, dom).value
    scale = max(1.0, abs(combined), abs(separate))
    assert abs(combined - separate) <= 10.0 * 1e-10 * scale


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.05, max_value=0.95, allow_nan=False))
def test_interval_additivity_at_arbitrary_cut(frac):
    g = lambda x: np.sin(3.0 * x) + 2.0
    dom = Interval(0.0, 2.0)
    whole = integrate(g, dom).value
    m = dom.lo + frac * dom.width
    parts = integrate(g, Interval(dom.lo, m)).value + integrate(g, Interval(m, dom.hi)).value
    assert abs(whole - parts) <= 10.0 * 1e-10


def test_detect_sign_changes_single_root():
    roots = detect_sign_changes(lambda x: 2.0 * x - 1.0, Interval(0.0, 1.0))
    assert len(roots) == 1
    assert roots[0] == pytest.approx(0.5, abs=1e-10)


def test_detect_sign_changes_none():
    assert detect_sign_changes(lambda x: 1.0, Interval(0.0, 1.0)) == []
    # one-signed derivative of the parabola profile
    assert detect_sign_changes(lambda x: -2.0 * x, Interval(0.0, 1.0)) == []


def test_detect_sign_changes_multiple_roots():
    roots = detect_sign_changes(lambda x: np.sin(3.0 * x), Interval(0.1, 3.0))
    assert len(roots) == 2
    assert roots[0] == pytest.approx(math.pi / 3.0, abs=1e-10)
    assert roots[1] == pytest.approx(2.0 * math.pi / 3.0, abs=1e-10)


def test_detect_sign_changes_step_function():
    roots = detect_sign_changes(lambda x: np.where(x < 0.25, -1.0, 1.0), Interval(-1.0, 1.0))
    assert len(roots) == 1
    assert roots[0] == pytest.approx(0.25, abs=1e-10)


def test_detect_sign_changes_never_samples_endpoints():
    def g(x):
        assert np.all((0.0 < x) & (x < 1.0))
        return x - 0.3

    roots = detect_sign_changes(g, Interval(0.0, 1.0))
    assert roots[0] == pytest.approx(0.3, abs=1e-10)


def test_detect_sign_changes_scans_the_end_half_cells():
    # both roots lie between a domain end and the nearest midpoint-grid point
    roots = detect_sign_changes(lambda x: (x - 0.001) * (x - 0.999), Interval(0.0, 1.0))
    assert roots == pytest.approx([0.001, 0.999], abs=1e-12)


def test_detect_sign_changes_rejects_nan():
    with pytest.raises(IntegrandError):
        detect_sign_changes(lambda x: float("nan"), Interval(0.0, 1.0))


def _counted(g):
    calls = []

    def wrapped(x):
        calls.append(np.size(x))
        return g(x)

    return wrapped, calls


def test_detect_sign_changes_does_not_bisect_towards_a_known_point():
    g, calls = _counted(lambda x: np.where(x < 0.3, 1.0, -1.0))
    assert detect_sign_changes(g, Interval(0.0, 1.0), known=[0.3]) == []
    assert len(calls) == 1


def test_detect_sign_changes_finds_a_root_beside_a_known_point():
    # g keeps its sign across the known kink at 0.3 and changes it 1e-4
    # further on, inside the same scan cell.
    def g(x):
        return np.where(x < 0.3, 1.0, 0.3001 - x)

    assert detect_sign_changes(g, Interval(0.0, 1.0), known=[0.3]) == pytest.approx(
        [0.3001], abs=1e-12)


def test_detect_sign_changes_stops_at_the_float_spacing():
    # 1e-13 of this width is below the spacing of floats near 1e6, so the
    # bisection must stop at adjacent floats instead.
    lo, root = 1e6, 1e6 + 4e-7
    roots = detect_sign_changes(lambda x: x - root, Interval(lo, lo + 1e-6), known=[lo + 5e-7])
    assert roots == pytest.approx([root], abs=2.0 * math.ulp(lo))


def test_detect_sign_changes_refines_every_bracket_on_its_own_grid():
    # One scan call, then each round cuts every bracket into 258 cells: five
    # rounds take the 257-point grid step below 1e-13 of the width, where
    # halving it took 36.
    g, calls = _counted(lambda x: np.sin(5.0 * x))
    dom = Interval(0.1, 3.0)
    roots = detect_sign_changes(g, dom)
    assert len(calls) <= 7
    assert len(roots) == 4
    for k, root in enumerate(roots, start=1):
        assert abs(root - k * math.pi / 5.0) <= 1e-13 * dom.width


def test_detect_sign_changes_returns_an_exact_zero_of_the_scan_once():
    # The midpoint grid of [-1, 1] holds 0.0 itself.
    assert detect_sign_changes(lambda x: x, Interval(-1.0, 1.0)) == [0.0]


def test_detect_sign_changes_closes_a_bracket_on_an_exact_zero_inside_it():
    # g is exactly 0 on a band 2e-9 wide that no scan point hits; the first
    # refining point to land in it ends the refinement there.
    def g(x):
        return np.where(np.abs(x - 0.3) <= 1e-9, 0.0, x - 0.3)

    roots = detect_sign_changes(g, Interval(0.0, 1.0))
    assert len(roots) == 1
    assert g(np.array(roots))[0] == 0.0


def test_budget_exhaustion_is_a_convergence_error():
    # 1e5/pi undeclared jumps: bisecting towards each of them takes more
    # samples than the budget allows.
    with pytest.raises(ConvergenceError, match="evaluation budget"):
        integrate(lambda x: np.sign(np.sin(1e5 * x)), Interval(0.0, 1.0))


# ---------------------------------------------------------------------------
# array contract
# ---------------------------------------------------------------------------

def test_integrand_receives_one_dimensional_arrays():
    def g(x):
        assert isinstance(x, np.ndarray) and np.ndim(x) == 1
        return np.cos(x)

    assert integrate(g, Interval(0.0, 2.0)).value == pytest.approx(math.sin(2.0), abs=1e-12)


def test_smooth_integrand_is_called_once_per_round():
    calls, points = [0], [0]

    def g(x):
        calls[0] += 1
        points[0] += np.size(x)
        return np.exp(np.sin(3.0 * x))

    integrate(g, Interval(0.0, 3.0))
    assert calls[0] <= 8
    assert points[0] >= 30 * calls[0]
