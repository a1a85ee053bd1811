"""integrate pinned bit for bit.

Each case records float.hex of value and error_estimate, subdivisions,
split_points, and the calls and points an instrumented integrand saw, as
integrate returned them at commit 8660a58; the error cases record the exact
message of what integrate raised.  A change to the quadrature's bookkeeping
that leaves its arithmetic alone keeps every one of them.
"""

import numpy as np
import pytest

from taximeasure import ConvergenceError, Interval, IntegrandError, profile_piecewise_linear
from taximeasure.geometry import PI_T
from taximeasure.profiles import profile_euclidean_circle_quadrant
from taximeasure.quadrature import detect_sign_changes, integrate


def _quadrant_arclength(r):
    f = profile_euclidean_circle_quadrant(r)
    return lambda x: 1.0 + np.abs(f.derivative(x)), f.domain, ()


def _quadrant_volume(r):
    f = profile_euclidean_circle_quadrant(r)

    def g(x):
        fx = f.evaluate(x)
        return 0.5 * PI_T * fx * fx

    return g, f.domain, ()


def _scanned_sin():
    # The surface integrand of 1.5 + sin(7x) on [0, 4], cut at the zeros of
    # its derivative that the kink scan finds.
    domain = Interval(0.0, 4.0)
    splits = detect_sign_changes(lambda x: 7.0 * np.cos(7.0 * x), domain)

    def g(x):
        d = 7.0 * np.cos(7.0 * x)
        return (2.0 * PI_T * (1.5 + np.sin(7.0 * x)) * (1.0 + np.abs(d))
                * np.sqrt(0.5 + 0.5 / (1.0 + d * d)))

    return g, domain, splits


def _tent_surface():
    # A tent whose pieces are 360 and 540 float spacings wide inside [0, 1].
    tent = profile_piecewise_linear(((0, 1), (0.5, 1), (0.50000000000004, 1.5),
                                     (0.5000000000001, 1), (1, 1)))

    def g(x):
        d = tent.derivative(x)
        return (2.0 * PI_T * tent.evaluate(x) * (1.0 + np.abs(d))
                * np.sqrt(0.5 + 0.5 / (1.0 + d * d)))

    return g, tent.domain, tent.breakpoints


CASES = {
    "one piece": lambda: (lambda x: np.exp(np.sin(3.0 * x)), Interval(0.0, 3.0), ()),
    "two pieces": lambda: (lambda x: np.where(x < 0.5, x ** 3, (x - 0.5) ** 2 + 0.125),
                           Interval(0.0, 1.0), (0.5,)),
    "39 pieces": lambda: (lambda x: 1.5 + np.sin(x - 1e6), Interval(1e6, 1e6 + 1.0),
                          np.linspace(1e6, 1e6 + 1.0, 40)[1:-1]),
    "quadrant arc length": lambda: _quadrant_arclength(1.0),
    "quadrant arc length at 1e-6": lambda: _quadrant_arclength(1e-6),
    "quadrant arc length at 1e6": lambda: _quadrant_arclength(1e6),
    "quadrant volume at 1e-6": lambda: _quadrant_volume(1e-6),
    "quadrant volume at 1e6": lambda: _quadrant_volume(1e6),
    "scanned sin surface": _scanned_sin,
}

ERROR_CASES = {
    "non-finite sample": lambda: (lambda x: np.where(x > 0.5, np.nan, 1.0),
                                  Interval(0.0, 1.0), ()),
    "tent surface rounding": _tent_surface,
    "budget": lambda: (lambda x: np.sign(np.sin(1e5 * x)), Interval(0.0, 1.0), ()),
}

# name -> (value, error_estimate, subdivisions, calls, points, split_points),
# the floats as float.hex.
EXPECTED = {
    'one piece': ('0x1.22e8841f2896bp+2', '0x1.0f9b8b4000000p-30', 5, 3, 180, ()),
    'two pieces': ('0x1.eaaaaaaaaaaabp-4', '0x1.0000000000000p-56', 0, 1, 30,
        ('0x1.0000000000000p-1',)),
    '39 pieces': ('0x1.f5aebf7fc7067p+0', '0x1.04cc508000000p-32', 0, 1, 585,
        ('0x1.e84800d20d20dp+19', '0x1.e84801a41a41ap+19', '0x1.e848027627627p+19',
         '0x1.e848034834835p+19', '0x1.e848041a41a42p+19', '0x1.e84804ec4ec4fp+19',
         '0x1.e84805be5be5cp+19', '0x1.e848069069069p+19', '0x1.e848076276276p+19',
         '0x1.e848083483483p+19', '0x1.e848090690690p+19', '0x1.e84809d89d89ep+19',
         '0x1.e8480aaaaaaabp+19', '0x1.e8480b7cb7cb8p+19', '0x1.e8480c4ec4ec5p+19',
         '0x1.e8480d20d20d2p+19', '0x1.e8480df2df2dfp+19', '0x1.e8480ec4ec4ecp+19',
         '0x1.e8480f96f96f9p+19', '0x1.e848106906907p+19', '0x1.e848113b13b14p+19',
         '0x1.e848120d20d21p+19', '0x1.e84812df2df2ep+19', '0x1.e84813b13b13bp+19',
         '0x1.e848148348348p+19', '0x1.e848155555555p+19', '0x1.e848162762762p+19',
         '0x1.e84816f96f970p+19', '0x1.e84817cb7cb7dp+19', '0x1.e848189d89d8ap+19',
         '0x1.e848196f96f97p+19', '0x1.e8481a41a41a4p+19', '0x1.e8481b13b13b1p+19',
         '0x1.e8481be5be5bep+19', '0x1.e8481cb7cb7cbp+19', '0x1.e8481d89d89d9p+19',
         '0x1.e8481e5be5be6p+19', '0x1.e8481f2df2df3p+19')),
    'quadrant arc length': ('0x1.0000000000000p+1', '0x1.40eea00000000p-36', 1, 2, 60, ()),
    'quadrant arc length at 1e-6': ('0x1.0c6f7a0b5ed8dp-19', '0x1.5083e00000000p-56', 1, 2, 60, ()),
    'quadrant arc length at 1e6': ('0x1.e848000000000p+20', '0x1.320fa00000000p-16', 1, 2, 60, ()),
    'quadrant volume at 1e-6': ('0x1.8987d17c304e4p-60', '0x1.4000000000000p-112', 0, 1, 30, ()),
    'quadrant volume at 1e6': ('0x1.280f39a348556p+60', '0x1.0000000000000p+7', 0, 1, 30, ()),
    'scanned sin surface': ('0x1.8bb41580a2512p+7', '0x1.7e52657400000p-24', 63, 5, 2040,
        ('0x1.cb91f3bbba05dp-3', '0x1.58ad76cccb8c0p-1', '0x1.1f3b3855544b4p+0',
         '0x1.921fb54442d0ap+0', '0x1.0282191998aaep+1', '0x1.3bf457910fed8p+1',
         '0x1.7566960887303p+1', '0x1.aed8d47ffe72ep+1', '0x1.e84b12f775b58p+1')),
}

# name -> (exception type, message, value, error_estimate), the floats of a
# ConvergenceError as float.hex.
EXPECTED_ERRORS = {
    'non-finite sample': (
        'IntegrandError',
        'integrand returned nan at x=0.9999908736646647',
        None, None),
    'tent surface rounding': (
        'ConvergenceError',
        'quadrature cannot reach the requested tolerance: the domain or a piece'
        ' of it is too few float spacings wide for its abscissas to be exact '
        '(best estimate 15.071204712274344, error estimate 3.240e-03)',
        '0x1.e2474f1ad142cp+3', '0x1.a8a36e88ea9f8p-9'),
    'budget': (
        'ConvergenceError',
        'quadrature exhausted its evaluation budget (500000 samples) (best '
        'estimate 0.000864366489656823, error estimate 1.305e-01)',
        '0x1.c52d4e704d018p-11', '0x1.0b2c0a03372c7p-3'),
}


def _counted(g):
    seen = [0, 0]

    def wrapped(x):
        seen[0] += 1
        seen[1] += np.size(x)
        return g(x)

    return wrapped, seen


@pytest.mark.parametrize("name", CASES)
def test_integrate_is_bit_identical(name):
    g, domain, splits = CASES[name]()
    g, seen = _counted(g)
    res = integrate(g, domain, splits)
    assert (res.value.hex(), res.error_estimate.hex(), res.subdivisions, *seen,
            tuple(s.hex() for s in res.split_points)) == EXPECTED[name]
    # evals and rounds count the points and the calls the integrand saw.
    assert (res.rounds, res.evals) == tuple(seen)


@pytest.mark.parametrize("name", ERROR_CASES)
def test_integrate_raises_bit_identically(name):
    kind, message, value, estimate = EXPECTED_ERRORS[name]
    g, domain, splits = ERROR_CASES[name]()
    with pytest.raises((IntegrandError, ConvergenceError)) as ei:
        integrate(g, domain, splits)
    assert (type(ei.value).__name__, str(ei.value)) == (kind, message)
    if kind == "ConvergenceError":
        assert (ei.value.value.hex(), ei.value.error_estimate.hex()) == (value, estimate)
