"""Metamorphic and reference checks of the quadrature measures.

Scaling a profile by lam in both axes scales its arc length, surface and
volume by lam, lam^2 and lam^3; translating or reflecting it along the axis
changes none of them.  The family f = s (sin x + 1.5) has f' changing sign
many times and, for large s, a surface integrand far from 1; it is also
checked against mpmath where that is installed.
"""

import numpy as np
import pytest

from taximeasure import Interval, ProfileFunction
from taximeasure.measures import quadrature_measure
from taximeasure.profiles import parse_profile_spec

POWER = {"arclength": 1, "surface": 2, "volume": 3}

CATALOG = {
    "linear": {"slope": 0.5, "intercept": 1.0, "lo": 0.0, "hi": 2.0},
    "euclidean_circle_quadrant": {"r": 1.0},
    "euclidean_parabola_quadrant": {"r": 1.0},
    "taxicab_circle_upper": {"r": 1.0},
    "taxicab_parabola": {"a": 1.0, "h": 3.0},
    "taxicab_ellipse_upper": {"a": 2.0, "b": 1.5, "s": 5.0},
}
FAMILIES = [*CATALOG, "sin"]


def _catalog(name: str, lam: float) -> ProfileFunction:
    params = {k: (v if k == "slope" else lam * v) for k, v in CATALOG[name].items()}
    return parse_profile_spec({"catalog": name, "params": params})


def _sin(lam: float, s: float = 100.0, length: float = 20.0) -> ProfileFunction:
    """lam * f(x / lam) for f = s (sin x + 1.5) on [0, length]."""
    return ProfileFunction(lambda x: lam * s * (np.sin(x / lam) + 1.5),
                           lambda x: s * np.cos(x / lam), Interval(0.0, lam * length))


def _family(name: str, lam: float = 1.0) -> ProfileFunction:
    return _sin(lam) if name == "sin" else _catalog(name, lam)


@pytest.mark.parametrize("lam", [1e-6, 1e-3, 1e2, 1e4, 1e6])
@pytest.mark.parametrize("quantity", POWER)
@pytest.mark.parametrize("family", FAMILIES)
def test_scale_law(family, quantity, lam):
    measure = quadrature_measure(quantity)
    expected = lam ** POWER[quantity] * measure(_family(family))
    assert measure(_family(family, lam)) == pytest.approx(expected, rel=1e-8)


def _moved(f: ProfileFunction, shift: float, flip: bool) -> ProfileFunction:
    """The graph of f reflected about x = 0 (when flip), then shifted by shift."""
    s = -1.0 if flip else 1.0
    lo, hi = sorted((s * f.domain.lo + shift, s * f.domain.hi + shift))
    return ProfileFunction(lambda x: f.evaluate(s * (x - shift)),
                           lambda x: s * f.derivative(s * (x - shift)),
                           Interval(lo, hi),
                           breakpoints=sorted(s * b + shift for b in f.breakpoints))


@pytest.mark.parametrize("shift,flip", [(-3.7, False), (250.0, False), (0.0, True),
                                        (41.5, True)])
@pytest.mark.parametrize("quantity", POWER)
@pytest.mark.parametrize("family", FAMILIES)
def test_translation_and_reflection_invariance(family, quantity, shift, flip):
    measure = quadrature_measure(quantity)
    f = _family(family)
    assert measure(_moved(f, shift, flip)) == pytest.approx(measure(f), rel=1e-8)


@pytest.mark.parametrize("s", [10.0, 100.0, 1000.0])
@pytest.mark.parametrize("quantity", ["surface", "volume"])
def test_sin_family_against_mpmath(quantity, s):
    mp = pytest.importorskip("mpmath")
    length = 20.0
    with mp.workdps(30):
        def integrand(x):
            f = s * (mp.sin(x) + 1.5)
            if quantity == "volume":
                return 2 * f * f
            d = s * mp.cos(x)
            return 8 * f * (1 + abs(d)) * mp.sqrt(1 - d * d / (2 * (1 + d * d)))

        # |f'| has a kink wherever cos x = 0.
        kinks = [mp.pi * (k + 0.5) for k in range(6)]
        reference = float(mp.quad(integrand, [0, *kinks, length]))
    got = quadrature_measure(quantity)(_sin(1.0, s, length))
    assert got == pytest.approx(reference, rel=1e-9)

