"""Metamorphic and reference checks of the quadrature measures.

Scaling a profile by lam in both axes scales its arc length, surface and
volume by lam, lam^2 and lam^3; translating or reflecting it along the axis
changes none of them.  Scaling by a power of 4 scales every way of
computing them exactly, at any magnitude where the result is a normal float.
The family f = s (sin x + 1.5) has f' changing sign many times and, for large
s, a surface integrand far from 1; it is also checked against mpmath where
that is installed.
"""

import math
import random
from functools import partial

import numpy as np
import pytest

from taximeasure import (DomainError, Interval, ProfileFunction, disk_volume_oracle,
                         frustum_surface_oracle, graph, polyline_arclength_oracle)
from taximeasure.measures import arclength_variation, quadrature_measure
from taximeasure.oracles import BLOCK
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
    assert measure(_family(family, lam)) == pytest.approx(expected, rel=1e-8, abs=0.0)


ORACLES = {"arclength": polyline_arclength_oracle, "surface": frustum_surface_oracle,
           "volume": disk_volume_oracle}
NS = (1000, BLOCK + 1000)
_rng = random.Random(0)
POLYGON = [[i + _rng.uniform(0.0, 0.9), _rng.uniform(0.0, 2.0)] for i in range(6)]


def _scaled(family: str, k: int) -> ProfileFunction:
    """The catalog row, or the seeded polygon, scaled by 4^k in both axes."""
    if family == "polygon":
        return parse_profile_spec(
            {"piecewise_linear": [[math.ldexp(x, 2 * k), math.ldexp(f, 2 * k)]
                                  for x, f in POLYGON]})
    return _catalog(family, math.ldexp(1.0, 2 * k))


def _ways(quantity: str):
    """Every way the package computes quantity: the quadrature, each oracle at
    a single-block n and at a multi-block n, and the variation of a length."""
    yield "quadrature", quadrature_measure(quantity)
    for n in NS:
        yield f"oracle n={n}", partial(ORACLES[quantity], n=n)
    if quantity == "arclength":
        yield "variation", lambda f: arclength_variation(graph(f))


def _normal(x: float, twos: int) -> bool:
    """Whether x * 2^twos is a normal float, for x > 0."""
    return -1021 <= math.frexp(x)[1] + twos <= 1024


@pytest.mark.parametrize("family", [*CATALOG, "polygon"])
def test_scale_law_by_powers_of_four_is_exact(family):
    # 4^k = 2^(2k) scales every sample, node, cell and breakpoint exactly, and
    # the tolerances are relative, so each way gives its unit result times
    # 4^(k p) bit for bit wherever that result and a mean cell's term of the
    # finer oracle stay normal.  Below that, cell terms round to subnormals.
    profiles = {k: _scaled(family, k) for k in range(-510, 511, 5)}
    misses = []
    for quantity, p in POWER.items():
        for name, way in _ways(quantity):
            unit = way(profiles[0])
            for k, f in profiles.items():
                if _normal(unit, 2 * k * p) and _normal(unit / NS[-1], 2 * k * p):
                    got = way(f)
                    if got != math.ldexp(unit, 2 * k * p):
                        misses.append((quantity, name, k, got / math.ldexp(unit, 2 * k * p)))
    assert misses == []


# Polygons below zero by their whole height, and by less than the rounding the
# nonnegativity check forgives (1e-12 of max |f|).
SIGNED = {"negative": [[0.0, -1.0], [1.0, 1.0], [2.0, -0.5]],
          "rounding": [[0.0, -1e-13], [1.0, 1.0], [2.0, 0.5]]}


@pytest.mark.parametrize("polygon", SIGNED)
def test_nonnegativity_verdict_does_not_change_with_scale(polygon):
    def verdict(k: int) -> list[bool]:
        f = parse_profile_spec({"piecewise_linear": [[math.ldexp(x, 2 * k), math.ldexp(y, 2 * k)]
                                                     for x, y in SIGNED[polygon]]})
        accepted = []
        for way in (quadrature_measure("surface"), quadrature_measure("volume"),
                    partial(frustum_surface_oracle, n=100), partial(disk_volume_oracle, n=100)):
            try:
                way(f)
                accepted.append(True)
            except DomainError:
                accepted.append(False)
        return accepted

    unit = verdict(0)
    assert unit == [polygon == "rounding"] * 4
    ks = range(-160, 161, 10)
    assert {k: verdict(k) for k in ks} == dict.fromkeys(ks, unit)


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

