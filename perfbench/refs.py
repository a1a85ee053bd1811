"""Reference values computed apart from taximeasure.

Nothing here imports taximeasure.  The values come from three sources:

* closed forms re-derived from the paper (pi_t = 4): quadrant arc length 2r,
  taxicab half-circle 4r, sphere surface 8*sqrt(3)*r^2 and volume (4/3)*r^3,
  cylinder, paraboloid and ellipsoid, and the sin family f = s*(sin x + 1.5);
* exact polygon sums with math.fsum for piecewise-linear profiles, which every
  taxicab catalog profile is;
* mpmath.quad at 30 digits for the surfaces that have no elementary closed
  form (Euclidean quadrant, Euclidean parabola, sin family).

The mpmath values of the fixed (seed-independent) profiles are stored in
references.json; `python3 perfbench/refs.py --write` computes them anew and
`python3 perfbench/refs.py --check` compares the stored file with a fresh
computation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

PI_T = 4.0
SQRT3 = math.sqrt(3.0)
MP_DPS = 30

STORE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")

# Sin-family (s, L) pairs whose surfaces are stored; the seeded pairs are
# computed at run time.
FIXED_SIN = ((0.5, 6.0), (1.0, 20.0), (3.0, 2.0))


# ---------------------------------------------------------------------------
# Piecewise-linear profiles: exact sums
# ---------------------------------------------------------------------------

def _segments(vertices):
    for (x0, y0), (x1, y1) in zip(vertices, vertices[1:]):
        yield x1 - x0, y0, y1


def pl_arclength(vertices) -> float:
    """Sum of dx + |dy|: the taxicab length of each segment."""
    return math.fsum(dx + abs(y1 - y0) for dx, y0, y1 in _segments(vertices))


def pl_volume(vertices) -> float:
    """(pi_t/2) * integral of f^2, exact per linear segment."""
    return math.fsum(0.5 * PI_T * dx * (y0 * y0 + y0 * y1 + y1 * y1) / 3.0
                     for dx, y0, y1 in _segments(vertices))


def pl_surface(vertices) -> float:
    """2*pi_t * integral of f (1 + |m|) sqrt((2 + m^2) / (2 (1 + m^2))) per
    segment of slope m; f is linear on a segment, so its integral is
    dx (y0 + y1) / 2."""
    def term(dx, y0, y1):
        m = (y1 - y0) / dx
        return (PI_T * (y0 + y1) * (dx + abs(y1 - y0))
                * math.sqrt((2.0 + m * m) / (2.0 * (1.0 + m * m))))
    return math.fsum(term(*seg) for seg in _segments(vertices))


PL_MEASURES = {"arclength": pl_arclength, "surface": pl_surface, "volume": pl_volume}


def catalog_vertices(name: str, params: dict):
    """Vertices of the piecewise-linear catalog profiles, from their
    definitions in the paper (not from the package)."""
    if name == "linear":
        k, c, lo, hi = params["slope"], params["intercept"], params["lo"], params["hi"]
        return [(lo, k * lo + c), (hi, k * hi + c)]
    if name == "taxicab_circle_upper":
        r = params["r"]
        return [(-r, 0.0), (0.0, r), (r, 0.0)]
    if name == "taxicab_parabola":
        a, h = params["a"], params["h"]
        return [(0.0, 0.0), (a, a)] + ([(h, a)] if h > a else [])
    if name == "taxicab_ellipse_upper":
        a, b, s = params["a"], params["b"], params["s"]
        c = s / 2.0 - a
        pts = [(-a, c), (b - s / 2.0, b), (s / 2.0 - b, b), (a, c)]
        out = [pts[0]]
        for p in pts[1:]:
            if p[0] > out[-1][0]:
                out.append(p)
        return out
    return None


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def shape_closed_form(shape: str, quantity: str, p: dict) -> float:
    """Closed-form measures of the shape catalog, re-derived with pi_t = 4.

    Surfaces are lateral plus flat caps, as the shape catalog defines them
    (the ellipsoid has two caps of radius c = s/2 - a, each of taxicab area
    2c^2; the cylinder's surface is lateral only)."""
    if shape == "circle":
        r = p["r"]
        return {"circumference": 8.0 * r, "area": 2.0 * r * r}[quantity]
    if shape == "sphere":
        r = p["r"]
        return {"surface": 8.0 * SQRT3 * r * r, "volume": 4.0 * r ** 3 / 3.0}[quantity]
    if shape == "cylinder":
        r, h = p["r"], p["h"]
        return {"surface": 8.0 * r * h, "volume": 2.0 * r * r * h}[quantity]
    if shape == "paraboloid":
        a, h = p["a"], p["h"]
        return {"surface": 4.0 * SQRT3 * a * a + 8.0 * a * (h - a),
                "volume": 2.0 * a ** 3 / 3.0 + 2.0 * a * a * (h - a)}[quantity]
    if shape == "ellipsoid":
        a, b, s = p["a"], p["b"], p["s"]
        c = s / 2.0 - a
        return {"surface": 8.0 * SQRT3 * (b * b - c * c) + 8.0 * b * (s - 2.0 * b) + 4.0 * c * c,
                "volume": 4.0 * (b ** 3 - c ** 3) / 3.0 + 2.0 * b * b * (s - 2.0 * b)}[quantity]
    raise KeyError(shape)


def shape_profile(shape: str, p: dict):
    """(catalog name, params) of the profile whose revolution makes the shape."""
    if shape in ("circle", "sphere"):
        return "taxicab_circle_upper", {"r": p["r"]}
    if shape == "cylinder":
        return "linear", {"slope": 0.0, "intercept": p["r"], "lo": 0.0, "hi": p["h"]}
    if shape == "paraboloid":
        return "taxicab_parabola", {"a": p["a"], "h": p["h"]}
    if shape == "ellipsoid":
        return "taxicab_ellipse_upper", dict(p)
    raise KeyError(shape)


def shape_caps(shape: str, p: dict) -> float:
    """Flat cap area that the closed-form surface includes and the lateral
    revolution integral does not."""
    if shape == "ellipsoid":
        c = p["s"] / 2.0 - p["a"]
        return 4.0 * c * c
    return 0.0


def load_store() -> dict:
    with open(STORE, encoding="utf-8") as fh:
        return json.load(fh)


def catalog_measure(name: str, quantity: str, params: dict, stored=None) -> float:
    """Reference measure of a catalog profile."""
    verts = catalog_vertices(name, params)
    if verts is not None:
        return PL_MEASURES[quantity](verts)
    r = params["r"]
    if name == "euclidean_circle_quadrant":
        if quantity == "arclength":
            return 2.0 * r
        if quantity == "volume":
            return 4.0 * r ** 3 / 3.0
        return (stored or load_store())["euclidean_circle_quadrant_surface_r1"] * r * r
    if name == "euclidean_parabola_quadrant":
        if quantity == "arclength":
            return 2.0 * r
        if quantity == "volume":
            return 16.0 * r ** 3 / 15.0
        return (stored or load_store())["euclidean_parabola_quadrant_surface_r1"] * r * r
    raise KeyError(name)


# ---------------------------------------------------------------------------
# Sin family f = s (sin x + 1.5) on [0, L], scaled by lam: x, f -> lam x, lam f
# ---------------------------------------------------------------------------

def _abs_cos_integral(x: float) -> float:
    """Integral of |cos t| over [0, x] for x >= 0: each half period between
    zeros of cos contributes 2."""
    u = x + 0.5 * math.pi
    n = math.floor(u / math.pi)
    return 2.0 * n - math.cos(u - n * math.pi)


def sin_arclength(s: float, L: float, lam: float = 1.0) -> float:
    return lam * (L + s * _abs_cos_integral(L))


def sin_volume(s: float, L: float, lam: float = 1.0) -> float:
    # 2 s^2 * integral of sin^2 x + 3 sin x + 9/4
    inner = L / 2.0 - math.sin(2.0 * L) / 4.0 + 3.0 * (1.0 - math.cos(L)) + 2.25 * L
    return 2.0 * s * s * inner * lam ** 3


def _cos_zeros(L: float):
    k = 0
    out = []
    while 0.5 * math.pi + k * math.pi < L:
        out.append(0.5 * math.pi + k * math.pi)
        k += 1
    return out


def sin_surface_unit(s: float, L: float) -> float:
    """mpmath quadrature of the surface integrand at lam = 1, split at the
    zeros of cos, where |f'| has its kinks."""
    import mpmath as mp

    with mp.workdps(MP_DPS):
        s_m = mp.mpf(s)

        def g(x):
            d = s_m * mp.cos(x)
            f = s_m * (mp.sin(x) + mp.mpf(3) / 2)
            return 2 * PI_T * f * (1 + abs(d)) * mp.sqrt(1 - d * d / (2 * (1 + d * d)))

        pts = [mp.mpf(0)] + [mp.pi / 2 + k * mp.pi for k in range(len(_cos_zeros(L)))] + [mp.mpf(L)]
        return float(mp.quad(g, pts))


def sin_measure(quantity: str, s: float, L: float, lam: float, stored=None) -> float:
    if quantity == "arclength":
        return sin_arclength(s, L, lam)
    if quantity == "volume":
        return sin_volume(s, L, lam)
    key = f"sin_surface_s{s!r}_L{L!r}"
    table = stored if stored is not None else {}
    unit = table[key] if key in table else sin_surface_unit(s, L)
    return unit * lam * lam


# ---------------------------------------------------------------------------
# Stored references
# ---------------------------------------------------------------------------

def compute_store() -> dict:
    import mpmath as mp

    with mp.workdps(MP_DPS):
        # f = sqrt(1 - x^2): f (1 + |f'|) = sqrt(1 - x^2) + x and
        # f'^2 / (1 + f'^2) = x^2, so the integrand is bounded on [0, 1].
        ecq = mp.quad(lambda x: 2 * PI_T * (mp.sqrt(1 - x * x) + x) * mp.sqrt(1 - x * x / 2),
                      [0, 1])
        # f = 1 - x^2, f' = -2x.
        epq = mp.quad(lambda x: 2 * PI_T * (1 - x * x) * (1 + 2 * x)
                      * mp.sqrt(1 - 4 * x * x / (2 * (1 + 4 * x * x))), [0, 1])
    out = {
        "euclidean_circle_quadrant_surface_r1": float(ecq),
        "euclidean_parabola_quadrant_surface_r1": float(epq),
    }
    for s, L in FIXED_SIN:
        out[f"sin_surface_s{s!r}_L{L!r}"] = sin_surface_unit(s, L)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Make or check the stored references.")
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--write", action="store_true", help="compute and write references.json")
    group.add_argument("--check", action="store_true",
                       help="compare references.json with a fresh computation")
    args = parser.parse_args(argv)
    fresh = compute_store()
    if args.write:
        with open(STORE, "w", encoding="utf-8") as fh:
            json.dump(fresh, fh, indent=1, sort_keys=True)
            fh.write("\n")
        return 0
    stored = load_store()
    bad = [k for k in fresh if stored.get(k) != fresh[k]]
    for k in bad:
        print(f"{k}: stored {stored.get(k)!r}, fresh {fresh[k]!r}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
