"""Seeded fuzzing of `measure` through cli.main, at magnitudes 1e-300 to 1e300.

Each half draws about 1,500 commands from random.Random(0): catalog profiles
and polygons for `measure --profile`, the shape catalog for `measure
--shape`, each with --json and sometimes --oracle n.  A command may refuse
its input (exit 2, 3, 4 or 5), but never with a traceback, and a command
that exits 0 must print values that are finite, zero or normal floats, and
whose ways agree where the method says they must:

- the variation (analytic) and the quadrature of an arc length;
- the polyline oracle and the quadrature of an arc length, since every
  profile here has monotone pieces, and the frustum oracle and the
  quadrature of a polygon's surface, which it sums exactly;
- on a shape, the polyline and frustum oracles and the closed form, since
  every revolution profile is piecewise linear, and the disk oracle within
  the midpoint bound of the closed form.
"""

import json
import math
import random
import sys

from taximeasure import shapes
from taximeasure.cli import main

SEED = 0
CASES = 1500
EXITS = {0, 2, 3, 4, 5}
RESULTS = ("analytic", "quadrature", "oracle")
REL = 1e-8


def _magnitude(rng: random.Random) -> float:
    return 10.0 ** rng.uniform(-300.0, 300.0)


def _profile(rng: random.Random, m: float) -> dict:
    kind = rng.choice(["linear", "euclidean_circle_quadrant", "euclidean_parabola_quadrant",
                       "taxicab_circle_upper", "taxicab_parabola", "taxicab_ellipse_upper",
                       "polygon"])
    if kind == "polygon":
        x, vertices = 0.0, []
        for _ in range(rng.randint(2, 8)):
            vertices.append([x, m * rng.uniform(0.0, 2.0)])
            x += m * rng.uniform(0.01, 1.0)
        return {"piecewise_linear": vertices}
    if kind == "linear":
        params = {"slope": rng.uniform(-2.0, 2.0), "intercept": m * rng.uniform(0.0, 3.0),
                  "lo": 0.0, "hi": m * rng.uniform(0.1, 1.0)}
    elif kind == "taxicab_parabola":
        a = m * rng.uniform(0.5, 2.0)
        params = {"a": a, "h": a * rng.uniform(1.0, 3.0)}
    elif kind == "taxicab_ellipse_upper":
        a = m * rng.uniform(0.5, 2.0)
        b = a * rng.uniform(0.2, 1.0)
        params = {"a": a, "b": b, "s": rng.uniform(2.0 * a, 2.0 * (a + b))}
    else:
        params = {"r": m * rng.uniform(0.5, 2.0)}
    return {"catalog": kind, "params": params}


def _shape(rng: random.Random, m: float) -> tuple[dict, str]:
    kind = rng.choice(["circle", "sphere", "cylinder", "paraboloid", "ellipsoid"])
    if kind == "cylinder":
        params = {"r": m * rng.uniform(0.5, 2.0), "h": m * rng.uniform(0.1, 3.0)}
    elif kind == "paraboloid":
        a = m * rng.uniform(0.5, 2.0)
        params = {"a": a, "h": a * rng.uniform(1.0, 3.0)}
    elif kind == "ellipsoid":
        a = m * rng.uniform(0.5, 2.0)
        b = a * rng.uniform(0.2, 1.0)
        params = {"a": a, "b": b, "s": rng.uniform(2.0 * a, 2.0 * (a + b))}
    else:
        params = {"r": m * rng.uniform(0.5, 2.0)}
    quantities = ["circumference", "area"] if kind == "circle" else ["surface", "volume"]
    return {"shape": kind, "params": params}, rng.choice(quantities)


def _oracle_args(rng: random.Random) -> list[str]:
    return ["--oracle", str(int(10.0 ** rng.uniform(0.0, 3.5)))] if rng.random() < 0.6 else []


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL * max(abs(a), abs(b))


def _broken(capsys, argv: list[str], agree) -> str | None:
    """What is wrong with the run of argv, or None; agree(report) checks the
    ways of a report that exits 0."""
    try:
        code = main(argv)
    except Exception as exc:  # noqa: BLE001 - any escape is a finding
        capsys.readouterr()
        return f"raised {exc!r}"
    out = capsys.readouterr().out
    if code not in EXITS:
        return f"exit {code}"
    if code != 0:
        return None
    report = json.loads(out)
    for key, v in report.items():
        if isinstance(v, float) and not math.isfinite(v):
            return f"{key} = {v!r}"
        if key in RESULTS and v != 0.0 and abs(v) < sys.float_info.min:
            return f"{key} = {v!r} is subnormal"
    return agree(report)


def _profile_ways(report: dict, polygon: bool) -> str | None:
    quantity, quad = report["quantity"], report["quadrature"]
    if quantity == "arclength" and not _close(report["analytic"], quad):
        return "analytic and quadrature disagree"
    exact = quantity == "arclength" or (quantity == "surface" and polygon)
    if "oracle" in report and exact and not _close(report["oracle"], quad):
        return "oracle and quadrature disagree"
    return None


def _shape_ways(report: dict, spec: dict, n: int | None) -> str | None:
    if n is None:
        return None
    analytic, oracle = report["analytic"], report["oracle"]
    if report["quantity"] != "volume":
        return None if _close(oracle, analytic) else "oracle and analytic disagree"
    # The disk sum samples f at cell midpoints: on a piece of slope at most 1
    # it falls short by at most dx^3 / 6 per cell of width at most width / n.
    width = shapes.revolution_profile(shapes.parse_shape_spec(spec)).domain.width
    shortfall = width * (width / n) * (width / n) / 6.0
    if not analytic - shortfall - 1e-12 * analytic <= oracle <= analytic * (1.0 + 1e-12):
        return "disk oracle outside its midpoint bound"
    return None


def test_measure_profile_fuzz(capsys):
    rng = random.Random(SEED)
    broken = []
    for _ in range(CASES):
        spec = _profile(rng, _magnitude(rng))
        quantity = rng.choice(["arclength", "surface", "volume"])
        argv = ["measure", "--quantity", quantity, "--profile", json.dumps(spec), "--json",
                *_oracle_args(rng)]
        polygon = "piecewise_linear" in spec
        why = _broken(capsys, argv, lambda report: _profile_ways(report, polygon))
        if why is not None:
            broken.append((why, argv))
    assert broken == []


def test_measure_shape_fuzz(capsys):
    rng = random.Random(SEED)
    broken = []
    for _ in range(CASES):
        spec, quantity = _shape(rng, _magnitude(rng))
        oracle = _oracle_args(rng)
        n = int(oracle[1]) if oracle else None
        argv = ["measure", "--quantity", quantity, "--shape", json.dumps(spec), "--json",
                *oracle]
        why = _broken(capsys, argv, lambda report: _shape_ways(report, spec, n))
        if why is not None:
            broken.append((why, argv))
    assert broken == []
