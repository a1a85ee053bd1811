"""Command-line interface.

Subcommands:
    measure   one quantity for a shape, a profile, or a rotated-plane angle pair
    verify    closed forms vs quadrature vs oracles, emitted as CSV
    table     oracle convergence table for a profile quantity
    plot      render a profile or shape cross-section to SVG

Exit codes: 0 success; 1 verify found a failing case; 2 malformed
spec/arguments; 3 domain violation or a result that overflows a float;
4 quadrature non-convergence; 5 I/O error.

TAXI_QUAD_TOL overrides the quadrature absolute tolerance for all subcommands.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import measures, oracles, shapes, svgplot
from .errors import ConvergenceError, DomainError, IntegrandError, SpecError
from .geometry import AngleRad
from .profiles import ProfileFunction, parse_profile_spec
from .quadrature import DEFAULT_CONFIG, QuadratureConfig

_PROFILE_QUANTITIES = tuple(oracles._ORACLES)
_QUANTITIES = _PROFILE_QUANTITIES + ("area_scale", "circumference", "area")


def _fmt(v: float) -> str:
    return format(float(v), ".10g")


def _load_json(text: str):
    return json.loads(text)


@dataclass
class MeasureReport:
    quantity: str
    analytic: float | None = None
    quadrature: float | None = None
    oracle: float | None = None
    abs_err_quad: float | None = None
    abs_err_oracle: float | None = None
    params: dict | None = None

    def __post_init__(self):
        if self.analytic is None and self.quadrature is None and self.oracle is None:
            raise SpecError("measure report carries no computed value")

    def to_dict(self) -> dict:
        out: dict = {"quantity": self.quantity}
        for key in ("analytic", "quadrature", "oracle", "abs_err_quad", "abs_err_oracle"):
            v = getattr(self, key)
            if v is not None:
                out[key] = v
        if self.params is not None:
            out["params"] = self.params
        return out


def _check_finite(values: dict) -> None:
    for k, v in values.items():
        if isinstance(v, float) and not math.isfinite(v):
            raise DomainError(f"{k} = {v!r}: the result is not representable as a float")


def _emit_report(report: MeasureReport, as_json: bool) -> None:
    d = report.to_dict()
    _check_finite(d)
    if as_json:
        print(json.dumps(d))
        return
    for k, v in d.items():
        if isinstance(v, float):
            print(f"{k} = {_fmt(v)}")
        elif isinstance(v, dict):
            print(f"{k} = {json.dumps(v, sort_keys=True)}")
        else:
            print(f"{k} = {v}")


def _analytic_quantity(spec, quantity: str) -> float:
    table: dict[tuple[type, str], Callable] = {
        (shapes.CircleSpec, "circumference"): shapes.circle_circumference,
        (shapes.CircleSpec, "area"): shapes.circle_area,
        (shapes.SphereSpec, "surface"): shapes.sphere_surface,
        (shapes.SphereSpec, "volume"): shapes.sphere_volume,
        (shapes.CylinderSpec, "surface"): shapes.cylinder_lateral_surface,
        (shapes.CylinderSpec, "volume"): shapes.cylinder_volume,
        (shapes.ParaboloidSpec, "surface"): shapes.paraboloid_surface,
        (shapes.ParaboloidSpec, "volume"): shapes.paraboloid_volume,
        (shapes.EllipsoidSpec, "surface"): shapes.ellipsoid_surface,
        (shapes.EllipsoidSpec, "volume"): shapes.ellipsoid_volume,
    }
    fn = table.get((type(spec), quantity))
    if fn is None:
        raise SpecError(
            f"quantity {quantity!r} is not defined for shape {type(spec).__name__}")
    return fn(spec)


def _caps_area(spec) -> float:
    """Flat end-cap area of an ellipsoid (the lateral revolution integral and
    the frustum oracle do not see the caps, the closed form does)."""
    if isinstance(spec, shapes.EllipsoidSpec):
        c = shapes.ellipsoid_cap_radius(spec)
        if c > 0.0:
            return 2.0 * shapes.circle_area(shapes.CircleSpec(c))
    return 0.0


def _shape_oracle(spec, quantity: str, n: int) -> float:
    prof = shapes.revolution_profile(spec)
    if isinstance(spec, shapes.CircleSpec):
        if quantity == "circumference":
            return 2.0 * oracles.polyline_arclength_oracle(prof, n=n)
        raise SpecError("no oracle is defined for the flat circle area")
    if quantity == "surface":
        return oracles.frustum_surface_oracle(prof, n=n) + _caps_area(spec)
    return oracles.disk_volume_oracle(prof, n=n)


def cmd_measure(args, cfg: QuadratureConfig) -> int:
    quantity = args.quantity
    has_angles = args.alpha is not None or args.beta is not None
    n_sources = sum((args.shape is not None, args.profile is not None, has_angles))
    if n_sources != 1:
        raise SpecError("provide exactly one input: --shape, --profile, or --alpha/--beta")

    if quantity == "area_scale":
        if args.alpha is None:
            raise SpecError("area_scale needs --alpha (and optionally --beta)")
        alpha = float(args.alpha)
        beta = float(args.beta) if args.beta is not None else 0.0
        if args.degrees:
            alpha, beta = math.radians(alpha), math.radians(beta)
        if args.oracle is not None:
            raise SpecError("no oracle is defined for area_scale")
        angles = measures.RotationAngles(AngleRad(alpha), AngleRad(beta))
        report = MeasureReport(
            quantity=quantity,
            analytic=measures.area_scaling_factor(angles),
            params={"alpha": args.alpha, "beta": args.beta if args.beta is not None else 0.0,
                    "degrees": bool(args.degrees)})
        _emit_report(report, args.json)
        return 0
    if has_angles:
        raise SpecError(f"--alpha/--beta apply only to area_scale, not {quantity!r}")
    if args.degrees:
        raise SpecError("--degrees applies only to area_scale angles")

    if args.shape is not None:
        raw = _load_json(args.shape)
        spec = shapes.parse_shape_spec(raw)
        report = MeasureReport(quantity=quantity,
                               analytic=_analytic_quantity(spec, quantity),
                               params=raw)
        if args.oracle is not None:
            report.oracle = _shape_oracle(spec, quantity, args.oracle)
            report.abs_err_oracle = abs(report.oracle - report.analytic)
        _emit_report(report, args.json)
        return 0

    raw = _load_json(args.profile)
    prof = parse_profile_spec(raw)
    if quantity not in _PROFILE_QUANTITIES:
        raise SpecError(f"--profile supports {'/'.join(_PROFILE_QUANTITIES)}, "
                        f"not {quantity!r}")
    report = MeasureReport(quantity=quantity,
                           quadrature=measures.quadrature_measure(quantity)(prof, cfg=cfg),
                           params=raw)
    if args.oracle is not None:
        report.oracle = oracles._ORACLES[quantity](prof, n=args.oracle)
        report.abs_err_oracle = abs(report.oracle - report.quadrature)
    _emit_report(report, args.json)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _VerifyCase:
    suite: str
    case: str
    analytic: float
    quad: Callable[[QuadratureConfig], float]
    oracle_n: int
    oracle: Callable[[], float]
    oracle_tol: float


def _verify_cases() -> list[_VerifyCase]:
    from .geometry import Interval
    from .profiles import (profile_euclidean_circle_quadrant,
                           profile_euclidean_parabola_quadrant, profile_linear,
                           profile_taxicab_circle_upper)

    cases: list[_VerifyCase] = []

    def add(kind: str, case: str, prof: ProfileFunction, analytic: float,
            n: int = 10_000, otol: float = 1e-9, caps: float = 0.0) -> None:
        suite = "ellipsoid" if case.startswith("ellipsoid") else kind
        cases.append(_VerifyCase(
            suite, case, analytic,
            lambda cfg: measures.quadrature_measure(kind)(prof, cfg=cfg) + caps,
            n, lambda: oracles._ORACLES[kind](prof, n=n) + caps, otol))

    for r in (1.0, 2.5):
        add("arclength", f"taxicab_quadrant_r{r:g}",
            profile_linear(-1.0, r, Interval(0.0, r)), 2.0 * r)
        add("arclength", f"euclidean_quadrant_r{r:g}",
            profile_euclidean_circle_quadrant(r), 2.0 * r)
        add("arclength", f"euclidean_parabola_r{r:g}",
            profile_euclidean_parabola_quadrant(r), 2.0 * r)
    add("arclength", "taxicab_halfcircle_r1", profile_taxicab_circle_upper(1.0), 4.0)

    for r in (0.5, 1.0, 2.0):
        sphere = shapes.SphereSpec(r)
        prof = shapes.revolution_profile(sphere)
        add("surface", f"sphere_r{r:g}", prof, shapes.sphere_surface(sphere), 2, 1e-12)
        add("volume", f"sphere_r{r:g}", prof, shapes.sphere_volume(sphere), 100_000, 1e-4)

    cyl_surface = shapes.CylinderSpec(1.0, 2.0)
    add("surface", "cylinder_r1_h2", shapes.revolution_profile(cyl_surface),
        shapes.cylinder_lateral_surface(cyl_surface), 5, 1e-12)
    for r, h in ((1.0, 1.0), (2.0, 3.0), (1.0, 2.0), (0.5, 4.0)):
        cyl = shapes.CylinderSpec(r, h)
        add("volume", f"cylinder_r{r:g}_h{h:g}", shapes.revolution_profile(cyl),
            shapes.cylinder_volume(cyl), 1, 1e-12)

    for a, h in ((1.0, 3.0), (1.0, 1.0), (2.0, 5.0)):
        par = shapes.ParaboloidSpec(a, h)
        prof = shapes.revolution_profile(par)
        add("surface", f"paraboloid_a{a:g}_h{h:g}", prof, shapes.paraboloid_surface(par),
            4, 1e-12)
        add("volume", f"paraboloid_a{a:g}_h{h:g}", prof, shapes.paraboloid_volume(par),
            4096, 1e-5)

    for label, (a, b, s) in (("circle", (1.0, 1.0, 2.0)),
                             ("hexagon", (2.0, 1.0, 4.0)),
                             ("octagon", (2.0, 1.5, 5.0))):
        ell = shapes.EllipsoidSpec(a, b, s)
        prof = shapes.revolution_profile(ell)
        caps = _caps_area(ell)
        add("surface", f"ellipsoid_surface_{label}", prof, shapes.ellipsoid_surface(ell),
            4, 1e-12, caps=caps)
        add("volume", f"ellipsoid_volume_{label}", prof, shapes.ellipsoid_volume(ell),
            1_000_000, 1e-5)

    return cases


def cmd_verify(args, cfg: QuadratureConfig) -> int:
    tol = float(args.tol)
    if not (math.isfinite(tol) and tol > 0.0):
        raise SpecError(f"--tol must be a positive float, got {args.tol!r}")
    rows = []
    all_passed = True
    for case in _verify_cases():
        if args.suite is not None and case.suite != args.suite:
            continue
        quad = case.quad(cfg)
        oracle = case.oracle()
        err_quad = abs(quad - case.analytic)
        err_oracle = abs(oracle - case.analytic)
        passed = err_quad <= tol and err_oracle <= case.oracle_tol
        all_passed = all_passed and passed
        rows.append((case.suite, case.case, case.analytic, quad, case.oracle_n,
                     oracle, err_quad, err_oracle, passed))
    rows.sort(key=lambda row: (row[0], row[1]))
    print("suite,case,analytic,quadrature,oracle_n,oracle,abs_err_quad,abs_err_oracle,pass")
    for suite, case, analytic, quad, n, oracle, eq, eo, passed in rows:
        print(",".join((suite, case, _fmt(analytic), _fmt(quad), str(n), _fmt(oracle),
                        _fmt(eq), _fmt(eo), "true" if passed else "false")))
    return 0 if all_passed else 1


def cmd_table(args, cfg: QuadratureConfig) -> int:
    prof = parse_profile_spec(_load_json(args.profile))
    try:
        ns = [int(part) for part in args.ns.split(",") if part.strip() != ""]
    except ValueError:
        raise SpecError(f"--ns must be a comma-separated list of integers, got {args.ns!r}")
    rows = oracles.convergence_table(args.quantity, prof, None, ns, cfg)
    for row in rows:
        _check_finite(row._asdict())
    print("n,oracle,reference,abs_error")
    for row in rows:
        print(f"{row.n},{_fmt(row.oracle)},{_fmt(row.reference)},{_fmt(row.abs_error)}")
    return 0


def cmd_plot(args, cfg: QuadratureConfig) -> int:
    n_sources = sum((args.shape is not None, args.profile is not None))
    if n_sources != 1:
        raise SpecError("provide exactly one input: --shape or --profile")
    if args.shape is not None:
        prof = shapes.revolution_profile(shapes.parse_shape_spec(_load_json(args.shape)))
    else:
        prof = parse_profile_spec(_load_json(args.profile))
    overlay = None
    if args.overlay is not None:
        overlay = parse_profile_spec(_load_json(args.overlay))
    svg = svgplot.render_profile_svg(prof, mirror=args.mirror, overlay=overlay)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    return 0


def _config_from_env() -> QuadratureConfig:
    raw = os.environ.get("TAXI_QUAD_TOL")
    if raw is None or raw.strip() == "":
        return DEFAULT_CONFIG
    try:
        tol = float(raw)
    except ValueError:
        raise SpecError(f"TAXI_QUAD_TOL must be a float, got {raw!r}") from None
    try:
        return QuadratureConfig(abs_tol=tol)
    except DomainError as exc:
        raise SpecError(f"TAXI_QUAD_TOL is invalid: {exc}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taximeasure",
        description="Taxicab (L1) geometry measures: closed forms, quadrature, oracles.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_measure = sub.add_parser("measure", help="compute one quantity")
    p_measure.add_argument("--quantity", required=True, choices=_QUANTITIES)
    p_measure.add_argument("--shape", help="shape spec JSON")
    p_measure.add_argument("--profile", help="profile spec JSON")
    p_measure.add_argument("--alpha", type=float, help="first tilt angle (area_scale)")
    p_measure.add_argument("--beta", type=float, help="second tilt angle (area_scale)")
    p_measure.add_argument("--degrees", action="store_true",
                           help="interpret --alpha/--beta in degrees")
    p_measure.add_argument("--oracle", type=int, metavar="N",
                           help="add a brute-force oracle column with N cells "
                                f"(1 <= N <= {oracles.MAX_CELLS})")
    p_measure.add_argument("--json", action="store_true", help="emit a JSON object")
    p_measure.set_defaults(func=cmd_measure)

    p_verify = sub.add_parser("verify", help="cross-check closed forms, quadrature, oracles")
    p_verify.add_argument("--suite", choices=("arclength", "surface", "volume", "ellipsoid"))
    p_verify.add_argument("--tol", type=float, default=1e-8,
                          help="quadrature-vs-analytic tolerance (default 1e-8)")
    p_verify.set_defaults(func=cmd_verify)

    p_table = sub.add_parser("table", help="oracle convergence table")
    p_table.add_argument("--profile", required=True, help="profile spec JSON")
    p_table.add_argument("--quantity", required=True, choices=_PROFILE_QUANTITIES)
    p_table.add_argument("--ns", required=True,
                         help="comma-separated, strictly increasing cell counts "
                              f"(each 1 <= N <= {oracles.MAX_CELLS})")
    p_table.set_defaults(func=cmd_table)

    p_plot = sub.add_parser("plot", help="render a profile or shape to SVG")
    p_plot.add_argument("--shape", help="shape spec JSON")
    p_plot.add_argument("--profile", help="profile spec JSON")
    p_plot.add_argument("--overlay", help="second profile spec JSON")
    p_plot.add_argument("--mirror", action="store_true",
                        help="mirror the curve across the x axis")
    p_plot.add_argument("--out", required=True, help="output SVG path")
    p_plot.set_defaults(func=cmd_plot)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config_from_env()
        # measure and table reject a non-finite result themselves, so NumPy's
        # overflow warnings would only add lines before their error.
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args, cfg)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON: {exc}", file=sys.stderr)
        return 2
    except (DomainError, IntegrandError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OverflowError as exc:
        print(f"error: the result overflows a float: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
