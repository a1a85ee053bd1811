"""Command-line interface.

Subcommands:
    measure   one quantity for a shape, a profile, or a rotated-plane angle pair
    verify    closed forms vs quadrature vs oracles, emitted as CSV
    table     oracle convergence table for a profile quantity
    plot      render a profile or shape cross-section to SVG

Exit codes: 0 success; 1 verify found a failing case; 2 malformed spec or
arguments; 3 domain violation, a JSON integer, plot or result that overflows
a float, or a subnormal result; 4 quadrature non-convergence; 5 I/O error.

Quadrature runs at the library's one relative tolerance, quadrature.REL_TOL,
which holds at every magnitude of the input; nothing changes it.

The profile quantities are those of geometry.PROFILE_QUANTITIES; a shape's
closed form and its oracle come from shapes.closed_form and from_profile.

Every command checks all of its arguments before it evaluates a profile:
the spec's structure, names and parameter keys, --quantity against the
input, the --oracle and --ns cell counts, verify's --tol and plot's one
input.  Only then do the paths that evaluate a profile import NumPy and the
array modules: the profile and oracle branches of measure, and verify, table
and plot.  A shape's closed form, the rotated-plane area_scale and every
argument error are answered without them; a profile parameter out of its
range (exit 3) is found when the profile is built, after NumPy loads.  The
scalar modules hold named tuples, not dataclasses, whose import loads
inspect: that would cost such a process more than the rest of the package.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from typing import Callable, NamedTuple, Sequence

from . import shapes
from .errors import ConvergenceError, DomainError, IntegrandError, SpecError
from .geometry import (MAX_CELLS, PROFILE_QUANTITIES, AngleRad, Interval, RotationAngles,
                       area_scaling_factor, check_cells, check_profile_spec)


@contextlib.contextmanager
def _array_path():
    """Import NumPy for a path that evaluates profiles, and silence its
    overflow warnings there: measure and table reject a non-finite result
    themselves, so the warnings would only add lines before their error."""
    import numpy as np

    with np.errstate(over="ignore", invalid="ignore"):
        yield


def _fmt(v: float) -> str:
    return format(float(v), ".10g")


def _load_json(text: str):
    try:
        return json.loads(text)
    except RecursionError:
        raise SpecError("JSON argument is nested too deeply") from None
    except json.JSONDecodeError:
        raise
    except ValueError:
        # int() refuses more digits than sys.get_int_max_str_digits() (4300).
        raise DomainError("JSON argument holds an integer too large for a float") from None


def _profile_spec(text: str):
    """The profile spec JSON text holds, checked but not built: building it
    loads NumPy."""
    spec = _load_json(text)
    check_profile_spec(spec)
    return spec


def _check_finite(values: dict) -> None:
    for k, v in values.items():
        if isinstance(v, float) and not math.isfinite(v):
            raise DomainError(f"{k} = {v!r}: the result is not representable as a float")
        # A subnormal keeps too few bits to print; an error column may be one.
        if (k in ("analytic", "quadrature", "oracle", "reference")
                and 0.0 < abs(v) < sys.float_info.min):
            raise DomainError(f"{k} = {v!r}: the result is below the smallest normal float")


def _emit_report(report: dict, as_json: bool) -> None:
    """Print a measure report, leaving out the values that were not computed."""
    d = {k: v for k, v in report.items() if v is not None}
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


def cmd_measure(args) -> int:
    quantity = args.quantity
    has_angles = args.alpha is not None or args.beta is not None
    n_sources = sum((args.shape is not None, args.profile is not None, has_angles))
    if n_sources != 1:
        raise SpecError("provide exactly one input: --shape, --profile, or --alpha/--beta")

    analytic = quad = oracle = abs_err_quad = abs_err_oracle = None
    if quantity == "area_scale":
        if args.alpha is None:
            raise SpecError("area_scale needs --alpha (and optionally --beta)")
        alpha = float(args.alpha)
        beta = float(args.beta) if args.beta is not None else 0.0
        if args.degrees:
            alpha, beta = math.radians(alpha), math.radians(beta)
        if args.oracle is not None:
            raise SpecError("no oracle is defined for area_scale")
        analytic = area_scaling_factor(RotationAngles(AngleRad(alpha), AngleRad(beta)))
        params = {"alpha": args.alpha, "beta": args.beta if args.beta is not None else 0.0,
                  "degrees": bool(args.degrees)}
    elif has_angles:
        raise SpecError(f"--alpha/--beta apply only to area_scale, not {quantity!r}")
    elif args.degrees:
        raise SpecError("--degrees applies only to area_scale angles")
    elif args.shape is not None:
        params = _load_json(args.shape)
        spec = shapes.parse_shape_spec(params)
        analytic = shapes.closed_form(spec, quantity)
        if args.oracle is not None:
            if quantity == "area":
                raise SpecError("no oracle is defined for the flat circle area")
            check_cells((args.oracle,))
            from . import oracles

            with _array_path():
                oracle = shapes.from_profile(
                    spec, quantity, lambda q, prof: oracles._ORACLES[q](prof, n=args.oracle))
            abs_err_oracle = abs(oracle - analytic)
    else:
        params = _profile_spec(args.profile)
        if quantity not in PROFILE_QUANTITIES:
            raise SpecError(f"--profile supports {'/'.join(PROFILE_QUANTITIES)}, "
                            f"not {quantity!r}")
        if args.oracle is not None:
            check_cells((args.oracle,))
        from . import measures, oracles
        from .profiles import graph, parse_profile_spec

        with _array_path():
            prof = parse_profile_spec(params)
            quad = reference = measures.quadrature_measure(quantity)(prof)
            if quantity == "arclength":
                analytic = reference = measures.arclength_variation(graph(prof))
                abs_err_quad = abs(quad - analytic)
            if args.oracle is not None:
                oracle = oracles._ORACLES[quantity](prof, n=args.oracle)
                abs_err_oracle = abs(oracle - reference)
    _emit_report({"quantity": quantity, "analytic": analytic, "quadrature": quad,
                  "oracle": oracle, "abs_err_quad": abs_err_quad,
                  "abs_err_oracle": abs_err_oracle, "params": params}, args.json)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

class _VerifyCase(NamedTuple):
    """A row of verify: value(measure) applies a profile measure to its input."""

    suite: str
    case: str
    value: Callable[[Callable], float]
    analytic: float
    oracle_n: int = 10_000
    oracle_tol: float = 1e-9


def _verify_cases() -> list[_VerifyCase]:
    from .profiles import (profile_euclidean_circle_quadrant,
                           profile_euclidean_parabola_quadrant, profile_linear,
                           profile_taxicab_circle_upper)

    arclengths = [("taxicab_halfcircle_r1", 4.0, profile_taxicab_circle_upper(1.0))]
    for r in (1.0, 2.5):
        arclengths += [(f"{name}_r{r:g}", 2.0 * r, prof) for name, prof in (
            ("taxicab_quadrant", profile_linear(-1.0, r, Interval(0.0, r))),
            ("euclidean_quadrant", profile_euclidean_circle_quadrant(r)),
            ("euclidean_parabola", profile_euclidean_parabola_quadrant(r)))]
    cases = [_VerifyCase("arclength", case, lambda m, prof=prof: m("arclength", prof), length)
             for case, length, prof in arclengths]

    def add(kind: str, case: str, spec, n: int, tol: float) -> None:
        suite = "ellipsoid" if case.startswith("ellipsoid") else kind
        cases.append(_VerifyCase(suite, case, lambda m: shapes.from_profile(spec, kind, m),
                                 shapes.closed_form(spec, kind), n, tol))

    for r in (0.5, 1.0, 2.0):
        add("surface", f"sphere_r{r:g}", shapes.SphereSpec(r), 2, 1e-12)
        add("volume", f"sphere_r{r:g}", shapes.SphereSpec(r), 100_000, 1e-4)
    add("surface", "cylinder_r1_h2", shapes.CylinderSpec(1.0, 2.0), 5, 1e-12)
    for r, h in ((1.0, 1.0), (2.0, 3.0), (1.0, 2.0), (0.5, 4.0)):
        add("volume", f"cylinder_r{r:g}_h{h:g}", shapes.CylinderSpec(r, h), 1, 1e-12)
    for a, h in ((1.0, 3.0), (1.0, 1.0), (2.0, 5.0)):
        add("surface", f"paraboloid_a{a:g}_h{h:g}", shapes.ParaboloidSpec(a, h), 4, 1e-12)
        add("volume", f"paraboloid_a{a:g}_h{h:g}", shapes.ParaboloidSpec(a, h), 4096, 1e-5)
    for label, ell in (("circle", shapes.EllipsoidSpec(1.0, 1.0, 2.0)),
                       ("hexagon", shapes.EllipsoidSpec(2.0, 1.0, 4.0)),
                       ("octagon", shapes.EllipsoidSpec(2.0, 1.5, 5.0))):
        add("surface", f"ellipsoid_surface_{label}", ell, 4, 1e-12)
        add("volume", f"ellipsoid_volume_{label}", ell, 1_000_000, 1e-5)
    return cases


def cmd_verify(args) -> int:
    tol = float(args.tol)
    if not (math.isfinite(tol) and tol > 0.0):
        raise SpecError(f"--tol must be a positive float, got {args.tol!r}")
    from . import measures, oracles

    rows = []
    all_passed = True
    with _array_path():
        for case in sorted(_verify_cases(), key=lambda case: (case.suite, case.case)):
            if args.suite is not None and case.suite != args.suite:
                continue
            quad = case.value(lambda q, prof: measures.quadrature_measure(q)(prof))
            oracle = case.value(lambda q, prof: oracles._ORACLES[q](prof, n=case.oracle_n))
            err_quad = abs(quad - case.analytic)
            err_oracle = abs(oracle - case.analytic)
            passed = err_quad <= tol and err_oracle <= case.oracle_tol
            all_passed = all_passed and passed
            rows.append(",".join((case.suite, case.case, _fmt(case.analytic), _fmt(quad),
                                  str(case.oracle_n), _fmt(oracle), _fmt(err_quad),
                                  _fmt(err_oracle), "true" if passed else "false")))
    print("suite,case,analytic,quadrature,oracle_n,oracle,abs_err_quad,abs_err_oracle,pass")
    for row in rows:
        print(row)
    return 0 if all_passed else 1


def cmd_table(args) -> int:
    spec = _profile_spec(args.profile)
    try:
        ns = [int(part) for part in args.ns.split(",") if part.strip() != ""]
    except ValueError:
        raise SpecError(f"--ns must be a comma-separated list of integers, got {args.ns!r}")
    check_cells(ns)
    from . import oracles
    from .profiles import parse_profile_spec

    with _array_path():
        rows = oracles.convergence_table(args.quantity, parse_profile_spec(spec), None, ns)
    for row in rows:
        _check_finite(row._asdict())
    print("n,oracle,reference,abs_error")
    for row in rows:
        print(f"{row.n},{_fmt(row.oracle)},{_fmt(row.reference)},{_fmt(row.abs_error)}")
    return 0


def cmd_plot(args) -> int:
    n_sources = sum((args.shape is not None, args.profile is not None))
    if n_sources != 1:
        raise SpecError("provide exactly one input: --shape or --profile")
    if args.shape is not None:
        spec = shapes.parse_shape_spec(_load_json(args.shape))
    else:
        spec = _profile_spec(args.profile)
    overlay = None if args.overlay is None else _profile_spec(args.overlay)
    from . import svgplot
    from .profiles import parse_profile_spec

    with _array_path():
        if args.shape is not None:
            prof = shapes.revolution_profile(spec)
        else:
            prof = parse_profile_spec(spec)
        if overlay is not None:
            overlay = parse_profile_spec(overlay)
        svg = svgplot.render_profile_svg(prof, mirror=args.mirror, overlay=overlay)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taximeasure",
        description="Taxicab (L1) geometry measures: closed forms, quadrature, oracles.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_measure = sub.add_parser("measure", help="compute one quantity")
    p_measure.add_argument("--quantity", required=True,
                           choices=(*PROFILE_QUANTITIES, "area_scale", "circumference", "area"))
    p_measure.add_argument("--shape", help="shape spec JSON")
    p_measure.add_argument("--profile", help="profile spec JSON")
    p_measure.add_argument("--alpha", type=float, help="first tilt angle (area_scale)")
    p_measure.add_argument("--beta", type=float, help="second tilt angle (area_scale)")
    p_measure.add_argument("--degrees", action="store_true",
                           help="interpret --alpha/--beta in degrees")
    p_measure.add_argument("--oracle", type=int, metavar="N",
                           help="add a brute-force oracle column with N cells "
                                f"(1 <= N <= {MAX_CELLS})")
    p_measure.add_argument("--json", action="store_true", help="emit a JSON object")
    p_measure.set_defaults(func=cmd_measure)

    p_verify = sub.add_parser("verify", help="cross-check closed forms, quadrature, oracles")
    p_verify.add_argument("--suite", choices=(*PROFILE_QUANTITIES, "ellipsoid"))
    p_verify.add_argument("--tol", type=float, default=1e-8,
                          help="quadrature-vs-analytic tolerance (default 1e-8)")
    p_verify.set_defaults(func=cmd_verify)

    p_table = sub.add_parser("table", help="oracle convergence table")
    p_table.add_argument("--profile", required=True, help="profile spec JSON")
    p_table.add_argument("--quantity", required=True, choices=tuple(PROFILE_QUANTITIES))
    p_table.add_argument("--ns", required=True,
                         help="comma-separated, strictly increasing cell counts "
                              f"(each 1 <= N <= {MAX_CELLS})")
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
        return args.func(args)
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
