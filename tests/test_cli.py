import argparse
import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from taximeasure import ConvergenceError, cli, measures, oracles, shapes
from taximeasure.cli import main
from taximeasure.geometry import PROFILE_QUANTITIES

SPHERE = '{"shape": "sphere", "params": {"r": 1}}'
QUADRANT = '{"catalog": "euclidean_circle_quadrant", "params": {"r": 1}}'
DIAMOND = '{"catalog": "taxicab_circle_upper", "params": {"r": 1}}'
CIRCLE = '{"shape": "circle", "params": {"r": 1}}'


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# measure
# ---------------------------------------------------------------------------

def test_measure_sphere_volume(capsys):
    code, out, err = run(capsys, ["measure", "--quantity", "volume", "--shape", SPHERE])
    assert code == 0 and err == ""
    assert "analytic = 1.333333333" in out


# Each form of report: the keys a value was computed for, in one fixed order.
@pytest.mark.parametrize("argv,keys,params", [
    (["--quantity", "area_scale", "--alpha", "0.3"], ["quantity", "analytic", "params"],
     {"alpha": 0.3, "beta": 0.0, "degrees": False}),
    (["--quantity", "volume", "--shape", SPHERE], ["quantity", "analytic", "params"],
     json.loads(SPHERE)),
    (["--quantity", "surface", "--shape", SPHERE, "--oracle", "2"],
     ["quantity", "analytic", "oracle", "abs_err_oracle", "params"], json.loads(SPHERE)),
    (["--quantity", "arclength", "--profile", DIAMOND, "--oracle", "10"],
     ["quantity", "analytic", "quadrature", "oracle", "abs_err_quad", "abs_err_oracle",
      "params"], json.loads(DIAMOND)),
    (["--quantity", "surface", "--profile", DIAMOND, "--oracle", "10"],
     ["quantity", "quadrature", "oracle", "abs_err_oracle", "params"], json.loads(DIAMOND)),
], ids=["area_scale", "shape", "shape_oracle", "profile_arclength_oracle",
        "profile_surface_oracle"])
def test_measure_json_key_order(capsys, argv, keys, params):
    code, out, _ = run(capsys, ["measure", *argv, "--json"])
    assert code == 0
    obj = json.loads(out)
    assert list(obj) == keys
    assert obj["quantity"] == argv[1]
    assert obj["params"] == params


def test_measure_shape_with_oracle(capsys):
    code, out, _ = run(capsys, ["measure", "--quantity", "surface", "--shape", SPHERE,
                                "--oracle", "2", "--json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["oracle"] == pytest.approx(obj["analytic"], abs=1e-12)
    assert obj["abs_err_oracle"] <= 1e-12


# Every (shape, quantity) pair with a closed form; the ellipsoid has caps.
SHAPE_QUANTITIES = [
    ({"shape": "circle", "params": {"r": 1.3}}, "circumference"),
    ({"shape": "circle", "params": {"r": 1.3}}, "area"),
    ({"shape": "sphere", "params": {"r": 0.8}}, "surface"),
    ({"shape": "sphere", "params": {"r": 0.8}}, "volume"),
    ({"shape": "cylinder", "params": {"r": 1.1, "h": 2.3}}, "surface"),
    ({"shape": "cylinder", "params": {"r": 1.1, "h": 2.3}}, "volume"),
    ({"shape": "paraboloid", "params": {"a": 0.9, "h": 2.5}}, "surface"),
    ({"shape": "paraboloid", "params": {"a": 0.9, "h": 2.5}}, "volume"),
    ({"shape": "ellipsoid", "params": {"a": 2.0, "b": 1.5, "s": 5.0}}, "surface"),
    ({"shape": "ellipsoid", "params": {"a": 2.0, "b": 1.5, "s": 5.0}}, "volume"),
]


@pytest.mark.parametrize("spec,quantity", SHAPE_QUANTITIES,
                         ids=[f"{spec['shape']}-{q}" for spec, q in SHAPE_QUANTITIES])
def test_measure_every_shape_oracle_against_its_closed_form(capsys, spec, quantity):
    n = 64
    code, out, err = run(capsys, ["measure", "--quantity", quantity, "--shape",
                                  json.dumps(spec), "--oracle", str(n), "--json"])
    if quantity == "area":
        assert code == 2 and out == "" and "no oracle" in err
        return
    assert code == 0 and err == ""
    report = json.loads(out)
    analytic, oracle = report["analytic"], report["oracle"]
    if quantity == "volume":
        # The disk sum samples f at cell midpoints: on a piece of slope at
        # most 1 it falls short of the integral of 2 f^2 by at most dx^3 / 6
        # per cell, and the cells are at most width / n wide.
        width = shapes.revolution_profile(shapes.parse_shape_spec(spec)).domain.width
        shortfall = width ** 3 / (6.0 * n * n)
        assert analytic - shortfall - 1e-12 * analytic <= oracle <= analytic * (1.0 + 1e-12)
    else:
        assert oracle == pytest.approx(analytic, rel=1e-12)


def test_measure_profile_arclength(capsys):
    code, out, _ = run(capsys, ["measure", "--quantity", "arclength",
                                "--profile", QUADRANT, "--json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["analytic"] == pytest.approx(2.0, abs=1e-12)
    assert obj["quadrature"] == pytest.approx(2.0, abs=1e-8)


def test_measure_profile_with_oracle(capsys):
    code, out, _ = run(capsys, ["measure", "--quantity", "volume",
                                "--profile", DIAMOND, "--oracle", "100000", "--json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["quadrature"] == pytest.approx(4.0 / 3.0, abs=1e-8)
    assert obj["abs_err_oracle"] <= 1e-4


def test_measure_area_scale_radians(capsys):
    code, out, _ = run(capsys, ["measure", "--quantity", "area_scale",
                                "--alpha", repr(math.pi / 4.0), "--json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["analytic"] == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_measure_area_scale_degrees(capsys):
    code, out, _ = run(capsys, ["measure", "--quantity", "area_scale",
                                "--alpha", "45", "--beta", "45", "--degrees", "--json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["analytic"] == pytest.approx(2.0, abs=1e-12)
    assert obj["params"] == {"alpha": 45.0, "beta": 45.0, "degrees": True}


@pytest.mark.parametrize("argv", [
    ["measure", "--quantity", "volume"],
    ["measure", "--quantity", "volume", "--shape", SPHERE, "--profile", QUADRANT],
    ["measure", "--quantity", "volume", "--shape", SPHERE, "--alpha", "1"],
    ["measure", "--quantity", "volume", "--shape", "{"],
    ["measure", "--quantity", "volume", "--shape", '{"shape": "box", "params": {}}'],
    ["measure", "--quantity", "circumference", "--shape", SPHERE],
    ["measure", "--quantity", "area", "--profile", QUADRANT],
    ["measure", "--quantity", "area_scale", "--beta", "1"],
    ["measure", "--quantity", "area_scale", "--alpha", "1", "--oracle", "10"],
    ["measure", "--quantity", "volume", "--shape", SPHERE, "--degrees"],
    ["measure", "--quantity", "area", "--shape",
     '{"shape": "circle", "params": {"r": 1}}', "--oracle", "10"],
])
def test_measure_spec_errors_exit_2(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert err.startswith("error:")


DEEP = "[" * 1000 + "]" * 1000


@pytest.mark.parametrize("argv", [
    ["measure", "--quantity", "volume", "--profile", DEEP],
    ["measure", "--quantity", "volume", "--shape", DEEP],
    ["plot", "--profile", DIAMOND, "--overlay", DEEP, "--out", "unused.svg"],
])
def test_deeply_nested_json_exits_2(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


# An integer of 5,000 digits is more than int() converts from a string by
# default, so json.loads refuses it.
LONG_INT = "1" + "0" * 5000
LONG_SHAPE = '{"shape": "sphere", "params": {"r": %s}}' % LONG_INT
LONG_PROFILE = ('{"catalog": "linear", "params": {"slope": 0, "intercept": %s, '
                '"lo": 0, "hi": 1}}' % LONG_INT)


@pytest.mark.parametrize("argv", [
    ["measure", "--quantity", "volume", "--shape", LONG_SHAPE],
    ["measure", "--quantity", "volume", "--profile", LONG_PROFILE],
    ["table", "--quantity", "volume", "--profile", LONG_PROFILE, "--ns", "1"],
    ["plot", "--profile", DIAMOND, "--overlay", LONG_PROFILE, "--out", "unused.svg"],
])
def test_json_integer_too_long_to_convert_exits_3(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, argv)
    assert code == 3
    assert out == ""
    assert err == "error: JSON argument holds an integer too large for a float\n"
    assert not (tmp_path / "unused.svg").exists()


TENT = '{"piecewise_linear": [[1, 1], [1.00000000000004, 1.5], [1.0000000000001, 1]]}'


def test_measure_on_a_domain_a_few_hundred_floats_wide_ends(capsys):
    # Near x = 1 the domain is 450 float spacings wide: every abscissa is
    # rounded by up to 1/900 of the width, so the quadrature cannot reach its
    # tolerance and says so.
    code, out, err = run(capsys, ["measure", "--quantity", "surface", "--profile", TENT])
    assert code == 4 and out == ""
    assert err.startswith("error: quadrature cannot reach") and err.count("\n") == 1


def test_measure_on_a_domain_a_few_hundred_floats_wide_prints_no_quadrature(capsys):
    # Rounded abscissas put the quadrature 3e-3 off the oracle's 7.071067812.
    code, out, err = run(capsys, ["measure", "--quantity", "surface", "--oracle", "100",
                                  "--profile", TENT])
    assert code == 4 and out == ""
    assert "too few float spacings" in err


def test_measure_checks_the_cell_count_before_it_computes(capsys):
    # The quadrature would fail with exit 4; the argument error comes first.
    code, out, err = run(capsys, ["measure", "--quantity", "surface", "--oracle", "0",
                                  "--profile", TENT])
    assert code == 3 and out == ""
    assert err == f"error: oracle needs 1 <= n <= {oracles.MAX_CELLS} cells, got 0\n"


# The same tent at x = 0.5 inside a domain of width 1: its two pieces are
# 360 and 540 float spacings wide.
WIDE_TENT = json.dumps({"piecewise_linear": [[0, 1], [0.5, 1], [0.50000000000004, 1.5],
                                             [0.5000000000001, 1], [1, 1]]})


def test_measure_surface_of_a_tent_a_few_hundred_floats_wide_inside_a_wide_domain_ends(capsys):
    # The integrand varies by over 1e13 inside the tent's narrow pieces, so
    # rounding their abscissas costs far more than the tolerance: the
    # quadrature would print 15.0684543 beside the oracle's exact 15.07106781.
    code, out, err = run(capsys, ["measure", "--quantity", "surface", "--oracle", "1000",
                                  "--profile", WIDE_TENT])
    assert code == 4 and out == ""
    assert err.startswith("error: quadrature cannot reach") and err.count("\n") == 1
    assert "too few float spacings" in err


def test_measure_arclength_of_a_tent_inside_a_wide_domain_is_exact(capsys):
    # The integrand 1 + |f'| is constant on each piece and a rounded node
    # stays inside its piece, so rounding costs nothing and the quadrature
    # answers.
    code, out, err = run(capsys, ["measure", "--quantity", "arclength", "--oracle", "1000",
                                  "--json", "--profile", WIDE_TENT])
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["quadrature"] == pytest.approx(2.0, rel=1e-9, abs=0.0)
    assert report["oracle"] == 2.0


def test_measure_volume_of_a_tent_inside_a_wide_domain_is_exact(capsys):
    # f^2 is continuous at the splits, so rounding them costs nothing.
    code, out, err = run(capsys, ["measure", "--quantity", "volume", "--oracle", "1000",
                                  "--json", "--profile", WIDE_TENT])
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["quadrature"] == pytest.approx(2.0, rel=1e-9, abs=0.0)
    assert report["oracle"] == pytest.approx(2.0, rel=1e-12, abs=0.0)


FLAT_OFFSET = json.dumps({"piecewise_linear": [[1e6 + 0.05 * i, 1] for i in range(21)]})


@pytest.mark.parametrize("quantity,exact", [("arclength", 1.0), ("surface", 8.0),
                                            ("volume", 2.0)])
def test_measure_flat_profile_of_many_pieces_on_an_offset_domain(capsys, quantity, exact):
    # 20 pieces on [1e6, 1e6 + 1], a domain 8.6e9 float spacings wide.
    code, out, err = run(capsys, ["measure", "--quantity", quantity, "--json",
                                  "--profile", FLAT_OFFSET])
    assert code == 0 and err == ""
    assert json.loads(out)["quadrature"] == pytest.approx(exact, rel=1e-9)


@pytest.mark.parametrize("quantity", ["surface", "volume"])
@pytest.mark.parametrize("vertices,x,y", [
    ("[[0, 1], [1, -0.5], [2, 1]]", "1.0", "-0.5"),
    ("[[0, 1], [1, 0.5], [2, -0.25]]", "2.0", "-0.25"),
])
def test_measure_profile_negative_at_a_vertex_exits_3(capsys, quantity, vertices, x, y):
    # A piecewise-linear profile is checked at its vertices only, which is
    # exact: each segment has its minimum at an end.  The vertex is named in
    # plain floats, not in NumPy's scalar repr.
    code, out, err = run(capsys, ["measure", "--quantity", quantity, "--profile",
                                  '{"piecewise_linear": %s}' % vertices])
    assert code == 3 and out == ""
    assert err == f"error: profile must be nonnegative on the domain: f({x}) = {y}\n"


@pytest.mark.parametrize("quantity", ["arclength", "surface", "volume"])
def test_measure_with_an_oracle_on_a_zero_width_domain_is_zero(capsys, quantity):
    point = '{"catalog": "linear", "params": {"slope": 1, "intercept": 1, "lo": 1, "hi": 1}}'
    code, out, err = run(capsys, ["measure", "--quantity", quantity, "--profile", point,
                                  "--oracle", "10", "--json"])
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["quadrature"] == 0.0 and report["oracle"] == 0.0


@pytest.mark.parametrize("r", ["1e-120", "1e120"])
def test_measure_sphere_surface_oracle_at_extreme_radii(capsys, r):
    # (f0 + f1)(dx + |df|) sqrt(dx^2 + df^2/2) scales as r^3: the oracle
    # printed 0.0 with exit 0 at 1e-120 and exited 3 with inf at 1e120.
    sphere = '{"shape": "sphere", "params": {"r": %s}}' % r
    code, out, err = run(capsys, ["measure", "--quantity", "surface", "--shape", sphere,
                                  "--oracle", "64", "--json"])
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["oracle"] == pytest.approx(report["analytic"], rel=1e-15, abs=0.0)


def test_measure_surface_oracle_with_a_cell_whose_squares_underflow(capsys):
    # The squares of the cell [0, 1e-200] underflow to 0: its frustum term
    # was 0/0, and the command exited 3 with oracle = nan.
    profile = '{"piecewise_linear": [[0, 1], [1e-200, 1], [1, 2]]}'
    code, out, err = run(capsys, ["measure", "--quantity", "surface", "--profile", profile,
                                  "--oracle", "100", "--json"])
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["oracle"] == pytest.approx(12.0 * math.sqrt(3.0), rel=1e-15, abs=0.0)
    assert report["oracle"] == pytest.approx(report["quadrature"], rel=1e-12, abs=0.0)


def test_measure_angles_for_another_quantity_exit_2(capsys):
    code, out, err = run(capsys, ["measure", "--quantity", "volume", "--alpha", "1"])
    assert code == 2 and out == ""
    assert err == "error: --alpha/--beta apply only to area_scale, not 'volume'\n"


@pytest.mark.parametrize("slope, shown", [("NaN", "nan"), ("Infinity", "inf")])
def test_measure_profile_with_a_nonfinite_slope_exits_3(capsys, slope, shown):
    spec = ('{"catalog": "linear", "params": {"slope": %s, "intercept": 1, "lo": 0, "hi": 1}}'
            % slope)
    code, out, err = run(capsys, ["measure", "--quantity", "arclength", "--profile", spec])
    assert code == 3 and out == ""
    assert err == f"error: profile_linear: slope must be finite, got {shown}\n"


def test_measure_domain_error_exits_3(capsys):
    code, _, err = run(capsys, ["measure", "--quantity", "volume", "--shape",
                                '{"shape": "sphere", "params": {"r": -1}}'])
    assert code == 3
    assert "r" in err


@pytest.mark.parametrize("spec", [
    '{"shape": "sphere", "params": {"r": 1e200}}',
    '{"shape": "cylinder", "params": {"r": 1e300, "h": 1e300}}',
])
def test_measure_overflowing_volume_exits_3(capsys, spec):
    code, out, err = run(capsys, ["measure", "--quantity", "volume", "--shape", spec])
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_measure_integer_parameter_too_large_for_a_float_exits_3(capsys):
    spec = '{"shape": "sphere", "params": {"r": 1%s}}' % ("0" * 400)
    code, out, err = run(capsys, ["measure", "--quantity", "volume", "--shape", spec])
    assert code == 3 and out == ""
    assert err == "error: shape 'sphere': parameter 'r' is an integer too large for a float\n"


@pytest.mark.parametrize("source", [["--shape", SPHERE], ["--profile", DIAMOND]])
def test_measure_oracle_cell_bound_exits_3(capsys, source):
    n = str(oracles.MAX_CELLS + 1)
    code, out, err = run(capsys, ["measure", "--quantity", "volume", *source, "--oracle", n])
    assert code == 3
    assert out == ""
    assert str(oracles.MAX_CELLS) in err


def test_every_quantity_list_is_keyed_by_the_one_table():
    # The CLI's choices, quadrature_measure and _ORACLES all read
    # geometry.PROFILE_QUANTITIES, which loads no array module.
    table = tuple(PROFILE_QUANTITIES)
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    choices = {(command, a.dest): tuple(a.choices)
               for command, p in sub.choices.items() for a in p._actions if a.choices}
    assert choices == {("measure", "quantity"): table + ("area_scale", "circumference", "area"),
                       ("verify", "suite"): table + ("ellipsoid",),
                       ("table", "quantity"): table}
    assert tuple(oracles._ORACLES) == table
    for quantity, entry in PROFILE_QUANTITIES.items():
        assert measures.quadrature_measure(quantity) is getattr(measures, entry.measure)
        assert oracles._ORACLES[quantity] is getattr(oracles, entry.oracle)


def test_the_benchmark_worker_names_the_quantities_of_the_one_table():
    # perfbench/worker.py keeps its own copies of the measure and oracle
    # names; it is loaded by path, as the benchmark runs it.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"
    spec = importlib.util.spec_from_file_location("perfbench_worker", path)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    assert worker._MEASURES == {q: e.measure for q, e in PROFILE_QUANTITIES.items()}
    assert worker._ORACLES == {q: e.oracle for q, e in PROFILE_QUANTITIES.items()}


# The names a tracer wraps by binding a wrapper in their place on the module,
# and, for an oracle, in oracles._ORACLES too.  Every command must call what
# is bound there at call time.
WRAPPED = {measures: ("integrate", "detect_sign_changes", "arclength_functional",
                      "surface_of_revolution", "volume_of_revolution"),
           oracles: ("polyline_sum", "frustum_sum", "disk_sum", "polyline_arclength_oracle",
                     "frustum_surface_oracle", "disk_volume_oracle")}


@pytest.mark.parametrize("argv,called", [
    (["measure", "--quantity", "arclength", "--profile", QUADRANT, "--oracle", "10"],
     {"arclength_functional", "integrate", "polyline_arclength_oracle", "polyline_sum"}),
    (["measure", "--quantity", "surface", "--profile", DIAMOND, "--oracle", "10"],
     {"surface_of_revolution", "integrate", "frustum_surface_oracle", "frustum_sum"}),
    (["measure", "--quantity", "surface", "--shape", SPHERE, "--oracle", "10"],
     {"frustum_surface_oracle", "frustum_sum"}),
    (["measure", "--quantity", "circumference", "--shape", CIRCLE, "--oracle", "10"],
     {"polyline_arclength_oracle", "polyline_sum"}),
    (["table", "--quantity", "volume", "--profile", DIAMOND, "--ns", "4,8"],
     {"volume_of_revolution", "integrate", "disk_volume_oracle", "disk_sum"}),
    (["verify"], {"arclength_functional", "surface_of_revolution", "volume_of_revolution",
                  "integrate", *WRAPPED[oracles]}),
], ids=["profile-arclength", "profile-surface", "shape-surface", "shape-circumference",
        "table", "verify"])
def test_commands_call_the_names_a_tracer_wraps(capsys, monkeypatch, argv, called):
    calls = set()

    def wrap(name, fn):
        def wrapper(*args, **kwargs):
            calls.add(name)
            return fn(*args, **kwargs)
        return wrapper

    for module, names in WRAPPED.items():
        for name in names:
            fn = getattr(module, name)
            monkeypatch.setattr(module, name, wrap(name, fn))
            for quantity, entry in oracles._ORACLES.items():
                if entry is fn:
                    monkeypatch.setitem(oracles._ORACLES, quantity, getattr(module, name))
    code, out, _ = run(capsys, argv)
    assert code == 0 and out
    assert calls == called


def test_measure_convergence_error_exits_4(capsys, monkeypatch):
    def blow_up(prof):
        raise ConvergenceError("stuck", value=1.0, error_estimate=0.5)

    # measure imports measures when it evaluates a profile and looks the
    # function up on it then.
    monkeypatch.setattr(measures, "arclength_functional", blow_up)
    code, _, err = run(capsys, ["measure", "--quantity", "arclength", "--profile", QUADRANT])
    assert code == 4
    assert "stuck" in err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_all_suites_pass(capsys):
    code, out, _ = run(capsys, ["verify"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "suite,case,analytic,quadrature,oracle_n,oracle,abs_err_quad,abs_err_oracle,pass"
    assert len(lines) > 20
    assert all(line.endswith(",true") for line in lines[1:])
    suites = {line.split(",")[0] for line in lines[1:]}
    assert suites == {"arclength", "surface", "volume", "ellipsoid"}


def test_verify_suite_filter(capsys):
    code, out, _ = run(capsys, ["verify", "--suite", "arclength"])
    assert code == 0
    lines = out.strip().splitlines()[1:]
    assert lines
    assert all(line.startswith("arclength,") for line in lines)


def test_verify_rows_are_sorted(capsys):
    _, out, _ = run(capsys, ["verify", "--suite", "surface"])
    keys = [tuple(line.split(",")[:2]) for line in out.strip().splitlines()[1:]]
    assert keys == sorted(keys)


def test_verify_unreachable_tol_fails(capsys):
    code, out, _ = run(capsys, ["verify", "--suite", "arclength", "--tol", "1e-30"])
    assert code == 1
    assert any(line.endswith(",false") for line in out.strip().splitlines()[1:])


def test_verify_rejects_bad_tol(capsys):
    code, _, err = run(capsys, ["verify", "--tol", "-1"])
    assert code == 2
    assert "--tol" in err


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

def test_table_volume_convergence(capsys):
    code, out, _ = run(capsys, ["table", "--profile", DIAMOND,
                                "--quantity", "volume", "--ns", "4,16,64"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,oracle,reference,abs_error"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == [4, 16, 64]
    errs = [float(r[3]) for r in rows]
    assert 12.0 < errs[0] / errs[1] < 20.0
    assert 12.0 < errs[1] / errs[2] < 20.0


def test_table_rejects_bad_ns(capsys):
    code, _, err = run(capsys, ["table", "--profile", DIAMOND,
                                "--quantity", "volume", "--ns", "4,banana"])
    assert code == 2
    assert "--ns" in err


def test_table_rejects_decreasing_ns(capsys):
    code, _, _ = run(capsys, ["table", "--profile", DIAMOND,
                              "--quantity", "volume", "--ns", "16,4"])
    assert code == 3


def test_table_rejects_ns_above_cell_bound(capsys):
    code, out, err = run(capsys, ["table", "--profile", DIAMOND, "--quantity", "volume",
                                  "--ns", f"4,{oracles.MAX_CELLS + 1}"])
    assert code == 3
    assert out == ""
    assert str(oracles.MAX_CELLS) in err


def test_table_rejects_nonfinite_rows(capsys):
    # Every sample is finite, but the volume sums overflow.
    profile = ('{"catalog": "linear", "params": '
               '{"slope": 0, "intercept": 1e153, "lo": 0, "hi": 1000}}')
    code, out, err = run(capsys, ["table", "--profile", profile, "--quantity", "volume",
                                  "--ns", "1,2"])
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_overflowing_oracle_prints_only_the_error_line():
    proc = subprocess.run(
        [sys.executable, "-m", "taximeasure", "measure", "--quantity", "volume",
         "--shape", '{"shape": "cylinder", "params": {"r": 1e300, "h": 1e300}}',
         "--oracle", "10"],
        capture_output=True, text=True)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1


def test_oracle_measure_leaves_numpy_ma_unimported():
    # numpy.ma costs a cold process ~15 ms to import; np.unique pulls it in.
    code = ("import sys\n"
            "from taximeasure.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "assert code == 0, code\n"
            "print('numpy.ma' in sys.modules)\n")
    proc = subprocess.run(
        [sys.executable, "-c", code, "measure", "--quantity", "volume", "--shape", SPHERE,
         "--oracle", "64"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


# ---------------------------------------------------------------------------
# plot
# ---------------------------------------------------------------------------

def test_plot_writes_svg(capsys, tmp_path):
    out_path = tmp_path / "diamond.svg"
    code, _, _ = run(capsys, ["plot", "--shape", '{"shape": "circle", "params": {"r": 1}}',
                              "--mirror", "--out", str(out_path)])
    assert code == 0
    text = out_path.read_text(encoding="utf-8")
    assert text.startswith("<svg ") and text.endswith("</svg>\n")
    assert text.count("<polyline") == 2


def test_plot_profile_with_overlay(capsys, tmp_path):
    out_path = tmp_path / "overlay.svg"
    code, _, _ = run(capsys, ["plot", "--profile", DIAMOND, "--overlay", QUADRANT,
                              "--out", str(out_path)])
    assert code == 0
    assert out_path.read_text(encoding="utf-8").count("<polyline") == 2


def test_plot_requires_exactly_one_source(capsys, tmp_path):
    code, _, _ = run(capsys, ["plot", "--shape", SPHERE, "--profile", DIAMOND,
                              "--out", str(tmp_path / "x.svg")])
    assert code == 2
    code, _, _ = run(capsys, ["plot", "--out", str(tmp_path / "x.svg")])
    assert code == 2


def test_plot_unwritable_path_exits_5(capsys, tmp_path):
    code, _, err = run(capsys, ["plot", "--profile", DIAMOND,
                                "--out", str(tmp_path / "missing" / "x.svg")])
    assert code == 5
    assert err.startswith("error:")


@pytest.mark.parametrize("spec,extra", [
    # The samples overflow.
    ('{"catalog": "linear", "params": {"slope": 1e308, "intercept": 1e308, '
     '"lo": 0, "hi": 10}}', []),
    # The domain's width overflows, so the sample abscissas are nan.
    ('{"piecewise_linear": [[-1e308, 0], [1e308, 1]]}', []),
    # Every sample is finite; the mirrored extent is not.
    ('{"piecewise_linear": [[0, 1e308], [1, 1e308]]}', ["--mirror"]),
], ids=["overflowing_samples", "nan_abscissas", "overflowing_extent"])
def test_plot_that_cannot_be_drawn_with_finite_coordinates_exits_3(capsys, tmp_path,
                                                                   spec, extra):
    out_path = tmp_path / "x.svg"
    code, out, err = run(capsys, ["plot", "--profile", spec, *extra, "--out", str(out_path)])
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "np." not in err
    assert not out_path.exists()


def test_measure_output_is_deterministic(capsys):
    argv = ["measure", "--quantity", "surface", "--shape", SPHERE, "--oracle", "64", "--json"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second
