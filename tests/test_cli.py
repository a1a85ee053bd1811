import json
import math
import os
import subprocess
import sys

import pytest

from taximeasure import ConvergenceError, cli, oracles
from taximeasure.cli import main

SPHERE = '{"shape": "sphere", "params": {"r": 1}}'
QUADRANT = '{"catalog": "euclidean_circle_quadrant", "params": {"r": 1}}'
DIAMOND = '{"catalog": "taxicab_circle_upper", "params": {"r": 1}}'


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


def test_measure_json_key_order(capsys):
    code, out, _ = run(capsys, ["measure", "--quantity", "volume", "--shape", SPHERE, "--json"])
    assert code == 0
    obj = json.loads(out)
    assert list(obj) == ["quantity", "analytic", "params"]
    assert obj["quantity"] == "volume"
    assert obj["analytic"] == pytest.approx(4.0 / 3.0, abs=1e-15)
    assert obj["params"] == {"shape": "sphere", "params": {"r": 1}}


def test_measure_shape_with_oracle(capsys):
    code, out, _ = run(capsys, ["measure", "--quantity", "surface", "--shape", SPHERE,
                                "--oracle", "2", "--json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["oracle"] == pytest.approx(obj["analytic"], abs=1e-12)
    assert obj["abs_err_oracle"] <= 1e-12


def test_measure_profile_arclength(capsys):
    code, out, _ = run(capsys, ["measure", "--quantity", "arclength",
                                "--profile", QUADRANT, "--json"])
    assert code == 0
    obj = json.loads(out)
    assert "analytic" not in obj
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


@pytest.mark.parametrize("source", [["--shape", SPHERE], ["--profile", DIAMOND]])
def test_measure_oracle_cell_bound_exits_3(capsys, source):
    n = str(oracles.MAX_CELLS + 1)
    code, out, err = run(capsys, ["measure", "--quantity", "volume", *source, "--oracle", n])
    assert code == 3
    assert out == ""
    assert str(oracles.MAX_CELLS) in err


def test_measure_convergence_error_exits_4(capsys, monkeypatch):
    def blow_up(prof, domain=None, cfg=None):
        raise ConvergenceError("stuck", value=1.0, error_estimate=0.5)

    monkeypatch.setattr(cli.measures, "arclength_functional", blow_up)
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
    env = dict(os.environ)
    env.pop("TAXI_QUAD_TOL", None)
    proc = subprocess.run(
        [sys.executable, "-m", "taximeasure", "measure", "--quantity", "volume",
         "--shape", '{"shape": "cylinder", "params": {"r": 1e300, "h": 1e300}}',
         "--oracle", "10"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1


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


# ---------------------------------------------------------------------------
# environment tolerance override
# ---------------------------------------------------------------------------

def test_env_tol_override_is_honored(capsys, monkeypatch):
    seen = {}
    real = cli.measures.arclength_functional

    def spy(prof, domain=None, cfg=None):
        seen["tol"] = cfg.abs_tol
        return real(prof, domain, cfg)

    monkeypatch.setattr(cli.measures, "arclength_functional", spy)
    monkeypatch.setenv("TAXI_QUAD_TOL", "1e-6")
    code, _, _ = run(capsys, ["measure", "--quantity", "arclength", "--profile", QUADRANT])
    assert code == 0
    assert seen["tol"] == 1e-6


@pytest.mark.parametrize("value", ["abc", "-1", "0", "nan"])
def test_env_tol_rejects_bad_values(capsys, monkeypatch, value):
    monkeypatch.setenv("TAXI_QUAD_TOL", value)
    code, _, err = run(capsys, ["measure", "--quantity", "volume", "--shape", SPHERE])
    assert code == 2
    assert "TAXI_QUAD_TOL" in err


def test_measure_output_is_deterministic(capsys):
    argv = ["measure", "--quantity", "surface", "--shape", SPHERE, "--oracle", "64", "--json"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second
