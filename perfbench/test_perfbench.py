"""Tests of the benchmark itself: references, checks and tracing wrappers.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import math
import os
import shutil
import subprocess
import sys

import mpmath as mp
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import refs  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(HERE)


# ---------------------------------------------------------------------------
# References agree with independent computations
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("s,L", [(0.3, 3.0), (1.0, 20.0), (2.0, 5.0), (0.8, 1.2)])
def test_sin_closed_forms_match_mpmath(s, L):
    with mp.workdps(30):
        zeros = [mp.pi / 2 + k * mp.pi for k in range(len(refs._cos_zeros(L)))]
        pts = [0] + zeros + [mp.mpf(L)]
        arc = mp.quad(lambda x: 1 + s * abs(mp.cos(x)), pts)
        vol = mp.quad(lambda x: 2 * (s * (mp.sin(x) + 1.5)) ** 2, [0, L])
    assert refs.sin_arclength(s, L) == pytest.approx(float(arc), rel=1e-14)
    assert refs.sin_volume(s, L) == pytest.approx(float(vol), rel=1e-14)
    assert refs.sin_arclength(s, L, 1e3) == pytest.approx(1e3 * float(arc), rel=1e-14)


def test_polygon_sums_match_mpmath():
    verts = [(0.0, 0.4), (0.7, 1.9), (1.3, 0.2), (2.0, 0.9)]

    def f(x):
        for (x0, y0), (x1, y1) in zip(verts, verts[1:]):
            if x0 <= x <= x1:
                return y0 + (y1 - y0) * (x - x0) / (x1 - x0)

    def slope(x):
        for (x0, y0), (x1, y1) in zip(verts, verts[1:]):
            if x0 <= x <= x1:
                return (y1 - y0) / (x1 - x0)

    def surface(x):
        d = slope(x)
        return 8 * f(x) * (1 + abs(d)) * mp.sqrt(1 - d * d / (2 * (1 + d * d)))

    knots = [v[0] for v in verts]
    with mp.workdps(30):
        assert refs.pl_arclength(verts) == pytest.approx(
            float(mp.quad(lambda x: 1 + abs(slope(x)), knots)), rel=1e-14)
        assert refs.pl_volume(verts) == pytest.approx(
            float(mp.quad(lambda x: 2 * f(x) ** 2, knots)), rel=1e-14)
        assert refs.pl_surface(verts) == pytest.approx(float(mp.quad(surface, knots)), rel=1e-14)


@pytest.mark.parametrize("shape,params", [
    ("sphere", {"r": 1.7}), ("cylinder", {"r": 0.6, "h": 2.5}),
    ("paraboloid", {"a": 1.2, "h": 3.1}), ("ellipsoid", {"a": 2.0, "b": 1.5, "s": 5.0}),
    ("ellipsoid", {"a": 2.0, "b": 1.0, "s": 4.0}),
])
def test_shape_closed_forms_match_polygon_sums(shape, params):
    name, p = refs.shape_profile(shape, params)
    verts = refs.catalog_vertices(name, p)
    assert refs.shape_closed_form(shape, "volume", params) == pytest.approx(
        refs.pl_volume(verts), rel=1e-14)
    lateral = refs.shape_closed_form(shape, "surface", params) - refs.shape_caps(shape, params)
    assert lateral == pytest.approx(refs.pl_surface(verts), rel=1e-14)


def test_paper_constants():
    assert refs.shape_closed_form("sphere", "surface", {"r": 1.0}) == 8 * math.sqrt(3)
    assert refs.shape_closed_form("sphere", "volume", {"r": 3.0}) == pytest.approx(36.0)
    assert refs.catalog_measure("taxicab_circle_upper", "arclength", {"r": 2.0}) == 8.0
    assert refs.catalog_measure("euclidean_circle_quadrant", "arclength", {"r": 2.0}) == 4.0


def test_stored_references_are_reproducible():
    assert refs.compute_store() == refs.load_store()


# ---------------------------------------------------------------------------
# Checks count wrong results as failed
# ---------------------------------------------------------------------------

def _exact_outputs(ops):
    """What a program without error would return for each in-process op."""
    out = []
    for op in ops:
        if op["kind"] == "table":
            ref = op["ref"]
            rows = []
            for n in op["ns"]:
                v = ref * (1 + 1.0 / n ** 2) if op["quantity"] == "volume" else ref
                rows.append([n, v, ref, abs(v - ref)])
            out.append(rows)
        elif op.get("check") == "order":
            out.append(op["ref"] * (1 - 1.0 / op["n"] ** 2))
        else:
            out.append(op["ref"])
    return out


@pytest.mark.parametrize("workload", ["quad_solve", "oracle_sweep"])
def test_exact_outputs_pass_and_perturbed_fail(workload):
    ops = workloads.build(workload, 7)
    outputs = _exact_outputs(ops)
    fails, good = checks.check_inprocess(ops, outputs)
    assert fails == {}
    targets = [i for i, op in enumerate(ops) if op["kind"] != "table"
               and op.get("check") != "order" and op.get("lam", 1.0) == 1.0][:5]
    for i in targets:
        bad = list(outputs)
        bad[i] = outputs[i] * (1 + 1e-6)
        fails, _ = checks.check_inprocess(ops, bad)
        assert ops[i]["id"] in fails


def test_scale_law_catches_a_wrong_magnitude():
    ops = workloads.build("quad_solve", 3)
    outputs = _exact_outputs(ops)
    i = next(k for k, op in enumerate(ops) if op["id"] == "pl6/volume/0.001")
    outputs[i] *= 1 + 1e-6
    fails, _ = checks.check_inprocess(ops, outputs)
    assert "pl6/volume/0.001" in fails


def test_error_output_is_a_failure():
    ops = workloads.build("quad_solve", 3)
    outputs = _exact_outputs(ops)
    outputs[0] = ["error", "ConvergenceError", "budget"]
    fails, _ = checks.check_inprocess(ops, outputs)
    assert ops[0]["id"] in fails


def test_cli_checks():
    ops = {op["id"]: op for op in workloads.build("cli_cold", 5)}
    sphere = ops["shape/sphere/volume"]
    good = json.dumps({"quantity": "volume", "analytic": sphere["ref"]})
    assert checks.check_cli(sphere, 0, good, "")[0] is None
    off = json.dumps({"quantity": "volume", "analytic": sphere["ref"] * (1 + 1e-6)})
    assert checks.check_cli(sphere, 0, off, "")[0] is not None
    assert checks.check_cli(sphere, 3, good, "error: no")[0] is not None

    hostile = ops["hostile/negative_radius"]
    assert checks.check_cli(hostile, 3, "", "error: r must be > 0\n")[0] is None
    assert checks.check_cli(hostile, 2, "", "error: r must be > 0\n")[0] is not None
    assert checks.check_cli(hostile, 3, "", "Traceback (most recent call last):\n")[0] \
        is not None
    inf = ops["overflow/cylinder_1e300"]
    assert checks.check_cli(inf, 0, "analytic = inf\n", "")[0] is not None


# ---------------------------------------------------------------------------
# Wrappers and the harness
# ---------------------------------------------------------------------------

def _env():
    env = dict(os.environ)
    env.pop("TAXI_QUAD_TOL", None)
    return env


def test_traced_outputs_equal_untraced(tmp_path):
    ops = workloads.build("oracle_sweep", 2)
    keep = ("sphere/arclength/1000000", "pl2000/surface/100000", "ecq/volume/1000",
            "table/ecq/arclength")
    plan = {"ops": [op for op in ops if op["id"] in keep]}
    quad = [op for op in workloads.build("quad_solve", 2)
            if op["id"] in ("ecq/arclength/1", "seeded_sin1/surface/1", "pl12/volume/0.001")]
    plan["ops"] += quad
    plan_path, result_path = tmp_path / "plan.json", tmp_path / "result.json"
    plan_path.write_text(json.dumps(plan))
    subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), str(plan_path),
                    str(result_path), "--seconds", "0", "--trace"], check=True, env=_env())
    res = json.loads(result_path.read_text())
    assert res["traced_outputs"] == res["outputs"]
    assert res["trace"]["rounds"]["quadrature.samples"] > 0
    assert res["trace"]["rounds"]["kernels.cells"] > 0
    assert res["trace"]["counters"]["eval_calls"] > 0


def test_cli_launcher_matches_plain_cli(tmp_path):
    argv = ["measure", "--quantity", "surface", "--json",
            "--profile", '{"catalog": "euclidean_circle_quadrant", "params": {"r": 1.5}}',
            "--oracle", "1000"]
    src = os.path.join(ROOT, "src")
    plain = subprocess.run([sys.executable, "-m", "taximeasure", *argv], capture_output=True,
                           text=True, env={**_env(), "PYTHONPATH": src})
    trace_path = tmp_path / "t.json"
    traced = subprocess.run([sys.executable, os.path.join(HERE, "cli_launch.py"),
                             str(trace_path), *argv], capture_output=True, text=True,
                            env=_env())
    assert (traced.returncode, traced.stdout) == (plain.returncode, plain.stdout)
    trace = json.loads(trace_path.read_text())
    assert trace["layers"]["quadrature.samples"] > 0
    assert trace["layers"]["kernels.cells"] == 1000


def test_run_without_sources_fails(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "quad_solve",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
