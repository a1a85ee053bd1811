"""Acceptance gate: end-to-end checks of the package's headline claims.

Each test prints one `[ACCEPTANCE n] PASS/FAIL` line (bypassing capture) so a
plain pytest run yields a visible per-criterion scoreboard.
"""

import json
import math
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

import taximeasure.oracles as oracle_mod
from taximeasure import (
    AngleRad,
    CircleSpec,
    CylinderSpec,
    EllipsoidSpec,
    Interval,
    ParaboloidSpec,
    ProfileFunction,
    RotationAngles,
    SphereSpec,
    arclength_functional,
    arclength_variation,
    area_scaling_factor,
    circle_area,
    cli,
    disk_volume_oracle,
    ellipsoid_cap_radius,
    ellipsoid_surface,
    ellipsoid_volume,
    frustum_surface_oracle,
    graph,
    paraboloid_surface,
    paraboloid_volume,
    polyline_arclength_oracle,
    profile_euclidean_circle_quadrant,
    profile_euclidean_parabola_quadrant,
    profile_linear,
    profile_taxicab_circle_upper,
    revolution_profile,
    sphere_surface,
    sphere_volume,
    surface_of_revolution,
    taxicab_area_rotated,
    volume_of_revolution,
)

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


@contextmanager
def criterion(capsys, number, label):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"[ACCEPTANCE {number}] FAIL {label}")
        raise
    with capsys.disabled():
        print(f"[ACCEPTANCE {number}] PASS {label}")


def test_acceptance_01_quarter_circle_lengths(capsys):
    with criterion(capsys, 1, "all quarter circles have length 2r"):
        start = time.perf_counter()
        for r in (1.0, 2.5):
            profiles = (
                profile_linear(-1.0, r, Interval(0.0, r)),
                profile_euclidean_circle_quadrant(r),
                profile_euclidean_parabola_quadrant(r),
            )
            for prof in profiles:
                assert arclength_functional(prof) == pytest.approx(2.0 * r, abs=1e-8)
        assert time.perf_counter() - start < 1.0


def _random_monotone_profiles(count):
    rng = np.random.default_rng(20260814)
    profiles = []
    for i in range(count):
        lo = rng.uniform(-2.0, 2.0)
        hi = lo + rng.uniform(0.5, 3.0)
        sign = -1.0 if rng.random() < 0.5 else 1.0
        if i % 2 == 0:
            p = rng.uniform(0.1, 3.0)
            q = rng.uniform(0.0, 2.0)
            c = rng.uniform(-5.0, 5.0)
            profiles.append(ProfileFunction(
                evaluate=lambda x, p=p, q=q, c=c, s=sign: s * (p * x + q * x ** 3 / 3.0) + c,
                derivative=lambda x, p=p, q=q, s=sign: s * (p + q * x * x),
                domain=Interval(lo, hi)))
        else:
            a = rng.uniform(0.2, 2.0)
            b = sign * rng.uniform(0.2, 0.8)
            profiles.append(ProfileFunction(
                evaluate=lambda x, a=a, b=b: a * np.exp(b * x),
                derivative=lambda x, a=a, b=b: a * b * np.exp(b * x),
                domain=Interval(lo, hi)))
    return profiles


def test_acceptance_02_monotone_closed_form_suite(capsys):
    with criterion(capsys, 2, "closed form matches quadrature on 200 monotone profiles"):
        start = time.perf_counter()
        for prof in _random_monotone_profiles(200):
            closed = arclength_variation(graph(prof))
            quad = arclength_functional(prof)
            assert quad == pytest.approx(closed, abs=1e-8)
        assert time.perf_counter() - start < 5.0


def test_acceptance_03_sphere_surface(capsys):
    with criterion(capsys, 3, "sphere surface: quadrature and n=2 frustum oracle"):
        for r in (0.5, 1.0, 2.0):
            expected = 8.0 * SQRT3 * r * r
            half = surface_of_revolution(profile_linear(-1.0, r, Interval(0.0, r)))
            assert 2.0 * half == pytest.approx(expected, abs=1e-8)
            oracle = frustum_surface_oracle(revolution_profile(SphereSpec(r)), n=2)
            assert oracle == pytest.approx(expected, abs=1e-12)


def test_acceptance_04_sphere_volume(capsys):
    with criterion(capsys, 4, "sphere volume: quadrature and n=1e5 disk oracle"):
        for r in (0.5, 1.0, 2.0):
            expected = (4.0 / 3.0) * r ** 3
            prof = profile_taxicab_circle_upper(r)
            assert volume_of_revolution(prof) == pytest.approx(expected, abs=1e-8)
            assert disk_volume_oracle(prof, n=100_000) == pytest.approx(expected, abs=1e-4)


def test_acceptance_05_cylinder_volume(capsys):
    with criterion(capsys, 5, "cylinder volume 2 r^2 h exact to 1e-12"):
        for r, h in ((1.0, 1.0), (2.0, 3.0), (1.0, 2.0), (0.5, 4.0)):
            prof = profile_linear(0.0, r, Interval(0.0, h))
            assert volume_of_revolution(prof) == pytest.approx(2.0 * r * r * h, abs=1e-12)


def test_acceptance_06_paraboloid(capsys):
    with criterion(capsys, 6, "paraboloid closed forms; h=a is exactly a half-sphere"):
        for a, h in ((1.0, 3.0), (1.0, 1.0), (2.0, 5.0)):
            spec = ParaboloidSpec(a, h)
            prof = revolution_profile(spec)
            assert surface_of_revolution(prof) == pytest.approx(paraboloid_surface(spec), abs=1e-8)
            assert volume_of_revolution(prof) == pytest.approx(paraboloid_volume(spec), abs=1e-8)
        for a in (0.5, 1.0, 2.0):
            spec = ParaboloidSpec(a, a)
            assert paraboloid_surface(spec) == sphere_surface(SphereSpec(a)) / 2.0
            assert paraboloid_volume(spec) == sphere_volume(SphereSpec(a)) / 2.0


def test_acceptance_07_ellipsoid(capsys):
    with criterion(capsys, 7, "ellipsoid closed forms; octagon volume vs n=1e6 disks"):
        for a, b, s in ((1.0, 1.0, 2.0), (2.0, 1.0, 4.0), (2.0, 1.5, 5.0)):
            spec = EllipsoidSpec(a, b, s)
            prof = revolution_profile(spec)
            caps = 2.0 * circle_area(CircleSpec(ellipsoid_cap_radius(spec))) if s > 2.0 * a else 0.0
            assert surface_of_revolution(prof) + caps == pytest.approx(
                ellipsoid_surface(spec), abs=1e-8)
            assert volume_of_revolution(prof) == pytest.approx(ellipsoid_volume(spec), abs=1e-8)
        octagon = EllipsoidSpec(2.0, 1.5, 5.0)
        oracle = disk_volume_oracle(revolution_profile(octagon), n=1_000_000)
        assert oracle == pytest.approx(ellipsoid_volume(octagon), abs=1e-5)


def test_acceptance_08_area_scaling(capsys):
    with criterion(capsys, 8, "area scaling factors sqrt(2) and 2; sphere-face consistency"):
        assert area_scaling_factor(RotationAngles(math.pi / 4.0, 0.0)) == pytest.approx(
            SQRT2, abs=1e-12)
        assert area_scaling_factor(RotationAngles(math.pi / 4.0, math.pi / 4.0)) == pytest.approx(
            2.0, abs=1e-12)
        # the eight flat faces of the taxicab sphere have ordinary area
        # 4 r^2 sqrt(3) in total and each is tilted by (pi/4, pi/4)
        angles = RotationAngles(AngleRad(math.pi / 4.0), AngleRad(math.pi / 4.0))
        for r in (0.5, 1.0, 2.0):
            assert taxicab_area_rotated(4.0 * SQRT3 * r * r, angles) == pytest.approx(
                sphere_surface(SphereSpec(r)), abs=1e-12)


def test_acceptance_09_surface_is_not_volume_derivative(capsys):
    with criterion(capsys, 9, "surface / volume-derivative ratio is 2 sqrt(3)"):
        for r in (0.5, 1.0, 2.0):
            dv_dr = 4.0 * r * r
            ratio = sphere_surface(SphereSpec(r)) / dv_dr
            assert ratio == pytest.approx(2.0 * SQRT3, abs=1e-10)


def test_acceptance_10_verify_suite_and_augmentation_guard(capsys):
    with criterion(capsys, 10, "verify exits 0 in <30s; breakpoint augmentation is live"):
        start = time.perf_counter()
        code = cli.main(["verify"])
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        assert code == 0
        assert elapsed < 30.0
        rows = out.strip().splitlines()[1:]
        assert rows and all(row.endswith(",true") for row in rows)

        # with uniform-only partitions the diamond's kink falls mid-cell and
        # the polyline length degrades from the exact 4.0
        diamond = profile_taxicab_circle_upper(1.0)

        def uniform_only(profile, n):
            yield np.linspace(profile.domain.lo, profile.domain.hi, n + 1)

        original = oracle_mod._blocks
        oracle_mod._blocks = uniform_only
        try:
            degraded = polyline_arclength_oracle(diamond, n=3)
        finally:
            oracle_mod._blocks = original
        assert abs(degraded - 4.0) > 0.1
        assert polyline_arclength_oracle(diamond, n=3) == pytest.approx(4.0, abs=1e-12)


_GOLDEN_SHAPES = (
    ("circle", '{"shape": "circle", "params": {"r": 1}}'),
    ("sphere", '{"shape": "sphere", "params": {"r": 1.5}}'),
    ("cylinder", '{"shape": "cylinder", "params": {"r": 1, "h": 2}}'),
    ("paraboloid", '{"shape": "paraboloid", "params": {"a": 1, "h": 3}}'),
    ("ellipsoid", '{"shape": "ellipsoid", "params": {"a": 2, "b": 1.5, "s": 5}}'),
)


def _run_cli(argv):
    proc = subprocess.run([sys.executable, "-m", "taximeasure.cli", *argv],
                          capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_acceptance_11_byte_identical_reruns(capsys, tmp_path):
    with criterion(capsys, 11, "measure JSON, verify CSV and shape SVGs are byte-stable"):
        measure_argv = ["measure", "--quantity", "surface",
                        "--shape", '{"shape": "sphere", "params": {"r": 1}}',
                        "--oracle", "64", "--json"]
        first = _run_cli(measure_argv)
        second = _run_cli(measure_argv)
        assert first == second
        json.loads(first.decode())

        verify_argv = ["verify"]
        assert _run_cli(verify_argv) == _run_cli(verify_argv)

        for name, spec in _GOLDEN_SHAPES:
            paths = (tmp_path / f"{name}_a.svg", tmp_path / f"{name}_b.svg")
            for path in paths:
                _run_cli(["plot", "--shape", spec, "--mirror", "--out", str(path)])
            blobs = [path.read_bytes() for path in paths]
            assert blobs[0] == blobs[1]
            assert blobs[0].startswith(b"<svg ")
