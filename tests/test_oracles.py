import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import taximeasure.oracles as oracles
from taximeasure import (
    DomainError,
    Interval,
    PiecewiseLinearProfile,
    SphereSpec,
    arclength_functional,
    convergence_table,
    disk_volume_oracle,
    frustum_surface_oracle,
    polyline_arclength_oracle,
    profile_euclidean_circle_quadrant,
    profile_linear,
    profile_taxicab_circle_upper,
    sphere_surface,
)

SQRT3 = math.sqrt(3.0)


def test_polyline_linear_is_exact_with_one_segment():
    f = profile_linear(1.0, 0.0, Interval(0.0, 1.0))
    assert polyline_arclength_oracle(f, n=1) == 2.0


def test_polyline_euclidean_quadrant():
    # monotone profile, so the chord sum telescopes to (b - a) + |df| at any n
    f = profile_euclidean_circle_quadrant(1.0)
    assert polyline_arclength_oracle(f, n=10_000) == pytest.approx(2.0, abs=1e-12)
    assert polyline_arclength_oracle(f, n=7) == pytest.approx(2.0, abs=1e-12)


def test_polyline_taxicab_circle_needs_only_the_breakpoint():
    f = profile_taxicab_circle_upper(1.0)
    # n=2 plus the kink at 0 already gives the exact length of the diamond top
    assert polyline_arclength_oracle(f, n=2) == pytest.approx(4.0, abs=1e-12)


def test_frustum_linear_is_exact_with_one_segment():
    f = profile_linear(-1.0, 1.0, Interval(0.0, 1.0))
    assert frustum_surface_oracle(f, n=1) == pytest.approx(4.0 * SQRT3, abs=1e-12)


def test_frustum_constant_profile_is_exact():
    f = profile_linear(0.0, 1.0, Interval(0.0, 2.0))
    assert frustum_surface_oracle(f, n=5) == 16.0


def test_frustum_taxicab_circle_matches_sphere_surface():
    f = profile_taxicab_circle_upper(1.0)
    assert frustum_surface_oracle(f, n=2) == pytest.approx(sphere_surface(SphereSpec(1.0)), abs=1e-12)


def test_disk_constant_profile():
    f = profile_linear(0.0, 1.0, Interval(0.0, 2.0))
    assert disk_volume_oracle(f, n=1) == pytest.approx(4.0, abs=1e-12)


def test_disk_taxicab_circle_converges_to_sphere_volume():
    f = profile_taxicab_circle_upper(1.0)
    assert disk_volume_oracle(f, n=1_000_000) == pytest.approx(4.0 / 3.0, abs=1e-6)


def test_disk_zero_profile():
    f = profile_linear(0.0, 0.0, Interval(0.0, 1.0))
    assert disk_volume_oracle(f, n=100) == 0.0


def test_oracles_accept_subdomains():
    f = profile_linear(1.0, 0.0, Interval(0.0, 4.0))
    assert polyline_arclength_oracle(f, domain=Interval(1.0, 2.0), n=3) == 2.0
    with pytest.raises(DomainError):
        polyline_arclength_oracle(f, domain=Interval(3.0, 5.0), n=3)


@pytest.mark.parametrize("oracle", [polyline_arclength_oracle, frustum_surface_oracle, disk_volume_oracle])
def test_oracles_reject_bad_segment_counts(oracle):
    f = profile_linear(1.0, 0.0, Interval(0.0, 1.0))
    with pytest.raises(DomainError):
        oracle(f, n=0)


@pytest.mark.parametrize("oracle", [polyline_arclength_oracle, frustum_surface_oracle, disk_volume_oracle])
def test_oracles_reject_more_than_max_cells(oracle):
    f = profile_linear(0.0, 1.0, Interval(0.0, 1.0))
    with pytest.raises(DomainError):
        oracle(f, n=oracles.MAX_CELLS + 1)


@pytest.mark.parametrize("oracle", [frustum_surface_oracle, disk_volume_oracle])
def test_revolution_oracles_reject_negative_profiles(oracle):
    f = profile_linear(0.0, -1.0, Interval(0.0, 1.0))
    with pytest.raises(DomainError):
        oracle(f, n=10)


# ---------------------------------------------------------------------------
# convergence tables
# ---------------------------------------------------------------------------

def test_arclength_table_errors_do_not_increase():
    f = profile_euclidean_circle_quadrant(1.0)
    rows = convergence_table("arclength", f, ns=(10, 100, 1000))
    assert [row.n for row in rows] == [10, 100, 1000]
    assert all(row.reference == rows[0].reference for row in rows)
    assert rows[0].reference == pytest.approx(2.0, abs=1e-9)
    for prev, cur in zip(rows, rows[1:]):
        assert cur.abs_error <= prev.abs_error + 1e-15
    assert rows[-1].abs_error < 1e-6


def test_volume_table_shows_quadratic_convergence():
    f = profile_taxicab_circle_upper(1.0)
    rows = convergence_table("volume", f, ns=(4, 16, 64))
    # midpoint disks converge like 1/n^2, so each 4x step divides the error ~16x
    for prev, cur in zip(rows, rows[1:]):
        ratio = prev.abs_error / cur.abs_error
        assert 12.0 < ratio < 20.0


def test_surface_table_constant_profile_is_exact_at_every_n():
    f = profile_linear(0.0, 1.0, Interval(0.0, 2.0))
    rows = convergence_table("surface", f, ns=(1, 2, 4))
    for row in rows:
        assert row.abs_error <= 1e-12


def test_convergence_table_validates_inputs():
    f = profile_linear(0.0, 1.0, Interval(0.0, 2.0))
    with pytest.raises(DomainError):
        convergence_table("arc", f, ns=(1, 2))
    with pytest.raises(DomainError):
        convergence_table("arclength", f, ns=())
    with pytest.raises(DomainError):
        convergence_table("arclength", f, ns=(4, 0))
    with pytest.raises(DomainError):
        convergence_table("arclength", f, ns=(1, oracles.MAX_CELLS + 1))


# ---------------------------------------------------------------------------
# telescoping: piecewise-linear profiles are measured exactly at any n
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(
    ys=st.lists(st.floats(min_value=-10.0, max_value=10.0, allow_nan=False), min_size=2, max_size=8),
    n=st.integers(min_value=1, max_value=23),
)
def test_polyline_is_exact_on_monotone_piecewise_linear(ys, n):
    ys = sorted(ys)
    if ys[-1] - ys[0] < 1e-6:
        ys[-1] = ys[0] + 1.0
    xs = np.linspace(0.0, 3.0, len(ys))
    profile = PiecewiseLinearProfile(tuple(zip(xs, ys))).to_profile()
    expected = 3.0 + (ys[-1] - ys[0])
    got = polyline_arclength_oracle(profile, n=n)
    assert got == pytest.approx(expected, abs=1e-12)
    assert arclength_functional(profile) == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("oracle", [frustum_surface_oracle, disk_volume_oracle])
def test_revolution_oracle_errors_shrink(oracle):
    f = profile_euclidean_circle_quadrant(1.0)
    coarse = oracle(f, n=4)
    fine = oracle(f, n=4096)
    finer = oracle(f, n=8192)
    # self-convergence: successive refinements move far less than the first step
    assert abs(finer - fine) < abs(fine - coarse) / 50.0


def test_partition_includes_interior_breakpoints():
    f = profile_taxicab_circle_upper(1.0)
    xs = oracles._partition(f, f.domain, 3)
    assert 0.0 in xs.tolist()
    assert xs[0] == -1.0 and xs[-1] == 1.0
    assert np.all(np.diff(xs) > 0)


def test_breakpoint_augmentation_matters():
    # a uniform n=3 partition straddles the kink of the taxicab circle and
    # underestimates the length; the augmented partition nails it
    f = profile_taxicab_circle_upper(1.0)

    def uniform_only(profile, domain, n):
        return np.linspace(domain.lo, domain.hi, n + 1)

    original = oracles._partition
    oracles._partition = uniform_only
    try:
        degraded = polyline_arclength_oracle(f, n=3)
    finally:
        oracles._partition = original

    assert degraded == pytest.approx(10.0 / 3.0, abs=1e-12)
    assert polyline_arclength_oracle(f, n=3) == pytest.approx(4.0, abs=1e-12)


def test_oracles_never_touch_the_quadrature_engine(monkeypatch):
    import taximeasure.quadrature as quadrature

    def bomb(*args, **kwargs):
        raise AssertionError("oracle called the quadrature engine")

    monkeypatch.setattr(quadrature, "integrate", bomb)
    f = profile_taxicab_circle_upper(1.0)
    assert polyline_arclength_oracle(f, n=16) == pytest.approx(4.0, abs=1e-12)
    assert frustum_surface_oracle(f, n=16) == pytest.approx(8.0 * SQRT3, abs=1e-12)
    assert disk_volume_oracle(f, n=1000) == pytest.approx(4.0 / 3.0, abs=1e-4)
