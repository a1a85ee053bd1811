import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import taximeasure.oracles as oracles
from taximeasure import (
    CylinderSpec,
    DomainError,
    EllipsoidSpec,
    Interval,
    ParaboloidSpec,
    ProfileFunction,
    SphereSpec,
    arclength_functional,
    convergence_table,
    disk_volume_oracle,
    frustum_surface_oracle,
    polyline_arclength_oracle,
    profile_euclidean_circle_quadrant,
    profile_linear,
    profile_piecewise_linear,
    profile_taxicab_circle_upper,
    restrict,
    revolution_profile,
    sphere_surface,
)
from taximeasure.shapes import closed_form, from_profile

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


def test_oracles_broadcast_a_profile_that_returns_a_scalar():
    f = ProfileFunction(lambda x: 1.0, lambda x: 0.0, Interval(0.0, 1.0), monotone_pieces=True)
    for n in (1, 7, 1000):
        assert polyline_arclength_oracle(f, n) == 1.0
        assert frustum_surface_oracle(f, n) == 8.0
        assert disk_volume_oracle(f, n) == 2.0


def test_disk_zero_profile():
    f = profile_linear(0.0, 0.0, Interval(0.0, 1.0))
    assert disk_volume_oracle(f, n=100) == 0.0


def test_oracles_accept_subdomains():
    f = profile_linear(1.0, 0.0, Interval(0.0, 4.0))
    assert polyline_arclength_oracle(restrict(f, Interval(1.0, 2.0)), n=3) == 2.0
    with pytest.raises(DomainError):
        polyline_arclength_oracle(restrict(f, Interval(3.0, 5.0)), n=3)


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


@pytest.mark.parametrize("ns, bad", [((5.0,), 5.0), ((1.5,), 1.5), (("5",), "5"),
                                     ((True,), True), ((1.5, 2.5), 1.5), ((4, 4.5), 4.5)])
def test_a_cell_count_that_is_not_an_integer_is_refused(ns, bad):
    # Not rounded, and not reported as a repeat: (4, 4.5) is refused for 4.5.
    f = profile_taxicab_circle_upper(1.0)
    with pytest.raises(DomainError, match=f"must be an integer, got {bad!r}"):
        convergence_table("volume", f, None, ns)
    for oracle in (polyline_arclength_oracle, frustum_surface_oracle, disk_volume_oracle):
        with pytest.raises(DomainError, match=f"must be an integer, got {bad!r}"):
            oracle(f, n=bad)
        # A NumPy integer is an integer.
        assert oracle(f, n=np.int64(5)) == oracle(f, n=5)


@pytest.mark.parametrize("oracle", [frustum_surface_oracle, disk_volume_oracle])
def test_revolution_oracles_reject_negative_profiles(oracle):
    f = profile_linear(0.0, -1.0, Interval(0.0, 1.0))
    with pytest.raises(DomainError):
        oracle(f, n=10)


def test_polyline_oracle_has_no_sign_condition():
    # Arc length is defined for any graph: a profile from -1 to 1 over
    # several blocks still telescopes to (b - a) + |f(b) - f(a)|.
    f = profile_linear(2.0, -1.0, Interval(0.0, 1.0))
    assert polyline_arclength_oracle(f, n=3 * oracles.BLOCK + 7) == pytest.approx(
        3.0, abs=1e-12)


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


@pytest.mark.parametrize("kind", ["arclength", "surface", "volume"])
@pytest.mark.parametrize("lo,hi", [(-0.5, 0.75), (0.25, 1.0)])
def test_convergence_table_on_a_domain_is_the_table_of_the_restricted_profile(kind, lo, hi):
    f = profile_taxicab_circle_upper(1.0)
    dom = Interval(lo, hi)

    def bits(rows):
        return [(row.n, *map(float.hex, row[1:])) for row in rows]

    assert bits(convergence_table(kind, f, dom, (3, 64))) == bits(
        convergence_table(kind, restrict(f, dom), None, (3, 64)))


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
    profile = profile_piecewise_linear(tuple(zip(xs, ys)))
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
    (xs,) = oracles._blocks(f, 3)
    assert 0.0 in xs.tolist()
    assert xs[0] == -1.0 and xs[-1] == 1.0
    assert np.all(np.diff(xs) > 0)


NARROW = Interval(1.0, 1.000000000000001)  # five float spacings wide


@pytest.mark.parametrize("oracle", [polyline_arclength_oracle, frustum_surface_oracle,
                                    disk_volume_oracle])
def test_oracles_on_a_domain_narrower_than_n_float_spacings(oracle):
    # linspace repeats nodes here, and the frustum term of a zero-width cell
    # was 0/0.  The partition keeps each node once, so every n beyond the
    # number of floats in the domain sums the same cells.
    f = profile_linear(1.0, 1.0, NARROW)
    (xs,) = oracles._blocks(f, 100)
    assert xs.size == 6 and np.all(np.diff(xs) > 0)
    value = oracle(f, n=100)
    assert math.isfinite(value) and value > 0.0
    assert oracle(f, n=10_000) == value
    tent = profile_piecewise_linear(((1.0, 1.0), (1.0000000000000004, 1.5),
                                     (1.000000000000001, 1.0)))
    assert math.isfinite(oracle(tent, n=100_000))


def test_polyline_on_a_narrow_domain_is_exact():
    # The chord sum telescopes on a monotone span whatever the partition.
    f = profile_linear(1.0, 1.0, NARROW)
    assert polyline_arclength_oracle(f, n=100) == pytest.approx(
        polyline_arclength_oracle(f, n=1), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("oracle", [polyline_arclength_oracle, frustum_surface_oracle,
                                    disk_volume_oracle])
@pytest.mark.parametrize("lo", [1.0, 0.0, -2.5e8])
def test_oracles_on_a_zero_width_domain_are_zero(oracle, lo):
    # One node and no cell, so no block: the frustum term of a zero-width
    # cell was 0/0.
    dom = Interval(lo, lo)
    f = profile_linear(1.0, abs(lo) + 1.0, dom)
    assert list(oracles._blocks(f, 10)) == []
    for n in (1, 10, 4096):
        assert oracle(f, n=n) == 0.0


@pytest.mark.parametrize("lo", [1.0, -1.0, 0.5, 1e6, -3.7e-5, 2.0**-60, -(2.0**60)])
@pytest.mark.parametrize("n", [1, 2, 7, 100, 4096])
def test_linspace_nodes_are_distinct_above_the_narrow_domain_gate(lo, n):
    # Above 8 n float spacings the partition is linspace unchanged, which
    # holds only if linspace's nodes are already strictly increasing there.
    for factor in (1.0, 1.01, 1.5):
        hi = lo + 8.0 * n * math.ulp(abs(lo)) * factor
        while hi - lo < 8.0 * n * math.ulp(max(abs(lo), abs(hi))):
            hi = math.nextafter(hi, math.inf)
        assert np.all(np.diff(np.linspace(lo, hi, n + 1)) > 0)


def test_breakpoint_augmentation_matters():
    # a uniform n=3 partition straddles the kink of the taxicab circle and
    # underestimates the length; the augmented partition nails it
    f = profile_taxicab_circle_upper(1.0)

    def uniform_only(profile, n):
        yield np.linspace(profile.domain.lo, profile.domain.hi, n + 1)

    original = oracles._blocks
    oracles._blocks = uniform_only
    try:
        degraded = polyline_arclength_oracle(f, n=3)
    finally:
        oracles._blocks = original

    assert degraded == pytest.approx(10.0 / 3.0, abs=1e-12)
    assert polyline_arclength_oracle(f, n=3) == pytest.approx(4.0, abs=1e-12)


@pytest.mark.parametrize("n", [64, 3 * oracles.BLOCK + 7])
@pytest.mark.parametrize("lam", [2.0**400, 2.0**-400], ids=["2^400", "2^-400"])
def test_frustum_oracle_scales_as_lambda_squared_at_extreme_magnitudes(lam, n):
    # x, f -> lam x, lam f scales every node, value and term exactly: each
    # term is (f0 + f1)(dx + |df|), which scales as lam^2, times a factor of
    # the slope, which lam leaves alone.  A term built from squared lengths
    # would pass through lam^3, past the floats at both magnitudes.
    unit = frustum_surface_oracle(revolution_profile(SphereSpec(1.0)), n=n)
    scaled = frustum_surface_oracle(revolution_profile(SphereSpec(lam)), n=n)
    assert scaled == lam * lam * unit


@pytest.mark.parametrize("n", [1, 10])
def test_frustum_oracle_on_a_span_far_steeper_than_wide(n):
    # dx = 1e-300 and df = 1e-140 per span: dx^2 underflows, and the slope
    # 1e160 has a square past the largest float, whose factor is the limit
    # sqrt(1/2).  A linear span is exact at any n.
    f = profile_piecewise_linear(((0.0, 0.0), (1e-300, 1e-140)))
    want = 4.0 * 1e-140 * (1e-300 + 1e-140) * math.sqrt(0.5)
    assert frustum_surface_oracle(f, n=n) == pytest.approx(want, rel=1e-15, abs=0.0)


# Surface shapes, each as a function of a magnitude m; the ellipsoid has caps.
SURFACE_SHAPES = {
    "sphere": lambda m: SphereSpec(m),
    "paraboloid": lambda m: ParaboloidSpec(m, 3.0 * m),
    "ellipsoid": lambda m: EllipsoidSpec(2.0 * m, 1.5 * m, 5.0 * m),
    "cylinder": lambda m: CylinderSpec(m, 2.0 * m),
}


@pytest.mark.parametrize("shape", SURFACE_SHAPES)
def test_frustum_oracle_matches_each_closed_form_at_every_magnitude(shape):
    # Every surface profile is linear between its breakpoints, so the sum is
    # exact at any n, at magnitudes 1e-150 to 1e150, where every term is a
    # normal float.
    worst = []
    for k in range(-150, 151):
        spec = SURFACE_SHAPES[shape](10.0**k)
        got = from_profile(spec, "surface", lambda q, f: frustum_surface_oracle(f, n=1000))
        want = closed_form(spec, "surface")
        if abs(got - want) > 1e-13 * want:
            worst.append((k, got / want - 1.0))
    assert worst == []


def test_oracles_never_touch_the_quadrature_engine(monkeypatch):
    import taximeasure.quadrature as quadrature

    def bomb(*args, **kwargs):
        raise AssertionError("oracle called the quadrature engine")

    monkeypatch.setattr(quadrature, "integrate", bomb)
    f = profile_taxicab_circle_upper(1.0)
    assert polyline_arclength_oracle(f, n=16) == pytest.approx(4.0, abs=1e-12)
    assert frustum_surface_oracle(f, n=16) == pytest.approx(8.0 * SQRT3, abs=1e-12)
    assert disk_volume_oracle(f, n=1000) == pytest.approx(4.0 / 3.0, abs=1e-4)


# ---------------------------------------------------------------------------
# blocked oracles: math.fsum of each block's pairwise sum
# ---------------------------------------------------------------------------

B = oracles.BLOCK


def _full_partition(f, n):
    """The whole partition: union1d sorts the nodes and the breakpoints
    together and keeps each value once, which drops the nodes that linspace
    repeats on a narrow domain."""
    return np.union1d(np.linspace(f.domain.lo, f.domain.hi, n + 1),
                      np.asarray(f.breakpoints, dtype=float))


def _block_edges(f, n):
    """The positions in the whole partition of its ends and of the linspace
    nodes k B, 0 < k B < n, each once, so that no block is empty."""
    xs = _full_partition(f, n)
    g = np.linspace(f.domain.lo, f.domain.hi, n + 1)
    return np.unique(np.concatenate(([0], np.searchsorted(xs, g[B:n:B]), [xs.size - 1])))


def _reference_blocks(f, n):
    """The blocks sliced from the whole partition at its block edges."""
    xs, edges = _full_partition(f, n), _block_edges(f, n)
    return [xs[a:b + 1] for a, b in zip(edges[:-1], edges[1:])]


def _breakpoint_cases(dom, n):
    """No breakpoint; one on a node; one on node B, the first block edge, and
    one float either side of it; one in the middle of the cell before node B,
    the last cell of the first block; 5,000 random ones."""
    g = np.linspace(dom.lo, dom.hi, n + 1)
    cases = [(), (float(g[n // 3]),)]
    if B <= n:
        edge = float(g[B])
        cases += [(edge,), (math.nextafter(edge, -math.inf),),
                  (math.nextafter(edge, math.inf),), (0.5 * (float(g[B - 1]) + edge),)]
    rng = np.random.default_rng(n)
    cases.append(tuple(rng.uniform(dom.lo, dom.hi, 5000)))
    return [tuple(sorted({b for b in bps if dom.lo < b < dom.hi})) for bps in cases]


@pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 3 * B + 7, 10**6 + 3])
@pytest.mark.parametrize("dom", [Interval(0.0, 1.0),
                                 # n * step + lo misses hi: the last node is set.
                                 Interval(-3.7, 12.9),
                                 # Narrow above 32,768 cells, with up to 2^18
                                 # distinct nodes: chunks lose their repeats.
                                 Interval(1.0, 1.0 + 2.0**-34),
                                 # Narrow; at 3B + 7 cells the first chunk has
                                 # one repeated node, so a block of B - 1 cells.
                                 Interval(1.0, float.fromhex("0x1.000000000c003p+0")),
                                 NARROW, Interval(2.5, 2.5),
                                 # (hi - lo) / n underflows to 0.
                                 Interval(0.0, 2.0**-1070)],
                         ids=["unit", "wide", "dense", "one-repeat", "narrow", "zero-width",
                              "subnormal"])
def test_blocks_equal_slices_of_the_whole_partition(n, dom):
    for bps in _breakpoint_cases(dom, n):
        f = ProfileFunction(lambda x: x, lambda x: np.ones(np.shape(x)), dom, bps)
        got = [x.copy() for x in oracles._blocks(f, n)]
        want = _reference_blocks(f, n)
        assert [x.size for x in got] == [x.size for x in want], (len(bps), bps[:3])
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want)), (len(bps), bps[:3])
        # A block has at most a chunk's cells and one more per breakpoint.
        most = min(n, B) + f.breakpoint_array.size
        assert all(x.size - 1 <= most for x in got), (len(bps), bps[:3])


def _polyline_terms(f, n):
    xs = _full_partition(f, n)
    fx = np.asarray(f.evaluate(xs), dtype=float)
    return [np.diff(xs), np.abs(np.diff(fx))]


def _frustum_terms(f, n):
    xs = _full_partition(f, n)
    fx = np.asarray(f.evaluate(xs), dtype=float)
    dx, df = np.diff(xs), np.abs(np.diff(fx))
    t = df / dx
    return [4.0 * (fx[:-1] + fx[1:]) * (dx + df) * np.sqrt(0.5 + 0.5 / (1.0 + t * t))]


def _disk_terms(f, n):
    xs = _full_partition(f, n)
    fm = np.asarray(f.evaluate(0.5 * (xs[:-1] + xs[1:])), dtype=float)
    return [2.0 * fm * fm * np.diff(xs)]


def _blockwise_sum(f, n, terms):
    """Per block between the block edges, the np.sum of each row of terms
    added up; the blocks joined by math.fsum."""
    edges = _block_edges(f, n)
    return math.fsum(sum(np.sum(row[a:b]) for row in terms)
                     for a, b in zip(edges[:-1], edges[1:]))


def _wavy(breakpoints):
    """A smooth positive profile with a kink at each breakpoint."""
    bps = np.asarray(breakpoints, dtype=float)

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        return 2.0 + np.sin(7.0 * x) + 0.3 * np.abs(x[..., None] - bps).sum(axis=-1)

    def derivative(x):
        x = np.asarray(x, dtype=float)
        return 7.0 * np.cos(7.0 * x) + 0.3 * np.sign(x[..., None] - bps).sum(axis=-1)

    return ProfileFunction(evaluate, derivative, Interval(0.0, 1.0), tuple(breakpoints))


def _edge_cases(n):
    """A breakpoint in the cell that ends at node B - 1, at node B (the first
    block edge) or at node B + 1, and one that is already a grid node."""
    g = np.linspace(0.0, 1.0, n + 1)
    cases = [()]
    for node in (B - 1, B, B + 1):
        # The only inserted point lands between g[node - 1] and g[node], so
        # it becomes node `node` of the partition.
        if node <= n:
            cases.append((0.5 * (g[node - 1] + g[node]),))
    if B < n:
        cases.append((float(g[B]),))
    return cases


ORACLE_TERMS = [
    (polyline_arclength_oracle, _polyline_terms),
    (frustum_surface_oracle, _frustum_terms),
    (disk_volume_oracle, _disk_terms),
]


@pytest.mark.parametrize("n", [B - 1, B, B + 1, 3 * B + 7])
@pytest.mark.parametrize("oracle, terms", ORACLE_TERMS)
def test_blocked_oracles_equal_blockwise_sums(n, oracle, terms):
    for bps in _edge_cases(n):
        f = _wavy(bps)
        assert oracle(f, n=n) == _blockwise_sum(f, n, terms(f, n)), bps


def _crowded_first_chunk():
    """2 B cells on [0, 1] and 3 B breakpoints off the nodes of the first
    chunk, on a smooth profile: the breakpoints need not be kinks to cut the
    partition."""
    n = 2 * B
    g = np.linspace(0.0, 1.0, n + 1)
    bps = np.setdiff1d(np.random.default_rng(3).uniform(0.0, 0.5, 3 * B), g)
    assert bps.size == 3 * B
    f = ProfileFunction(lambda x: 2.0 + np.sin(7.0 * x), lambda x: 7.0 * np.cos(7.0 * x),
                        Interval(0.0, 1.0), tuple(bps))
    return f, n


def test_a_block_takes_in_every_breakpoint_of_its_chunk():
    f, n = _crowded_first_chunk()
    got = [x.copy() for x in oracles._blocks(f, n)]
    assert [x.size - 1 for x in got] == [4 * B, B]
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, _reference_blocks(f, n)))
    for oracle, terms in ORACLE_TERMS:
        assert oracle(f, n=n) == _blockwise_sum(f, n, terms(f, n)), oracle.__name__


@pytest.mark.parametrize("n", [B - 1, B, B + 1, 3 * B + 7, 10**6 + 3])
@pytest.mark.parametrize("oracle, terms", ORACLE_TERMS)
def test_oracles_are_within_two_ulp_of_the_exact_sum_of_their_terms(n, oracle, terms):
    f = _wavy((0.3,))
    exact = math.fsum(np.concatenate(terms(f, n)))
    assert abs(oracle(f, n=n) - exact) <= 2 * math.ulp(exact)


def _full_check_message(xs, vals):
    """The nonnegativity message of one pass over all samples."""
    worst = int(np.argmin(vals))
    return (f"profile must be nonnegative on the domain: "
            f"f({float(xs[worst])!r}) = {float(vals[worst])!r}")


@pytest.mark.parametrize("evaluate", [
    # The lowest sample lies in the third block at 3 B + 7 cells.
    lambda x: np.abs(x - 0.7) - 0.1,
    # Every sample ties for lowest: the first one is named.
    lambda x: np.full(np.shape(x), -1.0),
])
@pytest.mark.parametrize("n", [1000, 3 * B + 7])
def test_negative_profile_error_names_the_first_lowest_sample(evaluate, n):
    f = ProfileFunction(evaluate, lambda x: np.zeros(np.shape(x)), Interval(0.0, 1.0))
    xs = np.linspace(0.0, 1.0, n + 1)
    mids = 0.5 * (xs[:-1] + xs[1:])
    with pytest.raises(DomainError) as surface:
        frustum_surface_oracle(f, n=n)
    assert str(surface.value) == _full_check_message(xs, evaluate(xs))
    with pytest.raises(DomainError) as volume:
        disk_volume_oracle(f, n=n)
    assert str(volume.value) == _full_check_message(mids, evaluate(mids))


def test_nonnegativity_tolerance_takes_the_peak_of_every_block():
    # -1e-12 * max|f| is rounding: a peak in the last block excuses a small
    # negative value in the first, whose own peak is 1.
    def evaluate(x):
        return np.where(x < 0.1, -1e-9, np.where(x > 0.9, 1e4, 1.0))

    f = ProfileFunction(evaluate, lambda x: np.zeros(np.shape(x)), Interval(0.0, 1.0))
    assert disk_volume_oracle(f, n=3 * B) > 0.0


def _two_valued(left, right, at=0.3):
    """A profile that is left below x = at and right above it: at 3 B + 7
    cells on [0, 1], x = 0.3 lies in the first block and 0.7 in the third."""
    return ProfileFunction(lambda x: np.where(x < at, left, right),
                           lambda x: np.zeros(np.shape(x)), Interval(0.0, 1.0))


@pytest.mark.parametrize("n", [1000, 3 * B + 7])
@pytest.mark.parametrize("left, right, at", [(np.nan, -1.0, 0.3), (-1.0, np.nan, 0.7)],
                         ids=["nan-first", "nan-last"])
@pytest.mark.parametrize("oracle", [frustum_surface_oracle, disk_volume_oracle])
def test_a_nan_sample_passes_the_nonnegativity_check(oracle, left, right, at, n):
    # argmin takes NaN for the lowest sample, before or after a sample at
    # -1, so the check lets the NaN through to the sum.
    assert math.isnan(oracle(_two_valued(left, right, at), n=n))


@pytest.mark.parametrize("n", [1000, 3 * B + 7])
@pytest.mark.parametrize("left, right, at", [(np.inf, -1.0, 0.3), (-1.0, np.inf, 0.7)],
                         ids=["inf-first", "inf-last"])
@pytest.mark.parametrize("oracle, want", [(frustum_surface_oracle, math.nan),
                                          (disk_volume_oracle, math.inf)])
def test_an_infinite_sample_excuses_every_negative_one(oracle, want, left, right, at, n):
    # max |f| = inf makes the tolerance -inf.  The frustum term of a cell
    # with an infinite end is inf/inf or has inf - inf in it; the CLI runs
    # the oracles with these warnings off, as here.
    with np.errstate(invalid="ignore"):
        got = oracle(_two_valued(left, right, at), n=n)
    assert got == want or (math.isnan(got) and math.isnan(want))


# 5,000 vertices, so 4,998 breakpoints, at values between 1 and 2.
PL5000 = profile_piecewise_linear(tuple(zip(
    np.linspace(0.0, 1.0, 5000).tolist(),
    np.random.default_rng(5).uniform(1.0, 2.0, 5000).tolist())))
# 100,000 vertices, so 99,998 breakpoints, at values between 1 and 2.
PL100K = profile_piecewise_linear(tuple(zip(
    np.linspace(0.0, 1.0, 100_000).tolist(),
    np.random.default_rng(6).uniform(1.0, 2.0, 100_000).tolist())))


@pytest.mark.parametrize("oracle", [polyline_arclength_oracle, frustum_surface_oracle,
                                    disk_volume_oracle])
@pytest.mark.parametrize("f, n, cells", [
    (revolution_profile(SphereSpec(1.0)), 10**6, B),
    (revolution_profile(SphereSpec(1.0)), 10**7, B),
    # linspace alone would take 80 MB here, to keep six distinct nodes.
    (profile_linear(1.0, 1.0, NARROW), 10**7, B),
    # 4,998 breakpoints over 611 chunks, at most 9 in one.
    (PL5000, 10**7, B),
    # 99,998 breakpoints over 62 chunks, at most 1,639 in one.
    (PL100K, 10**6, B),
    (*_crowded_first_chunk(), 4 * B),
], ids=["sphere-1e6", "sphere-1e7", "narrow-1e7", "pl5000-1e7", "pl100k-1e6", "crowded-2B"])
def test_oracle_memory_does_not_grow_with_n(oracle, f, n, cells):
    # A call holds one block and that block's kernel temporaries, whatever
    # n and the profile's breakpoint count are; a block grows by the
    # breakpoints among its cells.
    oracle(f, n=1000)
    tracemalloc.start()
    try:
        oracle(f, n=n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 8 * cells
