from taximeasure import (
    Interval,
    profile_euclidean_circle_quadrant,
    profile_linear,
    profile_taxicab_circle_upper,
)
from taximeasure.svgplot import render_profile_svg


def test_document_shape():
    svg = render_profile_svg(profile_taxicab_circle_upper(1.0))
    assert svg.startswith("<svg ")
    assert svg.endswith("</svg>\n")
    assert 'xmlns="http://www.w3.org/2000/svg"' in svg


def test_rendering_is_deterministic():
    f = profile_euclidean_circle_quadrant(2.0)
    assert render_profile_svg(f) == render_profile_svg(f)
    assert render_profile_svg(f, mirror=True) == render_profile_svg(f, mirror=True)


def test_mirror_doubles_the_polylines():
    f = profile_taxicab_circle_upper(1.0)
    plain = render_profile_svg(f)
    mirrored = render_profile_svg(f, mirror=True)
    assert plain.count("<polyline") == 1
    assert mirrored.count("<polyline") == 2


def test_overlay_uses_a_second_color():
    base = profile_taxicab_circle_upper(1.0)
    other = profile_euclidean_circle_quadrant(1.0)
    svg = render_profile_svg(base, overlay=other)
    assert svg.count("<polyline") == 2
    assert svg.count('stroke="#1f77b4"') == 1
    assert svg.count('stroke="#d62728"') == 1


def test_mirror_with_overlay_gives_four_curves():
    base = profile_taxicab_circle_upper(1.0)
    other = profile_euclidean_circle_quadrant(1.0)
    svg = render_profile_svg(base, overlay=other, mirror=True)
    assert svg.count("<polyline") == 4


def test_title_carries_the_profile_label():
    f = profile_taxicab_circle_upper(1.5)
    assert f.label
    svg = render_profile_svg(f)
    assert f"<title>{f.label}</title>" in svg


def test_breakpoints_become_vertices():
    # the kink of the diamond must appear as an exact sample point
    svg = render_profile_svg(profile_taxicab_circle_upper(1.0))
    polyline = svg[svg.index("points="):]
    assert " 0,-1 " in polyline


def test_flat_profile_keeps_finite_viewbox():
    f = profile_linear(0.0, 0.0, Interval(0.0, 1.0))
    svg = render_profile_svg(f)
    assert "nan" not in svg.lower()
    assert "inf" not in svg.lower()
    for token in svg.split('viewBox="')[1].split('"')[0].split():
        float(token)  # all four viewBox numbers parse


def test_axes_drawn_only_when_zero_is_visible():
    spans_zero = render_profile_svg(profile_taxicab_circle_upper(1.0), mirror=True)
    assert spans_zero.count("<line") == 2
    positive_only = render_profile_svg(profile_linear(0.0, 2.0, Interval(1.0, 3.0)))
    assert positive_only.count("<line") == 0
