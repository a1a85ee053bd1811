"""Deterministic, dependency-free SVG rendering of profile curves.

Output is a byte-stable function of the inputs: curves are sampled on a fixed
grid of _SAMPLES points (augmented with the declared breakpoints so kinks
render as true vertices) and every coordinate is formatted with repr-stable
%.6g.  A sample or an extent that is not finite raises DomainError.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .profiles import ProfileFunction, sorted_insert

_WIDTH = 720
_HEIGHT = 480
_CURVE_COLORS = ("#1f77b4", "#d62728")
_AXIS_COLOR = "#999999"
_MARGIN = 0.05
_SAMPLES = 1000


def _fmt(v: float) -> str:
    out = format(float(v), ".6g")
    return "0" if out == "-0" else out


def _sample_curve(profile: ProfileFunction) -> tuple[np.ndarray, np.ndarray]:
    xs = np.linspace(profile.domain.lo, profile.domain.hi, _SAMPLES)
    if profile.breakpoints:
        xs = sorted_insert(xs, profile.breakpoints)
    ys = np.asarray(profile.evaluate(xs), dtype=float)
    bad = ~(np.isfinite(xs) & np.isfinite(ys))
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError(f"{profile.label or 'profile'}: the sample "
                          f"({float(xs[i])!r}, {float(ys[i])!r}) cannot be plotted")
    return xs, ys


def _points_attr(xs: np.ndarray, ys: np.ndarray) -> str:
    # SVG y grows downward, so the y coordinate is negated on emission.
    return " ".join(f"{_fmt(x)},{_fmt(-y)}" for x, y in zip(xs, ys))


def render_profile_svg(profile: ProfileFunction, mirror: bool = False,
                       overlay: ProfileFunction | None = None) -> str:
    """Render the profile (optionally mirrored across the x axis, optionally
    with a second overlay profile) as a standalone SVG document."""
    curves: list[tuple[np.ndarray, np.ndarray, str]] = []
    xs, ys = _sample_curve(profile)
    curves.append((xs, ys, _CURVE_COLORS[0]))
    if mirror:
        curves.append((xs, -ys, _CURVE_COLORS[0]))
    if overlay is not None:
        oxs, oys = _sample_curve(overlay)
        curves.append((oxs, oys, _CURVE_COLORS[1]))
        if mirror:
            curves.append((oxs, -oys, _CURVE_COLORS[1]))

    x_min = min(float(np.min(c[0])) for c in curves)
    x_max = max(float(np.max(c[0])) for c in curves)
    y_min = min(float(np.min(c[1])) for c in curves)
    y_max = max(float(np.max(c[1])) for c in curves)
    span = max(x_max - x_min, y_max - y_min, 1e-9)
    pad_x = _MARGIN * max(x_max - x_min, 0.2 * span)
    pad_y = _MARGIN * max(y_max - y_min, 0.2 * span)
    x0, x1 = x_min - pad_x, x_max + pad_x
    y0, y1 = y_min - pad_y, y_max + pad_y
    if not np.isfinite([x1 - x0, y1 - y0]).all():
        raise DomainError(f"the plot extent [{x0!r}, {x1!r}] x [{y0!r}, {y1!r}] "
                          "overflows a float")
    stroke = 0.008 * max(x1 - x0, y1 - y0)

    # viewBox in emission coordinates, where y is negated.
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="{_fmt(x0)} {_fmt(-y1)} {_fmt(x1 - x0)} {_fmt(y1 - y0)}">',
        f'  <title>{profile.label or "profile"}</title>',
        f'  <rect x="{_fmt(x0)}" y="{_fmt(-y1)}" width="{_fmt(x1 - x0)}" '
        f'height="{_fmt(y1 - y0)}" fill="white"/>',
    ]
    if x0 < 0.0 < x1:
        lines.append(f'  <line x1="0" y1="{_fmt(-y1)}" x2="0" y2="{_fmt(-y0)}" '
                     f'stroke="{_AXIS_COLOR}" stroke-width="{_fmt(0.5 * stroke)}"/>')
    if y0 < 0.0 < y1:
        lines.append(f'  <line x1="{_fmt(x0)}" y1="0" x2="{_fmt(x1)}" y2="0" '
                     f'stroke="{_AXIS_COLOR}" stroke-width="{_fmt(0.5 * stroke)}"/>')
    for cxs, cys, color in curves:
        lines.append(f'  <polyline fill="none" stroke="{color}" '
                     f'stroke-width="{_fmt(stroke)}" stroke-linejoin="round" '
                     f'points="{_points_attr(cxs, cys)}"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
