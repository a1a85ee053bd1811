"""Taxicab (L1) geometry measures.

Distances, arc lengths, areas, and volumes under the taxicab metric, where
the circle constant is 4: closed forms for the shape catalog, an adaptive
quadrature path for arbitrary profiles, and brute-force discretization
oracles that cross-check both.

The public names resolve lazily (PEP 562): each is imported from its home
module on first access, so importing the package, or a scalar module such as
shapes, does not load NumPy.
"""

import importlib

__version__ = "0.1.0"

# Home module -> the public names it defines.
_HOMES = {
    "geometry": (
        "PI_T", "AngleRad", "Interval", "Point2",
        "euclidean_dist_2d", "segment_angle", "taxicab_length_from_angle",
        "RotationAngles", "area_scaling_factor", "taxicab_area_rotated"),
    "profiles": (
        "ProfileFunction", "ParametricCurve", "graph", "restrict",
        "PiecewiseLinearProfile", "parse_profile_spec",
        "profile_linear", "profile_euclidean_circle_quadrant",
        "profile_euclidean_parabola_quadrant", "profile_taxicab_circle_upper",
        "profile_taxicab_ellipse_upper", "profile_taxicab_parabola"),
    "quadrature": ("QuadratureResult", "integrate", "detect_sign_changes"),
    "measures": (
        "arclength_functional", "arclength_parametric", "arclength_variation",
        "surface_of_revolution", "volume_of_revolution"),
    "shapes": (
        "CircleSpec", "SphereSpec", "CylinderSpec", "ParaboloidSpec", "EllipsoidSpec",
        "circle_circumference", "circle_area", "sphere_surface", "sphere_volume",
        "cylinder_volume", "cylinder_lateral_surface",
        "paraboloid_surface", "paraboloid_volume",
        "ellipsoid_surface", "ellipsoid_volume", "ellipsoid_cap_radius",
        "parse_shape_spec", "revolution_profile"),
    "oracles": (
        "polyline_arclength_oracle", "frustum_surface_oracle", "disk_volume_oracle",
        "convergence_table", "ConvergenceRow"),
    "svgplot": ("render_profile_svg",),
    "errors": (
        "TaximeasureError", "DomainError", "SpecError",
        "IntegrandError", "ConvergenceError"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        # Not a public name: `from taximeasure import cli` then imports the
        # submodule.
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
