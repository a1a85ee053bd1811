"""Taxicab (L1) geometry measures.

Distances, arc lengths, areas, and volumes under the taxicab metric, where
the circle constant is 4: closed forms for the shape catalog, an adaptive
quadrature path for arbitrary profiles, and brute-force discretization
oracles that cross-check both.
"""

from .errors import ConvergenceError, DomainError, IntegrandError, SpecError, TaximeasureError
from .geometry import (PI_T, AngleRad, Interval, Point2, Point3, euclidean_dist_2d,
                       euclidean_dist_3d, segment_angle, taxicab_dist_1d,
                       taxicab_dist_2d, taxicab_dist_3d, taxicab_length_from_angle)
from .measures import (RotationAngles, arclength_functional, arclength_parametric,
                       arclength_variation, area_scaling_factor, surface_of_revolution,
                       taxicab_area_rotated, volume_of_revolution)
from .oracles import (ConvergenceRow, convergence_table, disk_volume_oracle,
                      frustum_surface_oracle, polyline_arclength_oracle)
from .profiles import (ParametricCurve, PiecewiseLinearProfile, ProfileFunction,
                       derivative_is_consistent, graph, parse_profile_spec,
                       profile_euclidean_circle_quadrant,
                       profile_euclidean_parabola_quadrant, profile_linear,
                       profile_taxicab_circle_upper, profile_taxicab_ellipse_upper,
                       profile_taxicab_parabola)
from .quadrature import (DEFAULT_CONFIG, QuadratureConfig, QuadratureResult,
                         detect_sign_changes, integrate)
from .shapes import (CircleSpec, CylinderSpec, EllipsoidSpec, ParaboloidSpec, SphereSpec,
                     circle_area, circle_circumference, cylinder_lateral_surface,
                     cylinder_volume, ellipsoid_cap_radius, ellipsoid_surface,
                     ellipsoid_volume, paraboloid_surface, paraboloid_volume,
                     parse_shape_spec, revolution_profile, sphere_surface, sphere_volume)
from .svgplot import render_profile_svg

__version__ = "0.1.0"

__all__ = [
    "PI_T", "AngleRad", "Interval", "Point2", "Point3",
    "taxicab_dist_1d", "taxicab_dist_2d", "taxicab_dist_3d",
    "euclidean_dist_2d", "euclidean_dist_3d", "segment_angle",
    "taxicab_length_from_angle",
    "ProfileFunction", "ParametricCurve", "graph",
    "PiecewiseLinearProfile", "parse_profile_spec", "derivative_is_consistent",
    "profile_linear", "profile_euclidean_circle_quadrant",
    "profile_euclidean_parabola_quadrant", "profile_taxicab_circle_upper",
    "profile_taxicab_ellipse_upper", "profile_taxicab_parabola",
    "QuadratureConfig", "QuadratureResult", "DEFAULT_CONFIG",
    "integrate", "detect_sign_changes",
    "RotationAngles", "arclength_functional", "arclength_parametric",
    "arclength_variation",
    "area_scaling_factor", "taxicab_area_rotated",
    "surface_of_revolution", "volume_of_revolution",
    "CircleSpec", "SphereSpec", "CylinderSpec", "ParaboloidSpec", "EllipsoidSpec",
    "circle_circumference", "circle_area", "sphere_surface", "sphere_volume",
    "cylinder_volume", "cylinder_lateral_surface",
    "paraboloid_surface", "paraboloid_volume",
    "ellipsoid_surface", "ellipsoid_volume", "ellipsoid_cap_radius",
    "parse_shape_spec", "revolution_profile",
    "polyline_arclength_oracle", "frustum_surface_oracle", "disk_volume_oracle",
    "convergence_table", "ConvergenceRow",
    "render_profile_svg",
    "TaximeasureError", "DomainError", "SpecError",
    "IntegrandError", "ConvergenceError",
]
