"""Trisections of 3-rotationally symmetric planar convex bodies minimizing
the maximum relative diameter."""

from .bodies import (SymmetricBody, ValidationReport, h_eps_dpx, h_eps_dv12,
                     h_eps_side_b, load_body, make_h_eps, make_h_tilde,
                     make_regular_polygon, make_reuleaux, normalize_unit_area,
                     random_body, solve_a0, validate)
from .geom import (DegenerateGeometryError, convex_hull, points_diameter,
                   polygon_area, polygon_diameter, region_diameter, rotate)
from .render import render_svg
from .search import (InfeasibleConfigurationError, OptimalityReport, SweepGrid,
                     SweepReport, antipodal_gap, default_c_points,
                     equal_area_segment_trisection, functional_quotient,
                     lemma_floor_checks, perturbed_polyline_trisection,
                     sweep_h_eps, sweep_segment_trisections, trisection_dm,
                     uniqueness_probe, verify_h_tilde_optimal)
from .trisection import (InvalidTrisectionError, Trisection,
                         closed_form_dm_standard, dm_regular_closed_form,
                         inscribed_ball_radius, max_relative_diameter,
                         standard_trisection)

__version__ = "0.1.0"
