"""Standard trisection, enclosing triangle, and the d_M functional."""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bodies import H_EPS_A_MAX, SECTOR, regular_polygon_apothem
from .geom import region_diameter

AREA_TOL = 1e-4  # relative area slack for a trisection to count as valid


class InvalidTrisectionError(ValueError):
    """Trisection violates the equal-area or interior-point invariants."""


@dataclass(frozen=True)
class EquiTriangle:
    """Equilateral triangle: center, apothem, and the direction from the
    center to one edge midpoint."""

    center: np.ndarray
    apothem: float
    orientation: float

    @property
    def side(self):
        return 2.0 * math.sqrt(3.0) * self.apothem

    def edge_midpoints(self):
        angles = self.orientation + SECTOR * np.arange(3)
        return self.center + self.apothem * np.column_stack(
            (np.cos(angles), np.sin(angles)))

    def corners(self):
        angles = self.orientation + math.pi / 3.0 + SECTOR * np.arange(3)
        return self.center + 2.0 * self.apothem * np.column_stack(
            (np.cos(angles), np.sin(angles)))

    def contains(self, points, slack=1e-9):
        pts = np.atleast_2d(np.asarray(points, dtype=float)) - self.center
        for k in range(3):
            u = np.array([math.cos(self.orientation + k * SECTOR),
                          math.sin(self.orientation + k * SECTOR)])
            if np.any(pts @ u > self.apothem + slack):
                return False
        return True


@dataclass(frozen=True)
class Trisection:
    """Three curves from a common interior point to the boundary, splitting
    a body into three equal-area regions."""

    common_point: np.ndarray
    curves: tuple            # three (k, 2) polylines, common point first
    endpoints: np.ndarray    # (3, 2) boundary points
    regions: tuple           # three closed (m, 2) region boundaries

    def region_areas(self):
        from .geom import polygon_area
        return np.array([polygon_area(r) for r in self.regions])

    def to_dict(self, dm=None):
        w = self.endpoints
        doc = {
            "common_point": [float(v) for v in self.common_point],
            "endpoint_angles": [float(a) for a in
                                np.mod(np.arctan2(w[:, 1], w[:, 0]), 2 * math.pi)],
            "curves": [[[float(x), float(y)] for x, y in c] for c in self.curves],
            "region_areas": [float(a) for a in self.region_areas()],
        }
        if dm is not None:
            doc["dm"] = float(dm)
        return doc


def nearest_boundary_point(body):
    """Boundary point closest to the center, and its distance rho.

    Ties (threefold copies, flat arcs) are broken by smallest polar angle.
    Computed once per body; the point is a copy the caller may modify.
    """
    m, rho = body.nearest_point
    return m.copy(), rho


def smallest_enclosing_triangle(body):
    """Smallest equilateral triangle containing the body: one edge is
    tangent at the boundary point nearest the center, the other two
    follow from the threefold symmetry."""
    m, rho = nearest_boundary_point(body)
    return EquiTriangle(center=np.zeros(2), apothem=rho,
                        orientation=math.atan2(m[1], m[0]))


def inscribed_ball_radius(body):
    """Radius of the inscribed ball (apothem of the enclosing triangle)."""
    return body.nearest_point[1]


def boundary_arc(body, theta_a, theta_b):
    """Boundary points CCW from angle theta_a to theta_b, endpoints included."""
    ang = body.boundary_angles
    pts = body.boundary
    ta = theta_a % (2 * math.pi)
    tb = theta_b % (2 * math.pi)
    span = (tb - ta) % (2 * math.pi)
    rel = (ang - ta) % (2 * math.pi)
    inside = (rel > 1e-12) & (rel < span - 1e-12)
    chunk = pts[inside][np.argsort(rel[inside])]
    pa = np.array([math.cos(ta), math.sin(ta)]) * body.radius_at(ta)
    pb = np.array([math.cos(tb), math.sin(tb)]) * body.radius_at(tb)
    return np.vstack([pa, chunk, pb])


def standard_trisection(body):
    """Trisection joining the center to the edge midpoints of the smallest
    enclosing equilateral triangle."""
    tri = smallest_enclosing_triangle(body)
    endpoints = tri.edge_midpoints()
    origin = np.zeros(2)
    curves, regions = [], []
    for k in range(3):
        w0, w1 = endpoints[k], endpoints[(k + 1) % 3]
        curves.append(np.array([origin, w0]))
        arc = boundary_arc(body, tri.orientation + k * SECTOR,
                           tri.orientation + (k + 1) * SECTOR)
        regions.append(np.vstack([origin, arc]))
    return Trisection(common_point=origin, curves=tuple(curves),
                      endpoints=endpoints, regions=tuple(regions))


def max_relative_diameter(body, tri, sample_count=4096):
    """Largest region diameter of a trisection (validates the area split)."""
    areas = tri.region_areas()
    total = body.area
    if np.any(np.abs(areas - total / 3.0) > AREA_TOL * total):
        raise InvalidTrisectionError(
            f"region areas {areas} deviate from {total / 3.0:.6f}")
    if body.radius_at(math.atan2(tri.common_point[1], tri.common_point[0])) \
            <= np.hypot(*tri.common_point):
        raise InvalidTrisectionError("common point is not interior")
    return max(region_diameter(r, sample_count) for r in tri.regions)


def closed_form_dm_standard(body):
    """d_M of the standard trisection without building regions.

    The value is attained either between two trisection endpoints
    (sqrt(3) * rho) or between the center and a farthest boundary
    point (R), whichever is larger.
    """
    rho = inscribed_ball_radius(body)
    return max(math.sqrt(3.0) * rho, body.max_radius())


def dm_regular_closed_form(m):
    """d_M of the standard trisection of the unit-area regular m-gon."""
    if m % 3 != 0 or m < 3:
        raise ValueError("m must be a positive multiple of 3")
    apothem = regular_polygon_apothem(m)
    if m == 3:
        return apothem / math.cos(math.pi / 3.0)
    return math.sqrt(3.0) * apothem


def h_eps_dpx(a):
    """Center-to-vertex distance of the unit-area alternating hexagon."""
    if not -1e-12 <= a <= H_EPS_A_MAX + 1e-12:
        raise ValueError(f"a must lie in [0, {H_EPS_A_MAX:.6f}]")
    s3 = math.sqrt(3.0)
    inner = 4.0 * s3 + 18.0 * a * a - 3.0 * a * math.sqrt(12.0 * s3 + 27.0 * a * a)
    return math.sqrt(inner) / 3.0


def h_eps_dv12(a):
    """Distance between two standard-trisection endpoints of the hexagon."""
    if not -1e-12 <= a <= H_EPS_A_MAX + 1e-12:
        raise ValueError(f"a must lie in [0, {H_EPS_A_MAX:.6f}]")
    return 0.5 * math.sqrt(3.0 * a * a + 4.0 / math.sqrt(3.0))


@lru_cache(maxsize=1)
def solve_a0():
    """Parameter where the two hexagon distances cross, by bisection.

    The difference d(p,x) - d(v1,v2) is strictly decreasing on the
    parameter range, so the sign-change bracket is safe.
    """
    lo, hi = 0.0, H_EPS_A_MAX
    f = lambda a: h_eps_dpx(a) - h_eps_dv12(a)
    if not f(lo) > 0.0 > f(hi):
        raise RuntimeError("bisection bracket lost for the crossing parameter")
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)

