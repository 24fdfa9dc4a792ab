"""Trisections built on one boundary walk, the enclosing triangle, and the
d_M functional."""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bodies import H_EPS_A_MAX, SECTOR, regular_polygon_apothem
from .geom import region_diameter

AREA_TOL = 1e-4  # relative area slack for a trisection to count as valid


class InvalidTrisectionError(ValueError):
    """Trisection violates the equal-area or interior-point invariants."""


class InfeasibleConfigurationError(ValueError):
    """No equal-area trisection exists for the requested configuration."""


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


class _BoundaryWalk:
    """Arc-position parameterization of a closed boundary as seen from c.

    Positions t live in [0, M) (index plus fraction along the chord);
    swept_area(t) is the signed area of the fan from position 0 to t
    about c, piecewise linear and strictly increasing for interior c.
    point_at and swept_area take a position or an array of positions.
    """

    def __init__(self, boundary, c):
        self.pts = np.asarray(boundary, dtype=float)
        self.c = np.asarray(c, dtype=float)
        self.n = len(self.pts)
        rel = self.pts - self.c
        nxt = np.roll(rel, -1, axis=0)
        cr = rel[:, 0] * nxt[:, 1] - rel[:, 1] * nxt[:, 0]
        if np.any(cr <= 0.0):
            raise InfeasibleConfigurationError("common point is not interior")
        self.prefix = np.concatenate(([0.0], 0.5 * np.cumsum(cr)))
        self.total_area = float(self.prefix[-1])
        phi = np.arctan2(rel[:, 1], rel[:, 0])
        self.phi = np.unwrap(phi)

    def ray_position(self, theta):
        """Arc position where the ray from c at angle theta hits the boundary."""
        q = self.phi[0] + (theta - self.phi[0]) % (2.0 * math.pi)
        phi_ext = np.append(self.phi, self.phi[0] + 2.0 * math.pi)
        i = int(np.searchsorted(phi_ext, q, side="right") - 1)
        i = min(max(i, 0), self.n - 1)
        p1 = self.pts[i] - self.c
        p2 = self.pts[(i + 1) % self.n] - self.c
        d = np.array([math.cos(theta), math.sin(theta)])
        denom = d[0] * (p2[1] - p1[1]) - d[1] * (p2[0] - p1[0])
        if abs(denom) < 1e-15:
            return float(i)
        u = (d[1] * p1[0] - d[0] * p1[1]) / denom
        return i + min(max(u, 0.0), 1.0 - 1e-12)

    def point_at(self, t):
        t = np.asarray(t) % self.n
        i = t.astype(int)
        u = (t - i)[..., None]
        return self.pts[i] + u * (self.pts[(i + 1) % self.n] - self.pts[i])

    def swept_area(self, t):
        wraps, tm = np.divmod(t, self.n)
        i = tm.astype(int)
        u = tm - i
        val = self.prefix[i] + u * (self.prefix[i + 1] - self.prefix[i])
        return val + wraps * self.total_area

    def arc_points(self, t_a, t_b):
        """Boundary points strictly between positions t_a < t_b (mod n)."""
        ta = t_a % self.n
        span = (t_b - t_a) % self.n
        idx = (int(math.floor(ta)) + 1 + np.arange(int(math.ceil(ta + span))
                                                   - int(math.floor(ta)) - 1)) % self.n
        return self.pts[idx]

    def solve_position(self, area_fn, t_lo, t_hi):
        """Root of area_fn on [t_lo, t_hi], given a sign change there.

        area_fn takes an array of positions and is linear between integer
        positions, so one vectorised evaluation at t_lo, every integer in
        between and t_hi, then a linear solve inside the first segment
        that reaches 0, gives the root exactly (up to rounding).
        """
        ts = np.concatenate(([t_lo], np.arange(math.floor(t_lo) + 1,
                                               math.ceil(t_hi)), [t_hi]))
        f = area_fn(ts)
        if f[0] > 0.0 or f[-1] < 0.0:
            raise InfeasibleConfigurationError("no sign change for area target")
        k = int(np.argmax(f >= 0.0))
        if k == 0:
            return float(t_lo)
        return float(ts[k - 1] - f[k - 1] * (ts[k] - ts[k - 1])
                     / (f[k] - f[k - 1]))


def _tri_area(c, a, b):
    return 0.5 * ((a[..., 0] - c[0]) * (b[..., 1] - c[1])
                  - (a[..., 1] - c[1]) * (b[..., 0] - c[0]))


def _assemble(walk, ts, mids=None):
    """Build a Trisection from three boundary positions (and optional
    fixed curve mid-vertices); the one builder of region boundaries."""
    c = walk.c
    ws = walk.point_at(np.array(ts))
    curves, regions = [], []
    for k in range(3):
        w0, w1 = ws[k], ws[(k + 1) % 3]
        arc = walk.arc_points(ts[k], ts[(k + 1) % 3])
        if mids is None:
            curves.append(np.array([c, w0]))
            regions.append(np.vstack([c, w0, arc, w1]))
        else:
            curves.append(np.array([c, mids[k], w0]))
            regions.append(np.vstack([c, mids[k], w0, arc, w1, mids[(k + 1) % 3]]))
    return Trisection(common_point=c.copy(), curves=tuple(curves),
                      endpoints=ws, regions=tuple(regions))


def _centre_fan(body, delta):
    """Boundary walk about the center, and the arc positions of the three
    rays in the standard endpoint directions turned by delta."""
    walk = _BoundaryWalk(body.boundary, np.zeros(2))
    theta0 = smallest_enclosing_triangle(body).orientation + delta
    return walk, [walk.ray_position(theta0 + k * SECTOR) for k in range(3)]


def rotate_trisection(body, delta):
    """Standard trisection with its three segments rotated by delta."""
    return _assemble(*_centre_fan(body, delta))


def standard_trisection(body):
    """Trisection joining the center to the edge midpoints of the smallest
    enclosing equilateral triangle."""
    return rotate_trisection(body, 0.0)


def max_relative_diameter(body, tri):
    """Largest region diameter of a trisection (validates the area split)."""
    areas = tri.region_areas()
    total = body.area
    if np.any(np.abs(areas - total / 3.0) > AREA_TOL * total):
        raise InvalidTrisectionError(
            f"region areas {areas} deviate from {total / 3.0:.6f}")
    if body.radius_at(math.atan2(tri.common_point[1], tri.common_point[0])) \
            <= np.hypot(*tri.common_point):
        raise InvalidTrisectionError("common point is not interior")
    return max(region_diameter(r) for r in tri.regions)


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

