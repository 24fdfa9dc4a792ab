"""Trisections built on one boundary walk, the enclosing triangle, and the
d_M functional."""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bodies import (H_EPS_A_MAX, SECTOR, check_h_eps_a,
                     regular_polygon_apothem)
from .geom import polygon_area, region_diameter

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

    def corners(self):
        angles = self.orientation + math.pi / 3.0 + SECTOR * np.arange(3)
        return self.center + 2.0 * self.apothem * np.column_stack(
            (np.cos(angles), np.sin(angles)))


@dataclass(frozen=True)
class Trisection:
    """Three curves from a common interior point to the boundary, splitting
    a body into three equal-area regions."""

    common_point: np.ndarray
    curves: tuple            # three (k, 2) polylines, common point first
    endpoints: np.ndarray    # (3, 2) boundary points
    regions: tuple           # three closed (m, 2) region boundaries

    def region_areas(self):
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
    """Arc-position parameterization of a closed boundary as seen from a
    stack of common points.

    A position t is a point index plus the fraction along the chord to
    the next point, and counts whole turns past n; swept_area(t, ci) is
    the signed area of the fan from position 0 to t about common point
    ci, piecewise linear and strictly increasing for an interior point.
    c is one point or a (k, 2) stack; the walk keeps its interior points,
    in order, as self.c, and raises if none is.  prefix, total_area and
    phi have one row per point of self.c.
    point_at and swept_area take a position or an array of positions;
    swept_area, ray_position and swept_position take each row's index
    into self.c, broadcast against the rows, 0 by default.
    swept_position solves for where the swept area reaches a share.
    """

    def __init__(self, boundary, c):
        self.pts = np.asarray(boundary, dtype=float)
        self.n = len(self.pts)
        cs = np.asarray(c, dtype=float).reshape(-1, 2)
        rel = self.pts - cs[:, None]
        nxt = np.roll(rel, -1, axis=1)
        # a NaN, infinite or huge coordinate gives NaN or infinite
        # products, and such a point is not interior
        with np.errstate(invalid="ignore", over="ignore"):
            cr = rel[..., 0] * nxt[..., 1] - rel[..., 1] * nxt[..., 0]
        inside = cr.min(axis=1) > 0.0
        if not inside.any():
            raise InfeasibleConfigurationError("common point is not interior")
        if not inside.all():
            rel, cr = rel[inside], cr[inside]
        self.c = cs[inside]
        self.prefix = np.concatenate((np.zeros((len(cr), 1)),
                                      0.5 * np.cumsum(cr, axis=1)), axis=1)
        self.total_area = self.prefix[:, -1].copy()
        # polar angles of the points about c, closed by the first + 2 pi
        phi = np.unwrap(np.arctan2(rel[..., 1], rel[..., 0]), axis=1)
        self.phi = np.concatenate((phi, phi[:, :1] + 2.0 * math.pi), axis=1)

    def ray_position(self, theta, ci=0):
        """Arc positions where the rays at the angles theta (an array)
        from the points ci hit the boundary."""
        theta = np.asarray(theta, dtype=float)
        # math.cos and math.sin once per angle: numpy's may differ in the
        # last bit
        d = np.array([(math.cos(a), math.sin(a)) for a in theta.flat])
        dx, dy = np.moveaxis(d.reshape(theta.shape + (2,)), -1, 0)
        phi0 = self.phi[ci, 0]
        q = phi0 + (theta - phi0) % (2.0 * math.pi)
        i = _row_search(self.phi, ci, q, "right") - 1
        i = np.minimum(np.maximum(i, 0), self.n - 1)
        c = self.c[ci]
        p1 = self.pts[i] - c
        p2 = self.pts[(i + 1) % self.n] - c
        denom = dx * (p2[..., 1] - p1[..., 1]) - dy * (p2[..., 0] - p1[..., 0])
        flat = np.abs(denom) < 1e-15
        u = (dy * p1[..., 0] - dx * p1[..., 1]) / np.where(flat, 1.0, denom)
        return np.where(flat, i, i + np.minimum(np.maximum(u, 0.0), 1.0 - 1e-12))

    def _split(self, t):
        """Position(s) t as turns * n + i + u: whole turns, an index
        0 <= i < n and a fraction 0 <= u < 1.  For t >= 0 every part is
        exact and equal to what divmod(t, n) gives; integer floor
        division costs about half of divmod on floats."""
        whole = np.floor(t).astype(int)
        turns = whole // self.n
        return turns, whole - turns * self.n, t - whole

    def point_at(self, t):
        _, i, u = self._split(t)
        # i + 1 - n indexes point i + 1, and point 0 after the last
        a, b = self.pts[i], self.pts[i + (1 - self.n)]
        return a + np.asarray(u)[..., None] * (b - a)

    def swept_area(self, t, ci=0):
        turns, i, u = self._split(t)
        # row ci of prefix starts at ci * (n + 1) in the flat array
        j = i + ci * (self.n + 1)
        prefix = self.prefix.ravel()
        val = prefix[j] + u * (prefix[j + 1] - prefix[j])
        return val + turns * self.total_area[ci]

    def arc_run(self, t_a, t_b):
        """The boundary points strictly between positions t_a < t_b
        (mod n) as a cyclic run: its first index and its length.  Takes
        positions or arrays of them; a region's arc is the run between its
        two endpoints."""
        ta = np.remainder(t_a, self.n)
        span = np.remainder(np.subtract(t_b, t_a), self.n)
        first = np.floor(ta)
        return (((first + 1.0) % self.n).astype(int),
                (np.ceil(ta + span) - first - 1.0).astype(int))

    def swept_position(self, f0, share, t_lo, t_hi, ci=0):
        """Root of (swept_area(t, ci) - f0) - share on [t_lo, t_hi], where
        the area swept beyond f0 reaches share, given a sign change
        there; NaN in a row without one.  t_lo and t_hi are 1-D arrays,
        one bracket per row; f0, share and ci are arrays like them or
        scalars.

        For positions in [0, 2n] the swept area at integer j is prefix[j]
        on the first turn and prefix[j - n] + total_area on the second,
        prefix is a cumsum of positive halves of cross products, and float
        rounding is monotone, so the gap never decreases along the
        integers, as _first_root needs.  A searchsorted on prefix guesses
        the first integer that reaches 0, and is right but for rounding.
        """
        lo, hi = np.asarray(t_lo, dtype=float), np.asarray(t_hi, dtype=float)
        f0, share = (np.broadcast_to(np.asarray(v, dtype=float), lo.shape)
                     for v in (f0, share))
        ci = np.broadcast_to(ci, lo.shape)

        def gap(t, rows=slice(None)):
            d = self.swept_area(t, ci[rows]) - f0[rows]
            d -= share[rows]
            return d

        target = f0 + share
        total = self.total_area[ci]
        turns = np.floor(target / total)
        guess = turns * self.n + _row_search(self.prefix, ci,
                                             target - turns * total, "left")
        return _first_root(gap, lo, hi, guess)


def _row_search(rows, ci, x, side):
    """np.searchsorted(rows[ci], x, side) for each element of x and its
    row index in ci (broadcast against x), in one search over all rows:
    complex numbers sort by real part, then by imaginary part, so the
    sorted rows, keyed by their indices, are one sorted array."""
    if len(rows) == 1:  # a one-point walk needs no keys
        return np.searchsorted(rows[0], x, side=side)
    k, m = rows.shape
    key = np.empty((k, m), dtype=complex)
    key.real = np.arange(k)[:, None]
    key.imag = rows
    q = np.empty(np.shape(x), dtype=complex)
    q.real = ci
    q.imag = x
    return np.searchsorted(key.ravel(), q, side=side) - ci * m


def _first_root(gap, lo, hi, guess):
    """Root of gap on each row's bracket [lo, hi] (1-D arrays, one row
    each), NaN in a row without a sign change there.

    gap is linear between integer positions and must never decrease over
    the integers of a bracket.  Step a finds the first integer k of the
    bracket where gap reaches 0, or one past its last integer, as a scan
    would: the gap at the integers guess and guess - 1 narrows the
    search, to k itself when guess is k, and a search outward from the
    guess by steps of 1, 2, 4, ... then bisection does the rest.  Step b,
    _linear_root, solves inside the segment that ends at k.
    gap(t) evaluates every row at positions t shaped (..., rows), and
    gap(t, rows) the rows of the index array rows, one position each.
    """
    first, last = np.floor(lo) + 1.0, np.ceil(hi) - 1.0
    g = np.minimum(np.maximum(guess, first), last)
    f_g, f_gp, f_lo, f_hi = gap(np.stack((g, g - 1.0, lo, hi)))
    # k lies in [a, b]: gap(a - 1) < 0 or a is first, gap(b) >= 0 or b is
    # last + 1; f_a and f_b hold gap(a - 1) and gap(b) once they are known.
    # The guess puts k above g (up), at or below g - 1 (down) or at g; a
    # bracket without integers (not some) has k = first = last + 1.
    some = first <= last
    up = some & (f_g < 0.0)
    down = ~up & (g > first) & (f_gp >= 0.0)
    a = np.where(up, g + 1.0, np.where(down | ~some, first, g))
    b = np.where(up | ~some, last + 1.0, np.where(down, g - 1.0, g))
    f_a, f_b = np.where(up, f_g, f_gp), np.where(down, f_gp, f_g)
    width = np.ones_like(g)
    while True:
        rows = np.flatnonzero(a < b)
        if not len(rows):
            return _linear_root(lo, hi, a, f_b, f_a, f_lo, f_hi)
        ar, br, w = a[rows], b[rows], width[rows]
        mid = np.floor(0.5 * (ar + br))
        mid = np.where(up[rows], np.minimum(mid, ar + w - 1.0),
                       np.maximum(mid, br - w))
        width[rows] = 2.0 * w
        f = gap(mid, rows)
        reach = f >= 0.0
        b[rows[reach]], f_b[rows[reach]] = mid[reach], f[reach]
        a[rows[~reach]], f_a[rows[~reach]] = mid[~reach] + 1.0, f[~reach]


def _linear_root(lo, hi, k, f_k, f_prev, f_lo, f_hi):
    """Step b of the equal-area solve, per row: k is the first integer
    inside [lo, hi] whose value f_k reaches 0, or one past the last,
    f_prev the value at k - 1, and f_lo and f_hi those at the ends.  The
    root is solved linearly inside the segment [a, b] that ends at k, or
    at hi; NaN where the bracket has no sign change."""
    first, last = np.floor(lo) + 1.0, np.ceil(hi) - 1.0
    hit = k <= last
    b = np.where(hit, k, hi)
    f_b = np.where(hit, f_k, f_hi)
    prev = k - 1.0
    inner = prev >= first
    a = np.where(inner, prev, lo)
    f_a = np.where(inner, f_prev, f_lo)
    failed = (f_lo > 0.0) | (f_hi < 0.0)
    # f_a < 0 <= f_b, except in rows that fail or whose root is lo
    solve = (f_lo < 0.0) & ~failed
    t = np.where(solve, a - f_a * (b - a) / np.where(solve, f_b - f_a, 1.0), lo)
    t[failed] = np.nan
    return t


def _tri_area(c, a, b):
    return 0.5 * ((a[..., 0] - c[..., 0]) * (b[..., 1] - c[..., 1])
                  - (a[..., 1] - c[..., 1]) * (b[..., 0] - c[..., 0]))


def _cell_regions(walk, ts, mids=None, ci=0):
    """The regions of cells cut at positions ts (k, 3) mod n about the
    common points ci of walk: curve vertices (k, 3, V, 2), ordered
    [c, (m_a), w_a, w_b, (m_b)], and arc runs (start, length), (k, 3)
    each.  A region is its first (V + 1) // 2 curve vertices, its arc
    run, then the rest of its curve vertices."""
    nxt = [1, 2, 0]
    ws = walk.point_at(ts)
    start, length = walk.arc_run(ts, ts[:, nxt])
    c = np.broadcast_to(walk.c[ci].reshape(-1, 1, 2), ws.shape)
    parts = ([c, ws, ws[:, nxt]] if mids is None
             else [c, mids, ws, ws[:, nxt], mids[:, nxt]])
    return np.stack(parts, axis=2), start, length


def _assemble(walk, ts, mids=None, ci=0):
    """Build a Trisection about common point ci of walk from three
    boundary positions (and optional fixed curve mid-vertices); the one
    builder of region boundaries."""
    verts, start, length = (a[0] for a in _cell_regions(
        walk, np.asarray(ts)[None],
        None if mids is None else np.asarray(mids)[None], ci))
    h = (verts.shape[1] + 1) // 2
    regions = tuple(
        np.concatenate((v[:h], walk.pts[(s + np.arange(m)) % walk.n], v[h:]))
        for v, s, m in zip(verts, start, length))
    # curve j runs from c to its endpoint: the head of region j
    return Trisection(common_point=walk.c[ci].copy(),
                      curves=tuple(v[:h] for v in verts),
                      endpoints=verts[:, h - 1], regions=regions)


def _centre_fan(body, delta):
    """Boundary walk about the center, and the arc positions of the three
    rays in the standard endpoint directions turned by delta."""
    walk = _BoundaryWalk(body.boundary, np.zeros(2))
    theta0 = smallest_enclosing_triangle(body).orientation + delta
    return walk, walk.ray_position(theta0 + np.arange(3) * SECTOR)


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
    check_h_eps_a(a)
    s3 = math.sqrt(3.0)
    inner = 4.0 * s3 + 18.0 * a * a - 3.0 * a * math.sqrt(12.0 * s3 + 27.0 * a * a)
    return math.sqrt(inner) / 3.0


def h_eps_dv12(a):
    """Distance between two standard-trisection endpoints of the hexagon."""
    check_h_eps_a(a)
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

