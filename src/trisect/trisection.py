"""Trisections built on one boundary walk, and the d_M functional."""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bodies import SECTOR, as_stack, regular_polygon_apothem, unstack
from .geom import (_row_search, polar_angles, polygon_area, ray_exit,
                   region_diameter)

AREA_TOL = 1e-4  # relative area slack for a trisection to count as valid


class InvalidTrisectionError(ValueError):
    """Trisection violates the equal-area or interior-point invariants."""


class InfeasibleConfigurationError(ValueError):
    """No equal-area trisection exists for the requested configuration."""


@dataclass(frozen=True, eq=False)
class Trisection:
    """Three curves from a common interior point to the boundary, splitting
    a body into three equal-area regions: one cell of _cell_regions.

    Curve j runs along verts[j] from the common point to its endpoint,
    the first (V + 1) // 2 vertices; region j is that curve, the arc run
    pts[start[j] : start[j] + length[j]] (mod n), then the rest of
    verts[j], curve j + 1 back from its endpoint.  pts is the boundary the
    cell was cut on, shared, not copied."""

    pts: np.ndarray      # (n, 2) the boundary
    verts: np.ndarray    # (3, V, 2) curve vertices [c, (m_a), w_a, w_b, (m_b)]
    start: np.ndarray    # (3,) arc runs' first points
    length: np.ndarray   # (3,) and lengths

    @property
    def common_point(self):
        """The curves' shared first vertex."""
        return self.verts[0, 0]

    @property
    def curves(self):
        """Three (h, 2) polylines, common point first."""
        h = (self.verts.shape[1] + 1) // 2
        return tuple(v[:h] for v in self.verts)

    @property
    def endpoints(self):
        """(3, 2) boundary points, the curves' last vertices."""
        return self.verts[:, (self.verts.shape[1] - 1) // 2]

    @cached_property
    def regions(self):
        """Three closed (m, 2) region boundaries, built when first read:
        the one builder of region point lists."""
        h, n = (self.verts.shape[1] + 1) // 2, len(self.pts)
        return tuple(np.concatenate((v[:h], self.pts[(s + np.arange(m)) % n],
                                     v[h:]))
                     for v, s, m in zip(self.verts, self.start, self.length))

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


def inscribed_ball_radius(body):
    """Radius of the inscribed ball (apothem of the enclosing triangle),
    of a body or of each row of a BodyStack."""
    return body.nearest_point[1]


class _BoundaryWalk:
    """Arc-position parameterization of a closed boundary as seen from a
    stack of common points.

    A position t is a point index plus the fraction along the chord to
    the next point, and counts whole turns past n; swept_area(t, ci) is
    the signed area of the fan from position 0 to t about common point
    ci, piecewise linear and strictly increasing for an interior point.
    c is one point or a (k, 2) stack; the walk keeps its interior points,
    in order, as self.c and their indices into c as self.kept, and raises
    if none is.  prefix, total_area and phi, the polar_angles of the
    boundary about each point, have one row per point of self.c.
    point_at and swept_area take a position or an array of positions;
    swept_area, ray_position and swept_position take each row's index
    into self.c, broadcast against the rows, 0 by default.
    swept_position solves for where the swept area reaches a share.
    """

    def __init__(self, boundary, c):
        self.pts = np.asarray(boundary, dtype=float)
        self.n = len(self.pts)
        cs = np.asarray(c, dtype=float).reshape(-1, 2)
        # (k, n) rows of coordinates about each point
        x = self.pts[:, 0] - cs[:, 0, None]
        y = self.pts[:, 1] - cs[:, 1, None]
        nx = np.concatenate((x[:, 1:], x[:, :1]), axis=1)
        ny = np.concatenate((y[:, 1:], y[:, :1]), axis=1)
        # a NaN, infinite or huge coordinate gives NaN or infinite
        # products, and such a point is not interior
        with np.errstate(invalid="ignore", over="ignore"):
            cr = x * ny - y * nx
        inside = cr.min(axis=1) > 0.0
        if not inside.any():
            raise InfeasibleConfigurationError("common point is not interior")
        if not inside.all():
            x, y, cr = x[inside], y[inside], cr[inside]
        self.c, self.kept = cs[inside], np.flatnonzero(inside)
        self.prefix = np.concatenate((np.zeros((len(cr), 1)),
                                      0.5 * np.cumsum(cr, axis=1)), axis=1)
        self.total_area = self.prefix[:, -1].copy()
        self.phi = polar_angles(x, y)

    def ray_position(self, theta, ci=0):
        """Arc positions where the rays at the angles theta (an array)
        from the points ci leave the boundary."""
        i, s, _, _ = ray_exit(self.pts, self.phi, theta, self.c, ci)
        return i + s

    def point_at(self, t):
        _, i, u = _split(t, self.n)
        # i + 1 - n indexes point i + 1, and point 0 after the last
        a, b = self.pts[i], self.pts[i + (1 - self.n)]
        return a + np.asarray(u)[..., None] * (b - a)

    def swept_area(self, t, ci=0):
        turns, i, u = _split(t, self.n)
        # row ci of prefix starts at ci * (n + 1) in the flat array
        j = i + ci * (self.n + 1)
        prefix = self.prefix.ravel()
        val = prefix[j] + u * (prefix[j + 1] - prefix[j])
        return val + turns * self.total_area[ci]

    def arc_run(self, t_a, t_b):
        return _arc_run(t_a, t_b, self.n)

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


def _split(t, n):
    """Position(s) t on a polygon of n points as turns * n + i + u:
    whole turns, an index 0 <= i < n and a fraction 0 <= u < 1.  For
    t >= 0 every part is exact and equal to what divmod(t, n) gives;
    integer floor division costs about half of divmod on floats."""
    whole = np.floor(t).astype(int)
    turns = whole // n
    return turns, whole - turns * n, t - whole


def _arc_run(t_a, t_b, n):
    """The points of a polygon of n points strictly between positions
    t_a < t_b (mod n) as a cyclic run: its first index and its length.
    Takes positions or arrays of them; a region's arc is the run between
    its two endpoints.  A run ends at ceil(t_b) - 1 and the next starts
    at floor(t_b) + 1, of the same reduced t_b, so the runs of a cell's
    three arcs partition the boundary but for the points that are its
    endpoints, at integer positions."""
    ta, tb = np.remainder(t_a, n), np.remainder(t_b, n)
    first = np.floor(ta) + 1.0
    last = np.ceil(tb) - 1.0 + np.where(tb < ta, n, 0.0)
    return (first % n).astype(int), (last - first + 1.0).astype(int)


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


def standard_cells(stack):
    """The standard trisection of each row of a BodyStack, as cells:
    curve vertices verts (k, 3, 3, 2) and the arc runs start and length
    (k, 3), which index the row's own points.  Its rays leave the center
    at the row's nearest point's polar angle plus 0, SECTOR and
    2 SECTOR, cut at their walk positions about the center.

    The angle is math.atan2's, which numpy's arctan2 differs from in
    the last bit for some points."""
    feet, _ = stack.nearest_point
    n, rows = stack.n, np.arange(len(stack.bodies))[:, None]
    theta = np.array([math.atan2(y, x) for x, y in feet.tolist()])
    i, s, _, _ = ray_exit(stack.pts, stack.angles,
                          theta[:, None] + np.arange(3) * SECTOR, None, rows)
    ts = i + s
    _, i, u = _split(ts, n)
    a, b = stack.pts[rows, i], stack.pts[rows, (i + 1) % n]
    ws = a + u[..., None] * (b - a)
    nxt = [1, 2, 0]
    start, length = _arc_run(ts, ts[:, nxt], n)
    return np.stack((np.zeros_like(ws), ws, ws[:, nxt]), axis=2), start, length


def standard_trisection(body):
    """Trisection joining the center to the edge midpoints of the smallest
    enclosing equilateral triangle: row 0 of standard_cells of the body's
    stack of one, on its boundary."""
    verts, start, length = standard_cells(body.stack)
    return Trisection(body.boundary, verts[0], start[0], length[0])


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
    """d_M of the standard trisection without building regions, of a body
    or of each row of a BodyStack.

    The value is attained either between two trisection endpoints
    (sqrt(3) * rho) or between the center and a farthest boundary
    point (R), whichever is larger: the floor under every trisection's
    d_M, which search.lemma_floor_checks checks the standard one attains.
    """
    stack = as_stack(body)
    rho = inscribed_ball_radius(stack)
    return unstack(body, np.maximum(math.sqrt(3.0) * rho, stack.max_radius))


def dm_regular_closed_form(m):
    """d_M of the standard trisection of the unit-area regular m-gon."""
    if m % 3 != 0 or m < 3:
        raise ValueError("m must be a positive multiple of 3")
    apothem = regular_polygon_apothem(m)
    if m == 3:
        return apothem / math.cos(math.pi / 3.0)
    return math.sqrt(3.0) * apothem
