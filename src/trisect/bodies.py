"""Constructors for 3-rotationally symmetric planar convex bodies.

A polygonal body (regular:<m>, H_eps, a random hull) is its corner list,
CCW from the polar angle 0, and nothing else.  A curved body (reuleaux,
h_tilde) or a body file is a radial boundary profile r(theta) over one
fundamental sector [0, 2*pi/3), replicated at +2*pi/3 and +4*pi/3.  All
constructors return unit-area bodies centered at the origin.
"""

import json
import math
import operator
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .geom import (DegenerateGeometryError, convex_hull, polar_angles,
                   polygon_area, ray_exit, rotate)

SECTOR = 2.0 * math.pi / 3.0
# profile samples per sector: a curved body's, and a polygon's to_dict
POLYGON_SECTOR_SAMPLES = 1024
CURVED_SECTOR_SAMPLES = 4 * POLYGON_SECTOR_SAMPLES
RANDOM_BASE_POINTS = 6  # random points per sector of a random_body
MAX_PROFILE_SPACING = SECTOR / 256.0
SWEEP_SECTOR_SAMPLES = 256  # grid angles a sector of a curved body's sweep
# a unit-area body has every radius below 1; from about 1e154 up, squares
# overflow and numpy warns while the body is checked
MAX_PROFILE_RADIUS = 1e6
# validate's corner symmetry slack; built bodies measure at most 9.3e-16
SYMMETRY_TOL = 1e-12

# largest short-edge length for the H_eps family (the regular hexagon)
H_EPS_A_MAX = 2.0 ** 0.5 * 3.0 ** -0.75


@dataclass(frozen=True, eq=False)
class SymmetricBody:
    """Unit-area convex body with threefold rotational symmetry.

    corners: a polygonal body's corner list, (k, 2), CCW from the polar
        angle 0: its boundary, which everything computes on.
    sector_theta/sector_r: else the sampled radial profile over
        [0, 2*pi/3), whose points are the boundary.
    nearest_point, max_radius and radius_at are row 0 of the body's
        stack of one (BodyStack), whose code every stack runs.
    sweep_rows: a curved body's indices into sector_theta of its sweep
        polygon; a body without them sweeps on its boundary.
    outline_hint: a curved body's exact drawing path for the full
        boundary, a tuple of ("M", x, y) / ("A", radius, x, y) / ("L", x, y)
        segments (arc segments sweep CCW about the origin).
    """

    label: str
    corners: np.ndarray = None
    sector_theta: np.ndarray = None
    sector_r: np.ndarray = None
    sweep_rows: np.ndarray = None
    outline_hint: tuple = ()

    @cached_property
    def boundary(self):
        """Full boundary polygon, CCW: the corners, or one point per
        profile sample."""
        if self.corners is not None:
            return self.corners
        sector = np.column_stack((self.sector_r * np.cos(self.sector_theta),
                                  self.sector_r * np.sin(self.sector_theta)))
        return np.concatenate([rotate(sector, k * SECTOR) for k in range(3)])

    @property
    def stack(self):
        """The body as a stack of one, made at each call.  The body caches
        its nearest_point and polygon_angles, which its stacks read, but
        no stack: a stack holds its bodies, and that cycle would keep
        both alive until a garbage collection."""
        return BodyStack((self,))

    @cached_property
    def polygon_angles(self):
        """The boundary's polar angles, one row (1, n + 1) in polar_angles'
        layout: the corners' by that formula, else the profile angles."""
        if self.corners is None:
            t = self.sector_theta
            return np.concatenate([t + k * SECTOR for k in range(3)]
                                  + [t[:1] + 2.0 * math.pi])[None]
        return polar_angles(*self.corners.T[:, None])

    @cached_property
    def sweep_polygon(self):
        """The polygon the sweep runs on: a curved body's boundary rows at
        sweep_rows in each sector, which it inscribes; else boundary."""
        if self.sweep_rows is None:
            return self.boundary
        return self.boundary.reshape(3, -1, 2)[:, self.sweep_rows].reshape(-1, 2)

    @cached_property
    def area(self):
        return polygon_area(self.boundary)

    def radius_at(self, theta):
        """Distance from the origin along direction(s) theta to the
        body's boundary polygon, exact on its chords: an array of theta's
        shape, or a float for a scalar theta."""
        theta = np.asarray(theta, dtype=float)
        r = self.stack.radius_at(theta)[0]
        return float(r) if theta.ndim == 0 else r

    def max_radius(self):
        """Max distance from the center to the boundary: the farthest
        corner's norm, or the largest profile radius."""
        return self.stack.max_radius[0].item()

    @cached_property
    def nearest_point(self):
        """Boundary point closest to the center and its distance rho, as
        BodyStack.nearest_point finds them."""
        m, rho = self.stack._nearest()
        return m[0], rho[0].item()

    def scaled(self, factor):
        """Uniform dilation about the center."""
        def times(a):
            return None if a is None else a * factor
        return replace(self, corners=times(self.corners),
                       sector_r=times(self.sector_r), outline_hint=tuple(
                           (seg[0],) + tuple(v * factor for v in seg[1:])
                           for seg in self.outline_hint))

    def to_dict(self):
        """The body's file: its profile, which a polygon samples by
        radius_at on the sector grid and at its corners."""
        theta, r = self.sector_theta, self.sector_r
        if self.corners is not None:
            theta = _sector_angles(self.polygon_angles[0, :-1],
                                   POLYGON_SECTOR_SAMPLES)[0]
            r = self.radius_at(theta)
        return {"label": self.label,
                "sector_profile": np.column_stack((theta, r)).tolist()}


@dataclass(frozen=True)
class ValidationReport:
    convex_ok: bool
    symmetry_ok: bool
    coverage_ok: bool
    positive_ok: bool
    area_ok: bool
    area: float
    messages: tuple = field(default=())

    @property
    def clean(self):
        return (self.convex_ok and self.symmetry_ok and self.coverage_ok
                and self.positive_ok and self.area_ok)


@dataclass(frozen=True, eq=False)
class BodyStack:
    """Bodies of one point count n as one array, for the quantities and
    checks that run on all of them at once (stacks forms them).

    Row b of pts (k, n, 2) is bodies[b].boundary: geom.ray_exit's stack
    form.  A profile body (a curved body, a body file) is only ever a
    stack of one.  Each cached quantity has one entry per row.
    """

    bodies: tuple
    n: int = field(init=False)

    def __post_init__(self):
        counts = {len(b.boundary) for b in self.bodies}
        if len(counts) != 1:
            raise ValueError(f"a BodyStack holds bodies of one point count, "
                             f"not {sorted(counts)}")
        object.__setattr__(self, "n", counts.pop())

    @cached_property
    def pts(self):
        if len(self.bodies) == 1:  # a view of the body's boundary
            return self.bodies[0].boundary[None]
        return np.stack([b.boundary for b in self.bodies])

    @staticmethod
    def _next(v):
        """v (k, n) at each point's successor on its polygon."""
        return np.concatenate((v[:, 1:], v[:, :1]), axis=1)

    @cached_property
    def angles(self):
        """radius_at's rows of angles: a body's own polygon_angles, or
        polar_angles of the rows' points about the center (k, n + 1)."""
        if len(self.bodies) == 1:
            return self.bodies[0].polygon_angles
        return polar_angles(self.pts[..., 0], self.pts[..., 1])

    @property
    def point_angles(self):
        """polar_angles of the rows' points, the angles a walk about the
        center sees: angles, but for a profile body, whose are made at
        each call."""
        if self.bodies[0].corners is not None:
            return self.angles
        return polar_angles(self.pts[..., 0], self.pts[..., 1])

    @cached_property
    def area(self):
        """Each body's area, its own polygon_area."""
        return np.array([b.area for b in self.bodies])

    @cached_property
    def max_radius(self):
        """Each row's largest distance from the center to its boundary:
        the farthest corner's norm, or a profile's largest radius."""
        body = self.bodies[0]
        if body.corners is None:
            return np.max(body.sector_r, keepdims=True)
        return np.max(np.hypot(self.pts[..., 0], self.pts[..., 1]), axis=1)

    @cached_property
    def nearest_point(self):
        """Each row's boundary point closest to the center (k, 2) and its
        distance rho (k,), exact over chords: _nearest's, which a body
        keeps for its stack of one."""
        if len(self.bodies) == 1:
            m, rho = self.bodies[0].nearest_point
            return m[None], np.array([rho])
        return self._nearest()

    def _nearest(self):
        """nearest_point, computed.

        Feet within 1e-15 * rho of rho tie (threefold copies, flat arcs);
        ties are broken by smallest polar angle, then by first chord.
        """
        x, y = self.pts[..., 0], self.pts[..., 1]
        ex, ey = self._next(x) - x, self._next(y) - y
        t = np.clip(-(x * ex + y * ey)
                    / np.maximum(ex * ex + ey * ey, 1e-30), 0.0, 1.0)
        fx, fy = x + t * ex, y + t * ey
        dist = np.hypot(fx, fy)
        rho = np.min(dist, axis=1)
        tied = np.flatnonzero(dist <= (rho + 1e-15 * rho)[:, None])
        fx, fy, r = fx.ravel()[tied], fy.ravel()[tied], tied // dist.shape[1]
        # each row's tied feet by angle, then by chord: its first wins
        order = np.lexsort((np.mod(np.arctan2(fy, fx), 2 * math.pi), r))
        won = order[np.diff(r[order], prepend=-1) > 0]
        feet = np.full((len(rho), 2), np.nan)  # a NaN row ties nothing
        feet[r[won]] = np.column_stack((fx[won], fy[won]))
        return feet, rho

    def radius_at(self, theta, rows=slice(None)):
        """Distance from the center along the angles theta to the
        boundary polygon of each row in the slice rows, exact on its
        chords, (rows, *theta's shape): geom.ray_exit's stack form on
        angles, whose search keys hold those rows only."""
        pts, angles = self.pts[rows], self.angles[rows]
        ci = np.arange(len(pts)).reshape((-1,) + (1,) * np.ndim(theta))
        return np.hypot(*ray_exit(pts, angles, theta, None, ci)[2:])


def as_stack(body):
    """A BodyStack as it is, or a SymmetricBody's stack of one."""
    return body if isinstance(body, BodyStack) else body.stack


def unstack(body, values):
    """values, an array with one entry per row of as_stack(body): all of
    it for a BodyStack, else the one body's entry as a Python scalar."""
    return values if isinstance(body, BodyStack) else values[0].item()


def stacks(bodies):
    """bodies as (rows, BodyStack) pairs, rows the indices in bodies of
    the stack's rows: each profile body as its own stack of one, then
    one stack per corner count, in order of count."""
    bodies = list(bodies)
    out = [([i], BodyStack((b,))) for i, b in enumerate(bodies)
           if b.corners is None]
    counts = {}
    for i, b in enumerate(bodies):
        if b.corners is not None:
            counts.setdefault(len(b.corners), []).append(i)
    return out + [(rows, BodyStack(tuple(bodies[i] for i in rows)))
                  for _, rows in sorted(counts.items())]


def per_body(check, pairs, *args):
    """check(stack, *args), one value per row, over the (rows, stack)
    pairs of stacks: a list in the order of the bodies."""
    out = {}
    for rows, stack in pairs:
        out.update(zip(rows, check(stack, *args)))
    return [out[i] for i in range(len(out))]


def _corner_body(label, points):
    """Polygonal body of the convex polygon points, sorted CCW from the
    polar angle 0."""
    pts = np.asarray(points, dtype=float)
    return SymmetricBody(label, corners=pts[np.argsort(
        np.mod(np.arctan2(pts[:, 1], pts[:, 0]), 2 * math.pi))])


def _profile_body(label, r_fn, corner_angles, outline_hint):
    """Curved body of the exact outline_hint whose profile samples r_fn
    on CURVED_SECTOR_SAMPLES even angles of the sector and on its corners'
    polar angles corner_angles, and sweeps on the rows at its corners and
    at SWEEP_SECTOR_SAMPLES of the grid angles."""
    samples = CURVED_SECTOR_SAMPLES
    thetas, first = _sector_angles(corner_angles, samples)
    # angles 1e-12 apart or less are one sample: their first corner, if any
    group = np.cumsum(np.diff(thetas, prepend=-1.0) > 1e-12)
    pick = np.lexsort((first < samples, group))
    keep = pick[np.diff(group[pick], prepend=0) > 0]
    sweep = (first % (samples // SWEEP_SECTOR_SAMPLES) == 0) | (first >= samples)
    return SymmetricBody(label, sector_theta=thetas[keep],
                         sector_r=r_fn(thetas)[keep],
                         sweep_rows=np.flatnonzero(sweep[keep]),
                         outline_hint=tuple(outline_hint))


def _sector_angles(corner_thetas, samples):
    """The sorted distinct angles of `samples` even grid angles of the
    sector and of the corner angles mod SECTOR, and for each the index of
    its first source: i < samples for grid angle i, samples + j for
    corner j."""
    grid = np.arange(samples) * SECTOR / samples
    corners = np.mod(np.asarray(corner_thetas, dtype=float), SECTOR)
    return np.unique(np.concatenate((grid, corners)), return_index=True)


def regular_polygon_apothem(m):
    """Apothem of the unit-area regular m-gon: m^(-1/2) cot^(1/2)(pi/m)."""
    return m ** -0.5 * (1.0 / math.tan(math.pi / m)) ** 0.5


def make_regular_polygon(n):
    """Unit-area regular 3n-gon, one vertex on the positive x-axis; n is
    an integer (TypeError otherwise)."""
    n = operator.index(n)
    if n < 1:
        raise ValueError("edge count must be a positive multiple of 3")
    m = 3 * n
    r_vert = regular_polygon_apothem(m) / math.cos(math.pi / m)
    vert_angles = 2.0 * math.pi * np.arange(m) / m
    return SymmetricBody(f"regular:{m}", corners=r_vert * np.column_stack(
        (np.cos(vert_angles), np.sin(vert_angles))))


def make_reuleaux():
    """Unit-area Reuleaux triangle; one flat-side vertex on the +y axis."""
    a = (2.0 / (math.pi - math.sqrt(3.0))) ** 0.5  # width = inner-triangle side
    r0 = a / math.sqrt(3.0)  # center-to-vertex distance
    vert_angles = np.array([math.pi / 2.0 + k * SECTOR for k in range(3)])
    verts = r0 * np.column_stack((np.cos(vert_angles), np.sin(vert_angles)))

    def r_fn(theta):
        # each arc of radius a is centered at the opposite vertex; arc
        # midpoints lie at the antipodes of the vertex directions
        offset = np.mod(theta + math.pi / 2.0 + SECTOR / 2.0, SECTOR) - SECTOR / 2.0
        center = np.column_stack((np.cos(theta - offset + math.pi),
                                  np.sin(theta - offset + math.pi))) * r0
        d = np.column_stack((np.cos(theta), np.sin(theta)))
        b = np.einsum("ij,ij->i", d, center)
        return b + np.sqrt(b * b - r0 * r0 + a * a)

    hint = [("M", float(verts[0, 0]), float(verts[0, 1]))]
    for k in (1, 2, 0):
        hint.append(("A", a, float(verts[k, 0]), float(verts[k, 1])))
    return _profile_body("reuleaux", r_fn, vert_angles, hint)


def check_h_eps_a(a):
    """Raise ValueError unless a is a short-side length of the H_eps
    family, in [0, H_EPS_A_MAX] up to 1e-12."""
    if not -1e-12 <= a <= H_EPS_A_MAX + 1e-12:
        raise ValueError(f"a must lie in [0, {H_EPS_A_MAX:.6f}]")


def h_eps_side_b(a):
    """Long-side length making the alternating-side hexagon unit area."""
    check_h_eps_a(a)
    return -2.0 * a + math.sqrt(4.0 / math.sqrt(3.0) + 3.0 * a * a)


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


def solve_a0():
    """Parameter where the two hexagon distances cross, in closed form.

    d(p,x) = d(v1,v2) reads 3a sqrt(12 sqrt(3) + 27a^2) = sqrt(3) + 45a^2/4;
    squared, 1863 a^4 + b a^2 - 48 = 0 with b = 1368 sqrt(3), whose
    positive root a^2 = 96 / (b + sqrt(b^2 + 4 * 1863 * 48)) adds two
    positive terms, so nothing cancels.
    """
    b = 1368.0 * math.sqrt(3.0)
    return math.sqrt(96.0 / (b + math.sqrt(b * b + 4.0 * 1863.0 * 48.0)))


def _h_eps_vertices(a):
    """Vertices of the unit-area hexagon with alternating sides a, b.

    The hexagon sits inside an equilateral triangle of side b + 2a with
    three corner triangles of side a removed; one long edge's midpoint
    lies on the negative y-axis.
    """
    b = h_eps_side_b(a)
    side = b + 2.0 * a
    r_corner = side / math.sqrt(3.0)
    corner_angles = [math.pi / 2.0 + k * SECTOR for k in range(3)]
    corners = [np.array([r_corner * math.cos(t), r_corner * math.sin(t)])
               for t in corner_angles]
    verts = []
    for k in range(3):
        c0, c1 = corners[k], corners[(k + 1) % 3]
        u = (c1 - c0) / side
        verts.append(c0 + a * u)
        verts.append(c1 - a * u)
    return np.array(verts)


def make_h_eps(a):
    """Unit-area 3-symmetric hexagon with alternating side lengths a, b;
    an a in check_h_eps_a's slack is clamped into range (-0 gives 0)."""
    check_h_eps_a(a)
    a = 0.0 if a <= 0.0 else min(a, H_EPS_A_MAX)
    verts = _h_eps_vertices(a)
    # drop duplicated vertices at the triangle endpoint a = 0
    keep = np.hypot(*(verts - np.roll(verts, -1, axis=0)).T) > 1e-12
    return _corner_body(f"h_eps:{a:.6f}", verts[keep])


def make_h_tilde():
    """Optimal body: H_eps at the crossing parameter with its short edges
    replaced by circular arcs about the center, rescaled to unit area."""
    a0 = solve_a0()
    hexagon = _corner_body("hexagon", _h_eps_vertices(a0))
    verts = hexagon.corners
    vert_angles = np.mod(np.arctan2(verts[:, 1], verts[:, 0]), 2 * math.pi)
    r0 = h_eps_dpx(a0)

    # the short edges straddle the corner directions of the enclosing triangle
    half_span = math.asin(0.5 * a0 / r0)

    def r_fn(theta):
        offset = np.abs(np.mod(theta - math.pi / 2.0 + SECTOR / 2.0, SECTOR)
                        - SECTOR / 2.0)
        return np.where(offset <= half_span, r0, hexagon.radius_at(theta))

    # exact outline: alternating long edges and corner arcs
    hint = [("M", float(verts[0, 0]), float(verts[0, 1]))]
    for i in range(1, len(verts) + 1):
        v = verts[i % len(verts)]
        gap = (vert_angles[i % len(verts)] - vert_angles[i - 1]) % (2 * math.pi)
        kind = ("A", r0) if gap < 2.2 * half_span else ("L",)
        hint.append(kind + (float(v[0]), float(v[1])))
    return normalize_unit_area(_profile_body("h_tilde", r_fn, vert_angles,
                                             hint))


def normalize_unit_area(body):
    """Uniformly dilate so the boundary polygon has unit area."""
    area = body.area
    if area <= 1e-12:
        raise DegenerateGeometryError("body has zero area")
    return body.scaled(1.0 / math.sqrt(area))


def _corner_checks(stack):
    """validate's checks of a stack of corner bodies, for each row: its
    positive, symmetry and coverage verdicts and their messages."""
    # each edge passes the center on its left; the corners rotated by
    # SECTOR are them moved on by a third; their angles rise one turn
    x, y, n = stack.pts[..., 0], stack.pts[..., 1], stack.n
    positive = np.all(x * stack._next(y) - y * stack._next(x) > 0.0, axis=1)
    third = (np.arange(n) + n // 3) % n
    rx, ry = np.moveaxis(rotate(stack.pts, SECTOR), 2, 0)
    off = np.maximum(np.abs(rx - x[:, third]), np.abs(ry - y[:, third]))
    symmetry = (n % 3 == 0) & (np.max(off, axis=1) <= SYMMETRY_TOL)
    coverage = np.all(np.diff(stack.angles) > 0.0, axis=1)
    texts = ("an edge does not pass the center on its left",
             f"corners are not threefold symmetric within {SYMMETRY_TOL:g}",
             "corners do not turn once about the center")
    return [(*row, [t for ok, t in zip(row, texts) if not ok])
            for row in zip(positive.tolist(), symmetry.tolist(),
                           coverage.tolist())]


def _profile_checks(body):
    """validate's checks of a profile body: its positive, symmetry and
    coverage verdicts and their messages."""
    msgs = []
    thetas = np.asarray(body.sector_theta, dtype=float)
    radii = np.asarray(body.sector_r, dtype=float)

    positive_ok = bool(np.all(radii > 0.0) and np.all(np.isfinite(radii)))
    if not positive_ok:
        msgs.append("profile has non-positive or non-finite radii")

    symmetry_ok = bool(np.all(thetas >= 0.0) and np.all(thetas < SECTOR)
                       and np.all(np.diff(thetas) > 0.0))
    if not symmetry_ok:
        msgs.append("profile angles leave the fundamental sector [0, 2pi/3)")

    gaps = np.diff(np.append(thetas, thetas[0] + SECTOR))
    coverage_ok = symmetry_ok and bool(np.max(gaps) <= MAX_PROFILE_SPACING + 1e-12)
    if symmetry_ok and not coverage_ok:
        msgs.append(f"profile spacing exceeds {MAX_PROFILE_SPACING:.6f}")
    return positive_ok, symmetry_ok, coverage_ok, msgs


def validate(body):
    """Check positive radii, threefold symmetry, coverage, convexity and
    unit area, of a polygon's corners or of a profile: a
    ValidationReport for a body, and a tuple of one a row for a
    BodyStack, whose checks run on all its rows at once."""
    stack = as_stack(body)
    first = stack.bodies[0]
    checks = (_corner_checks(stack) if first.corners is not None
              else [_profile_checks(first)])
    # a profile with a non-positive or non-finite radius builds no
    # boundary worth measuring: its turns and area could overflow
    turns = [False] * len(checks)
    if any(ok for ok, *_ in checks):
        x, y = stack.pts[..., 0], stack.pts[..., 1]
        ex, ey = stack._next(x) - x, stack._next(y) - y
        turns = np.all(ex * stack._next(ey) - ey * stack._next(ex) >= -1e-9,
                       axis=1).tolist()
    reports = []
    for (positive_ok, symmetry_ok, coverage_ok, msgs), turn, member in zip(
            checks, turns, stack.bodies):
        convex_ok = positive_ok and turn
        if positive_ok and not convex_ok:
            msgs.append("reconstructed boundary is not convex")

        area = float(member.area) if positive_ok else 0.0
        area_ok = abs(area - 1.0) <= 1e-6
        if not area_ok:
            msgs.append(f"area {area:.8f} deviates from 1 by more than 1e-6")

        reports.append(ValidationReport(
            convex_ok=convex_ok, symmetry_ok=symmetry_ok,
            coverage_ok=coverage_ok, positive_ok=positive_ok,
            area_ok=area_ok, area=area, messages=tuple(msgs)))
    return tuple(reports) if isinstance(body, BodyStack) else reports[0]


def load_body(path):
    """Load a custom body from a JSON file."""
    with open(path) as fh:
        doc = json.load(fh)
    profile = np.asarray(doc["sector_profile"], dtype=float)
    if profile.ndim != 2 or profile.shape[0] == 0 or profile.shape[1] != 2:
        raise ValueError("sector_profile must be a non-empty list of "
                         "[theta, r] pairs")
    # an infinite entry makes numpy warn while the boundary is built; a
    # NaN radius is left to validate, which reports the area as not 1
    if not np.all(np.isfinite(profile[:, 0])) or np.any(np.isinf(profile)):
        raise ValueError("sector_profile has a NaN or infinite angle or an "
                         "infinite radius")
    if np.any(profile[:, 1] > MAX_PROFILE_RADIUS):
        raise ValueError(f"sector_profile has a radius above "
                         f"{MAX_PROFILE_RADIUS:g}")
    return SymmetricBody(sector_theta=profile[:, 0], sector_r=profile[:, 1],
                         label=str(doc.get("label", "custom")))


def random_body(rng):
    """Random unit-area convex 3-symmetric body (hull of a symmetrized set)."""
    angles = np.sort(rng.uniform(0.0, SECTOR, RANDOM_BASE_POINTS))
    radii = rng.uniform(0.8, 1.2, RANDOM_BASE_POINTS)
    sector = np.column_stack((radii * np.cos(angles), radii * np.sin(angles)))
    cloud = np.concatenate([rotate(sector, k * SECTOR) for k in range(3)])
    return normalize_unit_area(_corner_body("random", convex_hull(cloud)))
