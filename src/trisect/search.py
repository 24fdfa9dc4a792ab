"""Brute-force sweeps and probes verifying the trisection minimality results."""

import math
from dataclasses import dataclass, field

import numpy as np

from . import bodies as _bodies
from .bodies import H_EPS_A_MAX, SECTOR
from .geom import points_diameter, rotate
from .trisection import (AREA_TOL, Trisection, boundary_arc,
                         closed_form_dm_standard, h_eps_dpx, h_eps_dv12,
                         inscribed_ball_radius, smallest_enclosing_triangle,
                         standard_trisection)

VIOLATION_TOL = 1e-3  # slack below the closed form before a sweep cell counts
FLOOR_TOL = 1e-6


class InfeasibleConfigurationError(ValueError):
    """No equal-area trisection exists for the requested configuration."""


@dataclass(frozen=True)
class SweepGrid:
    c_points: np.ndarray          # (k, 2) interior common-point candidates
    theta1_count: int
    curve_mode: str = "segments"  # or "perturbed_polylines"
    perturbation_magnitude: float = 0.0

    def __post_init__(self):
        if self.theta1_count < 8:
            raise ValueError("theta1_count must be at least 8")
        pts = np.asarray(self.c_points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] == 0 or pts.shape[1] != 2:
            raise ValueError("c_points must be a non-empty (k, 2) array")
        if self.curve_mode not in ("segments", "perturbed_polylines"):
            raise ValueError(f"unknown curve mode {self.curve_mode!r}")

    def to_dict(self):
        return {
            "c_points": [[float(x), float(y)] for x, y in self.c_points],
            "theta1_count": int(self.theta1_count),
            "curve_mode": self.curve_mode,
            "perturbation_magnitude": float(self.perturbation_magnitude),
        }


@dataclass(frozen=True)
class SweepReport:
    body_label: str
    grid: SweepGrid
    min_dm: float
    argmin: Trisection
    dm_standard: float
    violations: tuple
    floor_margin: float
    cells_evaluated: int
    cells_skipped: int

    def to_dict(self):
        return {
            "body_label": self.body_label,
            "grid": self.grid.to_dict(),
            "min_dm": float(self.min_dm),
            "argmin": self.argmin.to_dict(dm=self.min_dm),
            "dm_standard": float(self.dm_standard),
            "violations": [
                {"trisection": t, "deficit": float(d)} for t, d in self.violations
            ],
            "floor_margin": float(self.floor_margin),
            "cells_evaluated": int(self.cells_evaluated),
            "cells_skipped": int(self.cells_skipped),
        }


def default_c_points(body, count, rng):
    """Common-point candidates: hex lattice over the inscribed ball plus
    ~20% random points between the ball and the boundary."""
    rho = inscribed_ball_radius(body)
    lattice_target = max(1, int(round(0.8 * count)))
    pts = [np.zeros(2)]
    # grow a hex lattice until enough points fall inside the ball
    rings = 1
    while True:
        step = 0.95 * rho / rings
        pts = [np.zeros(2)]
        for i in range(-2 * rings, 2 * rings + 1):
            for j in range(-2 * rings, 2 * rings + 1):
                x = step * (i + 0.5 * j)
                y = step * (math.sqrt(3.0) / 2.0) * j
                if 0.0 < math.hypot(x, y) <= 0.95 * rho:
                    pts.append(np.array([x, y]))
        if len(pts) >= lattice_target or rings > 40:
            break
        rings += 1
    pts = pts[:lattice_target]
    while len(pts) < count:
        theta = rng.uniform(0.0, 2.0 * math.pi)
        rmax = body.radius_at(theta)
        r = rng.uniform(rho, rho + 0.8 * (rmax - rho))
        pts.append(r * np.array([math.cos(theta), math.sin(theta)]))
    return np.array(pts[:count])


def _dense_boundary(body):
    """Boundary rebuilt at 256 samples per sector, hint corners kept exact."""
    corner_angles = [math.atan2(y, x) for x, y in body.vertices_hint]
    sector = _bodies._sector_angles(corner_angles, 256)
    thetas = np.concatenate([sector + k * SECTOR for k in range(3)])
    r = body.radius_at(thetas)
    return np.column_stack((r * np.cos(thetas), r * np.sin(thetas)))


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
    fixed curve mid-vertices)."""
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


def equal_area_segment_trisection(body, c, theta1):
    """Trisection by three segments from c, first endpoint at polar angle
    theta1 as seen from c; the other endpoints are solved exactly on
    boundary arc-position (the swept area is piecewise linear in it) so
    every region encloses a third of the area."""
    return _segment_trisection(_BoundaryWalk(body.boundary, c), theta1)


def _segment_trisection(walk, theta1):
    A = walk.total_area
    t1 = walk.ray_position(theta1)
    f1 = walk.swept_area(t1)
    t2 = walk.solve_position(lambda t: walk.swept_area(t) - f1 - A / 3.0,
                             t1, t1 + walk.n)
    t3 = walk.solve_position(lambda t: walk.swept_area(t) - f1 - 2.0 * A / 3.0,
                             t2, t1 + walk.n)
    third = A - (walk.swept_area(t3 if t3 >= t1 else t3 + walk.n) - f1)
    if abs(third - A / 3.0) > 2e-6 * max(A, 1.0):
        raise InfeasibleConfigurationError("area additivity broken")
    return _assemble(walk, [t1 % walk.n, t2 % walk.n, t3 % walk.n])


def perturbed_polyline_trisection(body, c, theta1, rng, magnitude):
    """Segment trisection with curve mid-vertices jittered, areas restored
    by re-solving the second and third endpoints only."""
    return _perturbed_trisection(_BoundaryWalk(body.boundary, c), theta1, rng,
                                 magnitude)


def _perturbed_trisection(walk, theta1, rng, magnitude):
    c = walk.c
    base = _segment_trisection(walk, theta1)
    A = walk.total_area
    mids = []
    for w in base.endpoints:
        seg = w - c
        perp = np.array([-seg[1], seg[0]]) / max(np.hypot(*seg), 1e-12)
        mids.append(c + 0.5 * seg + rng.uniform(-magnitude, magnitude) * perp)
    t1 = walk.ray_position(theta1)

    def region_gap(t_a, m_a, m_b):
        # area of [c, m_a, w(t_a), arc, w(t), m_b] minus A/3
        def g(t):
            return (_tri_area(c, m_a, walk.point_at(t_a))
                    + walk.swept_area(t) - walk.swept_area(t_a)
                    + _tri_area(c, walk.point_at(t), m_b) - A / 3.0)
        return g

    t2 = walk.solve_position(region_gap(t1, mids[0], mids[1]),
                             t1 + 1e-9, t1 + walk.n - 1e-9)
    t3 = walk.solve_position(region_gap(t2, mids[1], mids[2]),
                             t2 + 1e-9, t1 + walk.n - 1e-9)
    tri = _assemble(walk, [t1 % walk.n, t2 % walk.n, t3 % walk.n], mids=mids)
    areas = tri.region_areas()
    if np.any(np.abs(areas - A / 3.0) > AREA_TOL * A):
        raise InfeasibleConfigurationError("perturbation could not be rebalanced")
    return tri


def trisection_dm(tri):
    """d_M of a trisection from its (already dense) region boundaries."""
    return max(points_diameter(r) for r in tri.regions)


def sweep_segment_trisections(body, grid, seed=42):
    """Evaluate d_M over the (c, theta1) grid and report the minimum plus
    any cells falling below the closed-form standard value.

    One boundary walk per common point serves all its theta1 cells; the
    cells run in grid order on one random stream, so a report depends
    only on the body, the grid and the seed.
    """
    boundary = _dense_boundary(body)
    dm_standard = closed_form_dm_standard(body)
    thetas = np.arange(grid.theta1_count) * 2.0 * math.pi / grid.theta1_count
    rng = np.random.default_rng(seed)

    min_dm, argmin = math.inf, None
    violations = []
    floor_margin = math.inf
    skipped = 0
    for c in grid.c_points:
        try:
            walk = _BoundaryWalk(boundary, c)
        except InfeasibleConfigurationError:
            skipped += len(thetas)
            continue
        for theta1 in thetas:
            try:
                if grid.curve_mode == "segments":
                    tri = _segment_trisection(walk, theta1)
                else:
                    tri = _perturbed_trisection(walk, theta1, rng,
                                                grid.perturbation_magnitude)
            except InfeasibleConfigurationError:
                skipped += 1
                continue
            dm = trisection_dm(tri)
            # the lemma floor max(R, sqrt(3) rho) is dm_standard itself
            floor_margin = min(floor_margin, dm - dm_standard)
            if dm < min_dm:
                min_dm, argmin = dm, tri
            if dm < dm_standard - VIOLATION_TOL:
                violations.append((tri.to_dict(dm=dm), dm_standard - dm))
    if argmin is None:
        raise InfeasibleConfigurationError("every grid cell was infeasible")
    return SweepReport(body_label=body.label, grid=grid, min_dm=min_dm,
                       argmin=argmin, dm_standard=dm_standard,
                       violations=tuple(violations), floor_margin=floor_margin,
                       cells_evaluated=len(grid.c_points) * len(thetas) - skipped,
                       cells_skipped=skipped)


def lemma_floor_checks(body, tri):
    """Whether d_M(tri) clears the two lower bounds: the farthest boundary
    distance R, and the endpoint distance sqrt(3)*rho."""
    dm = trisection_dm(tri)
    r_ok = dm >= body.max_radius() - FLOOR_TOL
    v_ok = dm >= math.sqrt(3.0) * inscribed_ball_radius(body) - FLOOR_TOL
    return bool(r_ok), bool(v_ok)


def sweep_h_eps(count):
    """Table of (a, d(p,x), d(v1,v2), dm) over the hexagon family."""
    if count < 16:
        raise ValueError("count must be at least 16")
    a_vals = np.linspace(0.0, H_EPS_A_MAX, count)
    rows = np.array([[a, h_eps_dpx(a), h_eps_dv12(a),
                      max(h_eps_dpx(a), h_eps_dv12(a))] for a in a_vals])
    return rows


def functional_quotient(body):
    """Dilation-invariant quotient dm(standard)^2 / area."""
    return closed_form_dm_standard(body) ** 2 / body.area


@dataclass(frozen=True)
class OptimalityReport:
    bound: float
    entries: tuple  # (label, quotient, attains_equality)
    all_pass: bool
    failures: tuple = field(default=())


def verify_h_tilde_optimal(candidates, tol=1e-4):
    """Check the universal quotient bound over a candidate pool; equality is
    expected only at the optimal rounded hexagon itself."""
    bound = functional_quotient(_bodies.make_h_tilde())
    entries, failures = [], []
    for body in candidates:
        q = functional_quotient(body)
        equal = abs(q - bound) <= tol
        entries.append((body.label, float(q), bool(equal)))
        if q < bound - tol:
            failures.append((body.label, float(q)))
    return OptimalityReport(bound=float(bound), entries=tuple(entries),
                            all_pass=not failures, failures=tuple(failures))


def antipodal_gap(body, sample_count=1024):
    """Min over sampled directions of d(y, y_bar) - sqrt(3)*rho, where y and
    y_bar are the boundary hits of a line through the center."""
    if sample_count < 64:
        raise ValueError("sample_count must be at least 64")
    thetas = np.arange(sample_count) * math.pi / sample_count
    d = body.radius_at(thetas) + body.radius_at(thetas + math.pi)
    return float(np.min(d) - math.sqrt(3.0) * inscribed_ball_radius(body))


def uniqueness_probe(body, samples=10, seed=42, magnitude=None, tol=1e-4):
    """Perturb the standard trisection and return perturbations that keep
    d_M at the minimum, demonstrating non-uniqueness.

    Bodies whose standard d_M is the endpoint distance get threefold
    symmetric polyline jitters; bodies where it is the center-to-boundary
    distance get small rotations of the three segments.  The probe only
    exhibits non-uniqueness; it cannot certify uniqueness.
    """
    if samples < 10:
        raise ValueError("samples must be at least 10")
    rng = np.random.default_rng(seed)
    rho = inscribed_ball_radius(body)
    dm_std = closed_form_dm_standard(body)
    base = standard_trisection(body)
    endpoint_driven = math.sqrt(3.0) * rho >= body.max_radius()
    if magnitude is None:
        magnitude = 0.05 * rho if endpoint_driven else 0.05

    minimizers = []
    origin = np.zeros(2)
    for _ in range(samples):
        if endpoint_driven:
            # same jitter replicated by the symmetry keeps areas exactly equal
            jitter = rng.uniform(-magnitude, magnitude, 2)
            mids, curves, regions = [], [], []
            for k in range(3):
                w = base.endpoints[k]
                mids.append(0.5 * w + rotate(jitter, k * SECTOR))
            for k in range(3):
                w0, w1 = base.endpoints[k], base.endpoints[(k + 1) % 3]
                curves.append(np.array([origin, mids[k], w0]))
                arc = base.regions[k][1:]  # boundary arc incl. both endpoints
                regions.append(np.vstack([origin, mids[k], arc,
                                          mids[(k + 1) % 3]]))
            tri = Trisection(common_point=origin, curves=tuple(curves),
                             endpoints=base.endpoints, regions=tuple(regions))
        else:
            delta = rng.uniform(-magnitude, magnitude)
            tri = rotate_trisection(body, delta)
        dm = trisection_dm(tri)
        if abs(dm - dm_std) <= tol:
            minimizers.append(tri)
    return minimizers


def rotate_trisection(body, delta):
    """Standard trisection with its three segments rotated by delta."""
    tri = smallest_enclosing_triangle(body)
    origin = np.zeros(2)
    angles = tri.orientation + delta + SECTOR * np.arange(3)
    radii = body.radius_at(angles)
    ws = np.column_stack((radii * np.cos(angles), radii * np.sin(angles)))
    curves, regions = [], []
    for k in range(3):
        curves.append(np.array([origin, ws[k]]))
        arc = boundary_arc(body, angles[k], angles[(k + 1) % 3])
        regions.append(np.vstack([origin, arc]))
    return Trisection(common_point=origin, curves=tuple(curves),
                      endpoints=ws, regions=tuple(regions))
