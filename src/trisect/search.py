"""Brute-force sweeps and probes verifying the trisection minimality results."""

import math
from dataclasses import dataclass, field

import numpy as np

from . import bodies as _bodies
from .bodies import H_EPS_A_MAX, SECTOR
from .geom import points_diameter, region_diameters_sq, rotate
from .trisection import (AREA_TOL, InfeasibleConfigurationError, Trisection,
                         _assemble, _BoundaryWalk, _cell_regions, _centre_fan,
                         _first_root, _tri_area, closed_form_dm_standard,
                         h_eps_dpx, h_eps_dv12, inscribed_ball_radius,
                         rotate_trisection)

VIOLATION_TOL = 1e-3  # slack below the closed form before a sweep cell counts
FLOOR_TOL = 1e-6


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
        if not np.all(np.isfinite(pts)):
            raise ValueError("c_points must be finite")
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
    """The sweep's working boundary: 256 samples per sector with the
    hint corners kept exact, or the body's own boundary if it has no
    hints, since a coarser grid could cut off its unknown corners.

    A point within 1e-9 of the one before it is dropped: a corner on a
    grid angle up to rounding would leave a zero-length edge, and no
    common point sees such a boundary as star-shaped about it.
    """
    if body.vertices_hint:
        corner_angles = [math.atan2(y, x) for x, y in body.vertices_hint]
        sector = _bodies._sector_angles(corner_angles, 256)
        thetas = np.concatenate([sector + k * SECTOR for k in range(3)])
        r = body.radius_at(thetas)
        pts = np.column_stack((r * np.cos(thetas), r * np.sin(thetas)))
    else:
        pts = body.boundary
    step = pts - np.roll(pts, 1, axis=0)
    return pts[np.hypot(step[:, 0], step[:, 1]) > 1e-9]


def equal_area_segment_trisection(body, c, theta1):
    """Trisection by three segments from c, first endpoint at polar angle
    theta1 as seen from c; the other endpoints are solved exactly on
    boundary arc-position (the swept area is piecewise linear in it) so
    every region encloses a third of the area."""
    walk = _BoundaryWalk(body.boundary, c)
    return _assemble(walk, _segment_base(walk, theta1) % walk.n)


def _segment_positions(walk, theta1):
    """Arc positions (t1, t2, t3), not reduced mod n, of the equal-area
    segment trisections whose first rays leave the common points of walk
    at the angles theta1 (a 1-D array): one row per point and angle, each
    point's rows together and in the order of theta1, NaN in a row whose
    solve finds no root or whose third region misses a third of the area.

    t2 and t3 are where the area swept past t1 reaches A/3 and 2A/3,
    solved for every row at once by walk.swept_position in a few area
    evaluations a row.
    """
    n, points = walk.n, np.arange(len(walk.c))
    ci = np.repeat(points, len(theta1))
    A = walk.total_area[ci]
    t1 = walk.ray_position(theta1, points[:, None]).ravel()
    f1 = walk.swept_area(t1, ci)
    t2 = walk.swept_position(f1, A / 3.0, t1, t1 + n, ci)
    # a failed row continues from a stand-in and is dropped at the end
    bad = np.isnan(t2)
    t2 = np.where(bad, t1, t2)
    t3 = walk.swept_position(f1, 2.0 * A / 3.0, t2, t1 + n, ci)
    bad |= np.isnan(t3)
    t3 = np.where(bad, t2, t3)
    third = A - (walk.swept_area(np.where(t3 >= t1, t3, t3 + n), ci) - f1)
    bad |= np.abs(third - A / 3.0) > 2e-6 * np.maximum(A, 1.0)
    return np.where(bad[:, None], np.nan, np.column_stack((t1, t2, t3)))


def _segment_base(walk, theta1):
    """_segment_positions of one angle; raises where it gives NaN."""
    ts = _segment_positions(walk, np.array([theta1]))[0]
    if np.isnan(ts[0]):
        raise InfeasibleConfigurationError(
            "no equal-area split: no sign change or area additivity broken")
    return ts


def perturbed_polyline_trisection(body, c, theta1, rng, magnitude):
    """Segment trisection with curve mid-vertices jittered, areas restored
    by re-solving the second and third endpoints only."""
    walk = _BoundaryWalk(body.boundary, c)
    ts, mids, ok = _perturbed_rows(walk, _segment_base(walk, theta1)[None],
                                   rng.uniform(-magnitude, magnitude, (1, 3)))
    if not ok[0]:
        raise InfeasibleConfigurationError(
            "perturbed curve leaves the body or could not be rebalanced")
    return _assemble(walk, ts[0], mids[0])


def _perturbed_rows(walk, base, jitter, ci=0):
    """Perturbed cells from rows of segment positions base (k, 3) about
    the common points ci of walk (an index per row, or one for all): each
    curve's mid-vertex is moved off its segment's midpoint by jitter
    (k, 3) along the unit normal, then t2 and t3 are re-solved so every
    region keeps a third of the area.  Returns the positions mod n, the
    mid-vertices (k, 3, 2) and whether each row is a trisection: its
    mid-vertices strictly inside the boundary and its regions at A/3.

    Only rows with every mid-vertex inside are re-solved, by _first_root
    from the segment position.  Moving w(t) along a boundary edge e adds
    the triangle (m_b, w, w + e) to the region [c, m_a, w_a, arc, w(t),
    m_b], positive when m_b is strictly inside the convex boundary, so
    the gap never decreases over the integers.
    """
    ci = np.broadcast_to(ci, len(base))
    c, A, n = walk.c[ci][:, None], walk.total_area[ci], walk.n
    seg = walk.point_at(base) - c
    norm = np.maximum(np.hypot(seg[..., 0], seg[..., 1]), 1e-12)
    perp = np.stack((-seg[..., 1], seg[..., 0]), axis=-1) / norm[..., None]
    mids = c + 0.5 * seg + jitter[..., None] * perp
    # a mid-vertex is inside if it is nearer c than the boundary on its ray
    off = mids - c
    ray = walk.ray_position(np.arctan2(off[..., 1], off[..., 0]), ci[:, None])
    hit = walk.point_at(ray) - c
    rows = np.flatnonzero(np.all(np.hypot(off[..., 0], off[..., 1])
                                 < np.hypot(hit[..., 0], hit[..., 1]), axis=1))
    ts = base.copy()
    for k in (1, 2):
        # area of [c, m_a, w(t_a), arc, w(t), m_b] minus A/3, per row
        t_a, m_b = ts[rows, k - 1], mids[rows, k]
        c_r, ci_r = c[rows, 0], ci[rows]
        head = _tri_area(c_r, mids[rows, k - 1], walk.point_at(t_a))
        swept_a = walk.swept_area(t_a, ci_r)
        third = A[rows] / 3.0

        def gap(t, r=slice(None)):
            return (head[r] + walk.swept_area(t, ci_r[r]) - swept_a[r]
                    + _tri_area(c_r[r], walk.point_at(t), m_b[r]) - third[r])
        ts[rows, k] = _first_root(gap, t_a + 1e-9, ts[rows, 0] + n - 1e-9,
                                  np.ceil(base[rows, k]))
        rows = rows[~np.isnan(ts[rows, k])]
    areas = _fan_areas(walk, ts[rows], mids[rows], ci[rows])
    ok = np.zeros(len(base), dtype=bool)
    ok[rows[np.all(np.abs(areas - A[rows, None] / 3.0)
                   <= AREA_TOL * A[rows, None], axis=1)]] = True
    return ts % n, mids, ok


def _fan_areas(walk, ts, mids, ci=0):
    """Areas (k, 3) of the regions of perturbed cells about the common
    points ci of walk, each its fan about c, tri(c, m_a, w_a) + swept(t_b)
    - swept(t_a) + tri(c, w_b, m_b) with t_b reached forward from t_a:
    what region_areas measures."""
    nxt = [1, 2, 0]
    ci = np.broadcast_to(ci, len(ts))[:, None]
    c = walk.c[ci]
    ws = walk.point_at(ts)
    ends = ts + np.remainder(ts[:, nxt] - ts, walk.n)
    return (_tri_area(c, mids, ws) + walk.swept_area(ends, ci)
            - walk.swept_area(ts, ci) + _tri_area(c, ws[:, nxt], mids[:, nxt]))


def trisection_dm(tri):
    """d_M of a trisection from its (already dense) region boundaries."""
    return max(points_diameter(r) for r in tri.regions)


# A sweep stacks its common points in blocks of one walk each: a block's
# walk arrays hold k x (n + 1) floats and its solve k x theta1_count rows,
# and k is the most that keeps their sum within this many elements.
_BLOCK_ELEMENTS = 1 << 18


@dataclass(frozen=True)
class _Cells:
    """The evaluated cells of a sweep, in grid order."""

    walks: list           # one per block of common points with an interior one
    block: np.ndarray     # (m,) each cell's walk
    c_index: np.ndarray   # (m,) each cell's common point in its walk
    ts: np.ndarray        # (m, 3) arc positions mod n
    mids: np.ndarray      # (m, 3, 2) curve mid-vertices, None for segments
    skipped: int

    def trisection(self, k):
        mids = None if self.mids is None else self.mids[k]
        return _assemble(self.walks[self.block[k]], self.ts[k], mids,
                         self.c_index[k])


def _solve_cells(boundary, grid, rng):
    """Step 1 of a sweep: the positions of every feasible cell.

    The cells of a block of common points are solved together: first
    the segment positions of all their angles in one call, then, in
    perturbed mode, their jittered mid-vertices and re-solved positions,
    with three draws per feasible cell from the one random stream in
    grid order.
    """
    thetas = np.arange(grid.theta1_count) * 2.0 * math.pi / grid.theta1_count
    perturbed = grid.curve_mode != "segments"
    size = max(1, _BLOCK_ELEMENTS // (len(boundary) + 1 + len(thetas)))
    walks, skipped = [], 0
    block, c_index = [np.empty(0, dtype=int)], [np.empty(0, dtype=int)]
    ts, mids = [np.empty((0, 3))], [np.empty((0, 3, 2))]
    for first in range(0, len(grid.c_points), size):
        points = grid.c_points[first:first + size]
        skipped += len(points) * len(thetas)
        try:
            walk = _BoundaryWalk(boundary, points)
        except InfeasibleConfigurationError:
            continue
        base = _segment_positions(walk, thetas)
        ci = np.repeat(np.arange(len(walk.c)), len(thetas))
        solved = ~np.isnan(base[:, 0])
        ci, base = ci[solved], base[solved]
        if perturbed and len(base):
            m = grid.perturbation_magnitude
            t, mid, ok = _perturbed_rows(
                walk, base, rng.uniform(-m, m, (len(base), 3)), ci)
            ci, base = ci[ok], t[ok]
            mids.append(mid[ok])
        skipped -= len(base)
        block.append(np.full(len(base), len(walks)))
        walks.append(walk)
        ts.append(base % walk.n)
        c_index.append(ci)
    return _Cells(walks=walks, block=np.concatenate(block),
                  c_index=np.concatenate(c_index),
                  ts=np.concatenate(ts),
                  mids=np.concatenate(mids) if perturbed else None,
                  skipped=skipped)


def _cells_dm(boundary, cells):
    """Step 2 of a sweep: d_M of every cell, equal bit for bit to
    trisection_dm of its Trisection, scored in one pass for the body."""
    parts = []
    for b, walk in enumerate(cells.walks):
        sel = cells.block == b
        mids = None if cells.mids is None else cells.mids[sel]
        parts.append(_cell_regions(walk, cells.ts[sel], mids,
                                   cells.c_index[sel]))
    verts, start, length = (np.concatenate(p) for p in zip(*parts))
    # number the common points of all walks in one sequence
    first = np.cumsum([0] + [len(w.c) for w in cells.walks])
    centre = np.repeat(first[cells.block] + cells.c_index, 3)
    d2 = region_diameters_sq(boundary, verts.reshape(-1, *verts.shape[2:]),
                             start.ravel(), length.ravel(), centre)
    return np.sqrt(d2.reshape(-1, 3).max(axis=1))


def sweep_segment_trisections(body, grid, seed=42):
    """Evaluate d_M over the (c, theta1) grid and report the minimum plus
    any cells falling below the closed-form standard value.

    Three steps: solve every cell's positions, score every cell in one
    pass, then build a Trisection only for the argmin and the
    violations.  The cells run in grid order on one random stream, so a
    report depends only on the body, the grid and the seed.
    """
    boundary = _dense_boundary(body)
    dm_standard = closed_form_dm_standard(body)
    cells = _solve_cells(boundary, grid, np.random.default_rng(seed))
    if not len(cells.ts):
        raise InfeasibleConfigurationError("every grid cell was infeasible")
    dm = _cells_dm(boundary, cells)
    best = int(np.argmin(dm))
    violations = tuple(
        (cells.trisection(k).to_dict(dm=dm[k]), dm_standard - dm[k])
        for k in np.flatnonzero(dm < dm_standard - VIOLATION_TOL))
    # the lemma floor max(R, sqrt(3) rho) is dm_standard itself
    return SweepReport(body_label=body.label, grid=grid, min_dm=float(dm[best]),
                       argmin=cells.trisection(best), dm_standard=dm_standard,
                       violations=violations,
                       floor_margin=float(np.min(dm - dm_standard)),
                       cells_evaluated=len(dm), cells_skipped=cells.skipped)


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


def verify_h_tilde_optimal(candidates):
    """Check the universal quotient bound over a candidate pool; equality is
    expected only at the optimal rounded hexagon itself."""
    tol = 1e-4
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


def uniqueness_probe(body, samples=10, seed=42):
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
    endpoint_driven = math.sqrt(3.0) * rho >= body.max_radius()
    magnitude = 0.05 * rho if endpoint_driven else 0.05
    if endpoint_driven:
        walk, ts = _centre_fan(body, 0.0)
        ws = walk.point_at(np.array(ts))

    minimizers = []
    for _ in range(samples):
        if endpoint_driven:
            # same jitter replicated by the symmetry keeps areas exactly equal
            jitter = rng.uniform(-magnitude, magnitude, 2)
            mids = [0.5 * ws[k] + rotate(jitter, k * SECTOR) for k in range(3)]
            tri = _assemble(walk, ts, mids)
        else:
            delta = rng.uniform(-magnitude, magnitude)
            tri = rotate_trisection(body, delta)
        dm = trisection_dm(tri)
        if abs(dm - dm_std) <= 1e-4:
            minimizers.append(tri)
    return minimizers
