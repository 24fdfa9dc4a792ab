"""Brute-force sweeps and probes verifying the trisection minimality results."""

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .bodies import (H_EPS_A_MAX, as_stack, h_eps_dpx, h_eps_dv12,
                     per_body, unstack)
from .geom import (_CHUNK, cell_bounds_sq, points_diameter, ray_exit,
                   region_diameters_sq)
from .trisection import (AREA_TOL, InfeasibleConfigurationError, Trisection,
                         _BoundaryWalk, _cell_regions, _first_root, _tri_area,
                         closed_form_dm_standard, inscribed_ball_radius,
                         standard_cells)

VIOLATION_TOL = 1e-3  # slack below the closed form before a sweep cell counts
FLOOR_TOL = 1e-6  # slack of a sweep's floor_margin below 0
ATTAIN_TOL = 1e-12  # relative slack of lemma_floor_checks (measured 1.2e-15)


@dataclass(frozen=True)
class SweepGrid:
    c_points: np.ndarray          # (k, 2) interior common-point candidates
    theta1_count: int
    curve_mode: str = "segments"  # or "perturbed_polylines"
    perturbation_magnitude: float = 0.0

    def __post_init__(self):
        # operator.index: a float count is a TypeError, a numpy integer an int
        object.__setattr__(self, "theta1_count",
                           operator.index(self.theta1_count))
        if self.theta1_count < 8:
            raise ValueError("theta1_count must be at least 8")
        pts = np.asarray(self.c_points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] == 0 or pts.shape[1] != 2:
            raise ValueError("c_points must be a non-empty (k, 2) array")
        if not np.all(np.isfinite(pts)):
            raise ValueError("c_points must be finite")
        if self.curve_mode not in ("segments", "perturbed_polylines"):
            raise ValueError(f"unknown curve mode {self.curve_mode!r}")
        object.__setattr__(self, "perturbation_magnitude",
                           check_magnitude(self.perturbation_magnitude))

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


def _segment_positions(walk, theta1):
    """Arc positions (t1, t2, t3), not reduced mod n, of the equal-area
    segment trisections whose first rays leave the common points of walk
    at the angles theta1, a 1-D array shared by every point or one row
    per point: one row per point and angle, each point's rows together
    and in the order of its angles, NaN in a row whose solve finds no
    root or whose third region misses a third of the area.

    t2 and t3 are where the area swept past t1 reaches A/3 and 2A/3,
    solved for every row at once by walk.swept_position in a few area
    evaluations a row.
    """
    n, points = walk.n, np.arange(len(walk.c))
    ci = np.repeat(points, np.shape(theta1)[-1])
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
    _, _, hx, hy = ray_exit(walk.pts, walk.phi, np.arctan2(
        off[..., 1], off[..., 0]), walk.c, ci[:, None])
    rows = np.flatnonzero(np.all(np.hypot(off[..., 0], off[..., 1])
                                 < np.hypot(hx, hy), axis=1))
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
    """d_M of a trisection: the exact diameter of each region's points,
    which a polygon attains at two of its vertices."""
    return max(points_diameter(r) for r in tri.regions)


def _dm(pts, verts, start, length):
    """d_M of each cell of verts (k, 3, V, 2), start and length (k, 3)
    on the points pts, as region_diameters_sq scores its regions: equal
    bit for bit to trisection_dm of the cell's Trisection."""
    d2 = region_diameters_sq(pts, verts.reshape(-1, *verts.shape[2:]),
                             start.ravel(), length.ravel())
    return np.sqrt(d2.reshape(-1, 3).max(axis=1))


# _solve_cells stacks its common points in blocks of one walk each: a
# block's walk arrays hold k x (n + 1) floats and its solve k x m rows,
# and k is the most that keeps their sum within this many elements.
_BLOCK_ELEMENTS = 1 << 18

# Why a row of _solve_cells failed, by its stage 1, 2 or 3 (0: solved).
_FAILURES = ("common point is not interior",
             "no equal-area split: no sign change or area additivity broken",
             "perturbed curve leaves the body or could not be rebalanced")


@dataclass(frozen=True, eq=False)
class _Cells:
    """The solved cells of a list of cells, in row order, as the regions
    of _cell_regions on the boundary points pts: row k of verts, start and
    length is the Trisection trisection(k)."""

    pts: np.ndarray       # (n, 2) the boundary
    verts: np.ndarray     # (m, 3, V, 2) curve vertices
    start: np.ndarray     # (m, 3) arc runs' first points
    length: np.ndarray    # (m, 3) and lengths
    stage: np.ndarray     # one per input row: 0, or where it failed

    def trisection(self, k):
        # copies, so that the Trisection keeps no other cell alive
        return Trisection(self.pts, self.verts[k].copy(),
                          self.start[k].copy(), self.length[k].copy())


def check_magnitude(magnitude):
    """magnitude, with -0.0 read as 0.0; a ValueError unless it is finite,
    at least 0, and 2 * magnitude is finite, the span that
    rng.uniform(-magnitude, magnitude) draws across."""
    if not (magnitude >= 0.0 and math.isfinite(2.0 * magnitude)):
        raise ValueError("magnitude must be finite, at least 0 and at most "
                         "half the largest float")
    return magnitude + 0.0


def _uniform_jitter(rng, magnitude):
    """A jitter source for _solve_cells: three uniform draws a row."""
    magnitude = check_magnitude(magnitude)
    return lambda rows: rng.uniform(-magnitude, magnitude, (len(rows), 3))


def _solve_cells(boundary, c_points, theta1, jitter):
    """Solve a list of cells on boundary, a row per common point of
    c_points (k, 2) and angle of theta1: one 1-D array shared by every
    point or one row (k, m) per point.  jitter is None for segments, or
    called with the indices of the rows whose segments solved, once a
    block, to give their mid-vertex jitters (len(rows), 3).

    A block of points is one walk: its segment positions in one call,
    then its perturbed ones, then its cells' regions; the walk is dropped
    when its block ends.  stage[r] is 0 where row r solved, or the stage
    where it failed, 1 + the index of its reason in _FAILURES.
    """
    c_points = np.asarray(c_points, dtype=float).reshape(-1, 2)
    theta1 = np.asarray(theta1, dtype=float)
    m = theta1.shape[-1]
    size = max(1, _BLOCK_ELEMENTS // (len(boundary) + 1 + m))
    stage = np.ones(len(c_points) * m, dtype=int)
    parts = [(np.empty((0, 3, 3 if jitter is None else 5, 2)),
              np.empty((0, 3), dtype=int), np.empty((0, 3), dtype=int))]
    for first in range(0, len(c_points), size):
        try:
            walk = _BoundaryWalk(boundary, c_points[first:first + size])
        except InfeasibleConfigurationError:
            continue
        points = first + walk.kept
        rows = (points[:, None] * m + np.arange(m)).ravel()
        base = _segment_positions(
            walk, theta1 if theta1.ndim == 1 else theta1[points])
        ci = np.repeat(np.arange(len(walk.c)), m)
        stage[rows] = 2
        solved = ~np.isnan(base[:, 0])
        ci, base, rows = ci[solved], base[solved], rows[solved]
        if not len(rows):
            continue
        mids = None
        if jitter is not None:
            stage[rows] = 3
            t, mids, ok = _perturbed_rows(walk, base, jitter(rows), ci)
            ci, base, rows, mids = ci[ok], t[ok], rows[ok], mids[ok]
        stage[rows] = 0
        parts.append(_cell_regions(walk, base % walk.n, mids, ci))
    verts, start, length = (np.concatenate(p) for p in zip(*parts))
    return _Cells(pts=np.asarray(boundary, dtype=float), verts=verts,
                  start=start, length=length, stage=stage)


def _one_cell(body, c, theta1, jitter):
    """_solve_cells of one row on the body's boundary, or its failure."""
    cells = _solve_cells(body.boundary, c, [[theta1]], jitter)
    if cells.stage[0]:
        raise InfeasibleConfigurationError(_FAILURES[cells.stage[0] - 1])
    return cells.trisection(0)


def equal_area_segment_trisection(body, c, theta1):
    """Trisection by three segments from c, first endpoint at polar angle
    theta1 as seen from c; the other endpoints are solved exactly on
    boundary arc-position (the swept area is piecewise linear in it) so
    every region encloses a third of the area."""
    return _one_cell(body, c, theta1, None)


def perturbed_polyline_trisection(body, c, theta1, rng, magnitude):
    """Segment trisection with curve mid-vertices jittered by three draws
    from rng, areas restored by re-solving the second and third endpoints
    only."""
    return _one_cell(body, c, theta1, _uniform_jitter(rng, magnitude))


def _cells_dm(cells, floor):
    """d_M of every cell of _solve_cells that can be the minimum or below
    floor, equal bit for bit to trisection_dm of its Trisection, and inf
    for every other cell.

    A cell's bound, the square root of its cell_bounds_sq, is never above
    its d_M.  region_diameters_sq, which equals points_diameter of each
    region bit for bit, scores in rounds the cells whose bound is at most
    limit, which starts at max(floor, least bound) and rises to the least
    d_M scored, until no cell is left at or below it.  A cell left out has
    d_M >= bound > limit >= least d_M, so it is not the minimum, ties
    none, and is not below floor.  floor = inf scores every cell.
    """
    bound = np.sqrt(cell_bounds_sq(cells.pts, cells.verts))
    dm = np.full(len(bound), np.inf)
    scored = np.zeros(len(bound), dtype=bool)
    limit = max(floor, float(bound.min()))
    todo = bound <= limit
    while np.any(todo):
        dm[todo] = _dm(cells.pts, cells.verts[todo], cells.start[todo],
                       cells.length[todo])
        scored |= todo
        limit = max(limit, float(dm.min()))
        todo = (bound <= limit) & ~scored
    return dm


def sweep_segment_trisections(body, grid, seed=42):
    """Evaluate d_M over the (c, theta1) grid and report the minimum plus
    any cells falling below the closed-form standard value.

    Three steps: solve every cell's positions, score the cells that can
    be the minimum or a violation (any cell below dm_standard), then
    build a Trisection only for the argmin and the violations.  The
    cells run in grid order on one random stream, so a report depends
    only on the body, the grid and the seed.
    """
    boundary = body.sweep_polygon
    dm_standard = closed_form_dm_standard(body)
    thetas = np.arange(grid.theta1_count) * 2.0 * math.pi / grid.theta1_count
    jitter = (None if grid.curve_mode == "segments" else _uniform_jitter(
        np.random.default_rng(seed), grid.perturbation_magnitude))
    cells = _solve_cells(boundary, grid.c_points, thetas, jitter)
    if not len(cells.verts):
        raise InfeasibleConfigurationError("every grid cell was infeasible")
    dm = _cells_dm(cells, dm_standard)
    best = int(np.argmin(dm))
    violations = tuple(
        (cells.trisection(k).to_dict(dm=dm[k]), dm_standard - dm[k])
        for k in np.flatnonzero(dm < dm_standard - VIOLATION_TOL))
    # the lemma floor max(R, sqrt(3) rho) is dm_standard itself
    return SweepReport(body_label=body.label, grid=grid, min_dm=float(dm[best]),
                       argmin=cells.trisection(best), dm_standard=dm_standard,
                       violations=violations,
                       floor_margin=float(np.min(dm - dm_standard)),
                       cells_evaluated=len(dm),
                       cells_skipped=np.count_nonzero(cells.stage))


def lemma_floor_checks(body):
    """Whether the standard trisection attains the lemma floor: its exact
    d_M lies within ATTAIN_TOL * floor of the floor max(R, sqrt(3)*rho),
    on both sides; of a body, or of each row of a BodyStack at once,
    whose standard_cells are scored on its rows taken twice over, so that
    no run passes the end of its row.

    No trisection's d_M is below the floor.  Its regions meet the boundary
    in three arcs covering 360 degrees about the centre; one spans 120 or
    more, so holds two points 120 degrees apart, at least rho from the
    centre and so sqrt(3)*rho apart.  A farthest point x and its rotations
    x_k lie in regions that all hold the common point c, and
    sum_k |c - x_k|^2 = 3|c|^2 + 3R^2, so some |c - x_k| >= R.  So the
    upper side tests the paper's claim, the lower side the program.
    """
    stack = as_stack(body)
    verts, start, length = standard_cells(stack)
    n, rows = stack.n, np.arange(len(stack.bodies))[:, None]
    twice = np.concatenate((stack.pts, stack.pts), axis=1).reshape(-1, 2)
    dm = _dm(twice, verts, start + 2 * n * rows, length)
    floor = closed_form_dm_standard(stack)
    return unstack(body, np.abs(dm - floor) <= ATTAIN_TOL * floor)


def sweep_h_eps(count):
    """Table of (a, d(p,x), d(v1,v2), dm) over the hexagon family."""
    if count < 16:
        raise ValueError("count must be at least 16")
    a_vals = np.linspace(0.0, H_EPS_A_MAX, count)
    rows = np.array([[a, h_eps_dpx(a), h_eps_dv12(a),
                      max(h_eps_dpx(a), h_eps_dv12(a))] for a in a_vals])
    return rows


def functional_quotient(body):
    """Dilation-invariant quotient dm(standard)^2 / area, of a body or of
    each row of a BodyStack."""
    stack = as_stack(body)
    return unstack(body, np.square(closed_form_dm_standard(stack))
                   / stack.area)


@dataclass(frozen=True)
class OptimalityReport:
    bound: float
    entries: tuple  # (label, quotient, attains_equality)
    all_pass: bool
    failures: tuple = field(default=())


def verify_h_tilde_optimal(pairs):
    """Check the universal quotient bound over a candidate pool, given as
    the (rows, stack) pairs of bodies.stacks; equality is expected only at
    the optimal rounded hexagon itself.

    The bound is h_tilde's quotient in closed form.  h_tilde is the disk
    of radius R = sqrt(3) rho cut by the triangle of the tangents at
    distance rho; at rho = 1 its area is 3 sqrt(2) + 3 pi - 9 atan(sqrt(2))
    and its d_M is sqrt(3), so d_M^2 / area is 3 over that area."""
    tol = 1e-4
    bound = 1.0 / (math.sqrt(2.0) + math.pi - 3.0 * math.atan(math.sqrt(2.0)))
    entries, failures = [], []
    for body, q in zip(per_body(lambda stack: stack.bodies, pairs),
                       per_body(functional_quotient, pairs)):
        equal = abs(q - bound) <= tol
        entries.append((body.label, float(q), bool(equal)))
        if q < bound - tol:
            failures.append((body.label, float(q)))
    return OptimalityReport(bound=float(bound), entries=tuple(entries),
                            all_pass=not failures, failures=tuple(failures))


def antipodal_gap(body, sample_count=1024):
    """Min over sampled directions of d(y, y_bar) - sqrt(3)*rho, where y and
    y_bar are the boundary hits of a line through the center; of a body,
    or of each row of a BodyStack.  The rays are cast in blocks of rows
    and directions of at most geom._CHUNK rays, or of one direction's two
    rays on one row, and each row keeps its least sum."""
    if sample_count < 64:
        raise ValueError("sample_count must be at least 64")
    stack = as_stack(body)
    thetas = np.arange(sample_count) * math.pi / sample_count
    rows = max(1, _CHUNK // (2 * sample_count))
    width = max(1, min(sample_count, _CHUNK // 2))
    least = np.full(len(stack.bodies), np.inf)
    for lo in range(0, len(least), rows):
        for t in np.split(thetas, range(width, sample_count, width)):
            r = stack.radius_at(np.concatenate((t, t + math.pi)),
                                slice(lo, lo + rows))
            least[lo:lo + rows] = np.minimum(
                least[lo:lo + rows], np.min(r[:, :len(t)] + r[:, len(t):],
                                            axis=1))
    return unstack(body, least - math.sqrt(3.0) * inscribed_ball_radius(stack))


def uniqueness_probe(body, samples=10, seed=42):
    """Perturb the standard trisection and return perturbations that keep
    d_M at the minimum, demonstrating non-uniqueness.

    Every sample is a cell about the center, all solved by one
    _solve_cells call.  Bodies whose standard d_M is the endpoint
    distance get perturbed cells from the standard rays, with one normal
    jitter drawn per sample for all three mid-vertices, which keeps the
    cell threefold symmetric; bodies where it is the center-to-boundary
    distance get segment cells whose first ray is turned by one drawn
    angle.  The probe only exhibits non-uniqueness; it cannot certify
    uniqueness.
    """
    if samples < 10:
        raise ValueError("samples must be at least 10")
    rng = np.random.default_rng(seed)
    m, rho = body.nearest_point
    theta1 = np.full(samples, math.atan2(m[1], m[0]))
    dm_std = closed_form_dm_standard(body)
    if math.sqrt(3.0) * rho >= body.max_radius():
        magnitude = 0.05 * rho

        def jitter(rows):
            draws = rng.uniform(-magnitude, magnitude, (len(rows), 1))
            return np.repeat(draws, 3, axis=1)
    else:
        theta1 += rng.uniform(-0.05, 0.05, samples)
        jitter = None
    cells = _solve_cells(body.boundary, np.zeros(2), theta1, jitter)
    dm = _cells_dm(cells, math.inf)
    return [cells.trisection(k)
            for k in np.flatnonzero(np.abs(dm - dm_std) <= 1e-4)]
