import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trisect import geom, search
from trisect.bodies import (H_EPS_A_MAX, SECTOR, load_body, make_h_eps,
                            make_regular_polygon, random_body)
from trisect.cli import PRESETS
from trisect.geom import points_diameter, polygon_area, region_diameters_sq
from trisect.search import (FLOOR_TOL, VIOLATION_TOL,
                            InfeasibleConfigurationError, OptimalityReport,
                            SweepGrid, SweepReport, antipodal_gap,
                            default_c_points, equal_area_segment_trisection,
                            functional_quotient, lemma_floor_checks,
                            perturbed_polyline_trisection, rotate_trisection,
                            sweep_h_eps, sweep_segment_trisections,
                            trisection_dm, uniqueness_probe,
                            verify_h_tilde_optimal)
from trisect.trisection import (AREA_TOL, _assemble, _BoundaryWalk,
                                _cell_regions, _tri_area,
                                closed_form_dm_standard, inscribed_ball_radius,
                                max_relative_diameter, solve_a0,
                                standard_trisection)

SQRT3 = math.sqrt(3.0)


def test_segment_trisection_at_center_matches_standard(hexagon):
    std = standard_trisection(hexagon)
    w0 = std.endpoints[0]
    theta1 = math.atan2(w0[1], w0[0])
    tri = equal_area_segment_trisection(hexagon, np.zeros(2), theta1)
    assert np.allclose(np.sort([math.atan2(w[1], w[0]) % (2 * math.pi)
                                for w in tri.endpoints]),
                       np.sort([math.atan2(w[1], w[0]) % (2 * math.pi)
                                for w in std.endpoints]), atol=1e-6)
    assert trisection_dm(tri) == pytest.approx(
        closed_form_dm_standard(hexagon), abs=1e-3)


def test_segment_trisection_equal_areas(hexagon, reuleaux):
    rng = np.random.default_rng(3)
    for body in (hexagon, reuleaux):
        for _ in range(8):
            c = rng.uniform(-0.25, 0.25, size=2)
            theta1 = rng.uniform(0, 2 * math.pi)
            tri = equal_area_segment_trisection(body, c, theta1)
            assert np.allclose(tri.region_areas(), body.area / 3.0, atol=2e-6)
            assert tri.region_areas().sum() == pytest.approx(body.area,
                                                             abs=1e-9)


def test_segment_trisection_rejects_exterior_point(hexagon):
    with pytest.raises(InfeasibleConfigurationError):
        equal_area_segment_trisection(hexagon, np.array([5.0, 0.0]), 0.0)


def test_broken_area_additivity_raises_and_skips_the_cell(hexagon,
                                                          monkeypatch):
    # a solve that returns its lower bracket leaves the third region with
    # the whole area; the check must raise a typed error, also under -O
    import trisect.search as search
    monkeypatch.setattr(search._BoundaryWalk, "swept_position",
                        lambda self, f0, share, t_lo, t_hi, ci=0: t_lo)
    with pytest.raises(InfeasibleConfigurationError, match="additivity"):
        equal_area_segment_trisection(hexagon, np.zeros(2), 0.3)
    # the sweep skips each such cell instead of crashing
    grid = SweepGrid(c_points=np.zeros((1, 2)), theta1_count=8)
    with pytest.raises(InfeasibleConfigurationError,
                       match="every grid cell was infeasible"):
        sweep_segment_trisections(hexagon, grid)


def test_equal_area_solve_is_exact():
    # the swept area is piecewise linear in arc position, so the solved
    # regions hit A/3 up to rounding, in both curve modes
    rng = np.random.default_rng(23)
    for make in PRESETS.values():
        body = make()
        A = body.area
        rho = inscribed_ball_radius(body)
        for _ in range(4):
            r = 0.8 * rho * math.sqrt(rng.uniform())
            phi = rng.uniform(0, 2 * math.pi)
            c = np.array([r * math.cos(phi), r * math.sin(phi)])
            theta1 = rng.uniform(0, 2 * math.pi)
            for tri in (equal_area_segment_trisection(body, c, theta1),
                        perturbed_polyline_trisection(body, c, theta1, rng,
                                                      0.02)):
                assert np.all(np.abs(tri.region_areas() - A / 3.0)
                              <= 1e-12 * A), body.label


def test_exact_solve_matches_bisection(h_tilde):
    from trisect.search import _BoundaryWalk
    walk = _BoundaryWalk(h_tilde.boundary, np.array([0.05, -0.1]))
    t_lo, t_hi = 0.3, 0.3 + walk.n
    start = walk.swept_area(t_lo)
    for share in (0.1, 1.0 / 3.0, 0.5, 2.0 / 3.0, 0.9):
        def gap(t):
            return walk.swept_area(t) - start - share * walk.total_area
        lo, hi = t_lo, t_hi
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if gap(mid) <= 0.0 else (lo, mid)
        t = walk.swept_position(start, share * walk.total_area,
                                np.array([t_lo]), np.array([t_hi]))
        assert t[0] == pytest.approx(lo, abs=1e-9)


@pytest.mark.parametrize("mode", ["segments", "perturbed_polylines"])
def test_sweep_does_not_depend_on_the_environment(hexagon, monkeypatch, mode):
    rng = np.random.default_rng(8)
    grid = SweepGrid(c_points=default_c_points(hexagon, 6, rng),
                     theta1_count=8, curve_mode=mode,
                     perturbation_magnitude=0.02)
    monkeypatch.delenv("TRISECT_THREADS", raising=False)
    base = sweep_segment_trisections(hexagon, grid, seed=3).to_dict()
    for value in ("2", "abc"):
        monkeypatch.setenv("TRISECT_THREADS", value)
        assert sweep_segment_trisections(hexagon, grid,
                                         seed=3).to_dict() == base


def test_moving_endpoint_off_optimum_increases_dm(hexagon):
    std = standard_trisection(hexagon)
    w0 = std.endpoints[0]
    theta1 = math.atan2(w0[1], w0[0])
    base = trisection_dm(equal_area_segment_trisection(
        hexagon, np.zeros(2), theta1))
    moved = trisection_dm(equal_area_segment_trisection(
        hexagon, np.zeros(2), theta1 + 0.05))
    assert moved > base + 1e-5


def test_perturbed_polyline_keeps_areas(hexagon):
    rng = np.random.default_rng(11)
    tri = perturbed_polyline_trisection(hexagon, np.array([0.05, -0.02]),
                                        0.7, rng, 0.02)
    assert np.allclose(tri.region_areas(), hexagon.area / 3.0, atol=1e-4)
    for curve in tri.curves:
        assert len(curve) >= 3


def test_perturbed_polyline_never_beats_floor(hexagon):
    rng = np.random.default_rng(4)
    floor = closed_form_dm_standard(hexagon) - VIOLATION_TOL
    for _ in range(40):
        c = rng.uniform(-0.2, 0.2, size=2)
        theta1 = rng.uniform(0, 2 * math.pi)
        tri = perturbed_polyline_trisection(hexagon, c, theta1, rng, 0.02)
        assert trisection_dm(tri) >= floor


def test_sweep_grid_validation():
    with pytest.raises(ValueError):
        SweepGrid(c_points=np.zeros((3, 2)), theta1_count=0)
    with pytest.raises(ValueError):
        SweepGrid(c_points=np.zeros((0, 2)), theta1_count=8)
    with pytest.raises(ValueError):
        SweepGrid(c_points=np.zeros(6), theta1_count=8)
    with pytest.raises(ValueError):
        SweepGrid(c_points=np.zeros((3, 2)), theta1_count=8,
                  curve_mode="squiggles")


def test_default_c_points_inside_body(hexagon):
    rng = np.random.default_rng(0)
    pts = default_c_points(hexagon, 60, rng)
    assert len(pts) >= 60
    r = np.hypot(pts[:, 0], pts[:, 1])
    theta = np.arctan2(pts[:, 1], pts[:, 0])
    assert np.all(r < hexagon.radius_at(theta) - 1e-9)


def test_small_sweep_no_violations(hexagon):
    rng = np.random.default_rng(1)
    grid = SweepGrid(c_points=default_c_points(hexagon, 12, rng),
                     theta1_count=24)
    report = sweep_segment_trisections(hexagon, grid)
    assert not report.violations
    assert report.min_dm >= closed_form_dm_standard(hexagon) - VIOLATION_TOL
    assert report.floor_margin >= -FLOOR_TOL
    assert report.cells_evaluated > 0


def test_sweep_min_near_standard(hexagon):
    # include the center itself so the sweep can hit the optimum exactly
    rng = np.random.default_rng(2)
    pts = np.vstack([np.zeros((1, 2)), default_c_points(hexagon, 10, rng)])
    grid = SweepGrid(c_points=pts, theta1_count=60)
    report = sweep_segment_trisections(hexagon, grid)
    assert report.min_dm <= closed_form_dm_standard(hexagon) + 5e-3
    assert report.dm_standard == pytest.approx(
        closed_form_dm_standard(hexagon), abs=1e-6)


def test_perturbed_sweep_no_violations(hexagon):
    rng = np.random.default_rng(5)
    grid = SweepGrid(c_points=default_c_points(hexagon, 8, rng),
                     theta1_count=12, curve_mode="perturbed_polylines",
                     perturbation_magnitude=0.02)
    report = sweep_segment_trisections(hexagon, grid)
    assert not report.violations


def test_sweep_report_roundtrip(hexagon):
    rng = np.random.default_rng(6)
    grid = SweepGrid(c_points=default_c_points(hexagon, 6, rng),
                     theta1_count=8)
    report = sweep_segment_trisections(hexagon, grid)
    text = json.dumps(report.to_dict(), sort_keys=True)
    back = json.loads(text)
    assert back["body_label"] == hexagon.label
    assert back["violations"] == []
    assert back["min_dm"] == pytest.approx(report.min_dm)
    assert json.dumps(back, sort_keys=True) == text


def test_lemma_floors(hexagon, reuleaux, h_tilde):
    for body in (hexagon, reuleaux, h_tilde):
        tri = standard_trisection(body)
        far_ok, end_ok = lemma_floor_checks(body, tri)
        assert far_ok and end_ok


def test_lemma_floors_off_center(hexagon):
    # stressing c near the boundary: floors come from the trisection's own
    # dm, which only grows as c moves off the optimum
    c = np.array([0.45, 0.1])
    tri = equal_area_segment_trisection(hexagon, c, 0.3)
    dm = trisection_dm(tri)
    assert dm >= hexagon.max_radius() - FLOOR_TOL
    assert dm >= SQRT3 * inscribed_ball_radius(hexagon) - FLOOR_TOL


def test_sweep_h_eps_profile():
    table = sweep_h_eps(201)
    a, dpx, dv12, dm = table.T
    assert a[0] == 0.0 and a[-1] == pytest.approx(H_EPS_A_MAX)
    assert np.all(np.diff(dpx) < 0)
    assert np.all(np.diff(dv12) > 0)
    assert dm[0] == pytest.approx(0.877383, abs=1e-5)
    assert dm[-1] == pytest.approx(0.930605, abs=1e-5)
    # unimodal: decreasing then increasing, with the trough at the sample
    # nearest the crossing point
    k = int(np.argmin(dm))
    assert np.all(np.diff(dm[:k + 1]) <= 0)
    assert np.all(np.diff(dm[k:]) >= 0)
    assert abs(a[k] - solve_a0()) <= (a[1] - a[0])
    assert dm[k] == pytest.approx(0.769616, abs=1e-3)


def test_functional_quotient_values(triangle, hexagon, h_tilde):
    assert functional_quotient(triangle) == pytest.approx(0.877383 ** 2,
                                                          abs=1e-4)
    assert functional_quotient(hexagon) == pytest.approx(0.930605 ** 2,
                                                         abs=1e-4)
    assert functional_quotient(h_tilde) == pytest.approx(0.591764, abs=2e-4)


def test_functional_quotient_dilation_invariant(hexagon, reuleaux):
    for body in (hexagon, reuleaux):
        base = functional_quotient(body)
        assert functional_quotient(body.scaled(3.0)) == pytest.approx(
            base, abs=1e-9)


def test_verify_h_tilde_optimal(triangle, hexagon, reuleaux, h_tilde):
    pool = [triangle, hexagon, reuleaux, h_tilde,
            make_h_eps(0.05), make_h_eps(0.3)]
    report = verify_h_tilde_optimal(pool)
    assert isinstance(report, OptimalityReport)
    assert report.all_pass
    assert not report.failures
    assert report.bound == pytest.approx(0.591764, abs=2e-4)
    near = [lbl for lbl, q, _ in report.entries if abs(q - report.bound) <= 1e-4]
    assert near == [h_tilde.label]


def test_antipodal_gap_hexagon(hexagon):
    # opposite-direction radii sum to twice the apothem at minimum
    apo = inscribed_ball_radius(hexagon)
    gap = antipodal_gap(hexagon)
    assert gap == pytest.approx(2 * apo - SQRT3 * apo, abs=1e-6)
    assert gap > 0


def test_antipodal_gap_disk_like():
    # constant-radius profile: r(t) + r(t+pi) = 2r, sqrt(3) rho = sqrt(3) r
    from trisect.bodies import make_regular_polygon
    disk = make_regular_polygon(128)
    r = disk.max_radius()
    assert antipodal_gap(disk) == pytest.approx((2 - SQRT3) * r, abs=1e-3)


def test_antipodal_gap_nonnegative(triangle, reuleaux, h_tilde):
    for body in (triangle, reuleaux, h_tilde):
        assert antipodal_gap(body) >= -1e-6


def test_uniqueness_probe_hexagon(hexagon):
    found = uniqueness_probe(hexagon, samples=10, seed=7)
    assert len(found) >= 1


def test_uniqueness_probe_triangle(triangle):
    found = uniqueness_probe(triangle, samples=10, seed=7)
    assert len(found) >= 1


@pytest.mark.parametrize("name", ["hexagon", "triangle"])
def test_uniqueness_probe_trisections_are_valid(name):
    # hexagon exercises the endpoint-jitter branch, triangle the rotations
    body = PRESETS[name]()
    A = body.area
    found = uniqueness_probe(body, samples=10, seed=7)
    assert found
    for tri in found:
        assert np.all(np.abs(tri.region_areas() - A / 3.0) <= 1e-12 * A)
        # raises InvalidTrisectionError on a bad area split or exterior point
        assert max_relative_diameter(body, tri) == pytest.approx(
            closed_form_dm_standard(body), abs=1e-4)


def test_rotate_trisection_preserves_dm(triangle):
    base = max_relative_diameter(triangle, standard_trisection(triangle))
    tri = rotate_trisection(triangle, 0.01)
    assert trisection_dm(tri) == pytest.approx(base, abs=1e-4)
    assert np.allclose(tri.region_areas(), triangle.area / 3.0, atol=1e-4)


def test_random_bodies_respect_bound():
    from trisect.bodies import make_h_tilde
    rng = np.random.default_rng(17)
    bound = functional_quotient(make_h_tilde())
    for _ in range(10):
        body = random_body(rng)
        assert functional_quotient(body) >= bound - 1e-4


@pytest.mark.parametrize("source", ["random", "file"])
def test_working_boundary_keeps_every_corner(tmp_path, source):
    # on a polygon, a working boundary that cuts no corner has the body's
    # area and reaches its farthest point
    if source == "random":
        rng = np.random.default_rng(3)
        polygons = [random_body(rng) for _ in range(10)]
    else:
        path = tmp_path / "body.json"
        path.write_text(json.dumps(make_h_eps(0.05).to_dict()))
        polygons = [load_body(path)]
    for body in polygons:
        boundary = search._dense_boundary(body)
        assert polygon_area(boundary) == pytest.approx(body.area, abs=1e-12)
        assert np.max(np.hypot(*boundary.T)) == pytest.approx(
            body.max_radius(), abs=1e-12)


def _reference_sweep(body, grid, seed, skip=(), reasons=None,
                     failed_points=()):
    """The sweep as one loop over the cells, each built by _assemble or
    _perturbed_cell and measured by trisection_dm; theta indices in skip,
    and every theta of the common points whose grid indices are in
    failed_points, are dropped before their random draws, as a failed
    batched segment solve drops them.  reasons, a Counter, counts the
    skipped cells of interior common points by their error message."""
    boundary = search._dense_boundary(body)
    dm_standard = closed_form_dm_standard(body)
    thetas = (np.arange(grid.theta1_count) * 2.0 * math.pi
              / grid.theta1_count)
    rng = np.random.default_rng(seed)
    cells, skipped = [], 0
    for ci, c in enumerate(grid.c_points):
        try:
            walk = _BoundaryWalk(boundary, c)
        except InfeasibleConfigurationError:
            skipped += len(thetas)
            continue
        for j, theta1 in enumerate(thetas):
            try:
                if j in skip or ci in failed_points:
                    raise InfeasibleConfigurationError("skipped")
                base = search._segment_base(walk, theta1)
                if grid.curve_mode == "segments":
                    tri = _assemble(walk, base % walk.n)
                else:
                    tri = _perturbed_cell(walk, base, rng,
                                          grid.perturbation_magnitude)
            except InfeasibleConfigurationError as exc:
                skipped += 1
                if reasons is not None:
                    reasons[str(exc)] += 1
                continue
            cells.append((trisection_dm(tri), tri))
    dms = [dm for dm, _ in cells]
    best = int(np.argmin(dms))
    return SweepReport(
        body_label=body.label, grid=grid, min_dm=dms[best],
        argmin=cells[best][1], dm_standard=dm_standard,
        violations=tuple((tri.to_dict(dm=dm), dm_standard - dm)
                         for dm, tri in cells
                         if dm < dm_standard - VIOLATION_TOL),
        floor_margin=min(dm - dm_standard for dm in dms),
        cells_evaluated=len(cells), cells_skipped=skipped).to_dict()


def _perturbed_cell(walk, base, rng, magnitude):
    """One perturbed cell on its own: three scalar draws, a check that
    each mid-vertex lies strictly inside the boundary, each endpoint
    re-solved by a one-bracket scan, and the rebalance check on the
    areas of the assembled regions."""
    c, A, n = walk.c[0], walk.total_area[0], walk.n
    mids = []
    for w in walk.point_at(base):
        seg = w - c
        perp = np.array([-seg[1], seg[0]]) / max(np.hypot(*seg), 1e-12)
        mids.append(c + 0.5 * seg + rng.uniform(-magnitude, magnitude) * perp)
    for m in mids:
        # the boundary point on the ray from c through the mid-vertex
        off = m - c
        hit = walk.point_at(walk.ray_position(np.arctan2(off[1:], off[:1])))
        if not np.hypot(*off) < np.hypot(*(hit[0] - c)):
            raise InfeasibleConfigurationError("mid-vertex outside")

    def region_gap(t_a, m_a, m_b):
        head = _tri_area(c, m_a, walk.point_at(t_a))
        swept_a = walk.swept_area(t_a)
        return lambda t: (head + walk.swept_area(t) - swept_a
                          + _tri_area(c, walk.point_at(t), m_b) - A / 3.0)

    t1 = base[0]
    t2 = _one_bracket_scan(region_gap(t1, mids[0], mids[1]),
                           t1 + 1e-9, t1 + n - 1e-9)
    if math.isnan(t2):
        raise InfeasibleConfigurationError("no sign change")
    t3 = _one_bracket_scan(region_gap(t2, mids[1], mids[2]),
                           t2 + 1e-9, t1 + n - 1e-9)
    if math.isnan(t3):
        raise InfeasibleConfigurationError("no sign change")
    tri = _assemble(walk, np.array([t1, t2, t3]) % n, mids)
    if np.any(np.abs(tri.region_areas() - A / 3.0) > AREA_TOL * A):
        raise InfeasibleConfigurationError("not rebalanced")
    return tri


def _scorer_bodies():
    bodies = [(name, make) for name, make in PRESETS.items()]
    bodies += [(f"h_eps:{a}", lambda a=a: make_h_eps(a))
               for a in (0.1, 0.4, 0.55)]
    bodies += [(f"random:{k}",
                lambda k=k: random_body(np.random.default_rng(100 + k)))
               for k in range(5)]
    # every profile sample a corner: a 3,456-point dense boundary
    bodies.append(("regular:3072", lambda: make_regular_polygon(1024)))
    return bodies


def _scorer_grid(body, mode):
    rng = np.random.default_rng(9)
    rho = inscribed_ball_radius(body)
    # the center, lattice points, points near the boundary (arcs longer
    # than half of it) and one outside (a skipped common point)
    near = [0.97 * body.radius_at(a) * np.array([math.cos(a), math.sin(a)])
            for a in (0.4, 2.9)]
    pts = np.vstack([np.zeros((1, 2)), default_c_points(body, 3, rng), near,
                     [[3.0 * rho + 2.0, 0.0]]])
    return SweepGrid(c_points=pts, theta1_count=8, curve_mode=mode,
                     perturbation_magnitude=0.02)


@pytest.mark.parametrize("mode", ["segments", "perturbed_polylines"])
@pytest.mark.parametrize("name,make", _scorer_bodies(),
                         ids=[name for name, _ in _scorer_bodies()])
def test_scored_cells_equal_trisection_dm_bit_for_bit(name, make, mode):
    body = make()
    grid = _scorer_grid(body, mode)
    boundary = search._dense_boundary(body)
    n = len(boundary)
    cells = search._solve_cells(boundary, grid, np.random.default_rng(4))
    dm = search._cells_dm(boundary, cells)
    assert cells.skipped >= grid.theta1_count  # the outside point
    for k in range(len(dm)):
        assert dm[k] == trisection_dm(cells.trisection(k)), (name, k)
    runs = [cells.walks[b].arc_run(ts, np.roll(ts, -1))
            for b, ts in zip(cells.block, cells.ts)]
    assert any(np.any(length > n // 2) for _, length in runs)
    assert any(np.any(start + length > n) for start, length in runs)
    # the whole report equals the cell-by-cell loop's
    assert (sweep_segment_trisections(body, grid, seed=4).to_dict()
            == _reference_sweep(body, grid, seed=4))


@pytest.mark.parametrize("name,make", _scorer_bodies(),
                         ids=[name for name, _ in _scorer_bodies()])
def test_rebalance_areas_equal_region_areas(name, make):
    # the perturbed rows' closed-form fan areas are the areas of the
    # assembled regions, on every evaluated cell
    body = make()
    boundary = search._dense_boundary(body)
    cells = search._solve_cells(boundary, _scorer_grid(body,
                                                       "perturbed_polylines"),
                                np.random.default_rng(4))
    assert len(cells.ts)
    for k in range(len(cells.ts)):
        walk, ci = cells.walks[cells.block[k]], cells.c_index[k]
        fan = search._fan_areas(walk, cells.ts[k:k + 1], cells.mids[k:k + 1],
                                ci)
        assert np.all(np.abs(fan[0] - cells.trisection(k).region_areas())
                      <= 1e-12 * walk.total_area[ci]), (name, k)


def test_negative_area_tol_skips_every_perturbed_cell(hexagon, monkeypatch):
    rng = np.random.default_rng(7)
    grid = SweepGrid(c_points=default_c_points(hexagon, 4, rng),
                     theta1_count=8, perturbation_magnitude=0.02)
    segments = sweep_segment_trisections(hexagon, grid).to_dict()
    monkeypatch.setattr(search, "AREA_TOL", -1.0)
    with pytest.raises(InfeasibleConfigurationError,
                       match="every grid cell was infeasible"):
        sweep_segment_trisections(hexagon, SweepGrid(
            c_points=grid.c_points, theta1_count=8,
            curve_mode="perturbed_polylines", perturbation_magnitude=0.02))
    with pytest.raises(InfeasibleConfigurationError, match="rebalanced"):
        perturbed_polyline_trisection(hexagon, np.zeros(2), 0.3, rng, 0.02)
    assert sweep_segment_trisections(hexagon, grid).to_dict() == segments


@pytest.mark.parametrize("mids", [False, True])
def test_scorer_at_integer_positions_and_empty_arcs(h_tilde, mids):
    boundary = search._dense_boundary(h_tilde)
    n = len(boundary)
    walk = _BoundaryWalk(boundary, np.array([0.03, -0.02]))
    # an empty arc at every 37th chord: where the next point is farther
    # from the curve vertices, counting it would change the diameter
    empty = [[k + 0.2, k + 0.7, k + 300.0] for k in range(0, n, 37)]
    ts = np.array([[0.0, 256.0, 512.0],        # integer positions
                   [10.0, 10.5, 400.0],        # an empty arc from a vertex
                   [700.25, 5.5, 300.0],       # a run wrapping past 0
                   [0.5, 600.0, float(n - 1)],  # a run longer than n / 2
                   [n - 0.5, 1.0, 2.0]] + empty) % n
    rng = np.random.default_rng(2)
    mid = (0.5 * walk.point_at(ts) + rng.uniform(-0.02, 0.02, (len(ts), 3, 2))
           if mids else None)
    verts, start, length = _cell_regions(walk, ts, mid)
    assert np.any(length == 0)
    d2 = region_diameters_sq(boundary, verts.reshape(-1, *verts.shape[2:]),
                             start.ravel(), length.ravel(),
                             np.zeros(length.size, dtype=int))
    regions = [r for k in range(len(ts))
               for r in _assemble(walk, ts[k],
                                  None if mid is None else mid[k]).regions]
    assert [math.sqrt(v) for v in d2] == [points_diameter(r) for r in regions]


@pytest.mark.parametrize("mode", ["segments", "perturbed_polylines"])
def test_sweep_skips_failed_rows_of_a_batch(hexagon, monkeypatch, mode):
    # rows whose batched segment solve fails are skipped, drawing no
    # random numbers
    segment = search._segment_positions

    def failing(walk, theta1):
        ts = segment(walk, theta1)
        ts[1::3] = np.nan
        return ts

    rng = np.random.default_rng(3)
    grid = SweepGrid(c_points=default_c_points(hexagon, 3, rng),
                     theta1_count=9, curve_mode=mode,
                     perturbation_magnitude=0.02)
    monkeypatch.setattr(search, "_segment_positions", failing)
    report = sweep_segment_trisections(hexagon, grid, seed=5).to_dict()
    monkeypatch.setattr(search, "_segment_positions", segment)
    reasons = Counter()
    assert report == _reference_sweep(hexagon, grid, seed=5, skip={1, 4, 7},
                                      reasons=reasons)
    # the 9 failed rows, and in perturbed mode the cells whose jittered
    # curve leaves the body (the common point near the boundary)
    assert reasons["skipped"] == 9
    assert report["cells_skipped"] == 9 + reasons["mid-vertex outside"]


def test_walk_positions_match_divmod(h_tilde):
    # point_at and swept_area split a position without divmod; for t >= 0
    # every part is exact, so the results are those of the divmod form
    walk = _BoundaryWalk(h_tilde.boundary, np.array([0.05, 0.02]))
    n = walk.n
    ints = np.arange(0.0, 3 * n)
    t = np.concatenate([np.random.default_rng(0).uniform(0, 3 * n, 20000),
                        ints, ints + 1e-9, np.nextafter(ints[1:], 0.0),
                        [0.0, -0.0, n - 1e-13, 2.0 * n]])
    tm = t % n
    i = tm.astype(int)
    u = tm - i
    pts = walk.pts
    point = pts[i] + u[:, None] * (pts[(i + 1) % n] - pts[i])
    prefix = walk.prefix[0]
    swept = (prefix[i] + u * (prefix[i + 1] - prefix[i])
             + (t // n) * walk.total_area[0])
    assert np.array_equal(walk.point_at(t), point)
    assert np.array_equal(walk.swept_area(t), swept)
    assert walk.swept_area(float(t[0])) == swept[0]


def _one_bracket_scan(area_fn, t_lo, t_hi):
    """The solve for one bracket as a loop-free scan of its own positions;
    NaN without a sign change."""
    ts = np.concatenate(([t_lo], np.arange(math.floor(t_lo) + 1,
                                           math.ceil(t_hi)), [t_hi]))
    f = area_fn(ts)
    if f[0] > 0.0 or f[-1] < 0.0:
        return math.nan
    k = int(np.argmax(f >= 0.0))
    if k == 0:
        return float(t_lo)
    return float(ts[k - 1] - f[k - 1] * (ts[k] - ts[k - 1])
                 / (f[k] - f[k - 1]))


def test_batched_solve_equals_one_bracket_scans(h_tilde):
    walk = _BoundaryWalk(search._dense_boundary(h_tilde), np.array([0.1, 0.05]))
    n, A = walk.n, walk.total_area
    rng = np.random.default_rng(12)
    lo = rng.uniform(0.0, n, 300)
    lo[:40] = np.floor(lo[:40])                      # integer ends
    hi = lo + rng.uniform(0.0, n, 300)
    hi[40:80] = np.ceil(hi[40:80])
    hi[80:100] = lo[80:100] + rng.uniform(0.0, 0.5, 20)  # inside one chord
    share = rng.uniform(-0.1, 1.1, 300) * A          # some rows fail
    s0 = walk.swept_area(lo)
    # roots inside the first, partial chord, at an integer and at t_lo
    share[100:120] = 0.5 * (walk.swept_area(np.floor(lo) + 1.0) - s0)[100:120]
    share[120:140] = (walk.swept_area(np.floor(lo) + 3.0) - s0)[120:140]
    share[140:150] = 0.0
    want = [_one_bracket_scan(lambda t: walk.swept_area(t) - s0[r] - share[r],
                              lo[r], hi[r]) for r in range(len(lo))]
    assert 0 < np.count_nonzero(np.isnan(want)) < len(lo)
    # the search on the monotone swept area finds the scan's root
    got = walk.swept_position(s0, share, lo, hi)
    assert np.array_equal(got, want, equal_nan=True)
    for r in range(0, len(lo), 7):
        # one row alone: NaN where the scan finds no sign change
        t = walk.swept_position(s0[r], share[r], lo[r:r + 1], hi[r:r + 1])
        assert np.array_equal(t, [want[r]], equal_nan=True)


def test_swept_search_steps_to_the_scan_root(h_tilde):
    # shares within a few ulps of the area swept to an integer, on both
    # turns and from brackets near 0, where swept - s0 rounds: the
    # searchsorted candidate is then one off in either direction, and
    # the search must still end on the scan's segment
    walk = _BoundaryWalk(search._dense_boundary(h_tilde), np.array([0.1, 0.05]))
    n, m = walk.n, 40_000
    rng = np.random.default_rng(11)
    lo = rng.uniform(0.0, n, m) * rng.choice([1.0, 1e-3, 1e-6], m)
    lo[:50] = np.floor(lo[:50])
    hi = lo + n
    s0 = walk.swept_area(lo)
    swept_p = walk.swept_area(np.floor(lo) + rng.integers(1, n, m))
    share = swept_p - s0
    share += rng.integers(-6, 7, m) * np.spacing(share)
    # s0 at the integer itself and a share below half an ulp of it: the
    # candidate is that integer, where the gap is still below 0
    s0[-500:], share[-500:] = swept_p[-500:], 0.4 * np.spacing(swept_p[-500:])
    got = walk.swept_position(s0, share, lo, hi)
    for r in range(m):
        want = _one_bracket_scan(lambda t: walk.swept_area(t) - s0[r] - share[r],
                                 lo[r], hi[r])
        assert np.array_equal(got[r], want, equal_nan=True), r


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.floats(0.0, 0.95),
       st.floats(0.0, 2.0 * math.pi), st.sampled_from([1.0 / 3.0, 2.0 / 3.0]),
       st.booleans())
def test_segment_gap_never_decreases_over_integers(seed, radius, phi, share,
                                                   dense):
    # the fact the swept search rests on: over the integers of two turns,
    # (swept_area - f1) - share, evaluated as the solve does, is monotone
    body = random_body(np.random.default_rng(seed))
    boundary = search._dense_boundary(body) if dense else body.boundary
    c = radius * body.radius_at(phi) * np.array([math.cos(phi), math.sin(phi)])
    try:
        walk = _BoundaryWalk(boundary, c)
    except InfeasibleConfigurationError:
        return
    f1 = walk.swept_area(np.random.default_rng(seed).uniform(0.0, walk.n))
    gap = walk.swept_area(np.arange(2.0 * walk.n + 1.0)) - f1
    gap -= share * walk.total_area
    assert np.all(np.diff(gap) >= 0.0)


def test_segment_solve_searches_instead_of_scanning(h_tilde, monkeypatch):
    # the segment solve evaluates a few swept areas a row; the scan it
    # replaced evaluated about 700 a row here (one grid of two turns of
    # the 12,294-point boundary, shared by the 64 rows)
    walk = _BoundaryWalk(h_tilde.boundary, np.array([0.05, -0.1]))
    swept = _BoundaryWalk.swept_area
    positions = []

    def counted(self, t, ci=0):
        positions.append(np.size(t))
        return swept(self, t, ci)

    monkeypatch.setattr(_BoundaryWalk, "swept_area", counted)
    ts = search._segment_positions(walk, np.arange(64) * 2.0 * math.pi / 64)
    assert not np.any(np.isnan(ts))
    assert sum(positions) <= 24 * 64


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.floats(0.0, 0.95),
       st.floats(0.0, 2.0 * math.pi), st.floats(0.0, 0.4), st.booleans())
def test_perturbed_gap_never_decreases_over_integers(seed, radius, phi,
                                                     magnitude, dense):
    # the fact the perturbed re-solve's search rests on: with m_b
    # strictly inside the convex boundary, the area of [c, m_a, w_a, arc,
    # w(t), m_b] minus A/3, evaluated as the solve does, is monotone over
    # the integers of the bracket t_a .. t1 + n
    body = random_body(np.random.default_rng(seed))
    boundary = search._dense_boundary(body) if dense else body.boundary
    c = radius * body.radius_at(phi) * np.array([math.cos(phi), math.sin(phi)])
    try:
        walk = _BoundaryWalk(boundary, c)
    except InfeasibleConfigurationError:
        return
    A, n = walk.total_area, walk.n
    rng = np.random.default_rng(seed)
    base = search._segment_positions(walk, rng.uniform(0.0, 2.0 * math.pi, 8))
    base = base[~np.isnan(base[:, 0])]
    seg = walk.point_at(base) - c
    perp = np.stack((-seg[..., 1], seg[..., 0]), axis=-1)
    perp /= np.hypot(perp[..., 0], perp[..., 1])[..., None]
    mids = (c + 0.5 * seg + rng.uniform(-magnitude, magnitude,
                                        (len(base), 3, 1)) * perp)
    edge = np.roll(boundary, -1, axis=0) - boundary
    for ts, ms in zip(base, mids):
        rel = ms[:, None] - boundary
        if not np.all(edge[:, 0] * rel[..., 1] - edge[:, 1] * rel[..., 0] > 0.0):
            continue
        for k in (1, 2):
            t_a = ts[k - 1]
            j = np.arange(math.floor(t_a + 1e-9) + 1.0,
                          math.ceil(ts[0] + n - 1e-9))
            gap = (_tri_area(c, ms[k - 1], walk.point_at(t_a))
                   + walk.swept_area(j) - walk.swept_area(t_a)
                   + _tri_area(c, walk.point_at(j), ms[k]) - A / 3.0)
            assert np.all(np.diff(gap) >= 0.0)


def test_perturbed_solve_searches_instead_of_scanning(h_tilde, monkeypatch):
    # the perturbed re-solve searches each row's bracket from the segment
    # position: two solves of about 17 swept areas a row, and 6 more for
    # the rebalance check, on the 12,294-point boundary; a scan of the
    # bracket evaluated one grid of two turns for each solve, about 770
    # positions a row here
    walk = _BoundaryWalk(h_tilde.boundary, np.array([0.05, -0.1]))
    base = search._segment_positions(walk, np.arange(64) * 2.0 * math.pi / 64)
    jitter = np.random.default_rng(5).uniform(-0.02, 0.02, (64, 3))
    swept = _BoundaryWalk.swept_area
    positions = []

    def counted(self, t, ci=0):
        positions.append(np.size(t))
        return swept(self, t, ci)

    monkeypatch.setattr(_BoundaryWalk, "swept_area", counted)
    _, _, ok = search._perturbed_rows(walk, base, jitter)
    assert np.all(ok)
    assert sum(positions) <= 48 * 64


def test_perturbed_cells_keep_their_mid_vertices_inside():
    # a large jitter throws many mid-vertices outside: no evaluated cell
    # may keep one, by a test independent of the walk (the working
    # boundary is convex and counter-clockwise)
    for name in ("triangle", "h_tilde"):
        body = PRESETS[name]()
        boundary = search._dense_boundary(body)
        grid = SweepGrid(c_points=default_c_points(
            body, 6, np.random.default_rng(2)), theta1_count=16,
            curve_mode="perturbed_polylines", perturbation_magnitude=0.4)
        cells = search._solve_cells(boundary, grid, np.random.default_rng(3))
        assert 0 < len(cells.ts) < 6 * 16
        edge = np.roll(boundary, -1, axis=0) - boundary
        m = cells.mids.reshape(-1, 1, 2) - boundary
        side = edge[:, 0] * m[..., 1] - edge[:, 1] * m[..., 0]
        assert np.all(side > 0.0), name
    # with a jitter of 5, every cell has a mid-vertex outside the triangle
    with pytest.raises(InfeasibleConfigurationError,
                       match="every grid cell was infeasible"):
        sweep_segment_trisections(PRESETS["triangle"](), SweepGrid(
            c_points=np.zeros((1, 2)), theta1_count=8,
            curve_mode="perturbed_polylines", perturbation_magnitude=5.0))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("c", [[math.nan, 0.0], [0.1, math.nan],
                               [math.inf, 0.0], [0.0, -math.inf],
                               [1e300, -1e300]])
def test_non_finite_common_point_is_not_interior(hexagon, c):
    # NaN compares false, so a test for any non-positive cross product
    # let such a point through to the solve and its RuntimeWarnings
    with pytest.raises(InfeasibleConfigurationError, match="not interior"):
        equal_area_segment_trisection(hexagon, np.array(c), 0.3)
    with pytest.raises(InfeasibleConfigurationError, match="not interior"):
        perturbed_polyline_trisection(hexagon, np.array(c), 0.3,
                                      np.random.default_rng(0), 0.02)
    points = np.array([[0.0, 0.0], c])
    if np.all(np.isfinite(c)):
        report = sweep_segment_trisections(
            hexagon, SweepGrid(c_points=points, theta1_count=8))
        assert report.cells_skipped == 8
    else:
        with pytest.raises(ValueError, match="finite"):
            SweepGrid(c_points=points, theta1_count=8)
    # a walk over a stack keeps only its interior points
    walk = _BoundaryWalk(hexagon.boundary, np.array([c, [0.05, 0.0]]))
    assert walk.c.tolist() == [[0.05, 0.0]]


def _mixed_points(body):
    """The center, off-center and near-boundary common points, and one
    outside the body, last."""
    rng = np.random.default_rng(21)
    near = [0.985 * body.radius_at(a) * np.array([math.cos(a), math.sin(a)])
            for a in (0.4, 2.9)]
    far = 3.0 * body.max_radius()
    return np.vstack([np.zeros((1, 2)), default_c_points(body, 4, rng), near,
                      [[far, 0.0]]])


@pytest.mark.parametrize("name", ["h_tilde", "random"])
def test_stacked_solve_equals_one_point_walks(name):
    # one walk over all common points solves every row as the walk of
    # each point alone does, bit for bit, in both curve modes
    body = (PRESETS["h_tilde"]() if name == "h_tilde"
            else random_body(np.random.default_rng(31)))
    boundary = search._dense_boundary(body)
    points = _mixed_points(body)
    thetas = np.sort(np.random.default_rng(5).uniform(0.0, 2.0 * math.pi, 37))
    walk = _BoundaryWalk(boundary, points)
    assert np.array_equal(walk.c, points[:-1])
    alone = [_BoundaryWalk(boundary, c) for c in points[:-1]]
    got = search._segment_positions(walk, thetas)
    want = np.concatenate([search._segment_positions(w, thetas)
                           for w in alone])
    assert np.array_equal(got, want, equal_nan=True)
    each = np.arange(len(alone))
    assert np.array_equal(walk.ray_position(thetas, each[:, None]),
                          [w.ray_position(thetas) for w in alone])
    ci = np.repeat(each, len(thetas))
    ok = ~np.isnan(got[:, 0])
    assert np.count_nonzero(ok) > len(got) // 2
    base, ci = got[ok], ci[ok]
    jitter = np.random.default_rng(6).uniform(-0.05, 0.05, (len(base), 3))
    ts, mids, fine = search._perturbed_rows(walk, base, jitter, ci)
    assert 0 < np.count_nonzero(fine) < len(base)
    for k, w in enumerate(alone):
        sel = ci == k
        t_k, m_k, ok_k = search._perturbed_rows(w, base[sel], jitter[sel])
        assert np.array_equal(ts[sel], t_k, equal_nan=True)
        assert np.array_equal(mids[sel], m_k)
        assert np.array_equal(fine[sel], ok_k)


def test_segment_sweep_solves_a_block_of_points_at_once(hexagon, monkeypatch):
    # two endpoint solves per block of common points, not per point; a
    # smaller block changes no report
    from trisect import trisection
    first_root, calls = trisection._first_root, []

    def counted(*args):
        calls.append(len(args[1]))
        return first_root(*args)

    monkeypatch.setattr(trisection, "_first_root", counted)
    rng = np.random.default_rng(4)
    for grid_c in (1, 7, 40):
        grid = SweepGrid(c_points=default_c_points(hexagon, grid_c, rng),
                         theta1_count=12)
        calls.clear()
        sweep_segment_trisections(hexagon, grid)
        assert calls == [12 * grid_c] * 2, grid_c
    n, budget = len(search._dense_boundary(hexagon)), search._BLOCK_ELEMENTS
    points = _mixed_points(hexagon)
    for mode in ("segments", "perturbed_polylines"):
        grid = SweepGrid(c_points=points, theta1_count=12, curve_mode=mode,
                         perturbation_magnitude=0.05)
        monkeypatch.setattr(search, "_BLOCK_ELEMENTS", budget)
        report = sweep_segment_trisections(hexagon, grid, seed=2).to_dict()
        # blocks of seven points: the second holds only the outside one
        monkeypatch.setattr(search, "_BLOCK_ELEMENTS", 7 * (n + 1 + 12))
        calls.clear()
        assert sweep_segment_trisections(hexagon, grid,
                                         seed=2).to_dict() == report
        if mode == "segments":
            assert calls == [12 * 7] * 2


def test_perturbed_batch_mixes_every_kind_of_skipped_point(hexagon,
                                                          monkeypatch):
    # one batch holds an outside point, a point whose rows all fail the
    # segment solve, and a point so near the boundary that jitters throw
    # mid-vertices outside; the report is the cell-by-cell loop's
    points = _mixed_points(hexagon)
    failing_point = points[2]
    segment = search._segment_positions

    def failing(walk, theta1):
        ts = segment(walk, theta1)
        ts[np.repeat(np.all(walk.c == failing_point, axis=1),
                     len(theta1))] = np.nan
        return ts

    grid = SweepGrid(c_points=points, theta1_count=16,
                     curve_mode="perturbed_polylines",
                     perturbation_magnitude=0.05)
    boundary = search._dense_boundary(hexagon)
    monkeypatch.setattr(search, "_segment_positions", failing)
    assert len(search._solve_cells(boundary, grid,
                                   np.random.default_rng(5)).walks) == 1
    report = sweep_segment_trisections(hexagon, grid, seed=5).to_dict()
    monkeypatch.setattr(search, "_segment_positions", segment)
    reasons = Counter()
    assert report == _reference_sweep(hexagon, grid, seed=5, reasons=reasons,
                                      failed_points={2})
    assert reasons["skipped"] == 16
    assert reasons["mid-vertex outside"] > 0
    # the outside point's cells and those reasons counts
    assert report["cells_skipped"] == 16 + sum(reasons.values())


def test_scorer_rows_in_blocks_of_common_points(monkeypatch):
    # the rows of common-point distances, made a block of points at a
    # time, give the same scores for any block size
    body = PRESETS["h_tilde"]()
    boundary = search._dense_boundary(body)
    points = np.vstack([_mixed_points(body),
                        default_c_points(body, 9, np.random.default_rng(8))])
    for mode in ("segments", "perturbed_polylines"):
        grid = SweepGrid(c_points=points, theta1_count=10, curve_mode=mode,
                         perturbation_magnitude=0.02)
        cells = search._solve_cells(boundary, grid, np.random.default_rng(4))
        dm = search._cells_dm(boundary, cells)
        for k in range(0, len(dm), 7):
            assert dm[k] == trisection_dm(cells.trisection(k)), (mode, k)
        for size in (1, 2, 5):
            monkeypatch.setattr(geom, "_CHUNK", size * 2 * len(boundary))
            assert np.array_equal(search._cells_dm(boundary, cells), dm)
        monkeypatch.undo()
