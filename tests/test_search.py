import json
import math

import numpy as np
import pytest

from trisect.bodies import (H_EPS_A_MAX, SECTOR, make_h_eps,
                            make_regular_polygon, random_body)
from trisect.cli import PRESETS
from trisect.search import (FLOOR_TOL, VIOLATION_TOL,
                            InfeasibleConfigurationError, OptimalityReport,
                            SweepGrid, SweepReport, antipodal_gap,
                            default_c_points, equal_area_segment_trisection,
                            functional_quotient, lemma_floor_checks,
                            perturbed_polyline_trisection, rotate_trisection,
                            sweep_h_eps, sweep_segment_trisections,
                            trisection_dm, uniqueness_probe,
                            verify_h_tilde_optimal)
from trisect.trisection import (closed_form_dm_standard, inscribed_ball_radius,
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
    monkeypatch.setattr(search._BoundaryWalk, "solve_position",
                        lambda self, area_fn, t_lo, t_hi: t_lo)
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
        assert walk.solve_position(gap, t_lo, t_hi) == pytest.approx(lo, abs=1e-9)


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
