import dataclasses
import gc
import itertools
import json
import math
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from trisect import geom, search, trisection
from trisect.bodies import (H_EPS_A_MAX, SECTOR, _corner_body,
                            load_body, make_h_eps,
                            make_regular_polygon, normalize_unit_area,
                            per_body, random_body, solve_a0, stacks)
from trisect.cli import PRESETS
from trisect.geom import (convex_hull, points_diameter, polygon_area,
                          ray_exit, region_diameters_sq, rotate)
from trisect.search import (ATTAIN_TOL, FLOOR_TOL, VIOLATION_TOL,
                            InfeasibleConfigurationError, OptimalityReport,
                            SweepGrid, SweepReport, antipodal_gap,
                            default_c_points, equal_area_segment_trisection,
                            functional_quotient, lemma_floor_checks,
                            perturbed_polyline_trisection, sweep_h_eps, sweep_segment_trisections,
                            trisection_dm, uniqueness_probe,
                            verify_h_tilde_optimal)
from trisect.trisection import (AREA_TOL, InfeasibleConfigurationError,
                                Trisection, _BoundaryWalk, _cell_regions,
                                _tri_area, closed_form_dm_standard,
                                inscribed_ball_radius, max_relative_diameter,
                                standard_trisection)

SQRT3 = math.sqrt(3.0)


def _cell_trisection(walk, ts, mids=None):
    """The Trisection of one cell about the common point of walk, cut at
    the three positions ts (with optional curve mid-vertices mids):
    _cell_regions of that one row, then the constructor."""
    cell = _cell_regions(walk, np.asarray(ts)[None],
                         None if mids is None else np.asarray(mids)[None])
    return Trisection(walk.pts, *(a[0] for a in cell))


def _fan(body, c=(0.0, 0.0), delta=0.0):
    """The three rays from c in the standard endpoint directions turned by
    delta, as a Trisection on the body's polygon; standard_trisection's
    fan at c = 0 and delta = 0."""
    walk = _BoundaryWalk(body.boundary, np.asarray(c, dtype=float))
    m, _ = body.nearest_point
    theta0 = math.atan2(m[1], m[0]) + delta
    return _cell_trisection(walk, walk.ray_position(
        theta0 + np.arange(3) * SECTOR))


def _region_points(pts, verts, start, length):
    """One region as a point list, by the formula region boundaries were
    built with before a Trisection became its cell: the first
    (V + 1) // 2 of its vertices verts, its cyclic run
    pts[start : start + length], then the rest."""
    h = (len(verts) + 1) // 2
    return np.concatenate((verts[:h], pts[(start + np.arange(length))
                                          % len(pts)], verts[h:]))


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


def test_sweep_grid_theta1_count_is_an_integer():
    # 8.5 once swept 9 angles spaced 2pi/8.5 and reported a count of 8
    with pytest.raises(TypeError):
        SweepGrid(c_points=np.zeros((1, 2)), theta1_count=8.5)
    grid = SweepGrid(c_points=np.zeros((1, 2)), theta1_count=np.int64(9))
    assert grid.to_dict()["theta1_count"] == 9


@pytest.mark.parametrize("magnitude",
                         [-0.1, -1e-300, math.nan, math.inf, -math.inf, 1e308])
def test_bad_perturbation_magnitude_raises_value_error(hexagon, magnitude):
    # rng.uniform(-m, m) once raised numpy's ValueError or OverflowError;
    # from m = 1e308 up its span 2m is not finite
    with pytest.raises(ValueError, match="magnitude must"):
        SweepGrid(c_points=np.zeros((1, 2)), theta1_count=8,
                  curve_mode="perturbed_polylines",
                  perturbation_magnitude=magnitude)
    with pytest.raises(ValueError, match="magnitude must"):
        perturbed_polyline_trisection(hexagon, np.zeros(2), 0.3,
                                      np.random.default_rng(0), magnitude)


def test_negative_zero_perturbation_magnitude_reads_zero(hexagon):
    grid = SweepGrid(c_points=np.zeros((1, 2)), theta1_count=8,
                     curve_mode="perturbed_polylines",
                     perturbation_magnitude=-0.0)
    got = grid.to_dict()["perturbation_magnitude"]
    assert got == 0.0 and math.copysign(1.0, got) == 1.0
    tris = [perturbed_polyline_trisection(hexagon, np.zeros(2), 0.3,
                                          np.random.default_rng(0), m)
            for m in (-0.0, 0.0)]
    assert np.array_equal(tris[0].endpoints, tris[1].endpoints)


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
        assert lemma_floor_checks(body) is True, body.label


def test_standard_dm_is_an_endpoint_or_centre_pair():
    # the paper's case split: the standard trisection's d_M is attained
    # between two endpoints or between the centre and the boundary, the
    # pairs cell_bounds_sq measures, so its bound is d_M bit for bit
    rng = np.random.default_rng(11)
    pool = ([make() for make in PRESETS.values()]
            + [make_h_eps(a) for a in np.linspace(0.0, H_EPS_A_MAX, 10)]
            + [random_body(rng) for _ in range(20)])
    for body in pool:
        tri = standard_trisection(body)
        bound_sq = geom.cell_bounds_sq(tri.pts, tri.verts[None])
        assert math.sqrt(bound_sq[0]) == trisection_dm(tri), body.label


def test_floors_fail_above_the_full_dm(monkeypatch):
    # a floor more than ATTAIN_TOL * floor above or below the exact d_M
    # fails
    for make in PRESETS.values():
        body = make()
        dm = trisection_dm(standard_trisection(body))
        for shift, passed in ((-2.0, False), (-0.5, True), (0.5, True),
                              (2.0, False)):
            floor = dm + shift * ATTAIN_TOL * dm
            monkeypatch.setattr(search, "closed_form_dm_standard",
                                lambda b: floor)
            assert lemma_floor_checks(body) is passed, (body.label, shift)


def _row_by_row(cut):
    """A stand-in for standard_cells: the Trisection cut(body) of each
    row's body, stacked as (verts, start, length)."""
    def cells(stack):
        tris = [cut(body) for body in stack.bodies]
        return tuple(np.stack([getattr(t, name) for t in tris])
                     for name in ("verts", "start", "length"))
    return cells


# standard_cells' fan about the point (1e-3, 0), not the centre
_shifted_fan = _row_by_row(lambda body: _fan(body, c=(1e-3, 0.0)))


def _turned_by(delta):
    """standard_cells' fan with its rays turned by delta rad."""
    return _row_by_row(lambda body: _fan(body, delta=delta))


def _regions_without_arcs(stack):
    """standard_cells with every region's boundary run emptied."""
    verts, start, length = trisection.standard_cells(stack)
    return verts, start, np.zeros_like(length)


_MUTATION_BODIES = {"triangle": PRESETS["triangle"],
                    "hexagon": PRESETS["hexagon"],
                    "reuleaux": PRESETS["reuleaux"],
                    "h_tilde": PRESETS["h_tilde"],
                    "h_eps:0.3": lambda: make_h_eps(0.3)}


@pytest.mark.parametrize("mutation, verdicts", [
    # the fan about a point off the centre: d_M rises by 5e-4 to 9e-4
    ((search, "standard_cells", _shifted_fan),
     dict.fromkeys(_MUTATION_BODIES, False)),
    # the fan turned: d_M rises by 2.5e-5 to 5e-5, but for the triangle,
    # whose d_M is R from the centre to a corner, in any direction
    ((search, "standard_cells", _turned_by(0.01)),
     dict(dict.fromkeys(_MUTATION_BODIES, False), triangle=True)),
    # turned by one step of a 1,024-angle sector grid, 2.0e-3 rad: d_M
    # rises by 1.1e-6 to 2.1e-6 of itself, which an absolute 1e-6 let
    # pass on reuleaux
    ((search, "standard_cells", _turned_by(SECTOR / 1024)),
     dict(dict.fromkeys(_MUTATION_BODIES, False), triangle=True)),
    # turned by 1e-5 rad: d_M rises by 5e-11 of itself
    ((search, "standard_cells", _turned_by(1e-5)),
     dict(dict.fromkeys(_MUTATION_BODIES, False), triangle=True)),
    # regions without their arcs: the triangle loses its corners, and its
    # d_M falls below R; the others keep their endpoint pairs
    ((search, "standard_cells", _regions_without_arcs),
     dict(dict.fromkeys(_MUTATION_BODIES, True), triangle=False)),
], ids=["shifted_fan", "turned_fan", "turned_by_a_grid_step",
        "turned_by_1e-5", "region_without_arc"])
def test_floors_catch_a_broken_standard_trisection(monkeypatch, mutation,
                                                   verdicts):
    # each mutation replaces the cut lemma_floor_checks scores, of a body
    # alone and of the bodies as verify stacks them: the hexagon and
    # h_eps:0.3 in one stack of 6 corners, every other body alone
    monkeypatch.setattr(*mutation)
    bodies = [make() for make in _MUTATION_BODIES.values()]
    pairs = stacks(bodies)
    assert sorted(len(rows) for rows, _ in pairs) == [1, 1, 1, 2]
    alone = [lemma_floor_checks(body) for body in bodies]
    stacked = per_body(lemma_floor_checks, pairs)
    for got in (alone, stacked):
        assert dict(zip(_MUTATION_BODIES, got)) == verdicts


def test_lemma_floors_off_center(hexagon):
    # stressing c near the boundary: floors come from the trisection's own
    # dm, which only grows as c moves off the optimum
    c = np.array([0.45, 0.1])
    tri = equal_area_segment_trisection(hexagon, c, 0.3)
    dm = trisection_dm(tri)
    assert dm >= hexagon.max_radius() - FLOOR_TOL
    assert dm >= SQRT3 * inscribed_ball_radius(hexagon) - FLOOR_TOL


def _harsh_body(points):
    """Unit-area hull of the threefold copies of points, (angle, radius)
    pairs in one sector: random_body's construction over a wider range."""
    ang, rad = np.array(points).T
    sector = np.column_stack((rad * np.cos(ang), rad * np.sin(ang)))
    hull = convex_hull(np.concatenate([rotate(sector, k * SECTOR)
                                       for k in range(3)]))
    return normalize_unit_area(_corner_body("harsh", hull))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, SECTOR, exclude_max=True),
                          st.floats(0.2, 2.0)), min_size=1, max_size=11))
# a foot 5.6e-13 beyond rho once tied with the nearest, and won on its
# smaller polar angle: the standard endpoints sat 9.8e-13 too far out
@example([(0.45856084174482514, 1.9068784514144297),
          (0.9399108354812639, 1.7293014050499398)])
# a corner 1e-12 past the grid angle 0 gave way to it in the profile,
# and R fell 1.5e-12 short of the corner's radius
@example([(1e-12, 1.0)])
def test_standard_trisection_attains_the_floor(points):
    body = _harsh_body(points)
    m, rho = body.nearest_point
    assert np.hypot(*m) - rho <= 1e-14 * rho
    dm = trisection_dm(standard_trisection(body))
    assert abs(dm - closed_form_dm_standard(body)) <= 1e-14


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1),
       st.one_of(st.just((0.0, 0.0)),
                 st.tuples(st.floats(0.0, 0.95), st.floats(0.0, 2 * math.pi))),
       st.floats(0.0, 2 * math.pi),
       st.one_of(st.none(), st.tuples(*[st.floats(-0.1, 0.1)] * 3)))
def test_no_cell_is_below_the_lemma_floor(seed, polar, theta1, jitter):
    # criterion 4 off the grid: any common point, the origin too, any
    # first angle, the standard one too, and any mid-vertex jitter
    body = random_body(np.random.default_rng(seed))
    radius, phi = polar
    c = radius * body.radius_at(phi) * np.array([math.cos(phi), math.sin(phi)])
    m, _ = body.nearest_point
    thetas = np.array([math.atan2(m[1], m[0]), theta1])
    cells = search._solve_cells(
        body.boundary, c, thetas,
        None if jitter is None else lambda rows: np.tile(jitter, (len(rows), 1)))
    if len(cells.verts):
        dm = search._cells_dm(cells, math.inf)
        assert dm.min() >= closed_form_dm_standard(body) - 1e-12


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
    report = verify_h_tilde_optimal(stacks(pool))
    assert isinstance(report, OptimalityReport)
    assert report.all_pass
    assert not report.failures
    assert report.bound == pytest.approx(0.591764, abs=2e-4)
    near = [lbl for lbl, q, _ in report.entries if abs(q - report.bound) <= 1e-4]
    assert near == [h_tilde.label]


def _quotient_formula(signs):
    a, b, c = signs
    return 1.0 / (a * math.sqrt(2.0) + b * math.pi
                  + c * 3.0 * math.atan(math.sqrt(2.0)))


def test_quotient_bound_is_the_closed_form(h_tilde):
    # the bound is 1 / (sqrt 2 + pi - 3 atan sqrt 2), h_tilde's quotient,
    # which the quotient of its profile polygon meets within 1e-8; a wrong
    # sign in the formula misses it
    bound = _quotient_formula((1, 1, -1))
    assert verify_h_tilde_optimal(stacks([h_tilde])).bound == bound
    assert bound == 0.5917662724064134
    assert abs(functional_quotient(h_tilde) - bound) <= 1e-8
    for signs in itertools.product((1, -1), repeat=3):
        if signs != (1, 1, -1):
            assert abs(functional_quotient(h_tilde)
                       - _quotient_formula(signs)) > 1e-8, signs


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
    tri = _fan(triangle, delta=0.01)
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
        boundary = body.sweep_polygon
        assert polygon_area(boundary) == pytest.approx(body.area, abs=1e-12)
        assert np.max(np.hypot(*boundary.T)) == pytest.approx(
            body.max_radius(), abs=1e-12)


def _reference_sweep(body, grid, seed, skip=(), reasons=None,
                     failed_points=()):
    """The sweep as one loop over the cells, each built by
    _cell_trisection or _perturbed_cell and measured by trisection_dm;
    theta indices in skip, and every theta of the common points whose grid
    indices are in failed_points, are dropped before their random draws,
    as a failed batched segment solve drops them.  reasons, a Counter,
    counts the skipped cells of interior common points by their error
    message."""
    boundary = body.sweep_polygon
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
                base = search._segment_positions(walk, np.array([theta1]))[0]
                if np.isnan(base[0]):
                    raise InfeasibleConfigurationError("no equal-area split")
                if grid.curve_mode == "segments":
                    tri = _cell_trisection(walk, base % walk.n)
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
        _, _, hx, hy = ray_exit(walk.pts, walk.phi,
                                np.arctan2(off[1:], off[:1]), walk.c)
        if not np.hypot(*off) < np.hypot(hx[0], hy[0]):
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
    tri = _cell_trisection(walk, np.array([t1, t2, t3]) % n, mids)
    if np.any(np.abs(tri.region_areas() - A / 3.0) > AREA_TOL * A):
        raise InfeasibleConfigurationError("not rebalanced")
    return tri


def _walk_refs(monkeypatch):
    """Wraps search._BoundaryWalk with monkeypatch: returns a list that
    gets a weak reference to each walk made."""
    refs = []

    def made(*args):
        walk = _BoundaryWalk(*args)
        refs.append(weakref.ref(walk))
        return walk
    monkeypatch.setattr(search, "_BoundaryWalk", made)
    return refs


def _grid_cells(boundary, grid, rng):
    """search._solve_cells on the cells of grid, as the sweep solves them:
    the grid's angles shared by every common point, and for perturbed
    cells three draws from rng per row that solved."""
    thetas = (np.arange(grid.theta1_count) * 2.0 * math.pi
              / grid.theta1_count)
    jitter = None
    if grid.curve_mode != "segments":
        jitter = search._uniform_jitter(rng, grid.perturbation_magnitude)
    return search._solve_cells(boundary, grid.c_points, thetas, jitter)


def _scorer_bodies():
    bodies = [(name, make) for name, make in PRESETS.items()]
    bodies += [(f"h_eps:{a}", lambda a=a: make_h_eps(a))
               for a in (0.1, 0.4, 0.55)]
    bodies += [(f"random:{k}",
                lambda k=k: random_body(np.random.default_rng(100 + k)))
               for k in range(5)]
    # every profile sample a corner: a 3,072-corner polygon
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
    boundary = body.sweep_polygon
    n = len(boundary)
    cells = _grid_cells(boundary, grid, np.random.default_rng(4))
    dm = search._cells_dm(cells, math.inf)
    # the outside point
    assert np.count_nonzero(cells.stage) >= grid.theta1_count
    for k in range(len(dm)):
        assert dm[k] == trisection_dm(cells.trisection(k)), (name, k)
    assert np.any(cells.length > n // 2)
    assert np.any(cells.start + cells.length > n)
    # the whole report equals the cell-by-cell loop's
    assert (sweep_segment_trisections(body, grid, seed=4).to_dict()
            == _reference_sweep(body, grid, seed=4))


@pytest.mark.parametrize("mode", ["segments", "perturbed_polylines"])
@pytest.mark.parametrize("name,make", _scorer_bodies(),
                         ids=[name for name, _ in _scorer_bodies()])
def test_a_trisection_is_its_cell(name, make, mode):
    # a Trisection is one row of the solved cells, on the boundary it was
    # cut on; its regions are built once, when first read, by the formula
    # of _region_points
    body = make()
    std = standard_trisection(body)
    assert std.pts is body.boundary
    cells = _grid_cells(body.sweep_polygon, _scorer_grid(body, mode),
                        np.random.default_rng(4))
    tris = [cells.trisection(k) for k in range(len(cells.verts))]
    assert tris and all(tri.pts is cells.pts for tri in tris)
    for tri in [std] + tris:
        assert ([f.name for f in dataclasses.fields(tri)]
                == ["pts", "verts", "start", "length"])
        for j in range(3):
            assert np.array_equal(tri.curves[j][-1], tri.endpoints[j])
        assert "regions" not in vars(tri)
        regions = tri.regions
        assert vars(tri)["regions"] is regions
        want = [_region_points(tri.pts, v, s, m)
                for v, s, m in zip(tri.verts, tri.start, tri.length)]
        assert [(r.shape, r.tobytes()) for r in regions] \
            == [(r.shape, r.tobytes()) for r in want], name


def test_trisections_and_cells_compare_by_identity(hexagon):
    # the generated __eq__ and __hash__ ran over ndarray fields: == raised
    # ValueError and hash raised TypeError
    a, b = standard_trisection(hexagon), standard_trisection(hexagon)
    cells = _grid_cells(hexagon.boundary, _scorer_grid(hexagon, "segments"),
                        np.random.default_rng(4))
    for x, y in ((a, b), (cells, dataclasses.replace(cells))):
        assert x == x and x != y and not (x == y)
        assert len({x, y, x}) == 2 and hash(x) == hash(x)


@pytest.mark.parametrize("name,make", _scorer_bodies(),
                         ids=[name for name, _ in _scorer_bodies()])
def test_rebalance_areas_equal_region_areas(name, make):
    # the perturbed rows' closed-form fan areas are the areas of the
    # assembled regions, on every rebalanced cell of each common point's
    # own walk
    body = make()
    boundary = body.sweep_polygon
    grid = _scorer_grid(body, "perturbed_polylines")
    thetas = (np.arange(grid.theta1_count) * 2.0 * math.pi
              / grid.theta1_count)
    rng = np.random.default_rng(4)
    checked = 0
    for c in grid.c_points:
        try:
            walk = _BoundaryWalk(boundary, c)
        except InfeasibleConfigurationError:
            continue
        base = search._segment_positions(walk, thetas)
        base = base[~np.isnan(base[:, 0])]
        ts, mids, ok = search._perturbed_rows(
            walk, base, rng.uniform(-0.02, 0.02, (len(base), 3)))
        for k in np.flatnonzero(ok):
            fan = search._fan_areas(walk, ts[k:k + 1], mids[k:k + 1])
            tri = _cell_trisection(walk, ts[k], mids[k])
            assert np.all(np.abs(fan[0] - tri.region_areas())
                          <= 1e-12 * walk.total_area[0]), (name, k)
            checked += 1
    assert checked


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


def _h_tilde_positions(n):
    # an empty arc at every 37th chord: where the next point is farther
    # from the curve vertices, counting it would change the diameter
    empty = [[k + 0.2, k + 0.7, k + 300.0] for k in range(0, n, 37)]
    return [[0.0, 256.0, 512.0],        # integer positions
            [10.0, 10.5, 400.0],        # an empty arc from a vertex
            [700.25, 5.5, 300.0],       # a run wrapping past 0
            [0.5, 600.0, float(n - 1)],  # a run longer than n / 2
            [n - 0.5, 1.0, 2.0]] + empty


def _hexagon_positions(n):
    # the same kinds of runs on the six corners, and an empty arc on
    # every chord
    empty = [[k + 0.2, k + 0.7, k + 3.0] for k in range(n)]
    return [[0.0, 2.0, 4.0],            # integer positions
            [1.0, 1.5, 4.0],            # an empty arc from a vertex
            [4.25, 0.5, 2.0],           # a run wrapping past 0
            [0.5, 4.5, 5.0],            # a run longer than n / 2
            [n - 0.5, 1.0, 2.0]] + empty


@pytest.mark.parametrize("name, positions, mids", [
    pytest.param("h_tilde", _h_tilde_positions, False, id="False"),
    pytest.param("h_tilde", _h_tilde_positions, True, id="True"),
    pytest.param("hexagon", _hexagon_positions, False, id="hexagon-False"),
    pytest.param("hexagon", _hexagon_positions, True, id="hexagon-True")])
def test_scorer_at_integer_positions_and_empty_arcs(request, name, positions,
                                                    mids):
    # h_tilde's regions are above _K points but for the empty and short
    # arcs, so one call holds both kinds; the hexagon's all go in the
    # padded batch, with integer positions, empty and wrapping runs
    boundary = request.getfixturevalue(name).sweep_polygon
    n = len(boundary)
    walk = _BoundaryWalk(boundary, np.array([0.03, -0.02]))
    ts = np.array(positions(n)) % n
    rng = np.random.default_rng(2)
    mid = (0.5 * walk.point_at(ts) + rng.uniform(-0.02, 0.02, (len(ts), 3, 2))
           if mids else None)
    verts, start, length = _cell_regions(walk, ts, mid)
    assert np.any(length == 0)
    d2 = region_diameters_sq(boundary, verts.reshape(-1, *verts.shape[2:]),
                             start.ravel(), length.ravel())
    regions = [r for k in range(len(ts))
               for r in _cell_trisection(
                   walk, ts[k], None if mid is None else mid[k]).regions]
    assert [math.sqrt(v) for v in d2] == [points_diameter(r) for r in regions]
    # and one cell's three regions alone
    for k in range(len(ts)):
        alone = region_diameters_sq(boundary, verts[k], start[k], length[k])
        assert ([math.sqrt(v) for v in alone]
                == [points_diameter(r) for r in regions[3 * k:3 * k + 3]])


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


def _ulps_about(values):
    """Each of values, then the floats 1 and 2 ulps below and above it."""
    down, up = (np.nextafter(values, d) for d in (-np.inf, np.inf))
    return np.concatenate((values, down, up, np.nextafter(down, -np.inf),
                           np.nextafter(up, np.inf)))


@pytest.mark.parametrize("name", ["triangle", "hexagon", "reuleaux",
                                  "h_tilde"])
def test_arc_runs_partition_the_boundary(request, name):
    # a cell's first endpoint at an integer position or 1-2 ulps either
    # side of it: every boundary point is in exactly one of the cell's
    # three runs, or is one of its endpoints, bit for bit.  A run end
    # taken from t_a plus the span rounds, and drops the point of an
    # endpoint one ulp past an integer from both runs
    boundary = request.getfixturevalue(name).sweep_polygon
    walk = _BoundaryWalk(boundary, np.array([0.03, -0.02]))
    n = walk.n
    rng = np.random.default_rng(5)
    whole = rng.choice(np.arange(1, n + 1), min(n, 40), replace=False)
    t1 = np.repeat(_ulps_about(whole.astype(float)), 10)
    gaps = rng.dirichlet(np.ones(3), len(t1)) * n
    ts = np.column_stack((t1, t1 + gaps[:, 0], t1 + gaps[:, :2].sum(axis=1)))
    # an empty run, and one that holds every point
    ts = np.vstack((ts % n, [[0.5, 0.6, 0.7], [0.6, 0.7, 0.5]]))
    start, length = walk.arc_run(ts, ts[:, [1, 2, 0]])
    assert np.any(length == 0) and np.any(length == n)
    ends = walk.point_at(ts)
    for k in range(len(ts)):
        runs = np.concatenate([(s + np.arange(m)) % n
                               for s, m in zip(start[k], length[k])])
        count = np.bincount(runs, minlength=n)
        is_end = np.any(np.all(boundary[None] == ends[k, :, None], axis=2),
                        axis=0)
        assert np.all(count <= 1) and np.all(is_end[count == 0]), ts[k]


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
    walk = _BoundaryWalk(h_tilde.sweep_polygon, np.array([0.1, 0.05]))
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
    walk = _BoundaryWalk(h_tilde.sweep_polygon, np.array([0.1, 0.05]))
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
                                                   sweep):
    # the fact the swept search rests on: over the integers of two turns,
    # (swept_area - f1) - share, evaluated as the solve does, is monotone
    body = random_body(np.random.default_rng(seed))
    boundary = body.sweep_polygon if sweep else body.boundary
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
                                                     magnitude, sweep):
    # the fact the perturbed re-solve's search rests on: with m_b
    # strictly inside the convex boundary, the area of [c, m_a, w_a, arc,
    # w(t), m_b] minus A/3, evaluated as the solve does, is monotone over
    # the integers of the bracket t_a .. t1 + n
    body = random_body(np.random.default_rng(seed))
    boundary = body.sweep_polygon if sweep else body.boundary
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
        boundary = body.sweep_polygon
        grid = SweepGrid(c_points=default_c_points(
            body, 6, np.random.default_rng(2)), theta1_count=16,
            curve_mode="perturbed_polylines", perturbation_magnitude=0.4)
        cells = _grid_cells(boundary, grid, np.random.default_rng(3))
        assert 0 < len(cells.verts) < 6 * 16
        edge = np.roll(boundary, -1, axis=0) - boundary
        m = cells.verts[:, :, 1].reshape(-1, 1, 2) - boundary
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
    boundary = body.sweep_polygon
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
    n, budget = len(hexagon.sweep_polygon), search._BLOCK_ELEMENTS
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
    boundary = hexagon.sweep_polygon
    monkeypatch.setattr(search, "_segment_positions", failing)
    walks = _walk_refs(monkeypatch)
    _grid_cells(boundary, grid, np.random.default_rng(5))
    assert len(walks) == 1
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
    boundary = body.sweep_polygon
    points = np.vstack([_mixed_points(body),
                        default_c_points(body, 9, np.random.default_rng(8))])
    for mode in ("segments", "perturbed_polylines"):
        grid = SweepGrid(c_points=points, theta1_count=10, curve_mode=mode,
                         perturbation_magnitude=0.02)
        cells = _grid_cells(boundary, grid, np.random.default_rng(4))
        dm = search._cells_dm(cells, math.inf)
        for k in range(0, len(dm), 7):
            assert dm[k] == trisection_dm(cells.trisection(k)), (mode, k)
        for size in (1, 2, 5):
            monkeypatch.setattr(geom, "_CHUNK", size * 2 * len(boundary))
            assert np.array_equal(search._cells_dm(cells, math.inf), dm)
        monkeypatch.undo()


@pytest.mark.parametrize("mode", ["segments", "perturbed_polylines"])
def test_solved_cells_keep_no_walk_alive(hexagon, monkeypatch, mode):
    # blocks of two common points: six walks, each dropped with its block
    boundary = hexagon.sweep_polygon
    monkeypatch.setattr(search, "_BLOCK_ELEMENTS",
                        2 * (len(boundary) + 1 + 8))
    walks = _walk_refs(monkeypatch)
    grid = SweepGrid(c_points=default_c_points(
        hexagon, 12, np.random.default_rng(6)), theta1_count=8,
        curve_mode=mode, perturbation_magnitude=0.02)
    cells = _grid_cells(boundary, grid, np.random.default_rng(6))
    gc.collect()
    assert len(cells.verts) and len(walks) == 6
    assert [ref() for ref in walks] == [None] * 6


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.booleans(),
       st.sampled_from(["random", "reuleaux", "h_tilde"]))
@example(seed=1, mids=False, name="reuleaux")
@example(seed=2, mids=True, name="h_tilde")
def test_region_scores_do_not_depend_on_region_order(seed, mids, name):
    # the cells and regions of several common points, mixed and permuted:
    # the cell bounds and region diameters are those in order, permuted,
    # bit for bit, though those sharing a point are no longer together.
    # On the curved bodies rows with a short arc put regions of at most
    # _K points beside larger ones in one call; every diameter equals
    # points_diameter of its region, bit for bit
    rng = np.random.default_rng(seed)
    body = random_body(rng) if name == "random" else PRESETS[name]()
    boundary = body.sweep_polygon
    walk = _BoundaryWalk(boundary, default_c_points(body, 4, rng))
    thetas = rng.uniform(0.0, 2.0 * math.pi, (len(walk.c), 5))
    ts = search._segment_positions(walk, thetas)
    ci = np.repeat(np.arange(len(walk.c)), 5)[~np.isnan(ts[:, 0])]
    ts = ts[~np.isnan(ts[:, 0])] % walk.n
    if name != "random":
        u = rng.uniform(0.0, walk.n, (6, 1))
        short = np.column_stack((np.zeros(6), rng.uniform(0.0, 40.0, 6),
                                 np.full(6, walk.n / 2)))
        ts = np.vstack((ts, (u + short) % walk.n))
        ci = np.concatenate((ci, rng.integers(0, len(walk.c), 6)))
    mid = None
    if mids:
        mid = (0.5 * (walk.c[ci, None] + walk.point_at(ts))
               + rng.uniform(-0.02, 0.02, (len(ts), 3, 2)))
    cells, start, length = _cell_regions(walk, ts, mid, ci)
    perm = rng.permutation(len(cells))
    assert np.array_equal(geom.cell_bounds_sq(boundary, cells[perm]),
                          geom.cell_bounds_sq(boundary, cells)[perm])
    verts = cells.reshape(-1, *cells.shape[2:])
    start, length = start.ravel(), length.ravel()
    if name != "random":
        size = verts.shape[1] + length
        assert np.any(size <= geom._K) and np.any(size > geom._K)
    perm = rng.permutation(len(start))
    want = region_diameters_sq(boundary, verts, start, length)[perm]
    got = region_diameters_sq(boundary, verts[perm], start[perm], length[perm])
    assert np.array_equal(got, want)
    assert [math.sqrt(v) for v in got] == [
        points_diameter(_region_points(boundary, verts[r], start[r], length[r]))
        for r in perm]


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.booleans(),
       st.sampled_from(["random", "triangle", "hexagon", "reuleaux",
                        "h_tilde"]))
@example(seed=0, mids=False, name="triangle")
@example(seed=1, mids=True, name="h_tilde")
def test_cell_bound_is_the_largest_region_bound(seed, mids, name):
    # a cell's bound is, bit for bit, the largest over its regions of the
    # squared distances from the common point to each point of the region
    # (_region_points) and between two of the region's vertices, also
    # where endpoints lie on boundary points or 1 ulp off them; it is at
    # most the cell's largest squared region diameter
    rng = np.random.default_rng(seed)
    body = random_body(rng) if name == "random" else PRESETS[name]()
    boundary = body.sweep_polygon
    walk = _BoundaryWalk(boundary, default_c_points(body, 4, rng))
    n = walk.n
    ci = np.repeat(np.arange(len(walk.c)), 6)
    ts = np.sort(rng.uniform(0.0, n, (len(ci), 3)), axis=1)
    # every other cell's endpoints on three boundary points, moved by -1,
    # 0 or +1 ulp
    on = np.sort([rng.choice(n, 3, replace=False)
                  for _ in range(len(ci) // 2)], axis=1).astype(float)
    ulps = rng.integers(-1, 2, on.shape)
    on = np.where(ulps < 0, np.nextafter(on, -np.inf),
                  np.where(ulps > 0, np.nextafter(on, np.inf), on))
    ts[::2] = on % n
    mid = None
    if mids:
        mid = (0.5 * (walk.c[ci, None] + walk.point_at(ts))
               + rng.uniform(-0.02, 0.02, (len(ts), 3, 2)))
    verts, start, length = _cell_regions(walk, ts, mid, ci)
    want = []
    for cell in zip(verts, start, length):
        best = 0.0
        for v, s, m in zip(*cell):
            d = _region_points(boundary, v, s, m) - v[0]
            best = max(best, float(np.max(d[:, 0] * d[:, 0]
                                          + d[:, 1] * d[:, 1])))
            for a, b in itertools.combinations(v, 2):
                dx, dy = a[0] - b[0], a[1] - b[1]
                best = max(best, float(dx * dx + dy * dy))
        want.append(best)
    got = geom.cell_bounds_sq(boundary, verts)
    assert np.array_equal(got, want)
    d2 = region_diameters_sq(boundary, verts.reshape(-1, *verts.shape[2:]),
                             start.ravel(), length.ravel())
    assert np.all(got <= d2.reshape(-1, 3).max(axis=1))


def _traced_scoring(mp):
    """Wraps the sweep's two scorers with mp: returns a list that gets
    each scoring's cell bounds, the square roots of cell_bounds_sq, and a
    list that gets the region count of every region_diameters_sq call."""
    bounds, scored = [], []
    bounds_sq = search.cell_bounds_sq
    diameters_sq = search.region_diameters_sq

    def traced_bounds(*args):
        d2 = bounds_sq(*args)
        bounds.append(np.sqrt(d2))
        return d2

    def traced_diameters(*args):
        scored.append(len(args[2]))
        return diameters_sq(*args)

    mp.setattr(search, "cell_bounds_sq", traced_bounds)
    mp.setattr(search, "region_diameters_sq", traced_diameters)
    return bounds, scored


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["segments", "perturbed_polylines"]),
       st.floats(-0.3, 0.3))
def test_bounds_never_exceed_dm_and_scored_cells_are_exact(seed, mode, shift):
    # every bound is at most its cell's d_M; every scored cell is exact
    # bit for bit; the minimum and every cell below the floor are scored
    body = random_body(np.random.default_rng(seed))
    grid = SweepGrid(c_points=default_c_points(body, 4,
                                               np.random.default_rng(seed)),
                     theta1_count=8, curve_mode=mode,
                     perturbation_magnitude=0.05)
    boundary = body.sweep_polygon
    cells = _grid_cells(boundary, grid, np.random.default_rng(seed))
    if not len(cells.verts):
        return
    floor = closed_form_dm_standard(body) + shift
    with pytest.MonkeyPatch.context() as mp:
        bounds, scored = _traced_scoring(mp)
        dm = search._cells_dm(cells, floor)
    exact = np.array([trisection_dm(cells.trisection(k))
                      for k in range(len(dm))])
    assert np.all(bounds[0] <= exact)
    hit = np.isfinite(dm)
    assert np.array_equal(dm[hit], exact[hit])
    assert np.all(hit[(exact == exact.min()) | (exact < floor)])
    assert np.all(np.isinf(dm[~hit]))
    assert sum(scored) == 3 * np.count_nonzero(hit)
    assert (sweep_segment_trisections(body, grid, seed=seed).to_dict()
            == _reference_sweep(body, grid, seed=seed))


def test_limit_rises_past_the_floor_in_a_second_round(hexagon, monkeypatch):
    # every common point at 0.8 of the radius: every bound is above
    # dm_standard, so the first round scores the cells of the least bound
    # and a second round those at or below the least d_M found
    a = np.arange(6) * math.pi / 3.0 + 0.3
    pts = (0.8 * hexagon.radius_at(a))[:, None] * np.column_stack(
        (np.cos(a), np.sin(a)))
    grid = SweepGrid(c_points=pts, theta1_count=12)
    bounds, scored = _traced_scoring(monkeypatch)
    report = sweep_segment_trisections(hexagon, grid)
    assert bounds[0].min() > report.dm_standard
    assert len(scored) >= 2
    assert sum(scored) < 3 * report.cells_evaluated
    assert report.to_dict() == _reference_sweep(hexagon, grid, seed=42)


@pytest.mark.parametrize("mode", ["segments", "perturbed_polylines"])
def test_every_violation_is_scored(h_tilde, monkeypatch, mode):
    # a closed form raised by 0.55 puts about a quarter of the cells
    # below it: each is scored and reported as the cell-by-cell loop
    # reports it, and the cells above it are not scored
    closed_form = closed_form_dm_standard

    def high(body):
        return closed_form(body) + 0.55

    grid = SweepGrid(c_points=default_c_points(h_tilde, 6,
                                               np.random.default_rng(3)),
                     theta1_count=16, curve_mode=mode,
                     perturbation_magnitude=0.02)
    monkeypatch.setattr(search, "closed_form_dm_standard", high)
    _, scored = _traced_scoring(monkeypatch)
    report = sweep_segment_trisections(h_tilde, grid).to_dict()
    assert 10 < len(report["violations"]) < report["cells_evaluated"] // 2
    assert sum(scored) < 3 * report["cells_evaluated"]
    monkeypatch.setitem(globals(), "closed_form_dm_standard", high)
    assert report == _reference_sweep(h_tilde, grid, seed=42)


def test_default_sweep_scores_few_regions_in_full(monkeypatch, capsys):
    # the default 50 x 120 segment sweep of h_tilde runs the full region
    # diameter on at most 5% of its regions
    from trisect import cli
    _, scored = _traced_scoring(monkeypatch)
    assert cli.main(["sweep", "--body", "h_tilde", "--mode", "segments"]) == 0
    evaluated = json.loads(capsys.readouterr().out)["cells_evaluated"]
    assert evaluated == 50 * 120
    assert 0 < sum(scored) <= 0.05 * 3 * evaluated


@pytest.fixture(scope="module")
def h_tilde_file(tmp_path_factory):
    """h_tilde's profile, 12,294 points, loaded as a body file."""
    path = tmp_path_factory.mktemp("body") / "h_tilde.json"
    path.write_text(json.dumps(PRESETS["h_tilde"]().to_dict()))
    return load_body(str(path))


_EXIT_BODIES = st.one_of(
    st.lists(st.tuples(st.floats(0.0, SECTOR, exclude_max=True),
                       st.floats(0.2, 2.0)), min_size=1, max_size=11),
    st.just(H_EPS_A_MAX), st.floats(H_EPS_A_MAX - 1e-9, H_EPS_A_MAX),
    st.just("file"))
# a finite angle, or the angle of boundary point i about the common point
# moved by -1, 0 or +1 ulp
_EXIT_ANGLES = st.lists(st.one_of(
    st.floats(-50.0, 50.0),
    st.tuples(st.integers(0, 10 ** 6), st.sampled_from([-1, 0, 1]))),
    min_size=1, max_size=30)


@pytest.mark.parametrize("name", ["triangle", "hexagon", "enneagon",
                                  "dodecagon", "reuleaux", "h_tilde",
                                  "random"])
def test_walk_angles_equal_np_unwrap(name):
    # the walk's polar angles are geom.polar_angles of the boundary, bit
    # for bit, and equal np.unwrap's to rounding: the same first angle,
    # closed 2pi above it, within two ulps of 4pi between; about the
    # center and off-center points, one point or a stack
    if name == "random":
        bodies = [random_body(np.random.default_rng(s)) for s in range(30)]
    else:
        bodies = [PRESETS[name]()]
    rng = np.random.default_rng(13)
    for body in bodies:
        a = rng.uniform(0.0, 2.0 * math.pi, 5)
        off = (rng.uniform(0.0, 0.95, 5) * body.radius_at(a))[:, None] * \
            np.column_stack((np.cos(a), np.sin(a)))
        points = np.vstack([np.zeros((1, 2)), off])
        for boundary in (body.boundary, body.sweep_polygon):
            walks = [_BoundaryWalk(boundary, points)]
            walks += [_BoundaryWalk(boundary, c) for c in points]
            for walk in walks:
                rel = boundary - walk.c[:, None]
                exact = geom.polar_angles(rel[..., 0], rel[..., 1])
                assert np.array_equal(walk.phi.view(np.int64),
                                      exact.view(np.int64)), body.label
                want = np.unwrap(np.arctan2(rel[..., 1], rel[..., 0]), axis=1)
                got = walk.phi[:, :-1]
                assert np.array_equal(got[:, 0], want[:, 0]), body.label
                assert np.all(np.abs(got - want)
                              <= 2.0 * np.spacing(4.0 * math.pi)), body.label
                assert np.array_equal(walk.phi[:, -1],
                                      want[:, 0] + 2.0 * math.pi)


@settings(max_examples=100, deadline=None)
@given(_EXIT_BODIES,
       st.lists(st.tuples(st.floats(0.0, 0.98), st.floats(0.0, 2 * math.pi)),
                max_size=6),
       _EXIT_ANGLES)
def test_ray_exits_lie_on_their_chords_and_rays(h_tilde_file, key, polar,
                                                angles):
    # harsh random bodies, h_eps at and next to the regular hexagon, and
    # h_tilde's profile as a body file, seen from the centre and from
    # common points up to 0.98 of the radius in their direction
    body = (h_tilde_file if key == "file" else make_h_eps(key)
            if isinstance(key, float) else _harsh_body(key))
    f, a = np.array(polar).reshape(-1, 2).T
    points = np.vstack([np.zeros((1, 2)), (f * body.radius_at(a))[:, None]
                        * np.column_stack((np.cos(a), np.sin(a)))])
    walk = _BoundaryWalk(body.boundary, points)
    assert len(walk.c) == len(points)
    phi, n = walk.phi, walk.n
    assert np.all(np.diff(phi, axis=1) >= 0.0), body.label
    assert np.array_equal(phi[:, -1], phi[:, 0] + 2.0 * math.pi)
    theta = np.column_stack([
        np.full(len(points), v) if isinstance(v, float)
        else np.nextafter(phi[:, v[0] % n], v[1] * math.inf) if v[1]
        else phi[:, v[0] % n] for v in angles])
    ci = np.arange(len(points))[:, None]
    i, s, hx, hy = ray_exit(walk.pts, phi, theta, walk.c, ci)
    assert np.all((0.0 <= s) & (s <= 1.0)), body.label
    # on its chord, and on its ray
    p = walk.pts[i] - walk.c[ci]
    e = walk.pts[(i + 1) % n] - walk.pts[i]
    size = np.hypot(hx, hy)
    assert np.all(np.abs(e[..., 0] * (hy - p[..., 1]) - e[..., 1] * (hx - p[..., 0]))
                  <= 1e-13 * size * np.hypot(e[..., 0], e[..., 1])), body.label
    dx, dy = np.cos(theta), np.sin(theta)
    assert np.all(np.abs(dx * hy - dy * hx) <= 1e-13 * size), body.label
    assert np.all(dx * hx + dy * hy > 0.0), body.label
    # radius_at is the norm of the exit about the centre
    assert np.all(np.abs(body.radius_at(theta[0]) - size[0])
                  <= 1e-15 * size[0]), body.label


def interleaved_walk_fields(boundary, c):
    """_BoundaryWalk's phi, prefix, total_area and kept, computed on
    (k, n, 2) coordinates about the points c; None if none is interior."""
    pts = np.asarray(boundary, dtype=float)
    cs = np.asarray(c, dtype=float).reshape(-1, 2)
    rel = pts - cs[:, None]
    nxt = np.concatenate((rel[:, 1:], rel[:, :1]), axis=1)
    with np.errstate(invalid="ignore", over="ignore"):
        cr = rel[..., 0] * nxt[..., 1] - rel[..., 1] * nxt[..., 0]
    inside = cr.min(axis=1) > 0.0
    if not inside.any():
        return None
    rel, cr = rel[inside], cr[inside]
    prefix = np.concatenate((np.zeros((len(cr), 1)),
                             0.5 * np.cumsum(cr, axis=1)), axis=1)
    a = np.arctan2(rel[..., 1], rel[..., 0])
    phi = np.concatenate((a[:, :1] + np.mod(a - a[:, :1], 2.0 * math.pi),
                          a[:, :1] + 2.0 * math.pi), axis=1)
    return phi, prefix, prefix[:, -1].copy(), np.flatnonzero(inside)


@pytest.mark.parametrize("name", ["triangle", "hexagon", "enneagon",
                                  "dodecagon", "reuleaux", "h_tilde",
                                  "random"])
def test_walk_fields_equal_interleaved_form(name):
    # one point and a 50-point stack, a fifth of it outside the body
    if name == "random":
        bodies = [random_body(np.random.default_rng(s)) for s in range(10)]
    else:
        bodies = [PRESETS[name]()]
    rng = np.random.default_rng(29)
    for body in bodies:
        a = rng.uniform(0.0, 2.0 * math.pi, 50)
        scale = np.where(np.arange(50) % 5 == 4, rng.uniform(1.05, 2.0, 50),
                         rng.uniform(0.0, 0.95, 50))
        stack = (scale * body.radius_at(a))[:, None] * \
            np.column_stack((np.cos(a), np.sin(a)))
        for boundary in (body.boundary, body.sweep_polygon):
            for c in (np.zeros(2), stack[0], stack[4], stack):
                want = interleaved_walk_fields(boundary, c)
                if want is None:
                    with pytest.raises(InfeasibleConfigurationError):
                        _BoundaryWalk(boundary, c)
                    continue
                walk = _BoundaryWalk(boundary, c)
                got = (walk.phi, walk.prefix, walk.total_area, walk.kept)
                for g, w in zip(got, want):
                    assert g.tobytes() == w.tobytes(), body.label
                if c is stack:  # the exterior points are dropped
                    assert len(walk.kept) == 40


# the words of each failure stage's message, as the one-row functions
# raise it
_STAGE_WORDS = {1: "not interior", 2: "additivity", 3: "rebalanced"}


def _probe_rows(body, count, seed):
    """Rows of cells: common points, a quarter of them outside the body,
    angles, and per-row jitter magnitudes and seeds, some magnitudes
    large enough to throw a mid-vertex outside."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.0, 2.0 * math.pi, count)
    scale = np.where(rng.uniform(size=count) < 0.25,
                     rng.uniform(1.01, 1.3, count),
                     rng.uniform(0.0, 0.9, count))
    c = (scale * body.radius_at(a))[:, None] * np.column_stack(
        (np.cos(a), np.sin(a)))
    theta1 = rng.uniform(0.0, 2.0 * math.pi, count)
    magnitude = np.where(rng.uniform(size=count) < 0.3, 0.8, 0.02)
    seeds = rng.integers(0, 2 ** 32, count)
    jitter = np.array([np.random.default_rng(s).uniform(-m, m, (1, 3))[0]
                       for s, m in zip(seeds, magnitude)])
    return c, theta1, magnitude, seeds, jitter


def _one_row_mismatches(body, rows, cells, perturbed):
    """The rows where the block solve's cells differ from the one-row
    functions': stage against the raised message, and for a solved row
    the common point, curves, endpoints, regions and d_M bit for bit."""
    c, theta1, magnitude, seeds, _ = rows
    dm = search._cells_dm(cells, math.inf)
    solved = np.flatnonzero(cells.stage == 0)
    bad = []
    for r in range(len(c)):
        try:
            if perturbed:
                tri = perturbed_polyline_trisection(
                    body, c[r], theta1[r], np.random.default_rng(seeds[r]),
                    magnitude[r])
            else:
                tri = equal_area_segment_trisection(body, c[r], theta1[r])
        except InfeasibleConfigurationError as exc:
            if _STAGE_WORDS.get(cells.stage[r], "solved") not in str(exc):
                bad.append(r)
            continue
        if cells.stage[r]:
            bad.append(r)
            continue
        k = int(np.searchsorted(solved, r))
        got = cells.trisection(k)
        same = (np.array_equal(got.common_point, tri.common_point)
                and np.array_equal(got.endpoints, tri.endpoints)
                and all(np.array_equal(p, q) for p, q in
                        zip(got.curves + got.regions,
                            tri.curves + tri.regions))
                and dm[k] == trisection_dm(tri))
        if not same:
            bad.append(r)
    return bad


@pytest.mark.parametrize("perturbed", [False, True],
                         ids=["segments", "perturbed_polylines"])
@pytest.mark.parametrize("name", ["hexagon", "h_tilde", "random"])
def test_block_solver_equals_one_row_functions(name, perturbed, monkeypatch):
    # one block-solver call over rows of every kind of failure gives,
    # row by row, the one-row functions' cells and failures
    body = (PRESETS[name]() if name != "random"
            else random_body(np.random.default_rng(41)))
    rows = _probe_rows(body, 40, seed=len(name) + perturbed)
    c, theta1, _, _, jitter = rows
    segment = search._segment_positions

    def failing(walk, angles):
        # no equal-area split for an angle in a band of each radian
        ts = segment(walk, angles)
        band = np.broadcast_to(angles, (len(walk.c), np.shape(angles)[-1]))
        ts[band.ravel() % 1.0 < 0.15] = np.nan
        return ts

    monkeypatch.setattr(search, "_segment_positions", failing)
    # blocks of three points: rows map to cells across several walks
    monkeypatch.setattr(search, "_BLOCK_ELEMENTS",
                        3 * (len(body.boundary) + 2))

    def solve(jitter):
        return search._solve_cells(
            body.boundary, c, theta1[:, None],
            (lambda r: jitter[r]) if perturbed else None)

    walks = _walk_refs(monkeypatch)
    cells = solve(jitter)
    stages = set(cells.stage.tolist())
    assert stages == ({0, 1, 2, 3} if perturbed else {0, 1, 2})
    assert len(walks) > 3
    assert _one_row_mismatches(body, rows, cells, perturbed) == []
    if perturbed:
        # the check sees two solved rows' jitters swapped
        a, b = np.flatnonzero(cells.stage == 0)[[0, -1]]
        swapped = jitter.copy()
        swapped[[a, b]] = swapped[[b, a]]
        assert _one_row_mismatches(body, rows, solve(swapped),
                                   perturbed) != []
