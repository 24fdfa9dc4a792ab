import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trisect.bodies import random_body
from trisect.cli import PRESETS
from trisect.geom import (DegenerateGeometryError, convex_hull,
                          points_diameter, polygon_area, polygon_diameter,
                          region_diameter, resample_boundary, rotate)
from trisect.search import (equal_area_segment_trisection,
                            perturbed_polyline_trisection)
from trisect.trisection import standard_trisection


def naive_hull_vertices(points, tol=1e-12):
    """O(n^3) hull oracle: directed edges with every point on their left."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    keep = set()
    for i in range(n):
        d = pts - pts[i]
        for j in range(n):
            if i == j:
                continue
            cr = d[j, 0] * d[:, 1] - d[j, 1] * d[:, 0]
            if np.all(cr >= -tol):
                keep.add(i)
                keep.add(j)
    return pts[sorted(keep)]


def all_pairs_diameter(points):
    """Plain all-pairs oracle, rows in chunks to bound the memory."""
    p = np.asarray(points, dtype=float)
    best = 0.0
    for i in range(0, len(p), 500):
        dx = p[i:i + 500, None, 0] - p[None, :, 0]
        dy = p[i:i + 500, None, 1] - p[None, :, 1]
        best = max(best, float(np.max(dx * dx + dy * dy)))
    return math.sqrt(best)


def loop_resample_boundary(boundary, sample_count):
    """The per-edge loop that resample_boundary vectorises; its output is
    the reference the vectorised form must match bit for bit."""
    b = np.asarray(boundary, dtype=float)
    nxt = np.roll(b, -1, axis=0)
    seg_len = np.hypot(*(nxt - b).T)
    perim = seg_len.sum()
    out = []
    for i in range(len(b)):
        pieces = max(1, int(math.ceil(sample_count * seg_len[i] / perim)))
        t = np.arange(pieces) / pieces
        out.append(b[i] + t[:, None] * (nxt[i] - b[i]))
    return np.concatenate(out)


def unique_chain_hull(points):
    """Monotone chain after np.unique and a second lexsort, with the cross
    product in a helper: the reference convex_hull must match."""
    def cross2(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    pts = np.unique(np.asarray(points, dtype=float), axis=0)
    if len(pts) < 3:
        raise DegenerateGeometryError("need at least 3 distinct points")
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))].tolist()

    def half_hull(seq):
        chain = []
        for p in seq:
            while len(chain) > 1 and cross2(chain[-2], chain[-1], p) <= 0.0:
                chain.pop()
            chain.append(p)
        return chain

    hull = half_hull(pts)[:-1] + half_hull(pts[::-1])[:-1]
    if len(hull) < 3:
        raise DegenerateGeometryError("points are collinear")
    return np.array(hull)


def hull_or_error(hull_fn, points):
    try:
        return hull_fn(points)
    except DegenerateGeometryError as exc:
        return str(exc)


def preset_regions():
    """Regions of the standard, an off-centre segment and a perturbed
    polyline trisection of every preset."""
    rng = np.random.default_rng(11)
    c = np.array([0.07, -0.04])
    for make in PRESETS.values():
        body = make()
        for tri in (standard_trisection(body),
                    equal_area_segment_trisection(body, c, 0.4),
                    perturbed_polyline_trisection(body, c, 2.1, rng, 0.02)):
            yield from tri.regions


def test_hull_drops_interior_point():
    pts = [(0, 0), (1, 0), (0, 1), (0.25, 0.25)]
    hull = convex_hull(pts)
    assert len(hull) == 3
    assert {tuple(p) for p in hull} == {(0, 0), (1, 0), (0, 1)}


def test_hull_square():
    pts = [(0, 0), (1, 0), (1, 1), (0, 1)]
    hull = convex_hull(pts)
    assert {tuple(p) for p in hull} == set(map(tuple, pts))
    assert roll_is_ccw_convex(hull, 1e-9)


def test_hull_matches_naive_oracle_on_disk_points():
    rng = np.random.default_rng(7)
    r = np.sqrt(rng.uniform(0, 1, 200))
    phi = rng.uniform(0, 2 * math.pi, 200)
    pts = np.column_stack((r * np.cos(phi), r * np.sin(phi)))
    hull = convex_hull(pts)
    expected = naive_hull_vertices(pts)
    got = hull[np.lexsort((hull[:, 1], hull[:, 0]))]
    expected = expected[np.lexsort((expected[:, 1], expected[:, 0]))]
    assert np.allclose(got, expected, atol=1e-12)


def test_hull_rejects_collinear():
    with pytest.raises(DegenerateGeometryError):
        convex_hull([(0, 0), (1, 1), (2, 2), (3, 3)])


def test_diameter_unit_square():
    assert polygon_diameter([(0, 0), (1, 0), (1, 1), (0, 1)]) == pytest.approx(
        math.sqrt(2), abs=1e-12)


def test_diameter_equilateral_triangle():
    h = math.sqrt(3) / 2
    assert polygon_diameter([(0, 0), (1, 0), (0.5, h)]) == pytest.approx(1, abs=1e-12)


def test_diameter_matches_all_pairs_on_random_hulls():
    rng = np.random.default_rng(3)
    for _ in range(50):
        pts = rng.normal(size=(64, 2))
        hull = convex_hull(pts)
        assert polygon_diameter(hull) == pytest.approx(
            all_pairs_diameter(hull), abs=1e-12)


def test_area_unit_square():
    assert polygon_area([(0, 0), (1, 0), (1, 1), (0, 1)]) == pytest.approx(1.0)


def test_area_equilateral_triangle_side_2():
    h = math.sqrt(3)
    assert polygon_area([(0, 0), (2, 0), (1, h)]) == pytest.approx(
        math.sqrt(3), abs=1e-12)


def test_area_polygon_inscribed_in_circle():
    th = np.linspace(0, 2 * math.pi, 4096, endpoint=False)
    poly = np.column_stack((np.cos(th), np.sin(th)))
    assert polygon_area(poly) == pytest.approx(math.pi, abs=1e-5)


def test_rotate_basics():
    assert np.allclose(rotate((1, 0), 2 * math.pi / 3), (-0.5, math.sqrt(3) / 2))
    assert np.allclose(rotate((0, 0), 1.234), (0, 0))


def test_rotate_three_times_identity():
    rng = np.random.default_rng(0)
    p = rng.normal(size=2)
    q = p
    for _ in range(3):
        q = rotate(q, 2 * math.pi / 3)
    assert np.allclose(q, p, atol=1e-12)


def test_region_diameter_disk():
    th = np.linspace(0, 2 * math.pi, 256, endpoint=False)
    disk = np.column_stack((np.cos(th), np.sin(th)))
    assert region_diameter(disk) == pytest.approx(2.0, abs=1e-5)


def test_region_diameter_square():
    sq = np.array([(0, 0), (1, 0), (1, 1), (0, 1)], dtype=float)
    assert region_diameter(sq) == pytest.approx(math.sqrt(2), abs=1e-12)


def test_region_diameter_hexagon_trisection_subset(hexagon):
    from trisect import standard_trisection
    tri = standard_trisection(hexagon)
    expected = 2 ** -0.5 * (1 / math.tan(math.pi / 6)) ** 0.5
    assert region_diameter(tri.regions[0]) == pytest.approx(expected, abs=1e-4)


def test_region_diameter_equals_vertex_diameter():
    # resampling puts points on the edges only: the diameter is the vertices'
    rng = np.random.default_rng(5)
    for _ in range(10):
        hull = convex_hull(rng.normal(size=(20, 2)))
        assert region_diameter(hull) == pytest.approx(all_pairs_diameter(hull),
                                                      abs=1e-12)


def test_region_diameter_rejects_degenerate():
    with pytest.raises(DegenerateGeometryError):
        region_diameter(np.array([(0, 0), (1, 0), (2, 0)], dtype=float))


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_region_diameter_of_each_standard_region_matches_oracle(name):
    # each region on its own: the maximum over three can hide a wrong one
    for region in standard_trisection(PRESETS[name]()).regions:
        assert region_diameter(region) == pytest.approx(
            all_pairs_diameter(region), rel=0, abs=1e-12)


def test_hull_keeps_corners_of_ulp_jittered_vertical_edge():
    # a vertical edge whose x values differ only in the last bits, as on
    # the triangle's standard region 1: the x-then-y sort does not follow
    # the edge, and its lower corner must stay on the hull
    rng = np.random.default_rng(2)
    x0 = -0.4386913376508308
    edge = np.column_stack((x0 + rng.integers(0, 8, 513) * np.spacing(x0),
                            np.linspace(0.0, -0.7598, 513)))
    region = np.vstack([(0.0, 0.0), edge, (0.2193, -0.3799)])
    assert np.any(convex_hull(region)[:, 1] == -0.7598)
    assert convex_hull(region).tobytes() == unique_chain_hull(region).tobytes()
    assert region_diameter(region) == pytest.approx(
        all_pairs_diameter(region), rel=0, abs=1e-12)


def test_points_diameter_equals_oracle_on_preset_regions():
    for region in preset_regions():
        assert points_diameter(region) == all_pairs_diameter(region)


def test_points_diameter_equals_oracle_when_every_point_survives():
    th = np.linspace(0, 2 * math.pi, 12_000, endpoint=False)
    circle = np.column_stack((np.cos(th), np.sin(th)))
    assert points_diameter(circle) == all_pairs_diameter(circle)


def test_points_diameter_with_duplicates_offset_and_overflow():
    region = standard_trisection(PRESETS["h_tilde"]()).regions[0]
    for pts in (np.repeat(region, 3, axis=0), region + 1e6,
                np.repeat([[0.3, -0.2]], 200, axis=0)):
        assert points_diameter(pts) == all_pairs_diameter(pts)
    # squared distances overflow: the bound is skipped, not trusted
    far = np.array([(1e200, 0.0)] + [(-1e200, 0.0)] * 100)
    with np.errstate(over="ignore"):
        assert points_diameter(far) == math.inf


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_points_diameter_rejects_non_finite_coordinates(bad):
    line = np.column_stack((np.linspace(0.0, 1.0, 100), np.zeros(100)))
    for pts in (np.vstack([line, [(bad, 0.0)]]), [(0.0, 0.0), (0.0, bad)]):
        with pytest.raises(DegenerateGeometryError):
            points_diameter(pts)


def test_points_diameter_tiny_inputs():
    assert points_diameter(np.empty((0, 2))) == 0.0
    assert points_diameter([(0.5, 0.25)]) == 0.0
    assert points_diameter([(0.0, 0.0), (3.0, 4.0)]) == 5.0


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
                min_size=0, max_size=300))
def test_points_diameter_equals_oracle_on_random_sets(coords):
    pts = np.asarray(coords, dtype=float).reshape(-1, 2)
    assert points_diameter(pts) == all_pairs_diameter(pts)


def test_resample_equals_per_edge_loop_bit_for_bit():
    for region in preset_regions():
        for count in (1, 4096):
            got = resample_boundary(region, count)
            assert got.tobytes() == loop_resample_boundary(region, count).tobytes()
    # repeated consecutive vertices make zero-length edges of one piece
    sq = np.array([(0, 0), (1, 0), (1, 0), (1, 1), (0, 1), (0, 1), (0, 0)],
                  dtype=float)
    for count in (1, 7, 64, 4096):
        got = resample_boundary(sq, count)
        assert got.tobytes() == loop_resample_boundary(sq, count).tobytes()


def test_resample_keeps_vertices():
    sq = np.array([(0, 0), (1, 0), (1, 1), (0, 1)], dtype=float)
    dense = resample_boundary(sq, 64)
    for v in sq:
        assert np.min(np.hypot(*(dense - v).T)) < 1e-12


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_resample_hull_and_region_diameter_reject_non_finite_coordinates(bad):
    region = standard_trisection(PRESETS["hexagon"]()).regions[0].copy()
    region[len(region) // 2, 1] = bad
    for fn in (lambda b: resample_boundary(b, 4096), convex_hull,
               region_diameter):
        with pytest.raises(DegenerateGeometryError, match="NaN or infinite"):
            fn(region)


def test_resample_rejects_overflowing_length():
    with pytest.raises(DegenerateGeometryError), np.errstate(over="ignore"):
        resample_boundary([(-1e308, 0.0), (1e308, 0.0), (0.0, 1e308)], 64)


def _signed_zero(pts):
    return bool(np.any((pts == 0.0) & np.signbit(pts)))


_COORD = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -2.5]),
                   st.floats(-1e3, 1e3))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(_COORD, _COORD), max_size=120),
       st.lists(st.integers(0, 10_000), max_size=40))
def test_hull_equals_unique_lexsort_chain(coords, repeats):
    pts = np.asarray(coords, dtype=float).reshape(-1, 2)
    if len(pts):
        pts = np.vstack([pts, pts[[i % len(pts) for i in repeats]]])
    got = hull_or_error(convex_hull, pts)
    want = hull_or_error(unique_chain_hull, pts)
    if isinstance(want, str):
        assert got == want
        return
    # np.unique's sort is not stable, so of two rows that differ only in
    # the sign of a zero it keeps either one; the values are the same
    assert (got + 0.0).tobytes() == (want + 0.0).tobytes()
    if not _signed_zero(pts):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_hull_equals_unique_lexsort_chain_on_resampled_regions(name):
    for region in standard_trisection(PRESETS[name]()).regions:
        samples = resample_boundary(region, 4096)
        assert convex_hull(samples).tobytes() == \
            unique_chain_hull(samples).tobytes()


def test_random_bodies_unchanged_by_hull(monkeypatch):
    import trisect.geom
    want = [random_body(np.random.default_rng(s)).boundary for s in range(20)]
    monkeypatch.setattr(trisect.geom, "convex_hull", unique_chain_hull)
    for s, boundary in enumerate(want):
        assert random_body(np.random.default_rng(s)).boundary.tobytes() == \
            boundary.tobytes()


# integer coordinates keep the cases well-scaled: predicate robustness is
# epsilon-based and only promised for O(1) geometry
@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(-100, 100), st.integers(-100, 100)),
                min_size=4, max_size=60, unique=True))
def test_hull_convex_and_contains_inputs(coords):
    pts = np.asarray(coords, dtype=float)
    try:
        hull = convex_hull(pts)
    except DegenerateGeometryError:
        return
    assert roll_is_ccw_convex(hull, 1e-7)
    # every point on or inside: left of (or on) every directed hull edge
    nxt = np.roll(hull, -1, axis=0)
    for p in pts:
        cr = ((nxt[:, 0] - hull[:, 0]) * (p[1] - hull[:, 1])
              - (nxt[:, 1] - hull[:, 1]) * (p[0] - hull[:, 0]))
        assert np.all(cr >= -1e-7 * max(1.0, np.abs(pts).max()))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
                min_size=4, max_size=40, unique=True))
def test_calipers_equals_all_pairs(coords):
    pts = np.asarray(coords, dtype=float)
    try:
        hull = convex_hull(pts)
    except DegenerateGeometryError:
        return
    assert polygon_diameter(hull) == pytest.approx(
        all_pairs_diameter(hull), rel=0, abs=1e-9)
    assert points_diameter(hull) == pytest.approx(
        all_pairs_diameter(hull), rel=0, abs=1e-9)


def test_triangle_area_cross_formula():
    rng = np.random.default_rng(11)
    for _ in range(100):
        a, b, c = rng.normal(size=(3, 2))
        expected = 0.5 * abs((b[0] - a[0]) * (c[1] - a[1])
                             - (b[1] - a[1]) * (c[0] - a[0]))
        assert polygon_area([a, b, c]) == pytest.approx(expected, abs=1e-12)


def roll_polygon_area(boundary):
    b = np.asarray(boundary, dtype=float)
    x, y = b[:, 0], b[:, 1]
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def roll_is_ccw_convex(boundary, tol):
    b = np.asarray(boundary, dtype=float)
    prv, nxt = np.roll(b, 1, axis=0), np.roll(b, -1, axis=0)
    cr = ((b[:, 0] - prv[:, 0]) * (nxt[:, 1] - b[:, 1])
          - (b[:, 1] - prv[:, 1]) * (nxt[:, 0] - b[:, 0]))
    return bool(np.all(cr >= -tol))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(_COORD, _COORD), min_size=1, max_size=80))
def test_cyclic_neighbours_equal_their_roll_forms(coords):
    # raw point lists and, where there is one, their CCW hull
    pts = np.asarray(coords, dtype=float)
    polygons = [pts]
    hull = hull_or_error(convex_hull, pts)
    if not isinstance(hull, str):
        polygons.append(hull)
    for poly in polygons:
        assert (np.float64(polygon_area(poly)).tobytes()
                == np.float64(roll_polygon_area(poly)).tobytes())
