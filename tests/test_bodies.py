import json
import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.distance import directed_hausdorff

from test_geom import roll_is_ccw_convex

from trisect.bodies import (H_EPS_A_MAX, SECTOR, SymmetricBody, _corner_body,
                            _h_eps_vertices, h_eps_dpx, h_eps_side_b,
                            load_body, make_h_eps, make_h_tilde,
                            make_regular_polygon, make_reuleaux,
                            normalize_unit_area, random_body, solve_a0,
                            validate)
from trisect.cli import PRESETS
from trisect.geom import polygon_area, ray_exit
from trisect.trisection import inscribed_ball_radius

REULEAUX_WIDTH = (2.0 / (math.pi - math.sqrt(3.0))) ** 0.5


def hausdorff(a, b):
    return max(directed_hausdorff(a, b)[0], directed_hausdorff(b, a)[0])


def profile_of(body):
    """The body a body file of body loads as: its to_dict profile, which
    a polygon samples on the sector grid and at its corners."""
    doc = body.to_dict()
    theta, r = np.array(doc["sector_profile"]).T
    return SymmetricBody(doc["label"], sector_theta=theta, sector_r=r)


def profiles_match_up_to_rotation(b1, b2, tol=1e-6):
    """Compare radius functions after aligning the min-radius directions."""
    thetas = np.linspace(0, 2 * math.pi, 720, endpoint=False)
    m1, _ = b1.nearest_point
    m2, _ = b2.nearest_point
    shift = math.atan2(m1[1], m1[0]) - math.atan2(m2[1], m2[0])
    r1 = b1.radius_at(thetas)
    r2 = b2.radius_at(thetas - shift)
    return np.max(np.abs(r1 - r2)) < tol


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
def test_regular_polygon_unit_area(n):
    assert make_regular_polygon(n).area == pytest.approx(1.0, abs=1e-6)


def test_regular_polygon_apothem_values(triangle, hexagon):
    assert inscribed_ball_radius(triangle) == pytest.approx(3 ** -0.75, abs=1e-9)
    expected_hex = 6 ** -0.5 * (1 / math.tan(math.pi / 6)) ** 0.5
    assert inscribed_ball_radius(hexagon) == pytest.approx(expected_hex, abs=1e-9)


def test_regular_polygon_rejects_zero():
    with pytest.raises(ValueError):
        make_regular_polygon(0)


@pytest.mark.parametrize("n", [2.5, 2.0])
def test_regular_polygon_edge_count_is_an_integer(n):
    # 2.5 once built a non-convex regular:7.5 that fails validate, and
    # 2.0 a hexagon labelled regular:6.0
    with pytest.raises(TypeError):
        make_regular_polygon(n)
    assert make_regular_polygon(np.int64(2)).label == "regular:6"


def test_reuleaux_unit_area(reuleaux):
    assert reuleaux.area == pytest.approx(1.0, abs=1e-6)


def test_reuleaux_constant_width(reuleaux):
    pts = reuleaux.boundary
    for k in range(360):
        u = np.array([math.cos(k * math.pi / 360), math.sin(k * math.pi / 360)])
        width = np.max(pts @ u) - np.min(pts @ u)
        assert width == pytest.approx(REULEAUX_WIDTH, abs=1e-6)


def test_reuleaux_vertex_distance(reuleaux):
    assert reuleaux.max_radius() == pytest.approx(
        REULEAUX_WIDTH / math.sqrt(3.0), abs=1e-9)


def test_h_eps_side_b_endpoints():
    assert h_eps_side_b(0.0) == pytest.approx(2 * 3 ** -0.25, abs=1e-12)
    assert h_eps_side_b(H_EPS_A_MAX) == pytest.approx(H_EPS_A_MAX, abs=1e-12)


def test_h_eps_side_b_area_identity():
    for a in np.linspace(0, H_EPS_A_MAX, 57):
        b = h_eps_side_b(a)
        area = math.sqrt(3) / 4 * ((b + 2 * a) ** 2 - 3 * a * a)
        assert area == pytest.approx(1.0, abs=1e-12)


def test_h_eps_side_b_rejects_out_of_range():
    with pytest.raises(ValueError):
        h_eps_side_b(-0.1)
    with pytest.raises(ValueError):
        h_eps_side_b(H_EPS_A_MAX + 0.01)


def test_h_eps_family_endpoints_match_regular_polygons(triangle, hexagon):
    assert profiles_match_up_to_rotation(make_h_eps(0.0), triangle)
    assert profiles_match_up_to_rotation(make_h_eps(H_EPS_A_MAX), hexagon)


@pytest.mark.parametrize("a", [0.0, 0.1, 0.3, 0.55, H_EPS_A_MAX])
def test_h_eps_passes_validation(a):
    assert validate(make_h_eps(a)).clean


def test_h_eps_interpolates_continuously():
    for a in (0.05, 0.2, 0.45):
        b1 = make_h_eps(a).boundary
        b2 = make_h_eps(a + 1e-4).boundary
        assert hausdorff(b1, b2) <= 1e-3


def test_h_tilde_unit_area(h_tilde):
    assert h_tilde.area == pytest.approx(1.0, abs=1e-6)


def test_h_tilde_max_radius_value(h_tilde):
    assert h_tilde.max_radius() == pytest.approx(0.769262, abs=1e-4)


def test_h_tilde_was_shrunk(h_tilde):
    # rounding corners adds area, so the unit-area rescale must shrink
    assert h_tilde.max_radius() < h_eps_dpx(solve_a0())


def test_h_tilde_is_triangle_circle_intersection(h_tilde):
    # every boundary point lies on either the circle of radius R or on an
    # edge of the enclosing equilateral triangle (apothem rho)
    rho = inscribed_ball_radius(h_tilde)
    big_r = h_tilde.max_radius()
    pts = h_tilde.boundary
    r = np.hypot(pts[:, 0], pts[:, 1])
    on_circle = np.abs(r - big_r) < 1e-6
    dirs = np.array([[math.cos(-math.pi / 2 + k * SECTOR),
                      math.sin(-math.pi / 2 + k * SECTOR)] for k in range(3)])
    on_edges = np.any(np.abs(pts @ dirs.T - rho) < 1e-6, axis=1)
    assert np.all(on_circle | on_edges)


@pytest.mark.parametrize("maker", [
    lambda: make_regular_polygon(1),
    lambda: make_regular_polygon(2),
    make_reuleaux,
    lambda: make_h_eps(0.3),
    make_h_tilde,
])
def test_constructors_validate_clean(maker):
    assert validate(maker()).clean


@pytest.mark.parametrize("maker", [
    lambda: make_regular_polygon(1),
    lambda: make_regular_polygon(3),
    make_reuleaux,
    lambda: make_h_eps(0.4),
    make_h_tilde,
])
def test_min_radius_equals_triangle_apothem(maker):
    body = maker()
    assert float(np.min(profile_of(body).sector_r)) == pytest.approx(
        inscribed_ball_radius(body), abs=1e-6)


def test_normalize_idempotent(hexagon):
    again = normalize_unit_area(hexagon)
    assert np.allclose(again.boundary, hexagon.boundary, atol=1e-12)


def test_normalize_inverts_scaling(hexagon):
    scaled = hexagon.scaled(2.0)
    back = normalize_unit_area(scaled)
    assert np.allclose(back.boundary, hexagon.boundary, atol=1e-9)


def test_validate_flags_convexity_violation(hexagon):
    profile = profile_of(hexagon)
    r = profile.sector_r.copy()
    r[len(r) // 2] *= 2.0
    bad = SymmetricBody("bad", sector_theta=profile.sector_theta, sector_r=r)
    report = validate(bad)
    assert not report.convex_ok and not report.clean


def test_validate_flags_truncated_coverage(hexagon):
    profile = profile_of(hexagon)
    keep = profile.sector_theta < math.pi / 2
    bad = SymmetricBody("bad", sector_theta=profile.sector_theta[keep],
                        sector_r=profile.sector_r[keep])
    report = validate(bad)
    assert not report.coverage_ok and not report.clean


def test_load_body_roundtrip(tmp_path, hexagon):
    path = tmp_path / "hex.json"
    path.write_text(json.dumps(hexagon.to_dict()))
    loaded = load_body(str(path))
    assert loaded.label == hexagon.label
    assert np.array_equal(loaded.sector_r, profile_of(hexagon).sector_r)
    assert validate(loaded).clean


def test_random_bodies_are_clean():
    rng = np.random.default_rng(42)
    for _ in range(10):
        assert validate(random_body(rng)).clean


@pytest.mark.parametrize("a,want", [(-0.0, 0.0), (-1e-13, 0.0),
                                    (H_EPS_A_MAX + 1e-13, H_EPS_A_MAX)])
def test_h_eps_clamps_a_into_range(a, want):
    # an a within the slack past either end of the range builds the body
    # and label of that end: no h_eps:-0.000000, no corner outside the
    # triangle
    got, end = make_h_eps(a), make_h_eps(want)
    assert got.label == end.label
    assert np.array_equal(got.boundary, end.boundary)
    assert np.array_equal(got.corners, end.corners)
    assert got.outline_hint == end.outline_hint


def _random_bodies(count):
    rng = np.random.default_rng(5)
    return [random_body(rng) for _ in range(count)]


FAMILIES = pytest.mark.parametrize("family", [
    lambda: [make() for make in PRESETS.values()],
    lambda: [make_regular_polygon(m // 3) for m in (3, 6, 9, 12, 21, 300, 3072)],
    lambda: [make_h_eps(a) for a in np.linspace(0.0, H_EPS_A_MAX, 11)],
    lambda: _random_bodies(200)], ids=["presets", "regular", "h_eps", "random"])


@FAMILIES
def test_every_corner_is_a_profile_sample(family):
    # a polygonal body is its corner list, and the profile its body file
    # holds samples every corner: each on a sector_theta entry (mod the
    # sector) with its norm on sector_r there, up to the rounding of the
    # corner's rotated copies; a curved body has no corners
    for body in family():
        if body.sweep_rows is not None:
            assert body.corners is None, body.label
            continue
        assert body.corners.dtype == float and body.corners.shape[1] == 2
        assert len(body.corners) >= 3, body.label
        assert body.boundary is body.corners and body.sector_r is None
        profile = profile_of(body)
        for x, y in body.corners:
            gap = np.abs(profile.sector_theta - math.atan2(y, x) % SECTOR)
            gap = np.minimum(gap, SECTOR - gap)
            k = np.argmin(gap)
            assert gap[k] <= 1e-14, body.label
            assert abs(math.hypot(x, y) - profile.sector_r[k]) <= 1e-14, body.label


def interleaved_ray_chord_radius(pts, row, theta):
    """radius_at's ray cast on (n, 2) rows of points, for 1-D theta and
    one row of polar angles: the chord from point i, the last whose angle
    is not above the ray's moved into the row."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    n = len(pts)
    q = row[0] + np.mod(theta - row[0], 2.0 * math.pi)
    i = np.minimum(np.searchsorted(row, q, side="right") - 1, n - 1)
    p1 = pts[i]
    e = pts[(i + 1) % n] - p1
    d = np.column_stack((np.cos(theta), np.sin(theta)))
    num = d[:, 1] * p1[:, 0] - d[:, 0] * p1[:, 1]
    den = d[:, 0] * e[:, 1] - d[:, 1] * e[:, 0]
    s = np.clip(num / np.where(den == 0.0, 1.0, den), 0.0, 1.0)
    return np.hypot(*(p1 + s[:, None] * e).T)


def einsum_nearest_point(body):
    """SymmetricBody.nearest_point on (n, 2) rows of points, with einsum
    dot products."""
    pts = body.boundary
    e = np.concatenate((pts[1:], pts[:1])) - pts
    t = np.clip(-np.einsum("ij,ij->i", pts, e)
                / np.maximum(np.einsum("ij,ij->i", e, e), 1e-30), 0.0, 1.0)
    feet = pts + t[:, None] * e
    dist = np.hypot(feet[:, 0], feet[:, 1])
    rho = float(np.min(dist))
    tied = np.nonzero(dist <= rho + 1e-15 * rho)[0]
    angles = np.mod(np.arctan2(feet[tied, 1], feet[tied, 0]), 2 * math.pi)
    return feet[tied[np.argmin(angles)]].copy(), rho


@lru_cache(maxsize=64)
def _body(kind, arg):
    if kind == "preset":
        return PRESETS[arg]()
    if kind == "regular":
        return make_regular_polygon(arg)
    if kind == "h_eps":
        return make_h_eps(arg)
    return random_body(np.random.default_rng(arg))


_BODY_KEYS = st.one_of(
    st.tuples(st.just("preset"), st.sampled_from(sorted(PRESETS))),
    st.tuples(st.just("regular"), st.integers(1, 1024)),
    st.tuples(st.just("h_eps"), st.floats(0.0, H_EPS_A_MAX)),
    st.tuples(st.just("random"), st.integers(0, 2 ** 32 - 1)))
# an angle, or ("vertex", i, turns): the polar angle of boundary point i
# plus a whole number of turns
_ANGLES = st.lists(st.one_of(
    st.sampled_from([0.0, -0.0, 2 * math.pi, 4 * math.pi, -2 * math.pi,
                     math.nan, 5e-324, -5e-324, SECTOR, -SECTOR]),
    st.floats(-50.0, 50.0),
    st.tuples(st.just("vertex"), st.integers(0, 10 ** 6),
              st.integers(-2, 2))), min_size=1, max_size=40)


@settings(max_examples=150, deadline=None)
@given(_BODY_KEYS, _ANGLES)
def test_ray_chord_radius_equals_interleaved_form(key, angles):
    # negative, signed-zero, whole-turn, NaN and exact vertex angles
    body = _body(*key)
    pts, row = body.boundary, body.polygon_angles[0]
    theta = np.array([a if isinstance(a, float)
                      else row[a[1] % len(pts)] + a[2] * 2.0 * math.pi
                      for a in angles])
    got = body.radius_at(theta)
    assert got.tobytes() == interleaved_ray_chord_radius(pts, row,
                                                         theta).tobytes()


@FAMILIES
def test_nearest_point_equals_einsum_form(family):
    for body in family():
        got, rho = body.nearest_point
        want, want_rho = einsum_nearest_point(body)
        assert got.tobytes() == want.tobytes(), body.label
        assert type(rho) is float and rho == want_rho


def test_radius_at_keeps_the_shape_of_its_angles():
    body = make_regular_polygon(2)
    theta = np.linspace(0.0, 6.0, 12).reshape(3, 4)
    got = body.radius_at(theta)
    assert got.shape == (3, 4)
    assert got.tobytes() == body.radius_at(theta.ravel()).reshape(3, 4).tobytes()
    assert type(body.radius_at(1.0)) is float


def _file_hexagon(path):
    """A body file: a hexagon profile with a corner 1e-12 rad below the
    sector's end, where a short profile chord meets the corner."""
    phi = -1e-12 + np.arange(6) * math.pi / 3.0
    theta = np.union1d(np.arange(1024) * SECTOR / 1024, np.mod(phi, SECTOR))
    # the apothem of the unit circle's hexagon, over the cosine to the
    # nearest edge normal
    offset = np.mod(theta - phi[0], math.pi / 3.0) - math.pi / 6.0
    r = math.cos(math.pi / 6.0) / np.cos(offset)
    doc = {"label": "file", "sector_profile": np.column_stack((theta, r)).tolist()}
    path.write_text(json.dumps(doc))
    return normalize_unit_area(load_body(str(path)))


@pytest.fixture(scope="module")
def file_hexagon(tmp_path_factory):
    return _file_hexagon(tmp_path_factory.mktemp("body") / "hexagon.json")


_CHORD_BODIES = st.one_of(
    st.sampled_from([("preset", "reuleaux"), ("preset", "h_tilde"),
                     ("file", None)]),
    st.tuples(st.just("h_eps"), st.floats(H_EPS_A_MAX - 1e-11, H_EPS_A_MAX)),
    st.tuples(st.just("random"), st.integers(0, 2 ** 32 - 1)))
# a finite angle, or the polar angle of polygon point i moved by -1, 0 or
# +1 ulp
_FINITE_ANGLES = st.lists(st.one_of(
    st.floats(-50.0, 50.0),
    st.tuples(st.integers(0, 10 ** 6), st.sampled_from([-1, 0, 1]))),
    min_size=1, max_size=40)


@settings(max_examples=150, deadline=None)
@given(_CHORD_BODIES, _FINITE_ANGLES)
def test_radius_at_never_exceeds_its_chord(file_hexagon, key, angles):
    # the hit lies on the chord between the polygon points either side
    # of the ray, so it is no farther than the farther end, up to
    # rounding; the cross-product formula overshot short profile chords
    # next to a corner by up to 2e-5
    body = file_hexagon if key[0] == "file" else _body(*key)
    pts, row = body.boundary, body.polygon_angles[0]
    theta = np.array([a if isinstance(a, float) else
                      np.nextafter(row[a[0] % len(pts)], a[1] * math.inf)
                      if a[1] else row[a[0] % len(pts)] for a in angles])
    r = body.radius_at(theta)
    q = row[0] + np.mod(theta - row[0], 2.0 * math.pi)
    idx = np.minimum(np.searchsorted(row, q, side="right"), len(pts))
    norm = np.hypot(pts[:, 0], pts[:, 1])
    far = np.maximum(norm.take(idx - 1, mode="wrap"), norm.take(idx, mode="wrap"))
    assert np.all(r <= far * (1.0 + 1e-15)), body.label


def _polygonal_bodies():
    return ([make_regular_polygon(m // 3) for m in (3, 6, 9, 12, 21, 300, 3072)]
            + [make_h_eps(a) for a in (0.0, 0.3, H_EPS_A_MAX - 1e-11,
                                       0.6204032393995385, H_EPS_A_MAX)])


def check_corner_polygon(body):
    """The corners are a convex CCW polygon with its profile's area, and
    every profile point lies on it, within 1e-12."""
    corners = body.corners
    assert roll_is_ccw_convex(corners, 0.0), body.label
    assert np.all(np.diff(body.polygon_angles) > 0.0), body.label
    profile = profile_of(body)
    assert abs(polygon_area(corners) - profile.area) <= 1e-12, body.label
    # each profile point's distance to the line of the chord its ray meets
    pts = profile.boundary
    idx = ray_exit(corners, body.polygon_angles,
                   np.arctan2(pts[:, 1], pts[:, 0]))[0]
    p1 = corners[idx]
    e = corners[(idx + 1) % len(corners)] - p1
    off = (e[:, 0] * (pts[:, 1] - p1[:, 1]) - e[:, 1] * (pts[:, 0] - p1[:, 0])
           ) / np.hypot(e[:, 0], e[:, 1])
    assert np.max(np.abs(off)) <= 1e-12, body.label


def test_polygonal_bodies_keep_their_exact_corners():
    for body in _polygonal_bodies():
        check_corner_polygon(body)
    # the regular hexagon end of the family has six corners, one of them
    # within 1e-12 below the sector's end
    assert len(make_h_eps(H_EPS_A_MAX).corners) == 6
    assert len(make_h_eps(0.0).corners) == 3


def test_profile_samples_a_corner_next_to_a_grid_angle():
    # a corner 1e-12 past the grid angle 0 once gave way to it in the
    # profile, and max_radius fell 1.7e-12 short of 1; the body file's
    # profile keeps both angles
    angles = 1e-12 + np.arange(3) * SECTOR
    body = _corner_body("corner",
                        np.column_stack((np.cos(angles), np.sin(angles))))
    assert abs(body.max_radius() - 1.0) <= 1e-15
    profile = profile_of(body)
    assert profile.sector_theta[0] == 0.0
    assert abs(profile.sector_theta[1] - 1e-12) <= 1e-15
    assert abs(profile.max_radius() - 1.0) <= 1e-15
    for b in (body, profile):
        assert validate(b).symmetry_ok and validate(b).coverage_ok


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_random_body_corners_are_its_hull(seed):
    check_corner_polygon(random_body(np.random.default_rng(seed)))


@pytest.mark.parametrize("make", [make_reuleaux, make_h_tilde],
                         ids=["reuleaux", "h_tilde"])
def test_curved_sweep_polygon_is_a_subset_of_the_profile(make):
    # rows of the boundary, not points rebuilt through radius_at: the
    # 256 grid angles a sector and every corner of the outline
    body = make()
    assert body.corners is None
    poly = body.sweep_polygon
    rows = {p.tobytes() for p in body.boundary}
    assert all(p.tobytes() in rows for p in poly)
    # the outline starts and ends at the same corner
    corners = np.array([seg[-2:] for seg in body.outline_hint[1:]])
    assert 3 * 256 <= len(poly) <= 3 * 256 + len(corners)
    gap = np.hypot(poly[:, None, 0] - corners[:, 0], poly[:, None, 1] - corners[:, 1])
    assert np.all(gap.min(axis=0) <= 1e-12)
    assert roll_is_ccw_convex(poly, 1e-15)


@lru_cache(maxsize=1)
def _polygon_pool():
    """The polygonal presets, regular:3 to regular:3072, 52 h_eps and 300
    random bodies."""
    rng = np.random.default_rng(5)
    return tuple([PRESETS[k]() for k in ("triangle", "hexagon", "enneagon",
                                         "dodecagon")]
                 + [make_regular_polygon(n) for n in range(1, 1025)]
                 + [make_h_eps(a) for a in np.linspace(0.0, H_EPS_A_MAX, 52)]
                 + [random_body(rng) for _ in range(300)])


def test_corner_values_equal_the_profile_values():
    # area, R and rho on a polygon's corners equal those of its sampled
    # profile, the body a polygon used to be, to the profile's rounding:
    # its shoelace over up to 6,000 points (9.3e-13 at regular:3060), and
    # two ulps of R and rho
    for body in _polygon_pool():
        profile = profile_of(body)
        assert abs(body.area - profile.area) <= 1e-12, body.label
        assert abs(body.max_radius() - profile.max_radius()) <= 7.8e-16, \
            body.label
        assert abs(body.nearest_point[1] - profile.nearest_point[1]) \
            <= 2.0 ** -52, body.label


def test_max_radius_is_the_farthest_corner():
    # a profile sampled each corner through a radius function, up to
    # 6.7e-16 below the corner's norm
    for body in _polygon_pool():
        c = body.corners
        assert body.max_radius() == float(np.max(np.hypot(c[:, 0], c[:, 1])))


def _failed(body):
    """The names of the checks of validate that fail on body."""
    report = validate(body)
    return {name for name in ("positive_ok", "symmetry_ok", "coverage_ok",
                              "convex_ok", "area_ok")
            if not getattr(report, name)}


@pytest.mark.parametrize("make", [
    lambda: make_regular_polygon(2), lambda: make_h_eps(0.3),
    lambda: random_body(np.random.default_rng(3))],
    ids=["hexagon", "h_eps", "random"])
def test_validate_rejects_a_broken_corner_list(make):
    body = make()
    c, k = body.corners, len(body.corners) // 3
    # one corner moved out by 1e-9 of its radius
    moved = c.copy()
    moved[0] *= 1.0 + 1e-9
    # a corner and its two rotations pulled in to 0.3 of their radius
    dented = c.copy()
    dented[::k] *= 0.3
    assert _failed(body) == set()
    assert _failed(SymmetricBody("moved", corners=moved)) == {"symmetry_ok"}
    assert _failed(normalize_unit_area(
        SymmetricBody("dented", corners=dented))) == {"convex_ok"}
    assert _failed(body.scaled(1.01)) == {"area_ok"}


def test_validate_rejects_corners_that_wind_four_times():
    # the star {9/4} turns left at every corner, passes the center on the
    # left of every edge and is threefold symmetric, but winds four times
    t = 2.0 * math.pi * 4 * np.arange(9) / 9
    star = normalize_unit_area(SymmetricBody(
        "star", corners=np.column_stack((np.cos(t), np.sin(t)))))
    assert _failed(star) == {"coverage_ok"}


@pytest.mark.parametrize("a, m", [(0.0, 3), (H_EPS_A_MAX, 6)])
def test_h_eps_ends_are_corner_bodies(a, m):
    # at a = 0 the short sides vanish: the six vertices are three
    # duplicate pairs, and the body keeps one of each
    body, regular = make_h_eps(a), make_regular_polygon(m // 3)
    assert len(_h_eps_vertices(a)) == 6 and len(body.corners) == m
    assert validate(body).clean and abs(body.area - 1.0) <= 1e-15
    assert abs(body.max_radius() - regular.max_radius()) <= 1e-15
    assert abs(body.nearest_point[1] - regular.nearest_point[1]) <= 1e-15
