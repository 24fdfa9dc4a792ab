import json
import math

import numpy as np
import pytest
from scipy.spatial.distance import directed_hausdorff

from test_search import _fan

from trisect.bodies import (H_EPS_A_MAX, SECTOR, SymmetricBody, h_eps_dpx,
                            h_eps_dv12, make_h_eps, make_regular_polygon,
                            solve_a0)
from trisect.cli import PRESETS
from trisect.geom import polygon_area, rotate
from trisect.render import _enclosing_triangle_corners
from trisect.trisection import (InvalidTrisectionError, Trisection,
                                closed_form_dm_standard, dm_regular_closed_form,
                                inscribed_ball_radius, max_relative_diameter,
                                standard_trisection)

SQRT3 = math.sqrt(3.0)


def triangle_contains(corners, points):
    """Whether the points lie in the triangle of counter-clockwise corners,
    up to 1e-9 past each edge."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    for a, b in zip(corners, np.roll(corners, -1, axis=0)):
        e = b - a
        side = e[0] * (pts[:, 1] - a[1]) - e[1] * (pts[:, 0] - a[0])
        if np.any(side < -1e-9 * np.hypot(*e)):
            return False
    return True


def apothem(corners):
    """Distance from the center to the midpoint of the first edge."""
    return float(np.hypot(*(0.5 * (corners[0] + corners[1]))))


def rotated(body, angle):
    """Body rotated about its center (for orientation-invariance checks):
    a polygon's corners, re-sorted CCW from the polar angle 0; a curved
    body keeps only its profile."""
    if body.corners is not None:
        corners = rotate(body.corners, angle)
        return SymmetricBody(body.label, corners=corners[np.argsort(np.mod(
            np.arctan2(corners[:, 1], corners[:, 0]), 2 * math.pi))])
    thetas = np.mod(body.sector_theta + angle, SECTOR)
    order = np.argsort(thetas)
    return SymmetricBody(body.label, sector_theta=thetas[order],
                         sector_r=body.sector_r[order])


def hausdorff(a, b):
    return max(directed_hausdorff(a, b)[0], directed_hausdorff(b, a)[0])


def test_nearest_point_hexagon(hexagon):
    _, rho = hexagon.nearest_point
    assert rho == pytest.approx(6 ** -0.5 * (1 / math.tan(math.pi / 6)) ** 0.5,
                                abs=1e-9)


def test_nearest_point_triangle(triangle):
    _, rho = triangle.nearest_point
    assert rho == pytest.approx(3 ** -0.75, abs=1e-9)


def test_nearest_point_reuleaux(reuleaux):
    a = (2 / (math.pi - SQRT3)) ** 0.5
    _, rho = reuleaux.nearest_point
    assert rho == pytest.approx(a * (1 - 1 / SQRT3), abs=1e-6)


def test_nearest_point_lies_on_boundary(hexagon):
    m, rho = hexagon.nearest_point
    theta = math.atan2(m[1], m[0])
    assert np.hypot(*m) == pytest.approx(rho, abs=1e-12)
    assert hexagon.radius_at(theta) == pytest.approx(rho, abs=1e-9)


def test_nearest_point_is_cached():
    body = make_regular_polygon(2)
    m, rho = body.nearest_point
    assert body.nearest_point[0] is m
    assert np.hypot(*m) == pytest.approx(rho, abs=1e-12)
    assert rho == inscribed_ball_radius(body)


def test_enclosing_triangle_of_triangle_is_itself(triangle):
    # the corners the renderer draws
    corners = _enclosing_triangle_corners(triangle)
    assert apothem(corners) == pytest.approx(3 ** -0.75, abs=1e-9)
    # the triangle body's own corners are the enclosing triangle's corners
    r = np.hypot(corners[:, 0], corners[:, 1])
    assert np.allclose(r, triangle.max_radius(), atol=1e-9)
    assert triangle_contains(corners, triangle.boundary)


@pytest.mark.parametrize("maker", [
    lambda: make_regular_polygon(2),
    lambda: make_h_eps(0.25),
])
def test_enclosing_triangle_contains_body(maker):
    body = maker()
    corners = _enclosing_triangle_corners(body)
    assert triangle_contains(corners, body.boundary)
    # a triangle shrunk by 1e-6 no longer contains the body
    assert not triangle_contains((1.0 - 1e-6) * corners, body.boundary)


def test_hexagon_triangle_edges_contain_alternate_edges(hexagon):
    # the enclosing triangle's apothem equals the hexagon's
    corners = _enclosing_triangle_corners(hexagon)
    assert apothem(corners) == pytest.approx(inscribed_ball_radius(hexagon),
                                             abs=1e-12)


def test_inscribed_ball_excludes_boundary(hexagon, reuleaux, h_tilde):
    for body in (hexagon, reuleaux, h_tilde):
        rho = inscribed_ball_radius(body)
        r = np.hypot(*body.boundary.T)
        assert np.all(r >= rho - 1e-9)
        assert rho <= body.max_radius()


def test_standard_trisection_endpoint_distances(hexagon):
    tri = standard_trisection(hexagon)
    rho = inscribed_ball_radius(hexagon)
    w = tri.endpoints
    for i in range(3):
        d = np.hypot(*(w[i] - w[(i + 1) % 3]))
        assert d == pytest.approx(SQRT3 * rho, abs=1e-9)


def test_standard_trisection_endpoints_on_boundary(hexagon, reuleaux):
    for body in (hexagon, reuleaux):
        for w in standard_trisection(body).endpoints:
            theta = math.atan2(w[1], w[0])
            assert body.radius_at(theta) == pytest.approx(np.hypot(*w), abs=1e-9)


def test_standard_trisection_equal_areas():
    # the fan from the center is cut on the boundary walk, so the regions
    # of the standard and of slightly rotated trisections hit A/3 exactly
    for make in PRESETS.values():
        body = make()
        A = body.area
        for tri in (standard_trisection(body),
                    _fan(body, delta=0.01), _fan(body, delta=-0.01)):
            assert np.all(np.abs(tri.region_areas() - A / 3.0)
                          <= 1e-12 * A), body.label


def test_standard_trisection_regions_congruent(hexagon):
    regions = standard_trisection(hexagon).regions
    assert hausdorff(rotate(regions[0], SECTOR), regions[1]) <= 1e-6
    assert hausdorff(rotate(regions[1], SECTOR), regions[2]) <= 1e-6


@pytest.mark.parametrize("maker,expected,tol", [
    (lambda: make_regular_polygon(1), 0.877383, 1e-4),
    (lambda: None, 0.872002, 1e-4),      # reuleaux, resolved in test
    (lambda: None, 0.769262, 1e-4),      # h_tilde, resolved in test
])
def test_dm_geometric_reference_values(maker, expected, tol, reuleaux, h_tilde):
    body = maker()
    if body is None:
        body = reuleaux if abs(expected - 0.872002) < 1e-9 else h_tilde
    dm = max_relative_diameter(body, standard_trisection(body))
    assert dm == pytest.approx(expected, abs=tol)


def test_dm_rejects_bad_areas(hexagon, monkeypatch):
    tri = standard_trisection(hexagon)
    sq = np.array([(0, 0), (0.3, 0), (0.3, 0.3), (0, 0.3)])
    regions = tri.regions
    monkeypatch.setattr(Trisection, "regions",
                        property(lambda t: (sq, regions[1], regions[2])))
    with pytest.raises(InvalidTrisectionError):
        max_relative_diameter(hexagon, tri)


def test_closed_form_hexagon(hexagon):
    assert closed_form_dm_standard(hexagon) == pytest.approx(0.930605, abs=1e-5)
    # endpoint distance dominates the circumradius
    assert hexagon.max_radius() == pytest.approx(0.620403, abs=1e-5)


def test_closed_form_triangle(triangle):
    assert closed_form_dm_standard(triangle) == pytest.approx(0.877383, abs=1e-5)
    assert SQRT3 * inscribed_ball_radius(triangle) == pytest.approx(
        0.759836, abs=1e-5)


def test_closed_form_reuleaux(reuleaux):
    assert closed_form_dm_standard(reuleaux) == pytest.approx(0.872002, abs=1e-4)


@pytest.mark.parametrize("m,expected", [
    (3, 0.877383), (6, 0.930605), (9, 0.956988),
])
def test_dm_regular_closed_form_values(m, expected):
    assert dm_regular_closed_form(m) == pytest.approx(expected, abs=1e-5)


def test_dm_regular_closed_form_rejects_bad_m():
    for m in (0, 4, -3):
        with pytest.raises(ValueError):
            dm_regular_closed_form(m)


def test_closed_form_matches_regular_formula():
    for n in range(1, 8):
        body = make_regular_polygon(n)
        assert closed_form_dm_standard(body) == pytest.approx(
            dm_regular_closed_form(3 * n), abs=1e-9)


def test_endpoint_vs_vertex_regimes():
    # only the triangle is vertex-driven; every larger 3n-gon is
    # endpoint-driven
    tri = make_regular_polygon(1)
    assert tri.max_radius() > SQRT3 * inscribed_ball_radius(tri)
    for m in range(6, 61, 3):
        body = make_regular_polygon(m // 3)
        assert SQRT3 * inscribed_ball_radius(body) > body.max_radius()


def test_h_eps_dpx_values():
    assert h_eps_dpx(0.0) == pytest.approx(0.877383, abs=1e-5)
    assert h_eps_dpx(solve_a0()) == pytest.approx(0.769616, abs=1e-5)


def test_h_eps_dv12_values():
    assert h_eps_dv12(0.0) == pytest.approx(0.759836, abs=1e-5)
    assert h_eps_dv12(solve_a0()) == pytest.approx(0.769616, abs=1e-5)


def test_h_eps_dv12_equals_half_outer_side():
    from trisect.bodies import h_eps_side_b
    for a in np.linspace(0, H_EPS_A_MAX, 23):
        assert h_eps_dv12(a) == pytest.approx(
            (h_eps_side_b(a) + 2 * a) / 2.0, abs=1e-12)


def test_h_eps_dv12_monotone_increasing():
    vals = [h_eps_dv12(a) for a in np.linspace(0, H_EPS_A_MAX, 64)]
    assert np.all(np.diff(vals) > 0)


def test_h_eps_closed_forms_match_geometry():
    for a in (0.05, 0.2, 0.45, 0.6):
        body = make_h_eps(a)
        assert body.max_radius() == pytest.approx(h_eps_dpx(a), abs=1e-6)
        # endpoint separation = sqrt(3) * apothem of the enclosing triangle
        assert SQRT3 * inscribed_ball_radius(body) == pytest.approx(
            h_eps_dv12(a), abs=1e-6)


def test_h_eps_closed_forms_reject_out_of_range():
    for a in (-0.01, H_EPS_A_MAX + 0.01):
        with pytest.raises(ValueError):
            h_eps_dpx(a)
        with pytest.raises(ValueError):
            h_eps_dv12(a)


def test_solve_a0(h_tilde):
    # the 30-digit root of 1863 a^4 + 1368 sqrt(3) a^2 - 48, to a few ulps
    a0, root = solve_a0(), 0.1412272060627213887
    assert abs(a0 - root) <= 4 * math.ulp(root)
    assert abs(h_eps_dpx(a0) - h_eps_dv12(a0)) <= 4 * math.ulp(h_eps_dv12(a0))
    # so on the optimal set the two lemma floors coincide
    floor = SQRT3 * inscribed_ball_radius(h_tilde)
    assert abs(h_tilde.max_radius() - floor) <= 8 * math.ulp(floor)


def test_h_tilde_attains_its_floor_exactly(h_tilde):
    # R is the boundary polygon's farthest point, which the standard
    # trisection's regions hold: their exact d_M is the closed form
    dm = max_relative_diameter(h_tilde, standard_trisection(h_tilde))
    assert dm == closed_form_dm_standard(h_tilde)


def test_dm_invariant_under_symmetry_rotation(hexagon, reuleaux):
    for body in (hexagon, reuleaux):
        base = closed_form_dm_standard(body)
        for k in (1, 2):
            assert closed_form_dm_standard(rotated(body, k * SECTOR)) \
                == pytest.approx(base, abs=1e-9)


def test_dm_orientation_independent(hexagon):
    base = closed_form_dm_standard(hexagon)
    rng = np.random.default_rng(9)
    for angle in rng.uniform(0, 2 * math.pi, 16):
        assert closed_form_dm_standard(rotated(hexagon, angle)) \
            == pytest.approx(base, abs=1e-9)


def test_dm_scales_linearly(hexagon):
    base = closed_form_dm_standard(hexagon)
    for lam in (0.5, 2.0, 3.7):
        assert closed_form_dm_standard(hexagon.scaled(lam)) \
            == pytest.approx(lam * base, abs=1e-9)


def test_dm_quotient_invariant_under_prescale(hexagon):
    base = closed_form_dm_standard(hexagon) ** 2 / hexagon.area
    scaled = hexagon.scaled(2.0)
    assert closed_form_dm_standard(scaled) ** 2 / scaled.area \
        == pytest.approx(base, abs=1e-9)


def test_closed_form_vs_geometric_pipeline(hexagon, reuleaux, h_tilde):
    for body in (hexagon, reuleaux, h_tilde, make_h_eps(0.1)):
        dm_geo = max_relative_diameter(body, standard_trisection(body))
        assert abs(dm_geo - closed_form_dm_standard(body)) <= 2e-4


def test_trisection_serialization(hexagon):
    tri = standard_trisection(hexagon)
    doc = tri.to_dict(dm=closed_form_dm_standard(hexagon))
    text = json.dumps(doc, sort_keys=True)
    back = json.loads(text)
    assert back["dm"] == pytest.approx(0.930605, abs=1e-5)
    assert len(back["curves"]) == 3
    assert len(back["endpoint_angles"]) == 3
    assert np.allclose(back["region_areas"], 1 / 3, atol=1e-6)
    assert json.dumps(back, sort_keys=True) == text


def test_region_areas_sum_to_body_area(hexagon):
    tri = standard_trisection(hexagon)
    assert tri.region_areas().sum() == pytest.approx(hexagon.area, abs=1e-9)


def test_regions_cover_area_of_polygon_area_check(hexagon):
    region = standard_trisection(hexagon).regions[0]
    assert polygon_area(region) == pytest.approx(1 / 3, abs=1e-6)
