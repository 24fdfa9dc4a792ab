"""A BodyStack computes what its bodies give one at a time, bit for bit:
rho, R, the standard cut, its d_M, the antipodal gaps and validate's
reports, on a pool of bodies of 3 to 3,072 corners and of profiles, a
stack for each kind and point count."""

import math
from functools import lru_cache

import numpy as np
import pytest

from test_bodies import (einsum_nearest_point, interleaved_ray_chord_radius,
                         profile_of)
from test_search import _fan, _harsh_body

from trisect import search
from trisect.bodies import (H_EPS_A_MAX, SECTOR, BodyStack, SymmetricBody,
                            make_h_eps, make_regular_polygon,
                            normalize_unit_area, per_body, random_body,
                            stacks, validate)
from trisect.cli import PRESETS
from trisect.search import antipodal_gap, lemma_floor_checks, trisection_dm
from trisect.trisection import (closed_form_dm_standard, standard_cells,
                                standard_trisection)

SAMPLES = 1024


@lru_cache(maxsize=1)
def _pool():
    """The presets, h_tilde's body file (a stack of two with h_tilde) and
    reuleaux scaled by 1.1 (with reuleaux), every 7th of regular:3 to
    regular:3069 and regular:3072, 52 h_eps from a = 0 to H_EPS_A_MAX,
    300 random and 20 harsh bodies."""
    rng, harsh = np.random.default_rng(5), np.random.default_rng(9)
    return tuple(
        [make() for make in PRESETS.values()]
        + [profile_of(PRESETS["h_tilde"]()), PRESETS["reuleaux"]().scaled(1.1)]
        + [make_regular_polygon(n) for n in [*range(1, 1025, 7), 1024]]
        + [make_h_eps(a) for a in np.linspace(0.0, H_EPS_A_MAX, 52)]
        + [random_body(rng) for _ in range(300)]
        + [_harsh_body(list(zip(harsh.uniform(0.0, SECTOR, count),
                                harsh.uniform(0.2, 2.0, count))))
           for count in harsh.integers(1, 12, 20)])


@lru_cache(maxsize=1)
def _pairs():
    return stacks(_pool())


def _rows():
    """(body, stack, row) for every pool body."""
    return [(stack.bodies[r], stack, r) for _, stack in _pairs()
            for r in range(len(stack.bodies))]


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


def test_stacks_group_bodies_by_corner_count():
    # every pool body is in exactly one stack, at its row; a stack's
    # bodies share one kind (corners or profile) and one point count,
    # which no other stack has
    pool, pairs = _pool(), _pairs()
    assert sorted(i for rows, _ in pairs for i in rows) == list(
        range(len(pool)))
    kinds = []
    for rows, stack in pairs:
        assert [pool[i] for i in rows] == list(stack.bodies)
        kind, = {b.corners is None for b in stack.bodies}
        assert {len(b.boundary) for b in stack.bodies} == {stack.n}
        kinds.append((kind, stack.n))
    assert len(kinds) == len(set(kinds)) and max(map(len, (
        rows for rows, _ in pairs))) >= 100
    # reuleaux and h_tilde each stack with a profile of their point count
    assert sorted(len(stack.bodies) for _, stack in pairs
                  if stack.bodies[0].corners is None) == [2, 2]


def test_a_stack_holds_bodies_of_one_point_count():
    triangle, hexagon = make_regular_polygon(1), make_regular_polygon(2)
    stack = BodyStack((triangle, triangle.scaled(2.0)))
    assert stack.n == 3 and type(stack.n) is int
    assert stack.pts.shape == (2, 3, 2)
    # a profile body counts its boundary's points
    for bodies in ((triangle, hexagon), (hexagon, triangle),
                   (PRESETS["reuleaux"](), triangle), ()):
        with pytest.raises(ValueError, match="one point count"):
            BodyStack(bodies)


def test_a_stack_of_profile_bodies_gives_each_row_its_own_values():
    # R, validate and the closed-form d_M have one entry a row, each what
    # the row's body gives alone; a profile body does not stack with a
    # corner body of its point count
    reuleaux = PRESETS["reuleaux"]()
    bodies = (reuleaux, reuleaux.scaled(1.1))
    stack = BodyStack(bodies)
    assert _bits(stack.max_radius) == _bits([b.max_radius() for b in bodies])
    assert _bits(closed_form_dm_standard(stack)) == _bits(
        [closed_form_dm_standard(b) for b in bodies])
    assert validate(stack) == tuple(validate(b) for b in bodies)
    assert [r.clean for r in validate(stack)] == [True, False]
    corners = make_regular_polygon(stack.n // 3)
    assert len(corners.boundary) == stack.n
    for pair in ((reuleaux, corners), (corners, reuleaux)):
        with pytest.raises(ValueError, match="not both"):
            BodyStack(pair)


def test_rho_and_r_equal_one_body_at_a_time():
    for body, stack, r in _rows():
        feet, rho = stack.nearest_point
        want, want_rho = einsum_nearest_point(body)
        assert _bits(feet[r]) == _bits(want), body.label
        assert _bits(rho[r]) == _bits(want_rho), body.label
        alone, alone_rho = body.nearest_point
        assert _bits(alone) == _bits(want) and alone_rho == want_rho
        big_r = np.max(np.hypot(body.boundary[:, 0], body.boundary[:, 1]))
        assert _bits(stack.max_radius[r]) == _bits(big_r), body.label
        assert body.max_radius() == big_r


def _scored(monkeypatch):
    """A list that gets the arguments and the result of each search._dm
    call: the cells lemma_floor_checks scores and their d_M."""
    calls, real = [], search._dm
    monkeypatch.setattr(search, "_dm", lambda *args: calls.append(
        (*args, real(*args))) or calls[-1][-1])
    return calls


def test_standard_cut_and_its_dm_equal_one_body_at_a_time(monkeypatch):
    # the reference is the fan of a walk about the centre on the body's
    # own polygon, d_M over its regions' points by points_diameter
    calls = _scored(monkeypatch)
    for _, stack in _pairs():
        cells = standard_cells(stack)
        calls.clear()
        lemma_floor_checks(stack)
        (*_, dm), = calls
        for r, body in enumerate(stack.bodies):
            want = _fan(body)
            verts, start, length = (a[r] for a in cells)
            assert _bits(verts) == _bits(want.verts), body.label
            assert np.array_equal(start, want.start), body.label
            assert np.array_equal(length, want.length), body.label
            alone = standard_trisection(body)
            assert _bits(alone.verts) == _bits(want.verts)
            assert np.array_equal(alone.start, want.start)
            assert alone.pts is body.boundary
            assert _bits(dm[r]) == _bits(trisection_dm(want)), body.label


def test_the_nearest_angle_is_math_atan2s():
    # numpy's arctan2 differs from math.atan2 in the last bit at some
    # nearest points of the pool, so taking it would move their cuts
    moved = [body.label for body, stack, r in _rows()
             if np.arctan2(*stack.nearest_point[0][r, ::-1])
             != math.atan2(*stack.nearest_point[0][r, ::-1])]
    assert moved


def test_runs_wrap_at_the_rows_own_corner_count(monkeypatch):
    # lemma_floor_checks scores a stack of one on its body's boundary
    # itself, whose runs wrap at its n, and a larger stack's runs on its
    # rows taken twice over: a run that passes the row's last corner goes
    # on at its corner 0, not into the next row, and no run passes the end
    calls = _scored(monkeypatch)
    wraps = 0
    for _, stack in _pairs():
        _, own, _ = standard_cells(stack)
        calls.clear()
        lemma_floor_checks(stack)
        (pts, _, start, length, _), = calls
        if len(stack.bodies) == 1:
            assert np.shares_memory(pts, stack.bodies[0].boundary)
        else:
            assert np.all(start + length <= len(pts))
        for r, body in enumerate(stack.bodies):
            n = len(body.boundary)
            wraps += np.count_nonzero(own[r] + length[r] > n)
            for j in range(3):
                run = (start[r, j] + np.arange(length[r, j])) % len(pts)
                idx = (own[r, j] + np.arange(length[r, j])) % n
                assert _bits(pts[run]) == _bits(body.boundary[idx]), \
                    body.label
    assert wraps >= 100


def test_floors_equal_one_body_at_a_time():
    got = per_body(lemma_floor_checks, _pairs())
    assert all(got)
    for body, passed in zip(_pool()[::9], got[::9]):
        assert lemma_floor_checks(body) is True
        dm = trisection_dm(_fan(body))
        floor = closed_form_dm_standard(body)
        assert bool(passed) == (abs(dm - floor) <= search.ATTAIN_TOL * floor)


def _reference_gap(body):
    """The least of SAMPLES chords through the centre at even angles by the
    interleaved ray cast, less sqrt(3) rho, one body alone."""
    thetas = np.arange(SAMPLES) * math.pi / SAMPLES
    r = interleaved_ray_chord_radius(body.boundary, body.polygon_angles[0],
                                     np.concatenate((thetas, thetas + math.pi)))
    return np.min(r[:SAMPLES] + r[SAMPLES:]) - math.sqrt(3.0) * \
        body.nearest_point[1]


def test_antipodal_gaps_equal_one_body_at_a_time():
    got = per_body(antipodal_gap, _pairs())
    for body, gap in zip(_pool(), got):
        assert _bits(antipodal_gap(body)) == _bits(gap), body.label
        # the exact least chord is at most every sampled one, but for the
        # rounding of a sample at a corner's angle, which is an end value
        assert gap <= _reference_gap(body) + 1e-15, body.label


def _broken():
    """Corner lists validate rejects: a corner moved off symmetry, three
    dented, one scaled off unit area, a star winding four times, and a
    stray corner count."""
    hexagon = make_regular_polygon(2)
    moved, dented = hexagon.corners.copy(), hexagon.corners.copy()
    moved[0] *= 1.0 + 1e-9
    dented[::2] *= 0.3
    t = 2.0 * math.pi * 4 * np.arange(9) / 9
    return [SymmetricBody("moved", corners=moved),
            normalize_unit_area(SymmetricBody("dented", corners=dented)),
            hexagon.scaled(1.01),
            normalize_unit_area(SymmetricBody(
                "star", corners=np.column_stack((np.cos(t), np.sin(t))))),
            normalize_unit_area(SymmetricBody(
                "five", corners=hexagon.corners[:5]))]


def test_validate_reports_equal_one_body_at_a_time():
    # broken bodies stacked with clean ones keep their reports, and leave
    # every other row's report clean
    bodies = list(_pool()[:60]) + _broken() + list(_pool()[60:120])
    got = per_body(validate, stacks(bodies))
    assert got == [validate(body) for body in bodies]
    assert [r.clean for r in got] == [b.label not in (
        "moved", "dented", "star", "five") and b.area == pytest.approx(
            1.0, abs=1e-6) for b in bodies]
    # the hexagons: three broken, the others clean
    six = [i for i, b in enumerate(bodies) if len(b.boundary) == 6]
    reports = validate(BodyStack(tuple(bodies[i] for i in six)))
    assert reports == tuple(got[i] for i in six)
    assert 3 == sum(not r.clean for r in reports) < len(reports)
