"""End-to-end verification gate.

Each test prints one PASS/FAIL line so the suite doubles as a checklist
when run with ``pytest -v -s tests/test_acceptance.py``.
"""
import math
import time

import numpy as np
import pytest

from test_geom import naive_hull_vertices

from trisect.bodies import (H_EPS_A_MAX, make_h_eps, make_h_tilde,
                            make_regular_polygon, make_reuleaux, random_body,
                            h_eps_side_b, solve_a0, validate)
from trisect import search
from trisect.geom import convex_hull, points_diameter, polygon_diameter
from trisect.search import (SweepGrid, antipodal_gap, default_c_points,
                            functional_quotient, sweep_h_eps,
                            sweep_segment_trisections, uniqueness_probe)
from trisect.trisection import (closed_form_dm_standard,
                                inscribed_ball_radius, max_relative_diameter,
                                standard_trisection)

SQRT3 = math.sqrt(3.0)


def report(name, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'}  {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def named_bodies():
    return {
        "triangle": make_regular_polygon(1),
        "hexagon": make_regular_polygon(2),
        "reuleaux": make_reuleaux(),
        "h_tilde": make_h_tilde(),
    }


def test_criterion_1_constants(named_bodies):
    t0 = time.perf_counter()
    a0 = solve_a0()
    table = sweep_h_eps(4001)
    checks = [
        (closed_form_dm_standard(named_bodies["triangle"]), 0.877383, 1e-5),
        (a0, 0.141227, 1e-5),
        (float(table[:, 3].min()), 0.769616, 1e-5),
        (closed_form_dm_standard(named_bodies["reuleaux"]), 0.872002, 1e-4),
        (closed_form_dm_standard(named_bodies["h_tilde"]), 0.769262, 1e-4),
        (functional_quotient(named_bodies["h_tilde"]), 0.591764, 2e-4),
    ]
    elapsed = time.perf_counter() - t0
    ok = all(abs(got - want) <= tol for got, want, tol in checks)
    report("criterion 1: closed-form constants", ok and elapsed < 1.0,
           f"{elapsed:.2f}s")


def test_criterion_2_closed_form_vs_geometric(named_bodies):
    t0 = time.perf_counter()
    pool = [named_bodies["triangle"], named_bodies["hexagon"],
            make_regular_polygon(3), make_regular_polygon(4),
            named_bodies["reuleaux"], named_bodies["h_tilde"]]
    pool += [make_h_eps(a) for a in np.linspace(0.0, H_EPS_A_MAX, 10)]
    worst = 0.0
    for body in pool:
        dm_geo = max_relative_diameter(body, standard_trisection(body))
        worst = max(worst, abs(dm_geo - closed_form_dm_standard(body)))
    elapsed = time.perf_counter() - t0
    report("criterion 2: geometric pipeline matches closed form",
           worst <= 2e-4 and elapsed < 30.0,
           f"max |diff|={worst:.2e}, {elapsed:.1f}s")


@pytest.fixture(scope="module")
def sweep_reports(named_bodies):
    reports = {}
    rng = np.random.default_rng(42)
    for label, body in named_bodies.items():
        grid = SweepGrid(c_points=default_c_points(body, 50, rng),
                         theta1_count=120)
        reports[label] = sweep_segment_trisections(body, grid)
    return reports


def test_criterion_3_minimality_sweeps(named_bodies, sweep_reports):
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(7)
    for label, body in named_bodies.items():
        rep = sweep_reports[label]
        if rep.violations:
            failures.append(f"{label}: {len(rep.violations)} segment cells")
        floor = closed_form_dm_standard(body) - 1e-3
        rho = inscribed_ball_radius(body)
        # 500 polyline probes, each drawn as r, phi, theta1, three jitters
        probes = []
        for _ in range(500):
            r = 0.8 * rho * math.sqrt(rng.uniform())
            phi = rng.uniform(0, 2 * math.pi)
            theta1 = rng.uniform(0, 2 * math.pi)
            probes.append([r * math.cos(phi), r * math.sin(phi), theta1,
                           *rng.uniform(-0.02, 0.02, 3)])
        probes = np.array(probes)
        c, jitter = probes[:, :2], probes[:, 3:]
        # solved in one call, scored where d_M can be below the floor
        cells = search._solve_cells(body.boundary, c, probes[:, 2:3],
                                    lambda rows: jitter[rows])
        solved = np.flatnonzero(cells.stage == 0)
        if len(solved) < len(probes):
            failures.append(f"{label}: {len(probes) - len(solved)} polyline "
                            "probes unsolved")
        if len(solved):
            below = solved[search._cells_dm(cells, floor) < floor]
            if len(below):
                failures.append(f"{label}: polyline probe at c={c[below[0]]}")
    elapsed = time.perf_counter() - t0
    report("criterion 3: no trisection beats the standard one",
           not failures, f"{elapsed:.0f}s" +
           (f"; {failures}" if failures else ""))


def test_criterion_4_lemma_floors(sweep_reports):
    worst = min(rep.floor_margin for rep in sweep_reports.values())
    report("criterion 4: every swept d_M above max(R, sqrt(3) rho)",
           worst >= -1e-6, f"min margin={worst:.2e}")


@pytest.fixture(scope="module")
def candidate_pool(named_bodies):
    pool = list(named_bodies.values())
    pool += [make_h_eps(a) for a in np.linspace(0.0, H_EPS_A_MAX, 40)]
    rng = np.random.default_rng(42)
    pool += [random_body(rng) for _ in range(100)]
    return pool


def test_criterion_5_quotient_bound(named_bodies, candidate_pool):
    t0 = time.perf_counter()
    bound = functional_quotient(named_bodies["h_tilde"])
    quotients = [functional_quotient(b) for b in candidate_pool]
    below = [q for q in quotients if q < 0.591764 - 1e-4]
    near = [b.label for b, q in zip(candidate_pool, quotients)
            if abs(q - bound) <= 1e-4]
    elapsed = time.perf_counter() - t0
    ok = not below and near == ["h_tilde"] and elapsed < 60.0
    report("criterion 5: quotient bound holds, equality only at the optimum",
           ok, f"bound={bound:.6f}, {len(candidate_pool)} bodies, "
           f"{elapsed:.0f}s")


def test_criterion_6_antipodal(candidate_pool):
    worst = min(antipodal_gap(b) for b in candidate_pool)
    report("criterion 6: antipodal chords at least sqrt(3) rho",
           worst >= -1e-6, f"min gap={worst:.2e}")


def test_criterion_7_non_uniqueness(named_bodies):
    hex_hits = uniqueness_probe(named_bodies["hexagon"], samples=20, seed=42)
    tri_hits = uniqueness_probe(named_bodies["triangle"], samples=20, seed=42)
    ok = len(hex_hits) >= 1 and len(tri_hits) >= 1
    report("criterion 7: minimizer is not unique",
           ok, f"hexagon {len(hex_hits)}, triangle {len(tri_hits)} variants")


def test_criterion_8_oracles():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        pts = rng.standard_normal((rng.integers(5, 40), 2))
        try:
            hull = convex_hull(pts)
        except Exception:
            continue
        worst = max(worst, abs(polygon_diameter(hull)
                               - points_diameter(hull)))
    diam_ok = worst <= 1e-12

    hull_ok = True
    for _ in range(200):
        pts = rng.standard_normal((30, 2))
        try:
            hull = convex_hull(pts)
        except Exception:
            continue
        expected = {tuple(p) for p in naive_hull_vertices(pts)}
        got = {tuple(p) for p in hull}
        if got != expected:
            hull_ok = False
            break

    area_ok = True
    for a in np.linspace(0.0, H_EPS_A_MAX, 97):
        b = h_eps_side_b(a)
        if abs(SQRT3 / 4.0 * ((b + 2 * a) ** 2 - 3 * a ** 2) - 1.0) > 1e-10:
            area_ok = False
            break

    report("criterion 8: oracle equivalences",
           diam_ok and hull_ok and area_ok,
           f"calipers diff={worst:.1e}, hull match={hull_ok}, "
           f"area identity={area_ok}")

