"""Command-line interface: d_M evaluation, sweeps, verification, figures."""

import argparse
import json
import math
import sys

import numpy as np

from . import bodies
from .bodies import (h_eps_dpx, h_eps_dv12, load_body, make_h_eps,
                     make_h_tilde, make_regular_polygon, make_reuleaux,
                     per_body, solve_a0, stacks, validate)
from .render import render_svg
from .search import (InfeasibleConfigurationError, SweepGrid, antipodal_gap,
                     check_magnitude, default_c_points, functional_quotient,
                     lemma_floor_checks, sweep_h_eps,
                     sweep_segment_trisections, verify_h_tilde_optimal)
from .trisection import (closed_form_dm_standard, dm_regular_closed_form,
                         inscribed_ball_radius, max_relative_diameter,
                         standard_trisection)

PRESETS = {
    "triangle": lambda: make_regular_polygon(1),
    "hexagon": lambda: make_regular_polygon(2),
    "enneagon": lambda: make_regular_polygon(3),
    "dodecagon": lambda: make_regular_polygon(4),
    "reuleaux": make_reuleaux,
    "h_tilde": make_h_tilde,
}

# regular:<m> keeps its m corners; a huge m would exhaust memory
MAX_REGULAR_M = 3_072
# Caps on the options that size an array or a list; a sweep holds < 1 kB a cell
MAX_GRID_C = 1_000
MAX_GRID_THETA = 1_440
MAX_HEPS_COUNT = 100_000        # rows of the heps table
MAX_POOL_BODIES = 1_000         # verify's --heps-samples and --random, each
MAX_ANTIPODAL_SAMPLES = 65_536  # verify's directions per body
MAX_TABLE_M = 300_000           # table --max-m: 100,000 rows, as heps --count
MAX_SEED = 2 ** 63 - 1          # numpy's generators take seeds from 0 up
# (lo, hi) of every integer option, by argparse dest; main checks them all
INT_BOUNDS = {
    "grid_c": (1, MAX_GRID_C),
    "grid_theta": (8, MAX_GRID_THETA),
    "count": (16, MAX_HEPS_COUNT),
    "samples": (64, MAX_ANTIPODAL_SAMPLES),
    "heps_samples": (0, MAX_POOL_BODIES),
    "random": (0, MAX_POOL_BODIES),
    "max_m": (3, MAX_TABLE_M),
    "seed": (0, MAX_SEED),
}


def resolve_body(spec, parser):
    if spec in PRESETS:
        return PRESETS[spec]()
    if spec.startswith("h_eps:"):
        try:
            return make_h_eps(float(spec.split(":", 1)[1]))
        except ValueError as exc:
            parser.error(f"bad body {spec!r}: {exc}")
    if spec.startswith("regular:"):
        try:
            m = int(spec.split(":", 1)[1])
        except ValueError:
            parser.error(f"regular:<m> needs an integer, got {spec!r}")
        if m % 3 != 0 or not 3 <= m <= MAX_REGULAR_M:
            parser.error(f"regular:<m> needs a multiple of 3 from 3 to "
                         f"{MAX_REGULAR_M}, got {spec!r}")
        return make_regular_polygon(m // 3)
    if spec.endswith(".json"):
        try:
            return load_body(spec)
        except (OSError, KeyError, TypeError, ValueError,
                OverflowError) as exc:
            parser.error(f"cannot load body file {spec}: {exc}")
    parser.error(f"unknown body preset {spec!r}")


def _checked_body(spec, parser):
    """resolve_body for the commands that compute with the body: a custom
    body that fails validate is a usage error, not a number."""
    body = resolve_body(spec, parser)
    if spec.endswith(".json"):
        report = validate(body)
        if not report.clean:
            parser.error(f"invalid body {spec}: " + "; ".join(report.messages))
    return body


def dumps(doc):
    """Canonical JSON (stable byte output for round-tripping)."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _write(text, out_path):
    """Write a command's output to out_path or stdout; a path that cannot
    be written is a usage error."""
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"cannot write {out_path}: {exc.strerror or exc}", file=sys.stderr)
        sys.exit(2)


def cmd_dm(args, parser):
    body = _checked_body(args.body, parser)
    rho = inscribed_ball_radius(body)
    big_r = body.max_radius()
    dm_closed = closed_form_dm_standard(body)
    dm_geom = max_relative_diameter(body, standard_trisection(body))
    doc = {
        "body": body.label,
        "rho": rho,
        "R": big_r,
        "dv12": math.sqrt(3.0) * rho,
        "dm_closed_form": dm_closed,
        "dm_geometric": dm_geom,
        "quotient": functional_quotient(body),
    }
    if args.format == "json":
        _write(dumps({k: (round(v, 12) if isinstance(v, float) else v)
                      for k, v in doc.items()}), args.out)
    else:
        lines = [f"{k}={v:.6f}" if isinstance(v, float) else f"{k}={v}"
                 for k, v in doc.items()]
        _write("\n".join(lines) + "\n", args.out)
    return 0


def cmd_sweep(args, parser):
    try:
        check_magnitude(args.magnitude)
    except ValueError as exc:
        parser.error(f"--{exc}")
    body = _checked_body(args.body, parser)
    rng = np.random.default_rng(args.seed)
    grid = SweepGrid(c_points=default_c_points(body, args.grid_c, rng),
                     theta1_count=args.grid_theta,
                     curve_mode=args.mode,
                     perturbation_magnitude=args.magnitude)
    try:
        report = sweep_segment_trisections(body, grid, seed=args.seed)
    except InfeasibleConfigurationError as exc:
        print(f"sweep infeasible: {exc}", file=sys.stderr)
        return 1
    _write(dumps(report.to_dict()), args.out)
    return 0 if not report.violations else 1


def cmd_heps(args, parser):
    rows = sweep_h_eps(args.count)
    lines = ["a,dpx,dv12,dm"]
    lines += [",".join(f"{v:.6f}" for v in row) for row in rows]
    a0 = solve_a0()
    lines.append(f"a0={a0:.6f}")
    lines.append(f"dm_min={max(h_eps_dpx(a0), h_eps_dv12(a0)):.6f}")
    _write("\n".join(lines) + "\n", args.out)
    return 0


def cmd_render(args, parser):
    body = _checked_body(args.body, parser)
    tri = None
    if args.what == "standard":
        tri = standard_trisection(body)
    elif args.what == "sweep_argmin":
        rng = np.random.default_rng(args.seed)
        grid = SweepGrid(c_points=default_c_points(body, args.grid_c, rng),
                         theta1_count=args.grid_theta)
        tri = sweep_segment_trisections(body, grid, seed=args.seed).argmin
    _write(render_svg(body, what=args.what, trisection=tri), args.out)
    return 0


def _verify_pool(args, parser):
    pool = [PRESETS[k]() for k in ("triangle", "hexagon", "enneagon", "reuleaux")]
    a_vals = np.linspace(0.0, bodies.H_EPS_A_MAX, args.heps_samples)
    pool += [make_h_eps(a) for a in a_vals]
    rng = np.random.default_rng(args.seed)
    pool += [bodies.random_body(rng) for _ in range(args.random)]
    pool.append(make_h_tilde())
    if args.body:
        pool.append(resolve_body(args.body, parser))
    return pool


def cmd_verify(args, parser):
    pool = _verify_pool(args, parser)
    lines = []
    ok = True

    def check(name, passed, detail=""):
        nonlocal ok
        ok &= passed
        lines.append(f"{'PASS' if passed else 'FAIL'} {name}"
                     + (f" ({detail})" if detail else ""))

    reports = per_body(validate, stacks(pool))
    for body, report in zip(pool, reports):
        check(f"validate[{body.label}]", report.clean, "; ".join(report.messages))
    valid_pool = [body for body, report in zip(pool, reports) if report.clean]

    opt = verify_h_tilde_optimal(valid_pool)
    check("quotient-bound", opt.all_pass,
          f"bound={opt.bound:.6f}, failures={opt.failures}")
    equal = [label for label, _, eq in opt.entries if eq]
    check("quotient-equality-only-at-h_tilde",
          all(lbl == "h_tilde" for lbl in equal), f"equal={equal}")

    valid = stacks(valid_pool)
    for body, gap in zip(valid_pool, per_body(antipodal_gap, valid,
                                              args.samples)):
        check(f"antipodal[{body.label}]", gap >= -1e-6, f"gap={gap:.2e}")
    for body, passed in zip(valid_pool, per_body(lemma_floor_checks, valid)):
        check(f"floors[{body.label}]", passed)

    _write("\n".join(lines) + "\n", args.out)
    return 0 if ok else 1


def cmd_table(args, parser):
    lines = ["m,dm"]
    for m in range(3, args.max_m + 1, 3):
        lines.append(f"{m},{dm_regular_closed_form(m):.6f}")
    _write("\n".join(lines) + "\n", args.out)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="trisect",
        description="Standard trisections of 3-rotationally symmetric convex "
                    "bodies and the maximum relative diameter functional.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, body=True):
        if body:
            p.add_argument("--body", required=True,
                           help="preset (triangle, hexagon, enneagon, dodecagon, "
                                "reuleaux, h_eps:<a>, h_tilde, regular:<m>) "
                                "or a .json profile file")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--seed", type=int, default=42)

    p = sub.add_parser("dm", help="evaluate d_M for one body")
    common(p)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=cmd_dm)

    p = sub.add_parser("sweep", help="brute-force minimality sweep")
    common(p)
    p.add_argument("--grid-c", type=int, default=50)
    p.add_argument("--grid-theta", type=int, default=120)
    p.add_argument("--mode", choices=("segments", "perturbed_polylines"),
                   default="segments")
    p.add_argument("--magnitude", type=float, default=0.02)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("heps", help="table over the alternating-hexagon family")
    common(p, body=False)
    p.add_argument("--count", type=int, default=64)
    p.set_defaults(func=cmd_heps)

    p = sub.add_parser("render", help="emit an SVG figure")
    common(p)
    p.add_argument("--what", choices=("body", "standard", "triangle",
                                      "sweep_argmin"), default="body")
    p.add_argument("--grid-c", type=int, default=12)
    p.add_argument("--grid-theta", type=int, default=24)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("verify", help="run the property checks over a pool")
    common(p, body=False)
    p.add_argument("--body", default=None, help="extra body to add to the pool")
    p.add_argument("--heps-samples", type=int, default=40)
    p.add_argument("--random", type=int, default=100)
    p.add_argument("--samples", type=int, default=1024)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("table", help="d_M of unit-area regular 3n-gons")
    common(p, body=False)
    p.add_argument("--max-m", type=int, default=60)
    p.set_defaults(func=cmd_table)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    for dest, (lo, hi) in INT_BOUNDS.items():
        value = getattr(args, dest, None)
        if value is not None and not lo <= value <= hi:
            parser.error(f"--{dest.replace('_', '-')} must be at least {lo} "
                         f"and at most {hi}")
    return args.func(args, parser)


if __name__ == "__main__":
    sys.exit(main())
