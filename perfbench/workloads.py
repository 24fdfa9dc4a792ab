"""The benchmark's workloads, their timed phase and their checks.

Each workload builds a fixed list of items from its seed (set-up), runs
every item once per round in the timed phase, and checks the outputs
afterwards.  Every round repeats the same inputs, so every round must
produce the same output: the full checks run on the first round's output,
and a later round whose output differs counts all its ops as failed.

Program functions are always reached through their module attribute
(``trisect.cli.main``, ``trisect.search.perturbed_polyline_trisection``)
so that the traced run's wrappers see every call.
"""

import contextlib
import io
import json
import math
import re
import statistics
import time

import numpy as np

import oracle
import trisect
import trisect.bodies
import trisect.cli
import trisect.geom
import trisect.search
import trisect.trisection

CRITERION_3_BODIES = ("triangle", "hexagon", "reuleaux", "h_tilde")
SAGITTA_TOL = 1e-5


def cli_seed(rng):
    return int(rng.integers(2 ** 31))


def call_cli(argv):
    """Run ``trisect.cli.main`` in-process; returns (exit code, stdout) or
    ("raised", message)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = trisect.cli.main(argv)
    except SystemExit as exc:
        return exc.code, err.getvalue()
    except Exception as exc:  # an op that raised is a failed op
        return "raised", f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue()


def preset_body(name):
    return trisect.cli.PRESETS[name]()


def region_dm(regions):
    return max(oracle.diameter(r) for r in regions)


class Check:
    """Collects failed ops and the names of the checks that failed."""

    def __init__(self):
        self.failed = 0
        self.failures = []
        self.findings = []

    def fail(self, ops, message):
        self.failed += ops
        self.failures.append(message)


class SweepSegments:
    """``trisect sweep --mode segments`` on four bodies; one op is one cell."""

    name = "sweep-segments"

    def __init__(self, seed, tiny=False):
        rng = np.random.default_rng(seed)
        grid_c, grid_theta = (1, 8) if tiny else (5, 24)
        self.cells = grid_c * grid_theta
        self.items = [(b, ["sweep", "--body", b, "--mode", "segments",
                           "--grid-c", str(grid_c),
                           "--grid-theta", str(grid_theta),
                           "--seed", str(cli_seed(rng))])
                      for b in CRITERION_3_BODIES]
        self.ops_per_round = self.cells * len(self.items)

    def run_item(self, item):
        return call_cli(item[1])

    def digest(self, out):
        return out

    def check(self, outs, chk):
        for (body_name, _), (rc, text) in zip(self.items, outs):
            problems = []
            skipped = 0
            if rc != 0:
                problems.append(f"exit {rc}: {text.strip()[:200]}")
            else:
                doc = json.loads(text)
                skipped = doc["cells_skipped"]
                problems += self._check_report(body_name, doc)
            if skipped:
                chk.fail(skipped, f"{body_name}: {skipped} cells skipped")
            for p in problems:
                chk.fail(0, f"{body_name}: {p}")
            if problems:
                chk.failed += self.cells - skipped

    def _check_report(self, body_name, doc):
        problems = []
        if doc["cells_evaluated"] + doc["cells_skipped"] != self.cells:
            problems.append("cell count mismatch")
        if doc["floor_margin"] < -oracle.FLOOR_TOL:
            problems.append(f"floor_margin {doc['floor_margin']:.3e}")
        if doc["min_dm"] < doc["dm_standard"] - oracle.BEAT_TOL:
            problems.append(f"min_dm {doc['min_dm']:.6f} beats "
                            f"dm_standard {doc['dm_standard']:.6f}")
        body = preset_body(body_name)
        problems += closed_form_problems(body_name, body, doc["dm_standard"])
        arg = doc["argmin"]
        area = oracle.shoelace_area(body.boundary)
        if any(abs(a - area / 3.0) > trisect.trisection.AREA_TOL * area
               for a in arg["region_areas"]):
            problems.append(f"argmin region areas {arg['region_areas']}")
        # The sweep's coarser working boundary lies on the body's polygon,
        # so its regions differ from these by about a chord's sagitta
        # (< 1e-5 at 256 samples per sector).
        c = arg["common_point"]
        ws = [curve[-1] for curve in arg["curves"]]
        want = region_dm([oracle.region_between(body.boundary, c, ws[k],
                                                ws[(k + 1) % 3])
                          for k in range(3)])
        if abs(want - arg["dm"]) > SAGITTA_TOL:
            problems.append(f"argmin dm {arg['dm']:.9f} vs oracle {want:.9f}")
        return problems


def paper_problems(body_name, dm_closed):
    paper = oracle.paper_dm(body_name)
    if paper is not None and abs(dm_closed - paper[0]) > paper[1]:
        return [f"closed form {dm_closed:.6f} vs paper {paper[0]}"]
    return []


def closed_form_problems(body_name, body, dm_closed):
    """A closed-form d_M reported by the program, against the oracle's
    value on the same boundary polygon and against the paper."""
    problems = paper_problems(body_name, dm_closed)
    want = oracle.closed_form_dm(body.boundary)
    if abs(dm_closed - want) > 1e-9:
        problems.append(f"closed form {dm_closed:.9f} vs oracle {want:.9f}")
    return problems


class ProbeFullres:
    """Criterion-3-shaped perturbed-polyline probes on each body's own
    boundary; one op is one probe."""

    name = "probe-fullres"
    MAGNITUDE = 0.02

    def __init__(self, seed, tiny=False):
        rng = np.random.default_rng(seed)
        per_body = 1 if tiny else 3
        self.items = []
        for name in CRITERION_3_BODIES:
            body = preset_body(name)
            rho = trisect.trisection.inscribed_ball_radius(body)
            for j in range(per_body):
                # uniform in the disk, stratified by area so that every seed
                # gives a similar mix of central and off-centre probes
                r = 0.8 * rho * math.sqrt((j + rng.uniform()) / per_body)
                phi = rng.uniform(0.0, 2.0 * math.pi)
                c = np.array([r * math.cos(phi), r * math.sin(phi)])
                theta1 = rng.uniform(0.0, 2.0 * math.pi)
                self.items.append((name, body, c, theta1, cli_seed(rng)))
        self.ops_per_round = len(self.items)

    def run_item(self, item):
        _, body, c, theta1, jitter_seed = item
        try:
            tri = trisect.search.perturbed_polyline_trisection(
                body, c, theta1, np.random.default_rng(jitter_seed),
                self.MAGNITUDE)
            return tri, trisect.search.trisection_dm(tri)
        except Exception as exc:  # an op that raised is a failed op
            return f"{type(exc).__name__}: {exc}"

    def digest(self, out):
        return out if isinstance(out, str) else out[1]

    def check(self, outs, chk):
        closed = {}
        for (name, body, c, _, _), res in zip(self.items, outs):
            where = f"{name} c=({c[0]:.4f},{c[1]:.4f})"
            if isinstance(res, str):
                chk.fail(1, f"{where}: raised {res}")
                continue
            tri, dm = res
            if name not in closed:
                closed[name] = oracle.closed_form_dm(body.boundary)
                for p in paper_problems(name, closed[name]):
                    chk.fail(0, f"{name}: {p}")
            problems = []
            area = oracle.shoelace_area(body.boundary)
            areas = [oracle.shoelace_area(r) for r in tri.regions]
            if any(abs(a - area / 3.0) > trisect.trisection.AREA_TOL * area
                   for a in areas):
                problems.append(f"region areas {areas}")
            want = region_dm(tri.regions)
            if abs(dm - want) > 1e-12:
                problems.append(f"d_M {dm:.12f} vs oracle {want:.12f}")
            if dm < closed[name] - oracle.BEAT_TOL:
                problems.append(f"d_M {dm:.6f} beats closed form "
                                f"{closed[name]:.6f}")
            if problems:
                chk.fail(1, f"{where}: " + "; ".join(problems))


class VerifyPool:
    """``trisect verify`` on its default pool; one op is one pool body."""

    name = "verify-pool"
    PRESETS = ("triangle", "hexagon", "enneagon", "reuleaux")

    def __init__(self, seed, tiny=False):
        rng = np.random.default_rng(seed)
        self.seed = cli_seed(rng)
        self.heps, self.random = (2, 2) if tiny else (40, 100)
        self.items = [["verify", "--seed", str(self.seed),
                       "--heps-samples", str(self.heps),
                       "--random", str(self.random)]]
        self.ops_per_round = len(self.PRESETS) + self.heps + self.random + 1

    def run_item(self, item):
        return call_cli(item)

    def digest(self, out):
        return out

    def pool(self):
        """The bodies ``trisect verify`` builds for these arguments."""
        pool = [preset_body(k) for k in self.PRESETS]
        pool += [trisect.bodies.make_h_eps(a) for a in
                 np.linspace(0.0, trisect.bodies.H_EPS_A_MAX, self.heps)]
        rng = np.random.default_rng(self.seed)
        pool += [trisect.bodies.random_body(rng) for _ in range(self.random)]
        pool.append(trisect.bodies.make_h_tilde())
        return pool

    def check(self, outs, chk):
        n = self.ops_per_round
        rc, text = outs[0]
        lines = text.splitlines()
        if len(lines) != 3 * n + 2:
            # a body that fails validate drops out of the rest of the run
            chk.failures += [line for line in lines
                             if not line.startswith("PASS")]
            chk.fail(n, f"exit {rc}, {len(lines)} lines, not {3 * n + 2}")
            return
        # validate[i], then two pool-wide lines, then antipodal[i], floors[i]
        bad = set()
        for i, line in enumerate(lines):
            if line.startswith("PASS"):
                continue
            chk.failures.append(line)
            if n <= i < n + 2:
                bad.update(range(n))
            else:
                bad.add(i % n if i < n else (i - n - 2) % n)
        if rc != 0 and not bad:
            chk.failures.append(f"exit {rc} with every line PASS")
            bad.update(range(n))
        m = re.search(r"bound=([0-9.]+)", lines[n])
        want, tol = oracle.H_TILDE_QUOTIENT
        if m is None or abs(float(m.group(1)) - want) > tol:
            chk.failures.append(f"quotient bound vs paper {want}: {lines[n]}")
            bad.update(range(n))
        for i, body in enumerate(self.pool()):
            tri = trisect.trisection.standard_trisection(body)
            dm = region_dm(tri.regions)
            closed = oracle.closed_form_dm(body.boundary)
            if abs(dm - closed) > oracle.DM_TOL:
                chk.failures.append(
                    f"pool[{i}] {body.label}: standard d_M {dm:.6f} vs "
                    f"max(R, sqrt3 rho) {closed:.6f}")
                bad.add(i)
        chk.failed += len(bad)


class DmPresets:
    """``trisect dm --format json`` on the presets and criterion 2's ten
    ``h_eps`` bodies; one op is one body."""

    name = "dm-presets"
    PRESETS = ("triangle", "hexagon", "enneagon", "dodecagon", "reuleaux",
               "h_tilde")

    def __init__(self, seed, tiny=False):
        rng = np.random.default_rng(seed)
        specs = list(self.PRESETS)
        specs += [f"h_eps:{float(a)!r}" for a in
                  np.linspace(0.0, trisect.bodies.H_EPS_A_MAX, 10)]
        if tiny:
            specs = [specs[0], specs[-1]]
        self.specs = [specs[i] for i in rng.permutation(len(specs))]
        self.items = [["dm", "--body", s, "--format", "json",
                       "--seed", str(cli_seed(rng))] for s in self.specs]
        self.ops_per_round = len(self.items)

    def run_item(self, item):
        return call_cli(item)

    def digest(self, out):
        return out

    def check(self, outs, chk):
        for spec, (rc, text) in zip(self.specs, outs):
            if rc != 0:
                chk.fail(1, f"{spec}: exit {rc}: {text.strip()[:200]}")
                continue
            doc = json.loads(text)
            body = trisect.cli.resolve_body(spec, None)
            problems = closed_form_problems(spec, body, doc["dm_closed_form"])
            gap = abs(doc["dm_geometric"] - doc["dm_closed_form"])
            if gap > oracle.DM_TOL:
                problems.append(f"dm_geometric {doc['dm_geometric']:.9f} vs "
                                f"closed form {doc['dm_closed_form']:.9f}")
            regions = trisect.trisection.standard_trisection(body).regions
            per_region = [oracle.diameter(r) for r in regions]
            # the CLI rounds to 12 decimals
            if abs(doc["dm_geometric"] - max(per_region)) > 1e-9:
                problems.append(f"dm_geometric {doc['dm_geometric']:.12f} vs "
                                f"oracle {max(per_region):.12f}")
            if problems:
                chk.fail(1, f"{spec}: " + "; ".join(problems))
            # The maximum over three regions can hide one wrong region, so
            # each region's diameter is compared too.  A wrong region that
            # is not the maximum leaves the op's output right; it is
            # reported as a finding, not as a failed op.
            for k, (region, want) in enumerate(zip(regions, per_region)):
                got = trisect.geom.region_diameter(region)
                if abs(got - want) > oracle.DM_TOL:
                    chk.findings.append(
                        f"{spec}: region_diameter of standard region {k} is "
                        f"{got:.6f}, oracle {want:.6f} "
                        f"(error {want - got:.1e})")


WORKLOADS = {w.name: w for w in (SweepSegments, ProbeFullres, VerifyPool,
                                 DmPresets)}

# What the traced run should show (checked and reported, never enforced).
PREDICTIONS = {
    "sweep-segments": [
        ("search.equal_area runs", lambda t: t["search.equal_area"].calls > 0),
    ],
    "probe-fullres": [
        ("geom.diameter dominates (share > 0.5)",
         lambda t: t.share("geom.diameter") > 0.5),
        ("search.equal_area share <= 0.01",
         lambda t: t.share("search.equal_area") <= 0.01),
    ],
    "verify-pool": [
        ("search.equal_area absent",
         lambda t: t["search.equal_area"].calls == 0),
    ],
    "dm-presets": [
        ("search.equal_area absent",
         lambda t: t["search.equal_area"].calls == 0),
        ("geom.hull + geom.resample dominate (share > 0.5)",
         lambda t: t.share("geom.hull") + t.share("geom.resample") > 0.5),
    ],
}


class Phase:
    """The rounds of one timed phase over the workload's items.

    ``wall_s`` sums each item's median time over the rounds.  On the
    shared 2-core VM this was measured on, other tenants slow every process
    by up to 1.8x, in spells that drift over seconds to minutes.  An item's
    fastest repeat depends on whether a run met a quiet moment; its median
    follows the machine's average state over the run.  Over 25-s windows
    of a seven-minute trace of ``dm-presets`` the median sum spread 0.07
    (interquartile range over median), the fastest-repeat sum 0.20.
    """

    def __init__(self, workload, reference=None):
        self.workload = workload
        self.times = [[] for _ in workload.items]
        self.walls = []
        self.first = None
        self.reference = reference  # digest every round must reproduce
        self.mismatched = 0

    def run_round(self):
        outs = []
        t_round = time.perf_counter()
        for i, item in enumerate(self.workload.items):
            t = time.perf_counter()
            outs.append(self.workload.run_item(item))
            self.times[i].append(time.perf_counter() - t)
        self.walls.append(time.perf_counter() - t_round)
        digest = [self.workload.digest(out) for out in outs]
        if self.reference is None:
            self.first, self.reference = outs, digest
        elif digest != self.reference:
            self.mismatched += 1

    @property
    def rounds(self):
        return len(self.walls)

    @property
    def wall_s(self):
        return sum(statistics.median(t) for t in self.times)


def run_phases(seconds, steps, between=None):
    """Runs one round of each (phase, context) step in turn, in its
    context, and then ``between(elapsed)`` if given, until the next cycle
    would end past ``seconds``; at least one cycle.  Alternating keeps slow
    spells of the machine from landing on one phase only."""
    start = time.perf_counter()
    while True:
        t_cycle = time.perf_counter()
        for phase, context in steps:
            with context():
                phase.run_round()
        if between is not None:
            between(time.perf_counter() - start)
        now = time.perf_counter()
        if now + (now - t_cycle) - start > seconds:
            return


def evaluate(workload, phases):
    """Checks the first round's output in full; the failures it finds
    repeat in every round that reproduced it.  Later phases must have been
    run with the first phase's digest as their reference.  Returns
    (attempted, Check)."""
    chk = Check()
    workload.check(phases[0].first, chk)
    per_round = min(chk.failed, workload.ops_per_round)
    chk.failed = 0
    attempted = 0
    for phase in phases:
        attempted += phase.rounds * workload.ops_per_round
        chk.failed += per_round * (phase.rounds - phase.mismatched)
        chk.failed += workload.ops_per_round * phase.mismatched
        if phase.mismatched:
            chk.failures.append(f"{phase.mismatched} rounds gave another "
                                "output than the first")
    return attempted, chk
