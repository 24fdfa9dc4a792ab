"""One workload process: set up, run the timed phase, check, print JSON.

Started by run.py with ``--t0`` set to the parent's monotonic clock just
before the process was spawned, so ``setup_s`` covers interpreter start,
imports and input generation.  Modes:

  setup    set up, report setup_s and exit
  measure  set up, run the timed phase with tracing off, check; after
           each round, time the reference work of calibrate.py for
           CALIBRATION_SHARE of the round's time, then start setup-only
           processes one at a time, so that SETUP_SAMPLES set-up times
           (this process's included) are spread over the whole phase
  trace    one untraced round, then traced and untraced rounds in turn,
           check
"""

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import calibrate
import spans

# Pinned before trisect is imported: one serial process, no sweep pool.
os.environ["TRISECT_THREADS"] = "1"

SETUP_SAMPLES = 10       # set-up times per measured run, this process's too
# Reference work (calibrate.py) after each round, as a share of its time.
CALIBRATION_SHARE = 0.1


def per_layer(summary, rounds, untraced_wall, traced_wall):
    metrics = {}
    for span in spans.SPANS:
        st = summary[span]
        metrics[f"{span}.calls"] = (st.calls / rounds, "count")
        metrics[f"{span}.self_s"] = (st.self_s / rounds, "s")
        metrics[f"{span}.share"] = (summary.share(span), "frac")
    diam = summary["geom.diameter"]
    metrics["geom.diameter.points_in"] = (diam.points_in / rounds, "count")
    solve = summary["search.equal_area"]
    metrics["search.equal_area.fail_ratio"] = (
        solve.raised / solve.entries if solve.entries else 0.0, "frac")
    metrics["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0,
                                      "frac")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def setup_sample(args):
    """Set-up time of a fresh setup-only process, started and waited for
    while this one is idle."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--mode", "setup"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], capture_output=True,
                          text=True, check=True, timeout=60)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"),
                    required=True)
    ap.add_argument("--t0", type=float, required=True)
    args = ap.parse_args(argv)

    import numpy
    import trisect
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = time.monotonic() - args.t0
    doc = {"setup_s": setup_s, "trisect_file": trisect.__file__,
           "numpy": numpy.__version__,
           "threads": os.environ["TRISECT_THREADS"]}
    if args.mode == "setup":
        print(json.dumps(doc))
        return 0

    if args.mode == "measure":
        setups, blocks = [setup_s], []

        def sample_setups(elapsed):
            due = SETUP_SAMPLES * min(1.0, elapsed / args.seconds)
            while len(setups) < due:
                setups.append(setup_sample(args))

        def between(elapsed):
            spent = 0.0
            while spent < CALIBRATION_SHARE * phase.walls[-1]:
                blocks.append(calibrate.block())
                spent += blocks[-1]
            sample_setups(elapsed)

        phase = workloads.Phase(workload)
        workloads.run_phases(args.seconds, [(phase, contextlib.nullcontext)],
                             between=between)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        sample_setups(args.seconds)
        # times at the speed of a machine that runs one block in BLOCK_S
        scale = calibrate.BLOCK_S / statistics.mean(blocks)
        phases = [phase]
        doc.update(setup_samples=setups, blocks=blocks,
                   raw_wall_s=phase.wall_s,
                   raw_setup_s=statistics.median(setups),
                   wall_s=phase.wall_s * scale,
                   setup_s=statistics.median(setups) * scale,
                   ops_per_s=workload.ops_per_round / (phase.wall_s * scale),
                   peak_rss_mb=rss_mb)
    else:
        base = workloads.Phase(workload)
        base.run_round()
        traced = workloads.Phase(workload, reference=base.reference)
        tracer = spans.Tracer()
        workloads.run_phases(args.seconds, [
            (traced, lambda: spans.installed(tracer, trisect)),
            (base, contextlib.nullcontext)])
        summary = spans.Summary(tracer, sum(traced.walls))
        phases = [base, traced]
        doc["per_layer"] = per_layer(summary, traced.rounds, base.wall_s,
                                     traced.wall_s)
        doc["predictions"] = [
            [text, bool(test(summary))]
            for text, test in workloads.PREDICTIONS[args.workload]]

    t_check = time.monotonic()
    attempted, chk = workloads.evaluate(workload, phases)
    doc["check_s"] = time.monotonic() - t_check
    doc.update(rounds=[p.rounds for p in phases],
               round_walls=[p.walls for p in phases],
               ops_per_round=workload.ops_per_round, attempted=attempted,
               failed=chk.failed, failures=chk.failures,
               findings=chk.findings)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
