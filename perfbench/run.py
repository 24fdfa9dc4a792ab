"""Benchmark entry point.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Runs each workload in its own serial process (TRISECT_THREADS=1) against
the trisect sources in ``src/`` of the checkout that holds this file.
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1``
the per-layer metrics of a traced run.  Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md in
this directory for the workloads, metrics and baseline.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("sweep-segments", "probe-fullres", "verify-pool", "dm-presets")
DEFAULT_SEED = 1
CHILD_TIMEOUT_S = 150
END_TO_END_UNITS = {"wall_s": "s", "ops_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def spawn(workload, args, mode):
    """Run one worker process and return the JSON object it printed."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--mode", mode]
    env = dict(os.environ, TRISECT_THREADS="1", PYTHONPATH=str(SRC))
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=env,
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} {mode}: no result in {exc.timeout} s")
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode}: exit {proc.returncode}\n"
                         f"{proc.stderr.strip()}")
    try:
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError(f"{workload} {mode}: no JSON result\n{proc.stdout}")
    if not Path(doc["trisect_file"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"{workload}: imported trisect from "
                         f"{doc['trisect_file']}, not from {SRC}")
    return doc


def run_workload(name, args):
    """Returns (metrics as {name: (value, unit)}, worker document)."""
    if args.trace:
        doc = spawn(name, args, "trace")
        metrics = {k: (v["value"], v["unit"])
                   for k, v in doc["per_layer"].items()}
        return metrics, doc
    doc = spawn(name, args, "measure")
    values = {k: doc[k] for k in END_TO_END_UNITS}
    return {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}, doc


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "trisect").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def report(name, metrics, doc):
    attempted, failed = doc["attempted"], doc["failed"]
    print(f"== {name}: rounds {doc['rounds']}, {doc['ops_per_round']} ops "
          f"per round, failed {failed}/{attempted} "
          f"(failed_frac {failed / attempted:.4g})")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<36} {value:.6g} {unit}")
    if "blocks" in doc:
        print(f"  uncalibrated: wall_s {doc['raw_wall_s']:.6g} s, setup_s "
              f"{doc['raw_setup_s']:.6g} s; mean reference block "
              f"{statistics.mean(doc['blocks']):.6g} s over "
              f"{len(doc['blocks'])}")
    for line in doc["failures"]:
        print(f"  FAILED CHECK {line}")
    for line in doc["findings"]:
        print(f"  FINDING {line}")
    for text, ok in doc.get("predictions", []):
        print(f"  PREDICTION {'holds' if ok else 'MISMATCH'}: {text}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=34.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "trisect" / "__init__.py").is_file():
        print(f"perfbench: no trisect sources under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    for name, (metrics, doc) in results.items():
        report(name, metrics, doc)
    first_doc = next(iter(results.values()))[1]
    provenance = {
        "git_commit": git_commit(), "source_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": first_doc["numpy"],
        "trisect_threads": first_doc["threads"], "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "workloads": {name: {"rounds": doc["rounds"],
                             "round_walls": doc["round_walls"],
                             "ops_per_round": doc["ops_per_round"],
                             "ops": doc["attempted"],
                             "check_s": doc["check_s"],
                             "setup_samples": doc.get("setup_samples"),
                             "blocks": doc.get("blocks"),
                             "raw_wall_s": doc.get("raw_wall_s")}
                      for name, (_, doc) in results.items()},
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))

    attempted = sum(doc["attempted"] for _, doc in results.values())
    failed = sum(doc["failed"] for _, doc in results.values())
    if len(names) == 1:
        merged = results[names[0]][0]
    else:
        merged = {f"{n}.{k}": v for n, (m, _) in results.items()
                  for k, v in m.items()}
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in merged.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
