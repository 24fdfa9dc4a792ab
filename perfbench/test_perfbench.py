"""Tests of the benchmark's own logic: span arithmetic, wrapper install and
restore, and a tiny run of every workload."""

import contextlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import spans
import workloads
import trisect

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_same_name_spans_adds_up_to_outer_call():
    clock = FakeClock()
    tracer = spans.Tracer(clock)

    def polygon_diameter(points):
        clock.now += 2.0
        return 1.0

    inner = tracer.wrap("geom.diameter", polygon_diameter)

    def region_diameter(points):
        clock.now += 1.0
        inner(points[:3])
        clock.now += 3.0
        return 1.0

    outer = tracer.wrap("geom.diameter", region_diameter)
    outer([(0, 0)] * 10)
    st = tracer.stats["geom.diameter"]
    assert st.calls == 2
    assert st.entries == 1
    assert st.self_s == pytest.approx(6.0)
    assert st.points_in == 10  # only the outermost entry counts points
    assert tracer.stack == []


def test_self_time_excludes_nested_spans_of_other_layers():
    clock = FakeClock()
    tracer = spans.Tracer(clock)

    def hull(points):
        clock.now += 5.0

    wrapped_hull = tracer.wrap("geom.hull", hull)

    def dm(points):
        clock.now += 1.0
        wrapped_hull(points)
        wrapped_hull(points)
        clock.now += 0.5

    tracer.wrap("trisection.dm", dm)([])
    assert tracer.stats["trisection.dm"].self_s == pytest.approx(1.5)
    assert tracer.stats["geom.hull"].self_s == pytest.approx(10.0)
    assert tracer.stats["geom.hull"].calls == 2
    summary = spans.Summary(tracer, 11.5)
    assert summary.share("geom.hull") == pytest.approx(10.0 / 11.5)
    assert summary["search.sweep"].calls == 0


def test_raising_call_closes_its_span_and_counts_as_raised():
    tracer = spans.Tracer(FakeClock())

    def solve():
        raise ValueError("no sign change")

    wrapped = tracer.wrap("search.equal_area", solve)
    with pytest.raises(ValueError):
        wrapped()
    st = tracer.stats["search.equal_area"]
    assert (st.calls, st.entries, st.raised) == (1, 1, 1)
    assert tracer.stack == []


def _bindings():
    """Every (namespace, key) of the trisect package bound to a function."""
    out = {}
    for ns in spans._namespaces(trisect):
        for key, value in ns.items():
            if callable(value):
                out[(id(ns), key)] = value
    return out


def test_wrappers_reach_callers_and_are_restored():
    before = _bindings()
    geom_diameter = trisect.geom.points_diameter
    make_reuleaux = trisect.bodies.make_reuleaux
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with spans.installed(tracer, trisect):
            # the name each caller resolves is wrapped, not only the home one
            assert trisect.search.points_diameter is not geom_diameter
            assert trisect.cli.PRESETS["reuleaux"] is not make_reuleaux
            rc, text = workloads.call_cli(["dm", "--body", "triangle",
                                           "--format", "json"])
            assert rc == 0
            raise RuntimeError("leave the block by an exception")
    assert _bindings() == before
    assert trisect.search.points_diameter is geom_diameter
    for span in ("cli", "bodies.build", "trisection.dm", "geom.hull",
                 "geom.resample", "geom.diameter", "trisection.standard",
                 "trisection.closed_form"):
        assert tracer.stats[span].calls > 0, span
    assert "search.equal_area" not in tracer.stats


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_runs_clean(name):
    workload = workloads.WORKLOADS[name](seed=3, tiny=True)
    phase = workloads.Phase(workload)
    workloads.run_phases(0.0, [(phase, contextlib.nullcontext)])
    assert phase.rounds == 1 and phase.wall_s > 0.0
    attempted, chk = workloads.evaluate(workload, [phase])
    assert attempted == workload.ops_per_round
    assert (chk.failed, chk.failures) == (0, [])


def test_run_phases_stops_before_a_cycle_would_overrun(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(workloads.time, "perf_counter", clock)

    class FakePhase:
        def run_round(self):
            clock.now += 3.0

    calls = []

    def between(elapsed):
        calls.append(elapsed)
        clock.now += 1.0

    workloads.run_phases(10.0, [(FakePhase(), contextlib.nullcontext)],
                         between=between)
    # cycles end at 4 and 8 s; a third would end at 12 s, past 10
    assert calls == [3.0, 7.0]
    calls.clear()
    workloads.run_phases(1.0, [(FakePhase(), contextlib.nullcontext)],
                         between=between)
    assert len(calls) == 1


def test_wall_s_sums_each_items_median():
    workload = workloads.WORKLOADS["dm-presets"](seed=3, tiny=True)
    phase = workloads.Phase(workload)
    phase.times = [[1.0, 5.0, 2.0], [0.5, 0.25, 9.0]]
    assert phase.wall_s == 2.5


def test_failed_check_counts_ops_in_every_round():
    workload = workloads.WORKLOADS["dm-presets"](seed=3, tiny=True)
    phase = workloads.Phase(workload)
    phase.run_round()
    rc, text = phase.first[0]
    doc = json.loads(text)
    doc["dm_geometric"] += 1e-3
    phase.first[0] = (rc, json.dumps(doc))
    phase.walls *= 3
    attempted, chk = workloads.evaluate(workload, [phase])
    assert attempted == 3 * workload.ops_per_round
    assert chk.failed == 3
    assert any("dm_geometric" in f for f in chk.failures)


def test_verify_failure_is_named_when_a_body_drops_out():
    workload = workloads.WORKLOADS["verify-pool"](seed=3, tiny=True)
    phase = workloads.Phase(workload)
    phase.run_round()
    rc, text = phase.first[0]
    lines = text.splitlines()
    # as if body 1 failed validate and was left out of the later checks
    lines[1] = "FAIL " + lines[1][len("PASS "):]
    del lines[-1]
    phase.first[0] = (1, "\n".join(lines))
    attempted, chk = workloads.evaluate(workload, [phase])
    assert chk.failed == workload.ops_per_round
    assert lines[1] in chk.failures


def _run(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args,
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_every_declared_metric(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _run(["--workload", "dm-presets", "--seed", "5", "--seconds",
                 "0.2", "--trace", trace], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = spec["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "dm-presets", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
