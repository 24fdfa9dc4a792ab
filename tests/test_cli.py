import contextlib
import errno
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from test_search import _shifted_fan

from trisect import cli, geom, search
from trisect.bodies import SECTOR, make_h_eps, make_regular_polygon
from trisect.search import FLOOR_TOL


def run(capsys, *args):
    code = cli.main(list(args))
    out = capsys.readouterr().out
    return code, out


def test_dm_triangle_text(capsys):
    code, out = run(capsys, "dm", "--body", "triangle")
    assert code == 0
    assert "dm_closed_form=0.877383" in out
    assert "dm_geometric=0.877" in out


def test_dm_hexagon_json(capsys):
    code, out = run(capsys, "dm", "--body", "hexagon", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["dm_closed_form"] == pytest.approx(0.930605, abs=1e-5)
    assert doc["rho"] == pytest.approx(0.537285, abs=1e-5)
    # canonical serialization round-trips byte for byte
    assert cli.dumps(json.loads(cli.dumps(doc))) == cli.dumps(doc)


def test_dm_reuleaux(capsys):
    code, out = run(capsys, "dm", "--body", "reuleaux", "--format", "json")
    doc = json.loads(out)
    assert code == 0
    assert doc["dm_closed_form"] == pytest.approx(0.872002, abs=1e-4)
    assert doc["rho"] == pytest.approx(0.503450, abs=1e-4)
    assert doc["R"] == pytest.approx(0.687730, abs=1e-4)


def test_dm_h_eps_selector(capsys):
    code, out = run(capsys, "dm", "--body", "h_eps:0.3", "--format", "json")
    assert code == 0
    assert json.loads(out)["dm_closed_form"] > 0.769


def test_dm_from_json_file(tmp_path, capsys):
    path = tmp_path / "body.json"
    path.write_text(json.dumps(make_regular_polygon(2).to_dict()))
    code, out = run(capsys, "dm", "--body", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["dm_closed_form"] == pytest.approx(0.930605,
                                                              abs=1e-5)


def test_unknown_body_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["dm", "--body", "pentagon"])
    assert exc.value.code == 2


@pytest.mark.parametrize("spec", ["h_eps:5", "h_eps:abc", "regular:abc",
                                  "regular:0", "regular:3000000000"])
def test_malformed_selector_exits_2(spec, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["dm", "--body", spec])
    assert exc.value.code == 2
    assert spec in capsys.readouterr().err


@pytest.mark.parametrize("profile", [[0.0, 0.6], [], [[0.0, 0.6, 1.0]],
                                     "abc", {"a": 1}])
@pytest.mark.parametrize("command", [
    ["dm"], ["sweep"], ["render"],
    ["verify", "--heps-samples", "2", "--random", "0"]])
def test_malformed_profile_exits_2(tmp_path, capsys, command, profile):
    path = tmp_path / "body.json"
    path.write_text(json.dumps({"sector_profile": profile}))
    with pytest.raises(SystemExit) as exc:
        cli.main(command + ["--body", str(path)])
    assert exc.value.code == 2
    assert "cannot load body file" in capsys.readouterr().err


@pytest.mark.parametrize("profile", [
    [[0.0, 0.6]],                                   # one point
    [[0.0, 0.6], [1.0, float("nan")]],              # NaN radius
])
@pytest.mark.parametrize("command", ["dm", "sweep", "render"])
def test_unclean_body_exits_2(tmp_path, capsys, command, profile):
    path = tmp_path / "body.json"
    path.write_text(json.dumps({"sector_profile": profile}))
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--body", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid body" in err and "deviates from 1" in err


def test_bad_grid_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--body", "hexagon", "--grid-theta", "0"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["sweep", "--grid-c", "0"],
    ["render", "--what", "sweep_argmin", "--grid-c", "-1"],
    ["render", "--what", "sweep_argmin", "--grid-theta", "3"],
    ["render", "--what", "body", "--grid-c", "0"]])
def test_bad_grid_size_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--body", "hexagon"])
    assert exc.value.code == 2
    assert "must be at least" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["verify", "--samples", "63"], "--samples must be at least 64"),
    (["verify", "--heps-samples", "-1"], "--heps-samples must be at least 0"),
    (["verify", "--random", "-1"], "--random must be at least 0"),
    (["sweep", "--body", "hexagon", "--magnitude", "nan"], "--magnitude must"),
    (["sweep", "--body", "hexagon", "--magnitude", "inf"], "--magnitude must"),
    (["sweep", "--body", "hexagon", "--magnitude", "-0.1",
      "--mode", "perturbed_polylines"], "--magnitude must"),
    (["sweep", "--body", "hexagon", "--grid-c", "1", "--grid-theta", "8",
      "--seed", "-1"], "--seed must be at least 0"),
    (["render", "--body", "hexagon", "--what", "sweep_argmin", "--seed", "-2"],
     "--seed must be at least 0"),
    (["verify", "--seed", "-3", "--heps-samples", "0", "--random", "1"],
     "--seed must be at least 0"),
    (["sweep", "--body", "hexagon", "--mode", "perturbed_polylines",
      "--grid-c", "1", "--grid-theta", "8", "--magnitude", "1e308"],
     "--magnitude must")])
def test_bad_verify_or_sweep_value_exits_2(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err.splitlines()[-1]


@pytest.mark.parametrize("argv, cap", [
    (["heps", "--count"], cli.MAX_HEPS_COUNT),
    (["verify", "--samples"], cli.MAX_ANTIPODAL_SAMPLES),
    (["verify", "--heps-samples"], cli.MAX_POOL_BODIES),
    (["verify", "--random"], cli.MAX_POOL_BODIES),
    (["sweep", "--body", "hexagon", "--grid-c"], cli.MAX_GRID_C),
    (["sweep", "--body", "hexagon", "--grid-theta"], cli.MAX_GRID_THETA),
    (["render", "--body", "hexagon", "--what", "sweep_argmin", "--grid-c"],
     cli.MAX_GRID_C),
    (["render", "--body", "hexagon", "--what", "sweep_argmin", "--grid-theta"],
     cli.MAX_GRID_THETA),
    (["table", "--max-m"], cli.MAX_TABLE_M),
    (["sweep", "--body", "hexagon", "--seed"], cli.MAX_SEED)])
def test_integer_option_over_its_cap_exits_2(capsys, argv, cap):
    # one over the cap is a usage error before anything is built
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + [str(cap + 1)])
    assert exc.value.code == 2
    assert f"at most {cap}" in capsys.readouterr().err.splitlines()[-1]


def test_heps_table(capsys):
    code, out = run(capsys, "heps", "--count", "41")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "a,dpx,dv12,dm"
    assert len([l for l in lines if "," in l and not l.startswith("a")]) == 41
    footer = "\n".join(lines[-2:])
    assert "a0=0.141227" in footer
    assert "dm_min=0.769616" in footer


def test_table_regular(capsys):
    code, out = run(capsys, "table", "--max-m", "12")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,dm"
    rows = dict(l.split(",") for l in lines[1:])
    assert float(rows["3"]) == pytest.approx(0.877383, abs=1e-5)
    assert float(rows["6"]) == pytest.approx(0.930605, abs=1e-5)
    assert set(rows) == {"3", "6", "9", "12"}


def test_sweep_small(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out = run(capsys, "sweep", "--body", "hexagon", "--grid-c", "6",
                    "--grid-theta", "10", "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["violations"] == []
    assert doc["dm_standard"] == pytest.approx(0.930605, abs=1e-5)
    assert doc["min_dm"] >= doc["dm_standard"] - 1e-3


def test_sweep_scores_small_rounds_region_by_region(capsys, monkeypatch):
    # the reuleaux triangle's regions on its 768-point sweep polygon go
    # region by region through the pruning, the triangle's on its three
    # corners in padded batches; with no pruning the report is the same
    alone = []
    candidates = geom._candidates
    monkeypatch.setattr(geom, "_candidates",
                        lambda p: alone.append(1) or candidates(p))
    argv = ["sweep", "--grid-c", "5", "--grid-theta", "24", "--body"]
    reuleaux = run(capsys, *argv, "reuleaux")
    assert reuleaux[0] == 0 and alone
    alone.clear()
    assert run(capsys, *argv, "triangle")[0] == 0 and not alone
    monkeypatch.setattr(geom, "_candidates", lambda p: p)
    assert run(capsys, *argv, "reuleaux") == reuleaux


@pytest.mark.parametrize("body", ["h_eps:0.6204032393995385", "h_eps:1e-11"])
def test_sweep_of_h_eps_near_an_end_skips_no_cell(capsys, body):
    # corners within 1e-11 of each other or of the sector's end: on a
    # polygon rebuilt through radius_at, which overshot the short chords
    # there, the sweep skipped 3,600 and 3,360 of its 6,000 cells; on the
    # corners it skips none
    code, out = run(capsys, "sweep", "--body", body)
    doc = json.loads(out)
    assert code == 0
    assert doc["cells_skipped"] == 0 and doc["cells_evaluated"] == 50 * 120
    assert doc["floor_margin"] >= -1e-12


@pytest.mark.parametrize("mode", ["segments", "perturbed_polylines"])
def test_negative_zero_magnitude_sweeps_as_zero(capsys, mode):
    # -0 passes the non-negative check; it once reached the jitter draws
    # as uniform(0.0, -0.0) and printed as -0.0
    argv = ["sweep", "--body", "hexagon", "--grid-c", "5", "--grid-theta",
            "24", "--mode", mode, "--magnitude"]
    zero = run(capsys, *argv, "0")
    assert zero[0] == 0
    assert run(capsys, *argv, "-0") == zero


def test_import_loads_no_scipy():
    # scipy is a test extra only: the package and its CLI run without it
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, trisect, trisect.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("seed", ["1", "42"])
@pytest.mark.parametrize("body", ["triangle", "hexagon", "h_tilde",
                                  "reuleaux"])
def test_all_infeasible_sweep_exits_1(body, seed):
    # a jitter of 5 takes every mid-vertex out of the body
    proc = run_module(["sweep", "--body", body, "--grid-c", "3",
                       "--grid-theta", "8", "--mode", "perturbed_polylines",
                       "--magnitude", "5", "--seed", seed])
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "sweep infeasible: every grid cell was infeasible\n"


def _turned_triangle_profile(angle):
    theta, r = np.array(make_regular_polygon(1).to_dict()["sector_profile"]).T
    theta = np.mod(theta + angle, SECTOR)
    order = np.argsort(theta)
    return np.column_stack((theta[order], r[order])).tolist()


@pytest.mark.parametrize("doc", [
    make_h_eps(0.05).to_dict(),
    {"label": "turned", "sector_profile": _turned_triangle_profile(0.004)}],
    ids=["h_eps", "turned_triangle"])
def test_sweep_of_a_json_body_keeps_its_corners(tmp_path, capsys, doc):
    # a body file carries no corner list: a sweep on a grid coarser than
    # its profile cut the corners off and found d_M below the standard's
    path = tmp_path / "body.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "sweep", "--body", str(path))
    report = json.loads(out)
    assert code == 0
    assert report["violations"] == []
    assert report["floor_margin"] >= -FLOOR_TOL


@pytest.mark.parametrize("argv", [
    ["dm", "--body", "hexagon"],
    ["sweep", "--body", "hexagon", "--grid-c", "1", "--grid-theta", "8"],
    ["heps", "--count", "16"],
    ["render", "--body", "hexagon"],
    ["verify", "--heps-samples", "0", "--random", "0", "--samples", "64"],
    ["table", "--max-m", "3"]], ids=lambda argv: argv[0])
def test_unwritable_out_path_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "missing" / "out.txt"
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (f"cannot write {out}: "
                                       f"{os.strerror(errno.ENOENT)}\n")


def test_render_standard(tmp_path, capsys):
    out_path = tmp_path / "fig.svg"
    code, _ = run(capsys, "render", "--body", "hexagon", "--what", "standard",
                  "--out", str(out_path))
    assert code == 0
    svg = out_path.read_text()
    assert svg.count('class="curve"') == 3
    assert 'class="inscribed-ball"' in svg
    assert svg.count('class="endpoint-label"') == 3


def test_render_triangle(tmp_path, capsys):
    out_path = tmp_path / "tri.svg"
    code, _ = run(capsys, "render", "--body", "hexagon", "--what", "triangle",
                  "--out", str(out_path))
    assert code == 0
    assert out_path.read_text().count('class="triangle-edge"') == 3


def test_render_h_tilde_body_arcs(tmp_path, capsys):
    out_path = tmp_path / "ht.svg"
    code, _ = run(capsys, "render", "--body", "h_tilde", "--what", "body",
                  "--out", str(out_path))
    assert code == 0
    svg = out_path.read_text()
    path = svg.split('class="body"')[1].split('d="')[1].split('"')[0]
    assert path.count("A") == 3
    assert path.count("L") == 3


def test_render_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    for p in (a, b):
        run(capsys, "render", "--body", "triangle", "--what", "triangle",
            "--out", str(p))
    assert a.read_bytes() == b.read_bytes()


def test_verify_passes(capsys):
    # a small pool, and the default one: presets, h_eps, random bodies
    # and h_tilde, three lines a body and two quotient lines
    for argv, pool_size in ((["--heps-samples", "5", "--random", "3"], 13),
                            ([], 4 + 40 + 100 + 1)):
        code, out = run(capsys, "verify", *argv)
        assert code == 0
        assert "FAIL" not in out
        assert len(out.splitlines()) == 3 * pool_size + 2


def test_verify_validates_each_body_once(capsys, monkeypatch):
    # validate runs a stack at a time, and each pool body is a row of one
    # stack: the corner bodies share one, reuleaux and h_tilde are alone
    rows = []
    real = cli.validate
    monkeypatch.setattr(cli, "validate", lambda stack: rows.append(
        [body.label for body in stack.bodies]) or real(stack))
    code, out = run(capsys, "verify", "--heps-samples", "2", "--random", "3")
    assert code == 0
    pool_size = 4 + 2 + 3 + 1  # presets, h_eps, random bodies, h_tilde
    labels = sorted(label for row in rows for label in row)
    assert labels == sorted(line[len("PASS validate["):-1] for line in
                            out.splitlines() if "validate[" in line)
    assert len(labels) == pool_size and len(rows) == 3


def test_verify_flags_bad_body(tmp_path, capsys):
    body = make_regular_polygon(2).to_dict()
    profile = np.asarray(body["sector_profile"], dtype=float)
    profile[len(profile) // 2, 1] *= 1.5  # bulge: no longer convex
    body["sector_profile"] = profile.tolist()
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(body))
    code, out = run(capsys, "verify", "--heps-samples", "2",
                    "--random", "0", "--body", str(path))
    assert code == 1
    assert "FAIL" in out


def main_outcome(argv):
    """(exit code, stdout) of cli.main; a usage error's SystemExit gives its
    code, and any other exception propagates and fails the test."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def _reject_constant(name):
    raise AssertionError(f"{name} in the output")


def assert_exit_0_or_2(argv):
    code, out = main_outcome(argv)
    assert code in (0, 2), (argv, code)
    if code == 0:
        json.loads(out, parse_constant=_reject_constant)


TINY = {"dm": ["dm", "--format", "json"],
        "sweep": ["sweep", "--grid-c", "1", "--grid-theta", "8"]}
_COMMAND = st.sampled_from(sorted(TINY))


@settings(max_examples=80, deadline=None)
@given(_COMMAND, st.sampled_from(["h_eps:", "regular:"]),
       st.one_of(st.text(max_size=12), st.floats().map(repr),
                 st.integers().map(str)))
def test_arbitrary_selector_exits_0_or_2(command, prefix, text):
    assert_exit_0_or_2(TINY[command] + ["--body", prefix + text])


@pytest.fixture(scope="module")
def body_path(tmp_path_factory):
    return tmp_path_factory.mktemp("bodies") / "body.json"


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=12)


@settings(max_examples=80, deadline=None)
@given(_COMMAND, st.one_of(st.fixed_dictionaries({"sector_profile": _JSON}),
                           _JSON))
@example("dm", {"sector_profile": [[0.0, 10 ** 400]]})  # no float holds it
def test_random_json_body_exits_0_or_2(body_path, command, doc):
    body_path.write_text(json.dumps(doc))
    assert_exit_0_or_2(TINY[command] + ["--body", str(body_path)])


HEXAGON_PROFILE = make_regular_polygon(2).to_dict()["sector_profile"]


@settings(max_examples=40, deadline=None)
@given(_COMMAND,
       st.lists(st.tuples(st.integers(0, len(HEXAGON_PROFILE) - 1),
                          st.integers(0, 1),
                          st.one_of(st.sampled_from([math.nan, math.inf,
                                                     -math.inf, -0.0]),
                                    st.floats(max_value=0.0))),
                max_size=3))
def test_damaged_json_profile_exits_0_or_2(body_path, command, damage):
    # NaN, infinite, zero or negative angles and radii in a valid profile
    profile = [list(row) for row in HEXAGON_PROFILE]
    for row, col, value in damage:
        profile[row][col] = value
    body_path.write_text(json.dumps({"sector_profile": profile}))
    assert_exit_0_or_2(TINY[command] + ["--body", str(body_path)])


@pytest.mark.parametrize("damage, line", [
    ("bulge", "FAIL validate[custom] (reconstructed boundary is not convex)"),
    ("nan", "FAIL validate[custom] (profile has non-positive or non-finite "
            "radii; area 0.00000000 deviates from 1 by more than 1e-6)")])
def test_a_bad_body_changes_no_other_line(tmp_path, capsys, damage, line):
    # the bad body file is validated as a stack of its own and left out
    # of the later stacks, so no NaN or failed check of its row reaches
    # another body's line
    profile = np.array(HEXAGON_PROFILE)
    k = len(profile) // 2
    profile[k, 1] = profile[k, 1] * 1.5 if damage == "bulge" else math.nan
    path = tmp_path / "body.json"
    path.write_text(json.dumps({"sector_profile": profile.tolist()}))
    argv = ["verify", "--heps-samples", "2", "--random", "3"]
    code, out = run(capsys, *argv, "--body", str(path))
    assert code == 1
    lines = out.splitlines()
    assert [x for x in lines if "custom" in x] == [line]
    lines.remove(line)
    assert "\n".join(lines) + "\n" == run(capsys, *argv)[1]


def run_module(argv, flags=()):
    """Run ``python -m trisect.cli`` on this checkout's sources."""
    env = dict(os.environ)
    env.pop("PYTHONOPTIMIZE", None)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *flags, "-m", "trisect.cli",
                           *argv], env=env, capture_output=True, text=True)


@pytest.mark.parametrize("argv", [
    ["dm", "--body", "triangle", "--format", "json"],
    ["sweep", "--body", "triangle", "--grid-c", "1", "--grid-theta", "8"],
    ["sweep", "--body", "hexagon", "--grid-c", "2", "--grid-theta", "8",
     "--mode", "perturbed_polylines"],
    ["render", "--body", "reuleaux", "--what", "sweep_argmin",
     "--grid-c", "2", "--grid-theta", "8"],
    ["verify", "--heps-samples", "2", "--random", "2"],
    # one stack of 3 to 30 corners, padded to regular:30's
    ["verify", "--heps-samples", "3", "--random", "3", "--body",
     "regular:30"]])
def test_output_does_not_depend_on_python_O(argv):
    outs = [run_module(argv, flags) for flags in ([], ["-O"])]
    assert [out.returncode for out in outs] == [0, 0]
    assert outs[0].stdout and outs[0].stdout == outs[1].stdout


@pytest.mark.parametrize("row", [[math.inf, 0.6], [-math.inf, 0.6],
                                 [math.nan, 0.6], [0.5, math.inf],
                                 [0.5, 1e308], [0.5, 1e155]])
@pytest.mark.parametrize("command", [["dm"], ["sweep"], ["render"],
                                     ["verify", "--heps-samples", "2",
                                      "--random", "0"]])
def test_non_finite_profile_prints_only_the_usage_error(tmp_path, capsys,
                                                        command, row):
    # numpy used to print RuntimeWarnings first: about cos and sin
    # for an infinite entry, about overflow for a huge radius
    profile = [list(r) for r in HEXAGON_PROFILE]
    profile[3] = row
    path = tmp_path / "body.json"
    path.write_text(json.dumps({"sector_profile": profile}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SystemExit) as exc:
            cli.main(command + ["--body", str(path)])
    assert exc.value.code == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines[0].startswith("usage: trisect")
    assert lines[-1].startswith("trisect: error: cannot load body file")


@pytest.mark.parametrize("command", [["dm"], ["verify", "--heps-samples",
                                             "0", "--random", "0"]])
def test_huge_negative_radius_is_only_reported(tmp_path, capsys, command):
    # a radius of -1e308 loads, and validate reports it without measuring
    # the boundary it builds, whose turns and area overflow
    profile = [list(r) for r in HEXAGON_PROFILE]
    profile[3][1] = -1e308
    path = tmp_path / "body.json"
    path.write_text(json.dumps({"sector_profile": profile}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = cli.main(command + ["--body", str(path)])
        except SystemExit as exc:
            code = exc.code
    captured = capsys.readouterr()
    assert "profile has non-positive or non-finite radii" in (
        captured.err + captured.out)
    assert code == (2 if command == ["dm"] else 1)


def test_infinite_angle_stderr_holds_only_the_usage_lines(tmp_path):
    profile = [list(r) for r in HEXAGON_PROFILE]
    profile[3][0] = math.inf
    path = tmp_path / "body.json"
    path.write_text(json.dumps({"sector_profile": profile}))
    proc = run_module(["dm", "--body", str(path)])
    assert proc.returncode == 2
    assert proc.stderr == (cli.build_parser().format_usage()
                           + f"trisect: error: cannot load body file {path}: "
                           "sector_profile has a NaN or infinite angle or an "
                           "infinite radius\n")


def test_verify_computes_the_full_dm_once_per_body(capsys, monkeypatch):
    # each floors line is decided on the exact d_M of the standard
    # trisection: region_diameters_sq scores the three regions of every
    # pool body once, a stack at a time
    calls = []
    exact = search.region_diameters_sq
    monkeypatch.setattr(search, "region_diameters_sq",
                        lambda pts, verts, start, length: calls.append(
                            len(start)) or exact(pts, verts, start, length))
    code, out = run(capsys, "verify", "--heps-samples", "2", "--random", "3")
    assert code == 0
    assert out.count("PASS floors[") == sum(calls) // 3 == 10
    assert sum(calls) == 30 and len(calls) == 3


def test_verify_fails_floors_on_a_shifted_fan(capsys, monkeypatch):
    # the standard trisection's fan built about (1e-3, 0), not the centre,
    # in every stack: its d_M rises above max(R, sqrt(3) rho) on every
    # pool body
    monkeypatch.setattr(search, "standard_trisection", _shifted_fan)
    code, out = run(capsys, "verify", "--heps-samples", "2", "--random", "3")
    assert code == 1
    assert out.count("FAIL floors[") == 10 and "PASS floors[" not in out
