"""Fuzzing of the outside input the library reads: scene JSON objects, grid
config files, params objects and files, CLI points, CLI numbers and `sprint
plan`'s scene, planner, endpoint and `--svg` strings.  Each loader either
returns or raises ValueError (the CLI turns that into a one-line error); any
other exception would reach the user as a traceback.  Params and scene
boxes that `trial_params` and `Scene` accept must also give a trial that
ends as every trial does, solved or at its budget.  derandomize=True makes
the examples a fixed function of the test, so a run is repeatable."""

import contextlib
import io
import json
import os
import re
import signal
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sprint_planner.bench import PLANNER_IDS, load_grid_config, run_trial, trial_params
from sprint_planner.cli import _parse_point, main
from sprint_planner.local_planner import LocalTree, backprop_collision, collision_points
from sprint_planner.params import SprintParams, params_from_json
from sprint_planner.scenes import FIXTURE_NAMES, fixture_endpoints, fixture_scene
from sprint_planner.world import Scene, scene_from_dict

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=300,
                suppress_health_check=[HealthCheck.too_slow])

# st.integers() alone stays far below the float range; the wide draws give
# integers no float can hold
ints = st.integers() | st.integers(min_value=-10 ** 400, max_value=10 ** 400)
scalars = st.none() | st.booleans() | ints | st.floats() | st.text(max_size=8)
values = st.recursive(
    scalars,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=8), kids,
                                                              max_size=4),
    max_leaves=16)
# mostly well-formed coordinate lists, so the loaders get past their
# first check
coords = st.lists(ints | st.floats(), min_size=1, max_size=3) | values

obstacles = st.fixed_dictionaries(
    {"type": st.sampled_from(["box", "sphere"]) | values},
    optional={"min": coords, "max": coords, "center": coords,
              "radius": ints | st.floats() | values})
scenes = st.fixed_dictionaries({}, optional={
    "name": values, "lower": coords, "upper": coords,
    "obstacles": st.lists(obstacles | values, max_size=3) | values,
}) | values

field_names = st.sampled_from([f.name for f in fields(SprintParams)])
param_names = field_names | st.text(max_size=6)
# the values a parsed JSON params file can hold for a field
param_objects = st.dictionaries(field_names, st.none() | st.booleans() | ints | st.floats(),
                                max_size=6)
names = st.lists(st.text(max_size=8), min_size=1, max_size=3)
# "scenes" and "planners" are checked first, so they are mostly well formed
grids = st.fixed_dictionaries({
    "scenes": names | values,
    "planners": names | values,
}, optional={
    "seeds": (st.fixed_dictionaries({}, optional={"start": ints | scalars,
                                                  "count": ints | scalars})
              | st.lists(scalars, max_size=4) | values),
    "max_samples": scalars,
    "params": st.dictionaries(param_names, scalars, max_size=4) | values,
    "svg": scalars,
    "endpoints": st.dictionaries(st.text(max_size=6),
                                 st.lists(coords, max_size=3), max_size=2) | values,
    "extra": values,
}) | values


def _returns_or_raises_value_error(fn, *args):
    try:
        fn(*args)
    except ValueError:
        pass


@FUZZ
@given(scenes)
@example({"name": "x", "lower": [0, 0], "upper": [1, 1],
          "obstacles": [{"type": "sphere", "center": [0.5, 0.5], "radius": 10 ** 400}]})
def test_scene_from_dict(data):
    _returns_or_raises_value_error(scene_from_dict, data)


@FUZZ
@given(grids)
@example({"scenes": ["empty_2d"], "planners": ["sprint"],
          "seeds": {"start": 0, "count": 2 ** 70}})
def test_load_grid_config_from_json(cfg):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "grid.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        _returns_or_raises_value_error(load_grid_config, path)


@FUZZ
@given(st.binary(max_size=64) | st.text(max_size=64).map(str.encode))
def test_load_grid_config_from_raw_bytes(raw):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "grid.json"
        path.write_bytes(raw)
        _returns_or_raises_value_error(load_grid_config, path)


@FUZZ
@given(st.text(max_size=32)
       | st.lists(st.floats().map(repr) | ints.map(str) | st.text(max_size=4),
                  max_size=4).map(",".join))
def test_parse_point(text):
    _returns_or_raises_value_error(_parse_point, "--start", text)


@FUZZ
@given(param_objects)
@example({"k_obs": 2 ** 63})
@example({"k_obs": sys.maxsize, "r_retry": sys.maxsize})
def test_params_from_json(obj):
    # accepted params must build a local tree whose collision memory works
    try:
        p = params_from_json(obj)
    except ValueError:
        return
    tree = LocalTree(np.zeros(2), np.ones(2), p)
    backprop_collision(tree, 0, np.full(2, 0.5))
    assert collision_points(0, tree).shape == (1, 2)


# up to three float fields, each at a power of ten the float range holds
float_fields = st.sampled_from([f.name for f in fields(SprintParams) if f.type != "int"])
float_params = st.dictionaries(float_fields, st.integers(-323, 308).map(lambda e: float(f"1e{e}")),
                               max_size=3)


@FUZZ
@given(float_params, st.sampled_from(["empty_2d", "narrow_passage_6d"]),
       st.sampled_from(["sprint", "sprint:random-params", "sprint:no-pr3", "rrt", "rrt-connect"]),
       st.integers(0, 3))
@example({"lam": 1e-300}, "empty_2d", "sprint", 0)
@example({"lam": 1e-160}, "narrow_passage_6d", "sprint", 0)
@example({"w3_l": 1e308}, "narrow_passage_6d", "sprint", 0)
def test_accepted_params_end_a_trial_within_its_budget(overrides, name, planner, seed):
    # params are refused before the trial, or the trial ends as every trial
    # does: solved, or unsolved at its budget
    scene = fixture_scene(name)
    try:
        params = trial_params(name, scene, overrides, (planner,))
    except ValueError:
        return
    record, _, _ = run_trial(planner, scene, *fixture_endpoints(name), seed, params, 300)
    assert record.status in ("Solved", "BudgetExhausted")
    assert record.total_samples <= 300


@contextlib.contextmanager
def _alarm(seconds):
    """Raise TimeoutError in the block after seconds, so a trial that never
    ends fails its test instead of stalling the suite."""
    def expire(signum, frame):
        raise TimeoutError(f"trial still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


@settings(FUZZ, max_examples=1000)
@given(st.integers(-300, 160), st.sampled_from([2, 3, 6]), st.none() | st.integers(-12, -1),
       st.sampled_from(PLANNER_IDS), st.integers(0, 3))
# distances underflow to 0 in the tiny box and overflow in the huge one
@example(-300, 3, None, "rrt", 0)
@example(-300, 3, None, "rrt-connect", 0)
@example(160, 2, -10, "rrt", 0)
@example(160, 2, -10, "sprint", 0)
def test_trial_contract_over_scene_scales(k, d, j, planner, seed):
    # the box [0, 10^k]^d, start and goal at 0.1 and 0.9 of it, and lam
    # either the default or 10^(k + j): the scene or its params are refused
    # before the trial, or the trial ends solved or at its budget
    side = float(f"1e{k}")
    overrides = {} if j is None else {"lam": float(f"1e{k + j}")}
    try:
        scene = Scene(name="scale", lower=np.zeros(d), upper=np.full(d, side))
        params = trial_params("scale", scene, overrides, (planner,))
    except ValueError:
        return
    start, goal = np.full(d, 0.1 * side), np.full(d, 0.9 * side)
    with _alarm(10):
        record, _, _ = run_trial(planner, scene, start, goal, seed, params, 300)
    assert record.status in ("Solved", "BudgetExhausted")
    assert record.total_samples <= 300


# comma-separated coordinates, often a free 2-D point, sometimes anything
point_texts = (st.lists(st.floats(0, 1).map(repr), min_size=2, max_size=3).map(",".join)
               | st.lists(st.floats().map(repr) | ints.map(str) | st.text(max_size=4),
                          max_size=4).map(",".join)
               | st.text(max_size=16))


def _run_main(argv) -> tuple[int, str, str]:
    """main's exit code, stdout and stderr; argparse's own rejections exit
    through SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as e:
            rc = e.code
    return rc, out.getvalue(), err.getvalue()


@settings(FUZZ, max_examples=50)
@given(st.sampled_from(FIXTURE_NAMES) | st.text(max_size=12),
       # argparse rejects every other id alike: these stand in for them,
       # alias spellings of valid ids among them
       st.sampled_from((*PLANNER_IDS, "RRT", "rrt:", "sprint:default", "rrt:no-pr1")),
       st.none() | point_texts, st.none() | point_texts)
@example("", "sprint", None, None)
@example("empty_2d", "rrt:no-pr1", None, None)
@example("empty_2d", "sprint:no-pr2", "0.1,0.1", "0.1,0.1")
@example("single_box_2d", "rrt-connect", "0.5,0.5", "0.9,0.9")
@example("narrow_passage_6d", "sprint", "0.1,0.1", "0.9,0.9")
@example("empty_2d", "sprint", "0.1,0.1", None)
@example("-x", "-x", "-1,-1", "2,2")
def test_plan_command_strings(scene, planner, start, goal):
    # a run prints its one status line; any rejection, argparse's included,
    # exits 2 with one error line and no traceback
    argv = ["plan", f"--scene={scene}", f"--planner={planner}", "--max-samples=2000"]
    argv += [f"--start={start}"] * (start is not None) + [f"--goal={goal}"] * (goal is not None)
    rc, out, err = _run_main(argv)
    if rc == 0:
        assert err == ""
        assert len(out.splitlines()) == 1 and " status=" in out
    else:
        assert rc == 2 and out == ""
        lines = err.splitlines()
        assert [line for line in lines if "error: " in line] == lines[-1:]
        assert "Traceback" not in err
        # the library's own errors are a single line
        assert len(lines) == 1 or lines[-1].startswith("sprint plan: error: ")


# --svg targets relative to a fresh working directory that holds the
# directory "sub" and the file "file"; none climbs out of it
svg_names = (st.sampled_from(["", ".", "sub", "file", "missing", "x.svg", "\0"])
             | st.text(st.characters(blacklist_characters="/", blacklist_categories=("Cs",)),
                       max_size=8))
svg_paths = st.lists(svg_names, min_size=1, max_size=3).map("/".join).filter(
    lambda p: not p.startswith("/") and ".." not in p.split("/"))


@settings(FUZZ, max_examples=50)
@given(svg_paths)
@example("")
@example("sub")
@example("sub/x.svg")
@example("missing/x.svg")
@example("file/x.svg")
@example("x\0.svg")
def test_plan_command_svg_paths(text):
    # a run prints its status line, writes the render and says so; a bad
    # target is one error line before the trial, so nothing reaches stdout
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as d:
        os.chdir(d)
        try:
            Path("sub").mkdir()
            Path("file").write_text("", encoding="utf-8")
            rc, out, err = _run_main(["plan", "--scene=empty_2d", f"--svg={text}",
                                      "--max-samples=300"])
            if rc == 0:
                status, rest = out.split("\n", 1)
                assert err == "" and " status=" in status and rest == f"wrote {text}\n"
                assert Path(text).is_file()
            else:
                assert rc == 2 and out == ""
                assert err.startswith("error: --svg ") and err.count("\n") == 1
        finally:
            os.chdir(cwd)


@settings(FUZZ, max_examples=50)
@given(param_objects.map(json.dumps) | values.map(json.dumps) | st.text(max_size=32))
@example("[" * 100_000 + "]" * 100_000)
@example('{"lam": 1e-300, "milestone_batch": 1}')
@example('{"lam": 1e300}')
def test_plan_command_params_file(text):
    # whatever a params file holds, a run within a small budget prints its
    # one status line, or the CLI prints a one-line error
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "params.json"
        path.write_text(text, encoding="utf-8")
        rc, out, err = _run_main(["plan", "--scene=empty_2d", f"--params={path}",
                                  "--max-samples=300"])
    if rc == 0:
        assert err == ""
        assert len(out.splitlines()) == 1 and " status=" in out
    else:
        assert rc == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def test_empty_scene_name_is_a_one_line_error():
    # "" names no fixture; as a path it is the working directory, no scene file
    rc, out, err = _run_main(["plan", "--scene="])
    assert (rc, out) == (2, "")
    assert err.startswith("error: unknown scene ''")
    assert err.count("\n") == 1


@settings(FUZZ, max_examples=50)
@given(st.sampled_from(PLANNER_IDS), ints, ints)
@example("sprint", 0, 1)
@example("rrt", 0, 0)
@example("rrt-connect", -1, 10)
@example("sprint", 2 ** 64, 2 ** 64)
def test_plan_command_numbers(planner, seed, budget):
    # a run reports one status line within its budget, or the CLI prints a
    # one-line error; any other exception escapes main as a traceback
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["plan", "--scene", "empty_2d", "--planner", planner,
                   f"--seed={seed}", f"--max-samples={budget}"])
    if rc == 0:
        assert err.getvalue() == ""
        lines = out.getvalue().splitlines()
        assert len(lines) == 1 and " status=" in lines[0]
        assert int(re.search(r" samples=(\d+) ", lines[0]).group(1)) <= budget
    else:
        assert rc == 2 and out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
