"""The benchmark's per-layer tracer patches library functions by module name
(`perfbench/tracing.py`, HOOKS).  A function that is renamed, or bound where
the patch cannot reach it (a default argument, a module-level alias), leaves
its layer reading zero.  These checks load the tracer as it is and run one
traced trial of each planner."""

import importlib.util
from pathlib import Path

import pytest

from sprint_planner import local_planner
from sprint_planner.bench import run_trial
from sprint_planner.params import SprintParams
from sprint_planner.scenes import fixture_endpoints, fixture_lam, fixture_scene

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_target_exists(tracing):
    assert tracing.Tracer().absent == []


def _traced_trial(tracing, planner, name="single_box_2d", budget=50_000):
    """One traced trial, seed 0: its record, per-layer call counts and
    counters."""
    start, goal = fixture_endpoints(name)
    tracer = tracing.Tracer()
    with tracer.trial({}):
        rec, _, _ = run_trial(planner, fixture_scene(name), start, goal, 0,
                              SprintParams(lam=fixture_lam(name)), budget)
    trial = tracer.trials[0]
    return rec, {layer: acc[0] for layer, acc in trial["layers"].items()}, trial["counters"]


def test_traced_sprint_trial_reaches_the_global_and_local_hooks(tracing):
    # every default SPRINT step is looked up where the tracer patches it
    rec, calls, _ = _traced_trial(tracing, "sprint")
    for layer in ("global_planner.plan", "global_planner.select",
                  "global_planner.add_milestones", "local_planner.local_search",
                  "local_planner.valid_node", "local_planner.local_edge",
                  "local_planner.grad_g3", "local_planner.backprop"):
        assert calls.get(layer, 0) >= 1, layer
    assert calls.get("world.is_free", 0) == rec.total_samples


def test_grad_g3_obs_counter_is_the_length_of_the_third_argument(tracing, monkeypatch):
    # the tracer's counter takes len() of grad_g3's third argument, the
    # collision points' offsets; the wrapper takes them by position only, so
    # a call that passes them by keyword fails here as it does in the tracer
    lengths = []
    grad_g3 = local_planner.grad_g3

    def counted(q_x, q_c, rel, lam, rng, /):
        lengths.append(len(rel))
        return grad_g3(q_x, q_c, rel, lam, rng)

    monkeypatch.setattr(local_planner, "grad_g3", counted)
    _, calls, counters = _traced_trial(tracing, "sprint", "narrow_passage_2d")
    assert calls["local_planner.grad_g3"] == len(lengths) > 0
    assert counters["local_planner.grad_g3.obs"] == sum(lengths) > len(lengths)


@pytest.mark.parametrize("planner", ["rrt", "rrt-connect"])
def test_traced_baseline_trial_reaches_the_kd_tree_hooks(tracing, planner):
    rec, calls, counters = _traced_trial(tracing, planner)
    assert calls.get("baselines.nearest", 0) >= 1
    assert calls.get("baselines.insert", 0) >= 1
    # the nearest hook's counter takes len() of the KdTree it is called on
    assert counters["baselines.nearest.tree_size"] >= calls["baselines.nearest"]
    assert calls.get("world.is_free", 0) == rec.total_samples
    if planner == "rrt":
        # every RRT sample past the two endpoint checks follows one row's
        # nearest call, so every row reaches the hooked KdTree.nearest
        assert calls["baselines.nearest"] >= calls["world.is_free"] - 2


@pytest.mark.parametrize("budget", [1, 2, 51])
@pytest.mark.parametrize("planner", ["sprint", "sprint:no-pr2", "rrt", "rrt-connect"])
def test_a_query_past_the_budget_never_reaches_is_free(tracing, planner, budget):
    # the tracer counts every is_free call, so a refused query that reached
    # it would break calls == total_samples
    rec, calls, _ = _traced_trial(tracing, planner, "narrow_passage_2d", budget)
    assert rec.status == "BudgetExhausted"
    assert calls.get("world.is_free", 0) == rec.total_samples == budget
