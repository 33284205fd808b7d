"""Fixed-seed SPRINT outcomes: the default planner on the high-dimensional
fixtures, and the uniform region choice (`sprint:no-pr1`, the scorer's
select_random path) on a 2-D and a 10-D fixture.

A change to the local or global layer that is meant to keep behaviour must
keep these (status, total_samples) pairs; they catch trajectory drift in
seconds, without the acceptance grids.
"""

import pytest

from sprint_planner.bench import run_trial
from sprint_planner.params import SprintParams
from sprint_planner.scenes import fixture_endpoints, fixture_lam, fixture_scene

PINNED = {
    "narrow_passage_6d": [("Solved", 4306), ("Solved", 4252), ("Solved", 3925),
                          ("Solved", 4924), ("Solved", 169)],
    "box_maze_10d": [("Solved", 5068), ("Solved", 5873), ("Solved", 4564),
                     ("Solved", 5424), ("Solved", 4930)],
}

PINNED_RANDOM_SELECT = {
    "narrow_passage_2d": [("Solved", 5363), ("Solved", 3236), ("Solved", 556),
                          ("Solved", 1692), ("Solved", 10384)],
    "box_maze_10d": [("Solved", 2075), ("Solved", 13677), ("Solved", 16173),
                     ("Solved", 8000), ("Solved", 2155)],
}


def _outcomes(planner, name):
    scene = fixture_scene(name)
    start, goal = fixture_endpoints(name)
    params = SprintParams(lam=fixture_lam(name))
    got = []
    for seed in range(5):
        rec = run_trial(planner, scene, start, goal, seed, params, 50_000,
                        record_samples=False)[0]
        got.append((rec.status, rec.total_samples))
    return got


@pytest.mark.parametrize("name", sorted(PINNED))
def test_sprint_outcomes_are_pinned(name):
    assert _outcomes("sprint", name) == PINNED[name]


@pytest.mark.parametrize("name", sorted(PINNED_RANDOM_SELECT))
def test_random_region_selection_is_pinned(name):
    assert _outcomes("sprint:no-pr1", name) == PINNED_RANDOM_SELECT[name]
