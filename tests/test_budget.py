"""The sample budget is a hard cap kept by the oracle: no trial takes more
samples than its budget, endpoint checks and milestone draws included, and
a trial that does not solve stops at exactly its budget."""

import pytest

from sprint_planner.bench import PLANNER_IDS, run_trial
from sprint_planner.params import SprintParams
from sprint_planner.scenes import FIXTURE_NAMES, fixture_endpoints, fixture_lam, fixture_scene


@pytest.mark.parametrize("budget", [1, 2, 3, 5, 20, 51, 52, 100, 200])
def test_no_trial_exceeds_its_budget(budget):
    for name in FIXTURE_NAMES:
        scene, (start, goal) = fixture_scene(name), fixture_endpoints(name)
        params = SprintParams(lam=fixture_lam(name))
        for planner in PLANNER_IDS:
            for seed in (0, 1):
                rec, _, oracle = run_trial(planner, scene, start, goal, seed, params, budget)
                trial = (planner, name, seed, rec.status)
                assert rec.total_samples <= budget, trial
                if rec.status != "Solved":
                    assert rec.total_samples == budget, trial
                assert oracle.sample_count == len(oracle.samples) == rec.total_samples, trial
