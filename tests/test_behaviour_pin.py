"""Fixed-seed outcomes: the default SPRINT planner on the high-dimensional
fixtures, the uniform region choice (`sprint:no-pr1`, a select_fn over the
scorer's select_random) on a 2-D and a 10-D fixture, the heuristic-override
ablations (`sprint:no-pr2`, `sprint:no-pr3`, `sprint:random-params`) on
`single_box_2d`, and both baselines on the same two fixtures and on the
short-trial fixtures `single_box_2d` and `vertical_bars_2d`.

A change that is meant to keep behaviour must keep these (status,
total_samples) pairs, the path bytes of SPRINT on the high-dimensional
fixtures, of the uniform region choice and of the baselines, the exact
delta-useful ratio of all three planners on those two fixtures, and the
tree segments all three return on `narrow_passage_2d`; they catch
trajectory and metric drift in seconds, without the acceptance grids.
"""

import functools
import hashlib

import numpy as np
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

# first 16 hex digits of sha256(path.tobytes()), seeds 0-4
PINNED_SPRINT_PATHS = {
    "narrow_passage_6d": ["3307a033980d42c4", "2ac0886fa77d2b70", "b13e487a9cbef4e6",
                          "ea50f1319f8565b2", "29f153b00ce0ca15"],
    "box_maze_10d": ["9211f0de71bd09e6", "6f6a9a297d02430e", "19129d70ed290423",
                     "34cb3614c2cf7f87", "919430c097be3818"],
}

# (status, total_samples, first 16 hex digits of sha256(path.tobytes())),
# seeds 0-4
PINNED_RANDOM_SELECT = {
    "narrow_passage_2d": [
        ("Solved", 5363, "8f7b26ab692864d4"), ("Solved", 3236, "23c9bac8bc9ad632"),
        ("Solved", 556, "ab5cc1f6ff088038"), ("Solved", 1692, "b2e97b05e9c8582e"),
        ("Solved", 10384, "35b4c1affc732fe4")],
    "box_maze_10d": [
        ("Solved", 2075, "bb81d00c511d1af0"), ("Solved", 13677, "a06bf381392d13dc"),
        ("Solved", 16173, "61b0addde1a062f9"), ("Solved", 8000, "462b60e91e7a2859"),
        ("Solved", 2155, "34561d8a923a426a")],
}

# (status, total_samples, first 16 hex digits of sha256(path.tobytes())),
# single_box_2d, seeds 0-4: the coin-flip gate, the random edge and the
# perturbed parameters each reach the local search through an override
PINNED_ABLATIONS = {
    "sprint:no-pr2": [
        ("Solved", 934, "207b93a81ce97ebb"), ("Solved", 5409, "8f85a27ff03c3419"),
        ("Solved", 3593, "3088993909accf50"), ("Solved", 1417, "b5ca92f954d84e42"),
        ("Solved", 4525, "a4428fcc4882c115")],
    "sprint:no-pr3": [
        ("Solved", 24997, "79a46192599f3867"), ("Solved", 37952, "03cf6371d0f314ed"),
        ("Solved", 47951, "747dc8b0f8150e8a"), ("Solved", 31526, "f702030ece98a7ca"),
        ("BudgetExhausted", 50000, None)],
    "sprint:random-params": [
        ("Solved", 107, "59cbc3d8fe5f4a92"), ("Solved", 104, "80850ab8d8ef1e88"),
        ("Solved", 118, "a8d66b4be8cd6dae"), ("Solved", 118, "550e718ca11f8d83"),
        ("Solved", 96, "dece215b2ab4ca1c")],
}

# (status, total_samples, first 16 hex digits of sha256(path.tobytes()))
PINNED_BASELINES = {
    ("rrt", "narrow_passage_2d"): [
        ("Solved", 1531, "f557da0a05966145"), ("Solved", 2713, "631c0aa1de924b9d"),
        ("Solved", 10786, "15f113de820b3fc4"), ("Solved", 6178, "d6ff5b5b3dcbc9fe"),
        ("Solved", 1335, "77744ff4a4616aa9")],
    ("rrt", "box_maze_10d"): [
        ("Solved", 3392, "2c2084e24ab980fa"), ("Solved", 38370, "d18c05ba7fe0ae10"),
        ("Solved", 3683, "4ac965df5e0b5f7d"), ("Solved", 2171, "222c997924e3c24a"),
        ("Solved", 2790, "c649286c5f7db421")],
    ("rrt-connect", "narrow_passage_2d"): [
        ("Solved", 797, "ae61411a68d9af53"), ("Solved", 934, "98e5e7b3d835961f"),
        ("Solved", 2487, "d13dad6a1c65f66c"), ("Solved", 616, "53f0e113d3bba087"),
        ("Solved", 8575, "5ac23269ed8145ac")],
    ("rrt-connect", "box_maze_10d"): [
        ("Solved", 24910, "020f3051765ec5d0"), ("Solved", 4397, "7067371f685a676e"),
        ("Solved", 2720, "1f350ebba307e57e"), ("Solved", 23162, "bd18b774a02d60ce"),
        ("Solved", 32499, "f3a79a8cba70d0d2")],
    # short trials, where trees stay small for most of the run
    ("rrt", "single_box_2d"): [
        ("Solved", 211, "c5655c6bdda56a6e"), ("Solved", 269, "392624f9a8a26328"),
        ("Solved", 243, "b53e16a63a1121b9"), ("Solved", 308, "f38d5e80991bb23f"),
        ("Solved", 248, "c2f6d33da0d0c717")],
    ("rrt", "vertical_bars_2d"): [
        ("Solved", 1290, "66cd4a3af723d406"), ("Solved", 1289, "1d992a1a45ffdc14"),
        ("Solved", 2873, "5593c706f8fbe8ad"), ("Solved", 3487, "13b21cf6ad21eae7"),
        ("Solved", 770, "398a143ebae5e193")],
    ("rrt-connect", "single_box_2d"): [
        ("Solved", 139, "e542fa805f00585f"), ("Solved", 180, "240726994ee50e5b"),
        ("Solved", 149, "ed1e55e2406e0e7c"), ("Solved", 179, "ff2b2915d1c63025"),
        ("Solved", 191, "ad7f228ff222b0a7")],
    ("rrt-connect", "vertical_bars_2d"): [
        ("Solved", 457, "730a0cf3bdeb0232"), ("Solved", 432, "a535afff12746838"),
        ("Solved", 592, "255037412e45acb4"), ("Solved", 2235, "b8d4a270d2588cf9"),
        ("Solved", 384, "5496bd57b846b04c")],
}


# repr of delta_useful_ratio, seeds 0-4.  Free samples at exactly 2*lam from
# the path are common and rounding decides them, so these catch a change to
# how the metric's distances are computed as well as trajectory drift.
PINNED_RATIOS = {
    ("sprint", "narrow_passage_2d"): [
        "0.7953795379537953", "0.7887788778877888", "0.7934426229508197",
        "0.7785016286644951", "0.7908496732026143"],
    ("sprint", "box_maze_10d"): [
        "0.038082083662194156", "0.03814064362336114", "0.03812445223488168",
        "0.021202064896755163", "0.027991886409736308"],
    ("rrt", "narrow_passage_2d"): [
        "0.26192031352057477", "0.1629192775525249", "0.06564064528091972",
        "0.09533829718355455", "0.2861423220973783"],
    ("rrt", "box_maze_10d"): [
        "0.029775943396226415", "0.004039614281991139", "0.03366820526744502",
        "0.0391524643021649", "0.02939068100358423"],
    ("rrt-connect", "narrow_passage_2d"): [
        "0.38017565872020076", "0.33190578158458245", "0.12947326095697628",
        "0.47564935064935066", "0.05422740524781341"],
    ("rrt-connect", "box_maze_10d"): [
        "0.00630268968285829", "0.02660905162610871", "0.03676470588235294",
        "0.005742163889128745", "0.004400135388781193"],
}


# narrow_passage_2d, seeds 0-4: first 16 hex digits of sha256 over the sorted
# bytes of every (parent, child) segment, as a (2, d) array, of the trees a
# trial returns; the SVG render draws exactly these segments
PINNED_SEGMENTS = {
    "sprint": ["77ad0aff5621f44a", "803690a6c8a0de1c", "3d5e3bd5eeab5265",
               "9b55c5c44e436559", "a93552d876b537d7"],
    "rrt": ["889f81630990cf33", "8e2d8f41b0efe1ca", "fbe1f2c611d3a27b",
            "c022b56759a3c8a1", "0774c162956f56a3"],
    "rrt-connect": ["75993f8f11be6b30", "20a0f48460e1512b", "ee13db8e1d0d8c91",
                    "c1c83376f41427c9", "a19c1532018dc391"],
}


@functools.cache
def _trials(planner, name):
    # the sample log changes no trajectory, and keeping it gives the ratio
    scene = fixture_scene(name)
    start, goal = fixture_endpoints(name)
    params = SprintParams(lam=fixture_lam(name))
    return [run_trial(planner, scene, start, goal, seed, params, 50_000)[:2]
            for seed in range(5)]


def _outcomes(planner, name):
    return [(rec.status, rec.total_samples) for rec, _ in _trials(planner, name)]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_sprint_outcomes_are_pinned(name):
    assert _outcomes("sprint", name) == PINNED[name]


@pytest.mark.parametrize("name", sorted(PINNED_SPRINT_PATHS))
def test_sprint_paths_are_pinned(name):
    got = [hashlib.sha256(res.path.tobytes()).hexdigest()[:16]
           for _, res in _trials("sprint", name)]
    assert got == PINNED_SPRINT_PATHS[name]


@pytest.mark.parametrize("name", sorted(PINNED_RANDOM_SELECT))
def test_random_region_selection_is_pinned(name):
    got = [(rec.status, rec.total_samples,
            hashlib.sha256(res.path.tobytes()).hexdigest()[:16])
           for rec, res in _trials("sprint:no-pr1", name)]
    assert got == PINNED_RANDOM_SELECT[name]


@pytest.mark.parametrize("planner, name", sorted(PINNED_BASELINES))
def test_baseline_trajectories_are_pinned(planner, name):
    got = [(rec.status, rec.total_samples,
            hashlib.sha256(res.path.tobytes()).hexdigest()[:16])
           for rec, res in _trials(planner, name)]
    assert got == PINNED_BASELINES[planner, name]


@pytest.mark.parametrize("planner", sorted(PINNED_ABLATIONS))
def test_ablation_trajectories_are_pinned(planner):
    got = [(rec.status, rec.total_samples,
            None if res.path is None else hashlib.sha256(res.path.tobytes()).hexdigest()[:16])
           for rec, res in _trials(planner, "single_box_2d")]
    assert got == PINNED_ABLATIONS[planner]


@pytest.mark.parametrize("planner, name", sorted(PINNED_RATIOS))
def test_delta_useful_ratios_are_pinned(planner, name):
    got = [repr(rec.delta_useful_ratio) for rec, _ in _trials(planner, name)]
    assert got == PINNED_RATIOS[planner, name]


def _segments_digest(trees):
    segs = sorted(np.stack([t.points[p], q]).tobytes()
                  for t in trees for q, p in zip(t.points, t.parents) if p != -1)
    return hashlib.sha256(b"".join(segs)).hexdigest()[:16]


@pytest.mark.parametrize("planner", sorted(PINNED_SEGMENTS))
def test_tree_segments_are_pinned(planner):
    got = [_segments_digest(res.trees) for _, res in _trials(planner, "narrow_passage_2d")]
    assert got == PINNED_SEGMENTS[planner]
