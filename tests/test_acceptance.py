"""End-to-end acceptance suite.

Each test covers one release criterion and reports a single pass/fail line
in the pytest terminal summary.  The benchmark-grid tests run the planners
over fixed seed ranges, so their numbers are reproducible bit-for-bit on
any machine; the wall-clock limits are asserted from fresh measurements.
"""

import collections
import math
import statistics
import time

import numpy as np
import pytest

from sprint_planner.baselines import KdTree
from sprint_planner.bench import run_trial, record_row
from sprint_planner.geometry import dist
from sprint_planner.global_planner import PlanStatus, SprintParams, plan
from sprint_planner.local_planner import (LocalTree, grad_g2, grad_g3,
                                          promote_checkpoint, subtree_sigma,
                                          valid_node)
from sprint_planner.scenes import fixture_endpoints, fixture_lam, fixture_scene
from sprint_planner.world import CollisionOracle, Scene

from conftest import record_criterion
from reference import checkpoint_path

SEEDS = range(100)
BUDGET = 50_000


def _report(num: int, ok: bool, detail: str) -> str:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    record_criterion(line)
    return line


def _grid(name: str, planners, lam: float):
    scene = fixture_scene(name)
    start, goal = fixture_endpoints(name)
    params = SprintParams(lam=lam)
    out = {}
    for planner in planners:
        out[planner] = [run_trial(planner, scene, start, goal, seed, params, BUDGET)[0]
                        for seed in SEEDS]
    return out


def _solved(records):
    return [r for r in records if r.status == "Solved"]


def _median_samples(records):
    return statistics.median(r.total_samples for r in _solved(records))


def _mean_ratio(records):
    return statistics.fmean(r.delta_useful_ratio for r in _solved(records))


def _mean_length(records):
    return statistics.fmean(r.path_length for r in _solved(records))


@pytest.fixture(scope="module")
def efficiency_grid():
    """Three-planner grid on the narrow-passage scene, shared by the
    sample-efficiency, delta-usefulness, and path-parity tests."""
    t0 = time.perf_counter()
    grid = _grid("narrow_passage_2d", ("sprint", "rrt-connect", "rrt"),
                 fixture_lam("narrow_passage_2d"))
    return grid, time.perf_counter() - t0


@pytest.fixture(scope="module")
def usefulness_grids(efficiency_grid):
    """Delta-usefulness comparison grids over the cluttered 2-D fixtures."""
    grid, elapsed = efficiency_grid
    t0 = time.perf_counter()
    grids = {"narrow_passage_2d": grid}
    for name in ("single_box_2d", "vertical_bars_2d"):
        grids[name] = _grid(name, ("sprint", "rrt-connect", "rrt"),
                            fixture_lam(name))
    return grids, elapsed + (time.perf_counter() - t0)


class TestCriterion1StraightLine:
    def test_empty_scenes_resolve_to_straight_lines(self):
        t0 = time.perf_counter()
        cases = [
            (fixture_scene("empty_2d"), *fixture_endpoints("empty_2d"), 0.05),
            (Scene(name="empty_10d", lower=np.zeros(10), upper=np.ones(10)),
             np.full(10, 0.1), np.full(10, 0.9), 0.3),
        ]
        worst_dev = 0.0
        ok = True
        for scene, start, goal, lam in cases:
            params = SprintParams(lam=lam)
            oracle = CollisionOracle(scene)
            res = plan(start, goal, oracle, params, np.random.default_rng(0))
            seg = goal - start
            for q in res.path:
                t = float(np.dot(q - start, seg) / np.dot(seg, seg))
                worst_dev = max(worst_dev, float(np.linalg.norm(q - (start + t * seg))))
            line_samples = math.ceil(dist(start, goal) / lam)
            init_samples = 2 + params.milestone_batch  # endpoint checks + batch
            ok &= res.total_samples == line_samples + init_samples
        elapsed = time.perf_counter() - t0
        ok &= worst_dev <= 1e-9 and elapsed < 1.0
        line = _report(1, ok, f"straight-line deviation {worst_dev:.2e} <= 1e-9, "
                              f"exact sample counts, {elapsed:.2f}s < 1s")
        assert ok, line


class TestCriterion2Completeness:
    def test_solves_every_seed_within_budget(self):
        t0 = time.perf_counter()
        failures = []
        for name in ("narrow_passage_2d", "vertical_bars_2d", "narrow_passage_6d"):
            # SPRINT without a sample log, as run_trial("sprint", ...) plans
            scene, (start, goal) = fixture_scene(name), fixture_endpoints(name)
            params = SprintParams(lam=fixture_lam(name))
            n = sum(plan(start, goal, CollisionOracle(scene, budget=BUDGET), params,
                         np.random.default_rng(seed)).status is PlanStatus.SOLVED
                    for seed in SEEDS)
            if n != len(SEEDS):
                failures.append(f"{name}: {n}/{len(SEEDS)}")
        elapsed = time.perf_counter() - t0
        ok = not failures and elapsed < 120.0
        line = _report(2, ok, f"100/100 seeds solved within {BUDGET} samples on all "
                              f"three fixtures, {elapsed:.1f}s < 120s"
                              + (f"; failures: {failures}" if failures else ""))
        assert ok, line


class TestCriterion3SampleEfficiency:
    def test_median_sample_ordering(self, efficiency_grid):
        grid, elapsed = efficiency_grid
        sprint = _median_samples(grid["sprint"])
        rrtc = _median_samples(grid["rrt-connect"])
        rrt = _median_samples(grid["rrt"])
        ok = sprint < 0.5 * rrtc and sprint < 0.25 * rrt and elapsed < 300.0
        line = _report(3, ok, f"median samples {sprint:g} < 0.5x{rrtc:g} and "
                              f"< 0.25x{rrt:g}, {elapsed:.1f}s < 300s")
        assert ok, line


class TestCriterion4DeltaUsefulness:
    def test_mean_ratio_ordering(self, usefulness_grids):
        grids, elapsed = usefulness_grids
        details = []
        ok = elapsed < 300.0
        for name, grid in grids.items():
            if any(len(_solved(grid[p])) < 90 for p in grid):
                details.append(f"{name}: skipped (a planner solved < 90 seeds)")
                continue
            s = _mean_ratio(grid["sprint"])
            c = _mean_ratio(grid["rrt-connect"])
            r = _mean_ratio(grid["rrt"])
            ok &= s > c > r
            details.append(f"{name}: {s:.3f} > {c:.3f} > {r:.3f}")
        line = _report(4, ok, "mean delta-useful ratio ordering on "
                              + "; ".join(details) + f", {elapsed:.1f}s < 300s")
        assert ok, line


class TestCriterion5PathParity:
    def test_mean_path_length_within_bound(self, efficiency_grid):
        grid, _ = efficiency_grid
        sprint = _mean_length(grid["sprint"])
        rrtc = _mean_length(grid["rrt-connect"])
        ok = sprint <= 1.25 * rrtc
        line = _report(5, ok, f"mean path length {sprint:.3f} <= 1.25 x {rrtc:.3f}")
        assert ok, line


class TestCriterion6Ablations:
    def test_heuristic_removal_degrades_performance(self):
        t0 = time.perf_counter()
        lam = 0.02
        modes = ("sprint", "sprint:no-pr1", "sprint:no-pr2", "sprint:no-pr3",
                 "sprint:random-params")
        grid = _grid("narrow_passage_2d", modes, lam)
        elapsed = time.perf_counter() - t0

        default_rate = len(_solved(grid["sprint"])) / len(SEEDS)
        default_med = _median_samples(grid["sprint"])
        nopr3_rate = len(_solved(grid["sprint:no-pr3"])) / len(SEEDS)
        nopr1_med = _median_samples(grid["sprint:no-pr1"])
        nopr2_med = _median_samples(grid["sprint:no-pr2"])
        rand_med = _median_samples(grid["sprint:random-params"])
        rand_rate = len(_solved(grid["sprint:random-params"])) / len(SEEDS)

        ok = (nopr3_rate < 0.2 * default_rate
              and nopr1_med >= 2.0 * default_med
              and nopr2_med >= 2.0 * default_med
              and rand_med <= 2.0 * default_med
              and rand_rate >= 0.9
              and elapsed < 600.0)
        line = _report(6, ok, f"default med={default_med:g}; no-pr3 success "
                              f"{nopr3_rate:.0%} < 20% of {default_rate:.0%}; "
                              f"no-pr1 med={nopr1_med:g} and no-pr2 med={nopr2_med:g} >= 2x; "
                              f"random-params med={rand_med:g} <= 2x at {rand_rate:.0%} success; "
                              f"{elapsed:.1f}s < 600s")
        assert ok, line


class TestCriterion7HeuristicMath:
    def test_heuristic_formulas(self):
        t0 = time.perf_counter()
        lam = 0.1
        checks = []

        # goal-pull magnitude: 1 at large separation, 2 at vanishing separation
        far = grad_g2(np.zeros(2), np.array([50.0, 0.0]), lam)
        near = grad_g2(np.zeros(2), np.array([1e-12, 0.0]), lam)
        checks.append(abs(np.linalg.norm(far) - 1.0) <= 1e-9)
        checks.append(abs(np.linalg.norm(near) - 2.0) <= 1e-6)

        # repulsion magnitude peaks at exactly 5 for a zero-separation point
        rng = np.random.default_rng(0)
        q_x, q_c = np.zeros(2), np.array([0.1, 0.0])
        peak = grad_g3(q_x, q_c, [q_c.copy()], lam, rng)
        checks.append(abs(np.linalg.norm(peak) - 5.0) <= 1e-9)

        # points projecting behind the extend node are gated to zero
        behind = grad_g3(q_x, q_c, [np.array([-0.5, 0.2])], lam, rng)
        checks.append(float(np.linalg.norm(behind)) == 0.0)

        # culling gate: probability 1 at zero stall, monotone decay, kappa=0.3
        p = SprintParams(lam=lam)
        checks.append(p.kappa == 0.3)
        tree = LocalTree(np.zeros(2), np.ones(2), p)
        checks.append(valid_node(0, tree))  # g(0) = 1 passes any kappa < 1
        c = subtree_sigma(1, p)
        gs = [math.exp(-(x * x) / (2 * c * c)) for x in range(0, 200, 10)]
        checks.append(all(a >= b for a, b in zip(gs, gs[1:])))
        cutoff = c * math.sqrt(-2.0 * math.log(p.kappa))
        rec = tree.records[0]
        rec.samples_since_exploit = rec.samples_since_explore = int(cutoff) + 1
        checks.append(not valid_node(0, tree))

        # region selection is invariant under positive weight scaling.  Each
        # box_maze_10d run records one failed region, so its scores carry a
        # peak term; the narrow_passage_2d run records two, and a scorer
        # that weighs g1 against the peak term (a weighted sum, or weights as
        # exponents) changes its picks
        def run(name, lam, seed, **weights):
            oracle = CollisionOracle(fixture_scene(name), budget=BUDGET)
            res = plan(*fixture_endpoints(name), oracle, SprintParams(lam=lam, **weights),
                       np.random.default_rng(seed))
            return res.status, res.total_samples, None if res.path is None else res.path.tobytes()

        for case in (("box_maze_10d", lam, 5), ("box_maze_10d", lam, 9),
                     ("narrow_passage_2d", 0.05, 15)):
            base = run(*case)
            checks.append(base[0] is PlanStatus.SOLVED)
            for w1, w2 in ((10.0, 1.0), (0.01, 5.0), (3.3, 777.0)):
                checks.append(run(*case, w1_g=w1, w2_g=w2) == base)

        elapsed = time.perf_counter() - t0
        ok = all(checks) and elapsed < 1.0
        line = _report(7, ok, f"{len(checks)} heuristic math checks, {elapsed:.2f}s < 1s")
        assert ok, line


def _ancestors(tree, i):
    """Node ids from i up to and including the root, by the parents list."""
    out = []
    while i != -1:
        out.append(i)
        i = tree.parents[i]
    return out


class TestCriterion8StructuralInvariants:
    def test_structural_invariants(self):
        t0 = time.perf_counter()
        checks = []

        # checkpoint bookkeeping vs a full-scan oracle on random scripts
        rng = np.random.default_rng(0)
        for _ in range(10):
            tree = LocalTree(rng.uniform(0, 1, 2), rng.uniform(0, 1, 2),
                             SprintParams(lam=0.05))
            for _ in range(60):
                parent = int(rng.integers(len(tree.points)))
                tree.add(rng.uniform(0, 1, 2), parent)
                if len(tree.children[parent]) >= 2:
                    promote_checkpoint(tree, parent)
            # node i is a checkpoint exactly when i is in records
            child_counts = collections.Counter(tree.parents[1:])
            scan = {i for i, n in child_counts.items() if n >= 2} | {0}
            checks.append(scan == set(tree.records))
            for nid in range(len(tree.points)):
                expect = [i for i in _ancestors(tree, nid) if i in tree.records]
                checks.append(checkpoint_path(tree, nid) == expect)

        # nearest-neighbor index vs linear scan, 1000 points x 100 queries
        pts = rng.uniform(0, 1, size=(1000, 4))
        kd = KdTree(4)
        for ptx in pts:
            kd.insert(ptx)
        for q in rng.uniform(0, 1, size=(100, 4)):
            checks.append(kd.nearest(q) == int(np.argmin(np.sum((pts - q) ** 2, axis=1))))

        # every produced path keeps the fixed edge length
        scene = fixture_scene("narrow_passage_2d")
        start, goal = fixture_endpoints("narrow_passage_2d")
        lam = fixture_lam("narrow_passage_2d")
        for seed in range(5):
            res = plan(start, goal, CollisionOracle(scene), SprintParams(lam=lam),
                       np.random.default_rng(seed))
            steps = np.linalg.norm(np.diff(res.path, axis=0), axis=1)
            checks.append(bool(np.all(steps <= lam * (1.0 + 1e-9))))
            checks.append(bool(np.all(np.abs(steps[:-1] - lam) <= lam * 1e-9)))

        # per-seed byte determinism of results and CSV rows (wall time is the
        # one machine-dependent column and is excluded)
        for seed in (0, 7):
            runs = []
            for _ in range(2):
                rec, res, _ = run_trial("sprint", scene, start, goal, seed,
                                        SprintParams(lam=lam), BUDGET)
                row = record_row(rec)
                row[6] = ""
                runs.append((res.path.tobytes(), res.total_samples, row))
            checks.append(runs[0] == runs[1])

        elapsed = time.perf_counter() - t0
        ok = all(checks) and elapsed < 30.0
        line = _report(8, ok, f"{len(checks)} structural checks, {elapsed:.1f}s < 30s")
        assert ok, line
