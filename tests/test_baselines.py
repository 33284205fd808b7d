import numpy as np
import pytest

from sprint_planner.baselines import KdTree, rrt_connect_plan, rrt_plan
from sprint_planner.global_planner import PlanStatus
from sprint_planner.params import BaselineParams
from sprint_planner.world import Box, CollisionOracle, Scene


def empty_oracle(dim=2):
    return CollisionOracle(Scene(name="empty", lower=np.zeros(dim), upper=np.ones(dim)))


def wall_oracle():
    scene = Scene(name="wall", lower=np.zeros(2), upper=np.ones(2),
                  obstacles=(Box(np.array([0.45, 0.0]), np.array([0.55, 0.7])),))
    return CollisionOracle(scene)


class TestKdTree:
    def test_matches_linear_scan(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 1, size=(1000, 3))
        kd = KdTree(3)
        for p in pts:
            kd.insert(p)
        for q in rng.uniform(0, 1, size=(100, 3)):
            expect = int(np.argmin(np.sum((pts - q) ** 2, axis=1)))
            assert kd.nearest(q) == expect

    def test_exact_across_rebuild_boundary(self):
        # queries must see both the indexed block and the recent buffer
        rng = np.random.default_rng(1)
        kd = KdTree(2, rebuild_every=16)
        pts = []
        for i in range(50):
            p = rng.uniform(0, 1, 2)
            pts.append(p)
            kd.insert(p)
            q = rng.uniform(0, 1, 2)
            arr = np.array(pts)
            expect = int(np.argmin(np.sum((arr - q) ** 2, axis=1)))
            assert kd.nearest(q) == expect

    def test_insert_returns_sequential_ids(self):
        kd = KdTree(2)
        assert kd.insert(np.zeros(2)) == 0
        assert kd.insert(np.ones(2)) == 1
        assert len(kd) == 2
        np.testing.assert_array_equal(kd.point(1), np.ones(2))

    def test_empty_query_raises(self):
        with pytest.raises(ValueError):
            KdTree(2).nearest(np.zeros(2))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            KdTree(2).insert(np.zeros(3))

    def test_point_index_out_of_range(self):
        kd = KdTree(2)
        kd.insert(np.zeros(2))
        with pytest.raises(IndexError):
            kd.point(1)


def path_checks(res, start, goal, step):
    np.testing.assert_allclose(res.path[0], start)
    np.testing.assert_allclose(res.path[-1], goal)
    steps = np.linalg.norm(np.diff(res.path, axis=0), axis=1)
    assert np.all(steps <= step * (1.0 + 1e-9))


class TestRrt:
    def test_solves_empty_scene(self):
        p = BaselineParams(step=0.05, max_samples=10_000)
        res = rrt_plan(np.array([0.1, 0.1]), np.array([0.9, 0.9]), empty_oracle(),
                       p, np.random.default_rng(0))
        assert res.status is PlanStatus.SOLVED
        path_checks(res, [0.1, 0.1], [0.9, 0.9], p.step)

    def test_solves_wall_scene(self):
        p = BaselineParams(step=0.05, max_samples=50_000)
        res = rrt_plan(np.array([0.1, 0.5]), np.array([0.9, 0.5]), wall_oracle(),
                       p, np.random.default_rng(1))
        assert res.status is PlanStatus.SOLVED
        path_checks(res, [0.1, 0.5], [0.9, 0.5], p.step)

    def test_budget_exhaustion(self):
        p = BaselineParams(step=0.01, max_samples=30)
        res = rrt_plan(np.array([0.1, 0.5]), np.array([0.9, 0.5]), wall_oracle(),
                       p, np.random.default_rng(0))
        assert res.status is PlanStatus.BUDGET_EXHAUSTED
        assert res.path is None
        assert res.total_samples <= 30 + 1

    def test_sample_accounting(self):
        oracle = empty_oracle()
        res = rrt_plan(np.array([0.1, 0.1]), np.array([0.9, 0.9]), oracle,
                       BaselineParams(step=0.05, max_samples=10_000),
                       np.random.default_rng(0))
        assert res.total_samples == oracle.sample_count

    def test_deterministic_per_seed(self):
        p = BaselineParams(step=0.05, max_samples=50_000)
        runs = [rrt_plan(np.array([0.1, 0.5]), np.array([0.9, 0.5]), wall_oracle(),
                         p, np.random.default_rng(5)) for _ in range(2)]
        assert runs[0].total_samples == runs[1].total_samples
        np.testing.assert_array_equal(runs[0].path, runs[1].path)

    def test_colliding_start_rejected(self):
        oracle = wall_oracle()
        with pytest.raises(ValueError):
            rrt_plan(np.array([0.5, 0.5]), np.array([0.9, 0.5]), oracle,
                     BaselineParams(), np.random.default_rng(0))


class TestRrtConnect:
    def test_solves_empty_scene_quickly(self):
        p = BaselineParams(step=0.05, max_samples=10_000)
        start, goal = np.array([0.1, 0.1]), np.array([0.9, 0.9])
        res = rrt_connect_plan(start, goal, empty_oracle(), p,
                               np.random.default_rng(0))
        assert res.status is PlanStatus.SOLVED
        path_checks(res, start, goal, p.step)
        # the first connect sweep already bridges an obstacle-free scene
        assert res.total_samples <= int(np.ceil(np.linalg.norm(goal - start) / p.step)) + 3

    def test_solves_wall_scene(self):
        p = BaselineParams(step=0.05, max_samples=50_000)
        res = rrt_connect_plan(np.array([0.1, 0.5]), np.array([0.9, 0.5]),
                               wall_oracle(), p, np.random.default_rng(2))
        assert res.status is PlanStatus.SOLVED
        path_checks(res, [0.1, 0.5], [0.9, 0.5], p.step)

    def test_path_avoids_obstacle(self):
        p = BaselineParams(step=0.02, max_samples=50_000)
        oracle = wall_oracle()
        res = rrt_connect_plan(np.array([0.1, 0.5]), np.array([0.9, 0.5]),
                               oracle, p, np.random.default_rng(3))
        box = oracle.scene.obstacles[0]
        for q in res.path:
            assert not box.contains(q)

    def test_budget_exhaustion(self):
        p = BaselineParams(step=0.01, max_samples=25)
        res = rrt_connect_plan(np.array([0.1, 0.5]), np.array([0.9, 0.5]),
                               wall_oracle(), p, np.random.default_rng(0))
        assert res.status is PlanStatus.BUDGET_EXHAUSTED

    def test_deterministic_per_seed(self):
        p = BaselineParams(step=0.05, max_samples=50_000)
        runs = [rrt_connect_plan(np.array([0.1, 0.5]), np.array([0.9, 0.5]),
                                 wall_oracle(), p, np.random.default_rng(8))
                for _ in range(2)]
        assert runs[0].total_samples == runs[1].total_samples
        np.testing.assert_array_equal(runs[0].path, runs[1].path)
