import numpy as np
import pytest

from sprint_planner import baselines
from sprint_planner.baselines import (KdTree, _extend, _rrt_targets, _Tree, rrt_connect_plan,
                                      rrt_plan)
from sprint_planner.global_planner import PlanStatus
from sprint_planner.world import Box, CollisionOracle, Scene


def empty_oracle(dim=2, budget=200_000):
    return CollisionOracle(Scene(name="empty", lower=np.zeros(dim), upper=np.ones(dim)),
                           budget=budget)


def wall_oracle(budget=200_000):
    scene = Scene(name="wall", lower=np.zeros(2), upper=np.ones(2),
                  obstacles=(Box(np.array([0.45, 0.0]), np.array([0.55, 0.7])),))
    return CollisionOracle(scene, budget=budget)


@pytest.fixture
def rebuild_every_16(monkeypatch):
    # small trees reach a scipy rebuild, and queries cross it, early
    monkeypatch.setattr(baselines, "REBUILD_EVERY", 16)


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

    def test_exact_across_rebuild_boundary(self, rebuild_every_16):
        # queries must see both the indexed block and the recent buffer
        rng = np.random.default_rng(1)
        kd = KdTree(2)
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
        assert kd.nearest(np.full(2, 0.9)) == 1
        assert kd.nearest(np.full(2, 0.1)) == 0

    def test_empty_query_raises(self):
        with pytest.raises(ValueError):
            KdTree(2).nearest(np.zeros(2))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            KdTree(2).insert(np.zeros(3))


def scan(pts, q):
    return int(np.argmin(np.sum((np.array(pts) - q) ** 2, axis=1)))


class TestKdTreeQueue:
    """Queries for the rows of a block of targets drawn ahead, batched by
    nearest_each."""

    def test_queued_answers_match_direct_query_and_scan(self, rebuild_every_16):
        # random block lengths and ~0.7 inserts per query put rebuilds
        # (every 16 inserts) anywhere in a block
        rng = np.random.default_rng(2)
        batched, direct = KdTree(3), KdTree(3)
        pts = [rng.uniform(0, 1, 3)]
        batched.insert(pts[0])
        direct.insert(pts[0])
        for _ in range(12):
            block = rng.uniform(0, 1, size=(int(rng.integers(1, 30)), 3))
            for q, got in batched.nearest_each(block):
                assert got == direct.nearest(q) == scan(pts, q)
                if rng.random() < 0.7:
                    p = rng.uniform(0, 1, 3)
                    pts.append(p)
                    batched.insert(p)
                    direct.insert(p)
        assert len(pts) > 100

    def test_rebuild_mid_block_reanswers_remaining_targets(self, rebuild_every_16):
        kd = KdTree(2)
        pts = [np.array([0.9 + 0.005 * i, 0.9]) for i in range(16)]
        for p in pts:
            kd.insert(p)  # the 16th insert builds the scipy index
        rng = np.random.default_rng(3)
        targets = rng.uniform(0, 0.2, size=(8, 2))
        rows = kd.nearest_each(targets)
        for _ in range(2):
            q, got = next(rows)
            assert got == scan(pts, q)
        # a full rebuild period lands mid-block: afterwards the buffer is
        # empty and every answer must come from the new index
        for p in rng.uniform(0, 0.2, size=(16, 2)):
            pts.append(p)
            kd.insert(p)
        rest = list(rows)
        assert len(rest) == 6
        for q, got in rest:
            assert got == scan(pts, q) and got >= 16

    def test_unqueued_queries_interleave_with_queued_ones(self, rebuild_every_16):
        rng = np.random.default_rng(4)
        kd = KdTree(2)
        pts = [rng.uniform(0, 1, 2) for _ in range(40)]
        for p in pts:
            kd.insert(p)
        block = rng.uniform(0, 1, size=(20, 2))
        for k, (q, got) in enumerate(kd.nearest_each(block)):
            assert got == scan(pts, q)
            for _ in range(int(rng.integers(0, 3))):
                other = rng.uniform(0, 1, 2)
                assert kd.nearest(other) == scan(pts, other)
            p = rng.uniform(0, 1, 2)
            pts.append(p)
            kd.insert(p)
        # between two rows, a plain query answers its own point, not the
        # next row's, and leaves the rows' batched answers as they were;
        # every point is in the scipy index
        kd = KdTree(2)
        pts = [np.array([i / 16, 0.0]) for i in range(15)] + [np.array([0.5, 1.0])]
        for p in pts:
            kd.insert(p)
        rows = kd.nearest_each(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]))
        assert next(rows)[1] == 0
        other = np.array([0.5, 0.9])
        assert kd.nearest(other) == scan(pts, other) == 15
        assert [got for _, got in rows] == [14, 0]

    def test_repeated_target_in_a_block(self, rebuild_every_16):
        # goal bias puts the same goal configuration in a block several times
        rng = np.random.default_rng(5)
        goal = np.array([0.5, 0.5])
        kd = KdTree(2)
        pts = [rng.uniform(0, 1, 2) for _ in range(20)]
        for p in pts:
            kd.insert(p)
        answers = []
        block = np.array([goal, rng.uniform(0, 1, 2), goal, goal, goal])
        for step, (q, got) in enumerate(kd.nearest_each(block)):
            answers.append(got)
            assert answers[-1] == scan(pts, q)
            # move ever closer to the goal, so each repeat has a new answer
            p = goal + 1e-3 / (step + 1)
            pts.append(p)
            kd.insert(p)
        assert answers[2:] == [21, 22, 23]

    def test_a_walk_queries_scipy_once_per_index(self, rebuild_every_16):
        # the walk answers its rows ahead in one scipy query, and once more
        # for the rows still ahead when an insert rebuilds the index
        queries = []
        kd = KdTree(2)

        class Counting(kd._cKDTree):
            def query(self, x, *args, **kwargs):
                queries.append(len(x))
                return super().query(x, *args, **kwargs)

        kd._cKDTree = Counting
        rng = np.random.default_rng(10)
        pts = [rng.uniform(0, 1, 2) for _ in range(16)]
        for p in pts:
            kd.insert(p)  # the 16th insert builds the scipy index
        block = rng.uniform(0, 1, size=(24, 2))
        for k, (q, got) in enumerate(kd.nearest_each(block)):
            assert got == scan(pts, q)
            if k < 16:  # the 16th insert, after row 15, rebuilds the index
                p = rng.uniform(0, 1, 2)
                pts.append(p)
                kd.insert(p)
        assert queries == [24, 8]

    def test_queue_checks_shape_and_exhaustion(self):
        kd = KdTree(2)
        kd.insert(np.zeros(2))
        with pytest.raises(ValueError):
            next(kd.nearest_each(np.zeros((3, 3))))
        rows = kd.nearest_each(np.zeros((1, 2)))
        next(rows)
        with pytest.raises(StopIteration):
            next(rows)

    @staticmethod
    def check_rrt_draws(monkeypatch, oracle, start, goal, step, goal_bias):
        monkeypatch.setattr(baselines, "GOAL_BIAS", goal_bias)
        seen = []
        plain = KdTree.nearest

        def recording(self, q, indexed=None):
            seen.append(np.array(q))
            return plain(self, q, indexed)

        monkeypatch.setattr(KdTree, "nearest", recording)
        rrt_plan(start, goal, oracle, step, np.random.default_rng(6))
        # the targets RRT drew one per iteration before they were drawn ahead
        rng = np.random.default_rng(6)
        lo, hi = oracle.scene.lower, oracle.scene.upper
        expect = [goal if rng.random() < goal_bias else rng.uniform(lo, hi)
                  for _ in seen]
        assert len(seen) > 300
        np.testing.assert_array_equal(np.array(seen), np.array(expect))

    @pytest.mark.parametrize("goal_bias", [0.0, 0.05, 1.0])
    def test_rrt_consumes_the_per_iteration_draw_sequence(self, monkeypatch, goal_bias):
        self.check_rrt_draws(monkeypatch, wall_oracle(budget=1500), np.array([0.1, 0.5]),
                             np.array([0.9, 0.5]), 0.01, goal_bias)

    @pytest.mark.parametrize("goal_bias", [0.0, 0.05, 1.0])
    def test_rrt_draw_sequence_in_10d(self, monkeypatch, goal_bias):
        self.check_rrt_draws(monkeypatch, empty_oracle(10, budget=1500), np.full(10, 0.1),
                             np.full(10, 0.9), 0.005, goal_bias)

    @pytest.mark.parametrize("d", [2, 10])
    def test_rrt_target_blocks_carry_unused_doubles(self, d):
        # a goal pick uses one double instead of 1 + d, so a block leaves
        # doubles over, and the next block must decode them first
        lo, hi, goal = np.full(d, -0.5), np.linspace(0.5, 2.0, d), np.full(d, 0.25)
        rng, ref = np.random.default_rng(9), np.random.default_rng(9)
        carry, got, carried = np.empty(0), [], []
        for n in (1, 2, 3, 5, 8, 13, 21, 34):
            carried.append(len(carry))
            targets, carry = _rrt_targets(rng, n, lo, hi, goal, 0.3, carry)
            assert targets.shape == (n, d)
            got.extend(targets)
        expect = [goal if ref.random() < 0.3 else ref.uniform(lo, hi) for _ in got]
        np.testing.assert_array_equal(np.array(got), np.array(expect))
        assert sum(c > 0 for c in carried) >= 4

    def test_rrt_connect_consumes_the_per_iteration_draw_sequence(self, monkeypatch):
        # each row a walk yields: the targets in the order the iterations use them
        seen = []
        plain = KdTree.nearest_each

        def recording(self, block):
            for q, i in plain(self, block):
                seen.append(np.array(q))
                yield q, i

        monkeypatch.setattr(KdTree, "nearest_each", recording)
        oracle = wall_oracle(budget=3000)
        rrt_connect_plan(np.array([0.1, 0.5]), np.array([0.9, 0.5]), oracle, 0.01,
                         np.random.default_rng(7))
        rng = np.random.default_rng(7)
        lo, hi = oracle.scene.lower, oracle.scene.upper
        expect = [rng.uniform(lo, hi) for _ in seen]
        assert len(seen) > 300
        np.testing.assert_array_equal(np.array(seen), np.array(expect))


class TestExtend:
    """_extend's outcomes.  RRT-Connect's connect loop stops on the first
    and the fourth: i itself when node i stands on the target, None when the
    oracle refuses the step."""

    def test_standing_on_the_target_returns_i_without_a_query(self):
        q = np.array([0.3, 0.4])
        tree, oracle = _Tree(q), empty_oracle()
        assert _extend(tree, 0, q.copy(), oracle, 0.1) == 0
        assert oracle.sample_count == 0 and len(tree.points) == len(tree.kd) == 1

    @pytest.mark.parametrize("offset", [0.0625, 0.125])
    def test_target_within_one_step_is_added_itself(self, offset):
        q_from, q_to = np.array([0.25, 0.5]), np.array([0.25 + offset, 0.5])
        tree, oracle = _Tree(q_from), empty_oracle()
        assert _extend(tree, 0, q_to, oracle, 0.125) == 1
        assert tree.points[1] is q_to and tree.parents[1] == 0
        assert oracle.sample_count == 1

    def test_farther_target_adds_a_point_one_step_away(self):
        q_from, q_to = np.array([0.1, 0.2, 0.3]), np.array([0.9, -0.4, 0.5])
        tree, oracle = _Tree(q_from), empty_oracle(3)
        assert _extend(tree, 0, q_to, oracle, 0.1) == 1
        q = tree.points[1]
        assert q is not q_to and oracle.sample_count == 1
        assert np.linalg.norm(q - q_from) == pytest.approx(0.1, rel=1e-12)
        # on the segment toward the target
        unit = (q_to - q_from) / np.linalg.norm(q_to - q_from)
        np.testing.assert_allclose(q, q_from + 0.1 * unit)

    def test_failed_query_returns_none_and_leaves_the_tree(self):
        # the step lands in the wall, x in [0.45, 0.55] below y = 0.7
        tree, oracle = _Tree(np.array([0.4, 0.5])), wall_oracle()
        assert _extend(tree, 0, np.array([0.9, 0.5]), oracle, 0.1) is None
        assert oracle.sample_count == 1
        assert len(tree.points) == len(tree.parents) == len(tree.kd) == 1

    def test_distinct_points_whose_distance_underflows_add_the_target(self):
        # (1e-170)**2 underflows to 0, so the distance reads 0 for two
        # distinct points; they are within one step, not standing
        q_from, q_to = np.array([1e-170, 0.5]), np.array([2e-170, 0.5])
        tree, oracle = _Tree(q_from), empty_oracle()
        assert _extend(tree, 0, q_to, oracle, 0.1) == 1
        assert tree.points[1] is q_to and oracle.sample_count == 1


def path_checks(res, start, goal, step):
    np.testing.assert_allclose(res.path[0], start)
    np.testing.assert_allclose(res.path[-1], goal)
    steps = np.linalg.norm(np.diff(res.path, axis=0), axis=1)
    assert np.all(steps <= step * (1.0 + 1e-9))


@pytest.mark.parametrize("planner", [rrt_plan, rrt_connect_plan])
def test_equal_endpoints_rejected(planner):
    q = np.array([0.1, 0.1])
    with pytest.raises(ValueError, match="q_init equals q_goal"):
        planner(q, q.copy(), empty_oracle(), 0.05, np.random.default_rng(0))


def test_step_must_be_positive():
    for planner in (rrt_plan, rrt_connect_plan):
        for step in (0.0, -1.0, float("nan")):
            oracle = empty_oracle()
            with pytest.raises(ValueError, match="step must be positive"):
                planner(np.array([0.1, 0.1]), np.array([0.9, 0.9]), oracle, step,
                        np.random.default_rng(0))
            assert oracle.sample_count == 0


class TestRrt:
    def test_solves_empty_scene(self):
        step = 0.05
        res = rrt_plan(np.array([0.1, 0.1]), np.array([0.9, 0.9]), empty_oracle(budget=10_000),
                       step, np.random.default_rng(0))
        assert res.status is PlanStatus.SOLVED
        path_checks(res, [0.1, 0.1], [0.9, 0.9], step)

    def test_solves_wall_scene(self):
        step = 0.05
        res = rrt_plan(np.array([0.1, 0.5]), np.array([0.9, 0.5]), wall_oracle(budget=50_000),
                       step, np.random.default_rng(1))
        assert res.status is PlanStatus.SOLVED
        path_checks(res, [0.1, 0.5], [0.9, 0.5], step)

    def test_budget_exhaustion(self):
        res = rrt_plan(np.array([0.1, 0.5]), np.array([0.9, 0.5]), wall_oracle(budget=30),
                       0.01, np.random.default_rng(0))
        assert res.status is PlanStatus.BUDGET_EXHAUSTED
        assert res.path is None
        assert res.total_samples == 30

    def test_sample_accounting(self):
        oracle = empty_oracle(budget=10_000)
        res = rrt_plan(np.array([0.1, 0.1]), np.array([0.9, 0.9]), oracle, 0.05,
                       np.random.default_rng(0))
        assert res.total_samples == oracle.sample_count

    def test_deterministic_per_seed(self):
        runs = [rrt_plan(np.array([0.1, 0.5]), np.array([0.9, 0.5]), wall_oracle(budget=50_000),
                         0.05, np.random.default_rng(5)) for _ in range(2)]
        assert runs[0].total_samples == runs[1].total_samples
        np.testing.assert_array_equal(runs[0].path, runs[1].path)

    def test_colliding_start_rejected(self):
        oracle = wall_oracle()
        with pytest.raises(ValueError):
            rrt_plan(np.array([0.5, 0.5]), np.array([0.9, 0.5]), oracle,
                     0.05, np.random.default_rng(0))


class TestRrtConnect:
    def test_solves_empty_scene_quickly(self):
        step = 0.05
        start, goal = np.array([0.1, 0.1]), np.array([0.9, 0.9])
        res = rrt_connect_plan(start, goal, empty_oracle(budget=10_000), step,
                               np.random.default_rng(0))
        assert res.status is PlanStatus.SOLVED
        path_checks(res, start, goal, step)
        # the first connect sweep already bridges an obstacle-free scene
        assert res.total_samples <= int(np.ceil(np.linalg.norm(goal - start) / step)) + 3

    def test_solves_wall_scene(self):
        step = 0.05
        res = rrt_connect_plan(np.array([0.1, 0.5]), np.array([0.9, 0.5]),
                               wall_oracle(budget=50_000), step, np.random.default_rng(2))
        assert res.status is PlanStatus.SOLVED
        path_checks(res, [0.1, 0.5], [0.9, 0.5], step)

    def test_path_avoids_obstacle(self):
        oracle = wall_oracle(budget=50_000)
        res = rrt_connect_plan(np.array([0.1, 0.5]), np.array([0.9, 0.5]),
                               oracle, 0.02, np.random.default_rng(3))
        checker = CollisionOracle(oracle.scene)
        for q in res.path:
            assert checker.is_free(q)

    def test_budget_exhaustion(self):
        res = rrt_connect_plan(np.array([0.1, 0.5]), np.array([0.9, 0.5]),
                               wall_oracle(budget=25), 0.01, np.random.default_rng(0))
        assert res.status is PlanStatus.BUDGET_EXHAUSTED
        assert res.total_samples == 25

    def test_deterministic_per_seed(self):
        runs = [rrt_connect_plan(np.array([0.1, 0.5]), np.array([0.9, 0.5]),
                                 wall_oracle(budget=50_000), 0.05, np.random.default_rng(8))
                for _ in range(2)]
        assert runs[0].total_samples == runs[1].total_samples
        np.testing.assert_array_equal(runs[0].path, runs[1].path)
