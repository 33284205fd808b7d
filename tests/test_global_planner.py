import math

import numpy as np
import pytest

from sprint_planner.geometry import dist
from sprint_planner.global_planner import (PlanStatus, SprintParams, Tree, _PairSelector,
                                           add_milestones, plan)
from sprint_planner.world import Box, CollisionOracle, Scene

from reference import (Region, RegionState, candidate_pairs, pair_scores, select_pair,
                       select_region)


def empty_scene(dim=2):
    return Scene(name="empty", lower=np.zeros(dim), upper=np.ones(dim))


def params(**kwargs):
    return SprintParams(**{"lam": 0.1, **kwargs})


class TestRegionScores:
    """The list-based reference scorer, which the equivalence tests below
    hold the planner's _PairSelector to."""

    def tree(self):
        return RegionState(nodes=[np.array([0.1, 0.5])],
                           milestones=[np.array([0.9, 0.5]), np.array([0.5, 0.9]),
                                       np.array([0.4, 0.5])])

    def test_goalward_milestone_wins(self):
        t = self.tree()
        goal = np.array([0.9, 0.5])
        ni, mi = select_pair(t, goal, params())
        assert (ni, mi) == (0, 0)

    def test_scores_drop_for_milestones_past_failed_region(self):
        t = self.tree()
        goal = np.array([0.9, 0.5])
        pairs = candidate_pairs(t)
        before = pair_scores(t, goal, params(), pairs)
        # a failed region whose ray points straight at milestone 0
        t.local_min_regions.append(Region(np.array([0.1, 0.5]), np.array([0.5, 0.5])))
        after = pair_scores(t, goal, params(), pairs)
        i0 = pairs.index((0, 0))
        i2 = pairs.index((0, 2))
        assert after[i0] < before[i0]
        # milestone 2 sits before the region's far endpoint and keeps its score
        assert after[i2] == pytest.approx(before[i2])

    def test_argmax_invariant_under_positive_weight_scaling(self):
        t = self.tree()
        goal = np.array([0.9, 0.5])
        t.local_min_regions.append(Region(np.array([0.1, 0.5]), np.array([0.5, 0.7])))
        base = select_pair(t, goal, params(w1_g=1.0, w2_g=1.0))
        for w1, w2 in ((7.0, 1.0), (1.0, 0.001), (123.4, 56.7)):
            assert select_pair(t, goal, params(w1_g=w1, w2_g=w2)) == base

    def test_attempted_pairs_are_excluded(self):
        t = self.tree()
        goal = np.array([0.9, 0.5])
        t.attempted.add((0, 0))
        ni, mi = select_pair(t, goal, params())
        assert (ni, mi) != (0, 0)

    def test_no_candidates_raises(self):
        t = RegionState(nodes=[np.array([0.1, 0.5])])
        with pytest.raises(ValueError):
            select_pair(t, np.array([0.9, 0.5]), params())

    def test_select_region_returns_configs(self):
        t = self.tree()
        q_n, q_m = select_region(t, np.array([0.9, 0.5]), params())
        np.testing.assert_array_equal(q_n, t.nodes[0])
        np.testing.assert_array_equal(q_m, t.milestones[0])


class TestPairSelectorEquivalence:
    def test_matches_reference_under_random_scripts(self):
        """The scorer must agree with the reference's full recompute for
        arbitrary interleavings of node/milestone/region arrivals and marks."""
        rng = np.random.default_rng(42)
        p = params()
        for _ in range(15):
            q_init = rng.uniform(0, 1, 2)
            q_goal = rng.uniform(0, 1, 2)
            tree = RegionState(nodes=[q_init], milestones=[q_goal])
            sel = _PairSelector(q_init, q_goal)
            for _ in range(40):
                r = rng.random()
                if r < 0.25:
                    batch = list(rng.uniform(0, 1, (int(rng.integers(1, 4)), 2)))
                    tree.milestones.extend(batch)
                    sel.add_milestones(batch)
                elif r < 0.45:
                    q = rng.uniform(0, 1, 2)
                    tree.nodes.append(q)
                    sel.add_node(q)
                elif r < 0.65:
                    a, b = rng.uniform(0, 1, 2), rng.uniform(0, 1, 2)
                    tree.local_min_regions.append(Region(a, b))
                    sel.add_region(a, b)
                elif r < 0.85:
                    ni = int(rng.integers(len(tree.nodes)))
                    mi = int(rng.integers(len(tree.milestones)))
                    tree.attempted.add((ni, mi))
                    sel.mark_attempted(ni, mi)
                else:
                    mi = int(rng.integers(len(tree.milestones)))
                    tree.reached_milestones.add(mi)
                    sel.mark_reached(mi)
                pairs = candidate_pairs(tree)
                if not pairs:
                    assert sel.select_best() is None
                    assert sel.select_random(rng) is None
                    continue
                assert sel.select_best() == select_pair(tree, q_goal, p)
                scores = sel.scores()
                ref = pair_scores(tree, q_goal, p, pairs)
                np.testing.assert_allclose(scores[tuple(np.array(pairs).T)], ref,
                                           rtol=1e-12, atol=0.0)
                assert np.isfinite(scores).sum() == len(pairs)

    def test_random_selection_only_offers_candidates(self):
        rng = np.random.default_rng(3)
        sel = _PairSelector(np.array([0.1, 0.1]), np.array([0.9, 0.9]))
        sel.add_milestones(rng.uniform(0, 1, (5, 2)))
        sel.mark_attempted(0, 2)
        sel.mark_reached(1)
        seen = {sel.select_random(rng) for _ in range(200)}
        assert (0, 2) not in seen
        assert all(mi != 1 for _, mi in seen)

    def test_goal_is_milestone_zero(self):
        q_init, q_goal = np.array([0.1, 0.1]), np.array([0.9, 0.9])
        sel = _PairSelector(q_init, q_goal)
        np.testing.assert_array_equal(sel._miles, [q_goal])
        assert sel.select_best() == (0, 0)

    def test_zero_scores_are_still_offered(self):
        """Pairs whose milestone lies on a failed region's far end score
        exactly 0 and stay candidates; the tie goes to the milestone
        closest to the goal, the goal itself.  Every coordinate is dyadic,
        so both peaks come out exactly 1.0."""
        start, goal, mile = np.array([0.25, 0.5]), np.array([0.75, 0.5]), np.array([0.5, 0.75])
        sel = _PairSelector(start, goal)
        sel.add_milestones([mile])
        for mi, q_m in enumerate((goal, mile)):
            sel.mark_attempted(0, mi)
            sel.add_region(start, q_m)
        np.testing.assert_array_equal(sel._peak, [1.0, 1.0])
        sel.add_node(np.array([0.5, 0.25]))
        np.testing.assert_array_equal(sel.scores()[1], [0.0, 0.0])
        assert sel.select_best() == (1, 0)

    @pytest.mark.parametrize("dim", [2, 6, 10])
    def test_scores_do_not_depend_on_arrival_order(self, dim):
        """Failed regions added before a milestone batch must score it as if
        they had come after it.  Sizes follow the planner on the bundled
        fixtures: up to 28 nodes, the goal plus batches of 50 milestones,
        and 46 failed regions."""
        p = params()
        for seed in range(5):
            rng = np.random.default_rng(seed)
            q_init, q_goal = rng.uniform(0, 1, dim), rng.uniform(0, 1, dim)
            nodes = rng.uniform(0, 1, (27, dim))
            batches = [rng.uniform(0, 1, (p.milestone_batch, dim)) for _ in range(3)]
            regions = [(rng.uniform(0, 1, dim), rng.uniform(0, 1, dim))
                       for _ in range(46)]
            before = _PairSelector(q_init, q_goal)
            after = _PairSelector(q_init, q_goal)
            for sel in (before, after):
                for q in nodes:
                    sel.add_node(q)
            for a, b in regions:
                before.add_region(a, b)
            for batch in batches:
                before.add_milestones(batch)
                after.add_milestones(batch)
            for a, b in regions:
                after.add_region(a, b)
            np.testing.assert_allclose(before.scores(), after.scores(),
                                       rtol=1e-15, atol=0.0)


class TestMilestones:
    def test_batch_size_and_metering(self):
        p = params(milestone_batch=7)
        oracle = CollisionOracle(empty_scene())
        batch = add_milestones(oracle, p, np.random.default_rng(0))
        assert len(batch) == 7
        assert oracle.sample_count >= 7  # rejections included

    def test_milestones_are_free(self):
        scene = Scene(name="half", lower=np.zeros(2), upper=np.ones(2),
                      obstacles=(Box(np.array([0.0, 0.0]), np.array([1.0, 0.5])),))
        oracle = CollisionOracle(scene)
        batch = add_milestones(oracle, params(), np.random.default_rng(1))
        assert len(batch) == params().milestone_batch
        for m in batch:
            assert m[1] > 0.5


class TestTree:
    def test_path_to_root_only(self):
        root = np.array([0.0, 0.0])
        t = Tree(root)
        assert t.parents == [-1]
        path = t.path_to(0)
        assert len(path) == 1 and path[0] is root

    def test_path_to_chain(self):
        t = Tree(np.array([0.0, 0.0]))
        node = 0
        for x in (0.25, 0.5, 0.75, 1.0):
            node = t.add(np.array([x, 0.0]), node)
        assert node == 4
        expected = np.array([[0.0, 0.0], [0.25, 0.0], [0.5, 0.0], [0.75, 0.0], [1.0, 0.0]])
        np.testing.assert_array_equal(np.array(t.path_to(node)), expected)

    def test_path_to_branch(self):
        # two branches off the root; each path holds its own branch only
        t = Tree(np.array([0.0, 0.0]))
        a = t.add(np.array([0.5, 0.0]), 0)
        b = t.add(np.array([0.0, 0.5]), 0)
        a2 = t.add(np.array([1.0, 0.0]), a)
        b2 = t.add(np.array([0.0, 1.0]), b)
        assert t.parents == [-1, 0, 0, 1, 2]
        np.testing.assert_array_equal(np.array(t.path_to(a2)),
                                      [[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]])
        np.testing.assert_array_equal(np.array(t.path_to(b2)),
                                      [[0.0, 0.0], [0.0, 0.5], [0.0, 1.0]])

    def test_path_to_an_end_appends_it_unless_the_node_is_there(self):
        t = Tree(np.array([0.0, 0.0]))
        a = t.add(np.array([0.5, 0.0]), 0)
        end = np.array([0.6, 0.0])
        path = t.path_to(a, end)
        np.testing.assert_array_equal(np.array(path), [[0.0, 0.0], [0.5, 0.0], [0.6, 0.0]])
        assert path[-1] is end
        np.testing.assert_array_equal(np.array(t.path_to(a, np.array([0.5, 0.0]))),
                                      [[0.0, 0.0], [0.5, 0.0]])


class TestPlan:
    def test_empty_scene_resolves_to_straight_line(self):
        p = params(lam=0.05)
        start, goal = np.array([0.1, 0.1]), np.array([0.9, 0.9])
        oracle = CollisionOracle(empty_scene())
        res = plan(start, goal, oracle, p, np.random.default_rng(0))
        assert res.status is PlanStatus.SOLVED
        # every path point must lie on the start-goal segment
        seg = goal - start
        for q in res.path:
            t = np.dot(q - start, seg) / np.dot(seg, seg)
            off = q - (start + t * seg)
            assert np.linalg.norm(off) <= 1e-9

    def test_empty_scene_sample_count(self):
        p = params(lam=0.05, milestone_batch=50)
        start, goal = np.array([0.1, 0.1]), np.array([0.9, 0.9])
        oracle = CollisionOracle(empty_scene())
        res = plan(start, goal, oracle, p, np.random.default_rng(0))
        # endpoint validation + milestone batch + one straight local search
        line = math.ceil(dist(start, goal) / p.lam)
        init = res.total_samples - line
        assert init >= 2 + p.milestone_batch
        assert res.total_samples == init + line

    def test_colliding_endpoint_rejected(self):
        scene = Scene(name="b", lower=np.zeros(2), upper=np.ones(2),
                      obstacles=(Box(np.array([0.0, 0.0]), np.array([0.2, 0.2])),))
        oracle = CollisionOracle(scene)
        with pytest.raises(ValueError):
            plan(np.array([0.1, 0.1]), np.array([0.9, 0.9]), oracle, params(),
                 np.random.default_rng(0))

    def test_equal_endpoints_rejected(self):
        q = np.array([0.5, 0.5])
        with pytest.raises(ValueError):
            plan(q, q.copy(), CollisionOracle(empty_scene()), params(),
                 np.random.default_rng(0))

    def test_budget_exhaustion_is_reported(self):
        scene = Scene(name="wall", lower=np.zeros(2), upper=np.ones(2),
                      obstacles=(Box(np.array([0.4, 0.0]), np.array([0.6, 1.0])),))
        oracle = CollisionOracle(scene, budget=60)
        p = params(lam=0.05)
        res = plan(np.array([0.1, 0.5]), np.array([0.9, 0.5]), oracle, p,
                   np.random.default_rng(0))
        assert res.status is PlanStatus.BUDGET_EXHAUSTED
        assert res.path is None
        assert math.isnan(res.path_length)
        assert res.total_samples == 60

    def test_identical_seeds_give_identical_paths(self):
        scene = Scene(name="wall", lower=np.zeros(2), upper=np.ones(2),
                      obstacles=(Box(np.array([0.45, 0.0]), np.array([0.55, 0.7])),))
        p = params(lam=0.05)
        results = []
        for _ in range(2):
            res = plan(np.array([0.1, 0.5]), np.array([0.9, 0.5]),
                       CollisionOracle(scene), p, np.random.default_rng(9))
            results.append(res)
        assert results[0].total_samples == results[1].total_samples
        np.testing.assert_array_equal(results[0].path, results[1].path)

    def test_path_edge_lengths_bounded_by_lam(self):
        scene = Scene(name="wall", lower=np.zeros(2), upper=np.ones(2),
                      obstacles=(Box(np.array([0.45, 0.0]), np.array([0.55, 0.7])),))
        p = params(lam=0.05)
        res = plan(np.array([0.1, 0.5]), np.array([0.9, 0.5]),
                   CollisionOracle(scene), p, np.random.default_rng(2))
        assert res.status is PlanStatus.SOLVED
        steps = np.linalg.norm(np.diff(res.path, axis=0), axis=1)
        assert np.all(steps <= p.lam * (1.0 + 1e-9))
        assert res.path_length == pytest.approx(float(steps.sum()))

    def test_solves_narrow_gap(self):
        scene = Scene(name="gap", lower=np.zeros(2), upper=np.ones(2),
                      obstacles=(Box(np.array([0.5, 0.0]), np.array([0.55, 0.75])),
                                 Box(np.array([0.5, 0.79]), np.array([0.55, 1.0])),))
        p = params(lam=0.01)
        res = plan(np.array([0.1, 0.2]), np.array([0.9, 0.2]),
                   CollisionOracle(scene), p, np.random.default_rng(0))
        assert res.status is PlanStatus.SOLVED
        # the path has to thread the gap, not cross the wall
        for q in res.path:
            if 0.5 <= q[0] <= 0.55:
                assert 0.75 <= q[1] <= 0.79

    def test_random_region_variant_still_solves(self):
        oracle = CollisionOracle(empty_scene())
        rng = np.random.default_rng(0)
        res = plan(np.array([0.1, 0.1]), np.array([0.9, 0.9]), oracle,
                   params(lam=0.05), rng, select_fn=lambda sel: sel.select_random(rng))
        assert res.status is PlanStatus.SOLVED
