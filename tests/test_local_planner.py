import math

import numpy as np
import pytest

from sprint_planner.geometry import dist
from sprint_planner.local_planner import (LocalStatus, LocalTree,
                                          backprop_collision, backprop_progress,
                                          collision_points, grad_g2,
                                          grad_g3, local_edge, local_search,
                                          promote_checkpoint, subtree_sigma,
                                          valid_node)
from sprint_planner.params import SprintParams
from sprint_planner.world import BudgetExhausted, Box, CollisionOracle, Scene

from reference import checkpoint_path


def params(**kwargs):
    return SprintParams(**{"lam": 0.1, **kwargs})


def empty_oracle(dim=2, budget=200_000):
    scene = Scene(name="empty", lower=np.zeros(dim), upper=np.ones(dim))
    return CollisionOracle(scene, budget=budget)


def simple_tree(p=None):
    return LocalTree(np.array([0.1, 0.1]), np.array([0.9, 0.9]), p or params())


def scan_checkpoint_path(tree, node_id):
    """Independent checkpoint-path oracle: walk parents, keep checkpoints."""
    out = []
    cur = node_id
    while cur != -1:
        if cur in tree.records:
            out.append(cur)
        cur = tree.parents[cur]
    return out


class TestLocalTree:
    def test_root_is_checkpoint(self):
        t = simple_tree()
        assert 0 in t.records
        assert t.cp_chain[0] == (0,)
        assert t.records[0].best_goal_dist == pytest.approx(dist(t.root, t.goal))
        assert t.records[0].max_root_dist == 0.0

    def test_add_links_and_caches(self):
        t = simple_tree()
        q = np.array([0.2, 0.1])
        nid = t.add(q, 0)
        assert nid == 1 and t.points[nid] is q
        assert t.parents[nid] == 0
        assert t.children == [[nid], []]
        assert t.d_goal[nid] == pytest.approx(dist(q, t.goal))
        assert t.d_root[nid] == pytest.approx(dist(q, t.root))
        assert t.cp_chain[nid] == (0,)
        assert nid not in t.records

    def test_chain_of_nodes(self):
        t = simple_tree()
        a = t.add(np.array([0.2, 0.1]), 0)
        b = t.add(np.array([0.3, 0.1]), a)
        assert checkpoint_path(t, b) == [0]
        assert t.parents == [-1, 0, a]

    def test_path_to(self):
        t = simple_tree()
        a = t.add(np.array([0.2, 0.1]), 0)
        b = t.add(np.array([0.3, 0.1]), a)
        path = np.array(t.path_to(b))
        np.testing.assert_array_equal(path[0], t.root)
        np.testing.assert_array_equal(path[-1], np.array([0.3, 0.1]))
        assert path.shape == (3, 2)


class TestCheckpointPromotion:
    def test_second_child_promotes(self):
        t = simple_tree()
        a = t.add(np.array([0.2, 0.1]), 0)
        b = t.add(np.array([0.3, 0.1]), a)
        c = t.add(np.array([0.3, 0.2]), a)
        assert a not in t.records
        promote_checkpoint(t, a)
        assert a in t.records
        assert t.cp_chain[a] == (0, a)
        assert t.cp_chain[b] == (0, a)
        assert t.cp_chain[c] == (0, a)

    def test_promotion_snapshot_matches_full_scan(self):
        t = simple_tree()
        a = t.add(np.array([0.2, 0.1]), 0)
        b = t.add(np.array([0.3, 0.15]), a)
        t.add(np.array([0.25, 0.2]), a)
        t.add(np.array([0.4, 0.2]), b)
        promote_checkpoint(t, a)
        rec = t.records[a]
        ids = t.subtree_ids(a)
        assert rec.subtree_node_count == len(ids)
        assert rec.best_goal_dist == pytest.approx(min(t.d_goal[i] for i in ids))
        assert rec.max_root_dist == pytest.approx(max(t.d_root[i] for i in ids))

    def test_promotion_is_idempotent(self):
        t = simple_tree()
        a = t.add(np.array([0.2, 0.1]), 0)
        t.add(np.array([0.3, 0.1]), a)
        t.add(np.array([0.3, 0.2]), a)
        promote_checkpoint(t, a)
        rec = t.records[a]
        promote_checkpoint(t, a)
        assert t.records[a] is rec

    def test_checkpoint_path_matches_scan_on_random_trees(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            t = simple_tree()
            for _ in range(40):
                parent = int(rng.integers(len(t.points)))
                q = rng.uniform(0.0, 1.0, size=2)
                t.add(q, parent)
                if len(t.children[parent]) >= 2:
                    promote_checkpoint(t, parent)
            for nid in range(len(t.points)):
                assert checkpoint_path(t, nid) == scan_checkpoint_path(t, nid)


class TestBackprop:
    def test_progress_reset_on_improvement(self):
        t = simple_tree()
        rec = t.records[0]
        rec.samples_since_exploit = 5
        a = t.add(np.array([0.5, 0.5]), 0)  # much closer to the goal
        backprop_progress(t, a)
        assert rec.samples_since_exploit == 0
        assert rec.best_goal_dist == pytest.approx(t.d_goal[a])
        assert rec.samples_since_explore == 0
        assert rec.subtree_node_count == 2

    def test_tiny_improvement_below_threshold_counts_as_none(self):
        p = params()
        t = simple_tree(p)
        base = t.records[0].best_goal_dist
        # improve by less than the progress threshold
        step = p.eps_prog_eff / 4.0
        q = t.goal + (t.root - t.goal) * ((base - step) / base)
        a = t.add(q, 0)
        backprop_progress(t, a)
        assert t.records[0].samples_since_exploit == 1
        assert t.records[0].best_goal_dist == pytest.approx(base)

    def test_collision_feeds_every_checkpoint_on_path(self):
        t = simple_tree()
        a = t.add(np.array([0.2, 0.1]), 0)
        t.add(np.array([0.3, 0.1]), a)
        t.add(np.array([0.3, 0.2]), a)
        promote_checkpoint(t, a)
        q_obs = np.array([0.35, 0.1])
        backprop_collision(t, a, q_obs)
        for cp in (0, a):
            rec = t.records[cp]
            assert rec.samples_since_exploit == 1
            assert rec.samples_since_explore == 1
            np.testing.assert_array_equal(collision_points(cp, t)[-1], q_obs)

    def test_obs_buffer_is_bounded(self):
        p = params(k_obs=3)
        t = simple_tree(p)
        for i in range(7):
            backprop_collision(t, 0, np.array([0.1 * i, 0.0]))
        pts = collision_points(0, t)
        assert len(pts) == 3
        np.testing.assert_array_equal(pts[0], np.array([0.4, 0.0]))

    def test_collision_points_come_from_nearest_checkpoint(self):
        t = simple_tree()
        a = t.add(np.array([0.2, 0.1]), 0)
        b = t.add(np.array([0.3, 0.1]), a)
        t.add(np.array([0.3, 0.2]), a)
        promote_checkpoint(t, a)
        backprop_collision(t, 0, np.array([0.9, 0.0]))
        backprop_collision(t, b, np.array([0.5, 0.0]))
        pts = collision_points(b, t)
        assert len(pts) == 1
        np.testing.assert_array_equal(pts[0], np.array([0.5, 0.0]))


class TestCullingGate:
    def test_sigma_formula(self):
        p = params(c_base=30.0, sigma_slack=2.0, n_scale=10.0)
        for n in (1, 5, 50):
            expected = 30.0 * (1.0 + 2.0 * math.exp(-n / 10.0))
            assert subtree_sigma(n, p) == pytest.approx(expected)

    def test_sigma_rejects_empty_subtree(self):
        with pytest.raises(ValueError):
            subtree_sigma(0, params())

    def test_fresh_node_passes(self):
        # zero stalled samples gives gate probability exactly one
        t = simple_tree()
        assert valid_node(0, t)

    def test_stalled_checkpoint_blocks_descendants(self):
        p = params()
        t = simple_tree(p)
        a = t.add(np.array([0.2, 0.1]), 0)
        rec = t.records[0]
        c = subtree_sigma(rec.subtree_node_count, p)
        # push the stall counters just past the kappa cutoff
        x = int(math.ceil(c * math.sqrt(-2.0 * math.log(p.kappa)))) + 1
        rec.samples_since_exploit = x
        rec.samples_since_explore = x
        assert not valid_node(a, t)

    def test_gate_uses_smaller_stall_counter(self):
        p = params()
        t = simple_tree(p)
        rec = t.records[0]
        rec.samples_since_exploit = 10 ** 6
        rec.samples_since_explore = 0  # exploration still making progress
        assert valid_node(0, t)

    def test_gate_probability_matches_kappa_boundary(self):
        p = params()
        t = simple_tree(p)
        rec = t.records[0]
        c = subtree_sigma(1, p)
        x_pass = math.floor(c * math.sqrt(-2.0 * math.log(p.kappa)))
        rec.samples_since_exploit = rec.samples_since_explore = x_pass
        assert valid_node(0, t)
        rec.samples_since_exploit = rec.samples_since_explore = x_pass + 1
        assert not valid_node(0, t)


class TestGradients:
    def test_straight_line_pull_is_unit(self):
        # one ascent step from an edge of length 0.2 along x, with the goal
        # far along y from the start candidate (0.4, 0), whose pull is a unit
        # y: step (0.2, 0) + eta * (1, 0) + eta * (0, 1), rescaled to lam
        p = params(ascent_iters=1)
        t = LocalTree(np.zeros(2), np.array([0.4, 1000.0]), p)
        nid = t.add(np.array([0.2, 0.0]), 0)
        q_c = local_edge(nid, t, np.empty((0, 2)), np.random.default_rng(0))
        step = np.array([0.2 + p.eta_eff, p.eta_eff])
        np.testing.assert_allclose(q_c - t.points[nid], p.lam * step / np.linalg.norm(step),
                                   rtol=0, atol=1e-15)

    def test_goal_pull_far_has_unit_strength(self):
        g = grad_g2(np.zeros(2), np.array([100.0, 0.0]), lam=0.1)
        assert np.linalg.norm(g) == pytest.approx(1.0, abs=1e-9)

    def test_goal_pull_near_doubles(self):
        lam = 0.1
        g = grad_g2(np.zeros(2), np.array([1e-9, 0.0]), lam=lam)
        assert np.linalg.norm(g) == pytest.approx(2.0, abs=1e-6)

    def test_goal_pull_at_goal_is_zero(self):
        g = grad_g2(np.ones(2), np.ones(2), lam=0.1)
        np.testing.assert_array_equal(g, np.zeros(2))

    def test_repulsion_peak_strength_is_five(self):
        # an obstacle point exactly on the candidate gives the peak magnitude
        rng = np.random.default_rng(0)
        q_x = np.zeros(2)
        q_c = np.array([0.1, 0.0])
        g = grad_g3(q_x, q_c, [q_c - q_x], lam=0.1, rng=rng)
        assert np.linalg.norm(g) == pytest.approx(5.0, abs=1e-9)

    def test_repulsion_gates_out_points_behind(self):
        rng = np.random.default_rng(0)
        q_x = np.zeros(2)
        q_c = np.array([0.1, 0.0])
        behind = np.array([-0.2, 0.05])
        g = grad_g3(q_x, q_c, [behind - q_x], lam=0.1, rng=rng)
        np.testing.assert_array_equal(g, np.zeros(2))

    def test_repulsion_pushes_away_from_obstacle(self):
        rng = np.random.default_rng(0)
        q_x = np.zeros(2)
        q_c = np.array([0.1, 0.0])
        obs = np.array([0.05, -0.01])  # just below the segment
        g = grad_g3(q_x, q_c, rel=[obs - q_x], lam=0.1, rng=rng)
        assert g[1] > 0.0

    def test_repulsion_requires_observations(self):
        with pytest.raises(ValueError):
            grad_g3(np.zeros(2), np.ones(2), [], lam=0.1,
                    rng=np.random.default_rng(0))

    def test_repulsion_averages_over_points(self):
        rng = np.random.default_rng(0)
        q_x = np.zeros(2)
        q_c = np.array([0.1, 0.0])
        one = grad_g3(q_x, q_c, [np.array([0.05, -0.01]) - q_x], lam=0.1, rng=rng)
        both = grad_g3(q_x, q_c, np.array([[0.05, -0.01], [-0.5, 0.0]]) - q_x,
                       lam=0.1, rng=rng)
        np.testing.assert_allclose(both, one / 2.0)


class TestLocalEdge:
    def test_candidate_lies_at_edge_length(self):
        rng = np.random.default_rng(4)
        p = params()
        for _ in range(50):
            t = LocalTree(rng.uniform(0, 1, 2), rng.uniform(0, 1, 2), p)
            node = 0
            for _ in range(int(rng.integers(0, 4))):
                q = t.points[node] + rng.normal(size=2) * p.lam
                node = t.add(q, node)
            obs = [rng.uniform(0, 1, 2)] if rng.random() < 0.5 else []
            q_c = local_edge(node, t, obs, rng)
            assert dist(q_c, t.points[node]) == pytest.approx(p.lam, abs=1e-12)

    def test_first_extension_heads_toward_goal(self):
        p = params()
        t = LocalTree(np.array([0.1, 0.5]), np.array([0.9, 0.5]), p)
        q_c = local_edge(0, t, [], np.random.default_rng(0))
        np.testing.assert_allclose(q_c, [0.1 + p.lam, 0.5], atol=1e-9)


class TestLocalSearch:
    def test_straight_line_sample_count(self):
        p = params()
        root, goal = np.array([0.1, 0.5]), np.array([0.9, 0.5])
        oracle = empty_oracle()
        res = local_search(root, goal, oracle, p, np.random.default_rng(0))
        assert res.status is LocalStatus.REACHED
        assert res.samples_used == math.ceil(dist(root, goal) / p.lam)
        np.testing.assert_allclose(res.path[0], root)
        np.testing.assert_allclose(res.path[-1], goal)

    def test_path_edges_are_lam_long(self):
        p = params()
        oracle = empty_oracle()
        res = local_search(np.array([0.1, 0.2]), np.array([0.8, 0.7]), oracle, p,
                           np.random.default_rng(1))
        steps = np.linalg.norm(np.diff(res.path, axis=0), axis=1)
        np.testing.assert_allclose(steps[:-1], p.lam, atol=1e-9)
        assert steps[-1] <= p.lam * (1.0 + 1e-9)

    def test_budget_exhaustion(self):
        # the oracle's budget ends the search mid-step, after exactly 3 samples
        p = params()
        oracle = CollisionOracle(empty_oracle().scene, record_samples=True, budget=3)
        with pytest.raises(BudgetExhausted):
            local_search(np.array([0.1, 0.5]), np.array([0.9, 0.5]), oracle, p,
                         np.random.default_rng(0))
        assert oracle.sample_count == len(oracle.samples) == 3

    def test_samples_match_oracle_meter(self):
        p = params()
        oracle = empty_oracle()
        before = oracle.sample_count
        res = local_search(np.array([0.1, 0.5]), np.array([0.9, 0.5]), oracle, p,
                           np.random.default_rng(0))
        assert oracle.sample_count - before == res.samples_used

    def test_identical_seeds_reproduce(self):
        scene = Scene(name="walled", lower=np.zeros(2), upper=np.ones(2),
                      obstacles=(Box(np.array([0.4, 0.0]), np.array([0.5, 0.8])),))
        p = params(lam=0.05)
        runs = []
        for _ in range(2):
            res = local_search(np.array([0.1, 0.5]), np.array([0.9, 0.5]),
                               CollisionOracle(scene), p, np.random.default_rng(7))
            runs.append(res)
        assert runs[0].status == runs[1].status
        assert runs[0].samples_used == runs[1].samples_used
        if runs[0].path is not None:
            np.testing.assert_array_equal(runs[0].path, runs[1].path)

    def test_blocked_region_exhausts(self):
        # goal fully enclosed by obstacle walls
        scene = Scene(name="boxed", lower=np.zeros(2), upper=np.ones(2),
                      obstacles=(Box(np.array([0.6, 0.3]), np.array([0.65, 0.7])),
                                 Box(np.array([0.9, 0.3]), np.array([0.95, 0.7])),
                                 Box(np.array([0.6, 0.3]), np.array([0.95, 0.35])),
                                 Box(np.array([0.6, 0.65]), np.array([0.95, 0.7])),))
        oracle = CollisionOracle(scene)
        res = local_search(np.array([0.1, 0.5]), np.array([0.8, 0.5]), oracle,
                           params(lam=0.05), np.random.default_rng(3))
        assert res.status is LocalStatus.EXHAUSTED
        assert res.path is None

    def test_identical_endpoints_rejected(self):
        q = np.array([0.5, 0.5])
        with pytest.raises(ValueError):
            local_search(q, q.copy(), empty_oracle(), params(),
                         np.random.default_rng(0))
