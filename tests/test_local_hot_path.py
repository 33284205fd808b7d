"""Equivalence checks for the local layer's hot path: the array repulsion
against the per-point loop it replaced and, byte for byte, against the
all-rows product, the edge step byte for byte against
the form that recomputed every value on every call, the culling gate
against its formula and against pinned boundary stall counts, and each
checkpoint's collision points against a model bounded deque."""

import math
from collections import deque

import numpy as np
import pytest

from sprint_planner.bench import SPRINT_VARIANTS
from sprint_planner.geometry import unit
from sprint_planner.local_planner import (LocalTree, backprop_collision,
                                          collision_points, grad_g3,
                                          local_edge, promote_checkpoint,
                                          subtree_sigma, valid_node)
from sprint_planner.params import SprintParams

from reference import (Region, grad_g3_all_rows, hvs, local_edge_per_call,
                       proj, proj_scalar)


def grad_g3_reference(q_x, q_c, obs, lam, rng):
    """The per-point repulsion loop, kept as the oracle for grad_g3."""
    if not len(obs):
        raise ValueError("grad_g3 requires at least one collision point")
    region = Region(q_x, q_c)
    total = np.zeros_like(q_c)
    for q_obs in obs:
        s = proj_scalar(q_obs, region)
        gate = hvs(s)
        if gate == 0.0:
            continue
        p = proj(q_obs, region)
        diff = p - q_obs
        n = math.sqrt(diff.dot(diff))
        psi32 = 5.0 * math.exp(-(n * n) / (4.0 * lam * lam))
        if n == 0.0:
            direction = rng.normal(size=q_c.shape[0])
            direction /= np.linalg.norm(direction)
        else:
            direction = diff / n
        total += psi32 * direction
    return total / len(obs)


def _perp(rng, dv):
    """A random unit vector orthogonal to dv."""
    v = rng.normal(size=dv.shape[0])
    v -= (v @ dv) / (dv @ dv) * dv
    return v / np.linalg.norm(v)


def _case(rng, d, k):
    """q_x, q_c, lam and k collision points mixing general points, points
    behind q_x and points near the segment's line.

    Near-line offsets stay above lam/100: closer in, the reference's own
    rounding of q_x + t*dv, at the scale of |q_x| rather than of the
    offset, exceeds the 1e-12 tolerance by itself.
    """
    lam = float(rng.uniform(0.02, 0.2))
    q_x = rng.uniform(0.0, 1.0, d)
    dv = rng.normal(size=d)
    dv *= lam / np.linalg.norm(dv)
    q_c = q_x + dv
    obs = []
    for _ in range(k):
        kind = rng.integers(3)
        if kind == 0:
            obs.append(q_x + rng.normal(scale=2.0 * lam, size=d))
        elif kind == 1:
            t = -float(rng.uniform(0.05, 2.0))
            obs.append(q_x + t * dv + rng.normal(scale=lam, size=d))
        else:
            t = float(rng.uniform(0.0, 2.0))
            offset = lam * 10.0 ** float(rng.uniform(-2, -1))
            obs.append(q_x + t * dv + offset * _perp(rng, dv))
    return q_x, q_c, lam, np.array(obs)


def _dyadic_case(rng, d, k):
    """Coordinates on a 1/64 grid so the projection is exact in both
    versions: two points lie on the line, one of them exactly on q_c, and
    each of those must draw one random direction, in order."""
    q_x = rng.integers(0, 32, d) / 64.0
    dv = rng.integers(-4, 5, d) / 64.0
    dv[0] = 1.0 / 64.0
    q_c = q_x + dv
    obs = [q_x + rng.integers(-8, 9, d) / 64.0 for _ in range(max(0, k - 2))]
    obs.insert(int(rng.integers(len(obs) + 1)), q_c.copy())
    obs.insert(int(rng.integers(len(obs) + 1)), q_x + 0.5 * dv)
    return q_x, q_c, 0.05, np.array(obs)


def _assert_same(q_x, q_c, lam, obs, seed):
    """grad_g3 agrees with the reference to 1e-12 of the mean per-point
    term magnitude (the terms can cancel, so the result's own norm is no
    scale), and both leave the rng in the same state."""
    rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = grad_g3(q_x, q_c, obs - q_x, lam, rng_new)
    want = grad_g3_reference(q_x, q_c, list(obs), lam, rng_ref)
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state
    scale = np.mean([np.linalg.norm(grad_g3_reference(q_x, q_c, [q], lam,
                                                      np.random.default_rng(0)))
                     for q in obs])
    assert np.linalg.norm(got - want) <= 1e-12 * scale


class TestGradG3MatchesReference:
    @pytest.mark.parametrize("d", [2, 6, 10])
    def test_random_cases(self, d):
        rng = np.random.default_rng(d)
        for k in range(1, 11):
            for trial in range(20):
                _assert_same(*_case(rng, d, k), seed=1000 * k + trial)

    @pytest.mark.parametrize("d", [2, 6, 10])
    def test_zero_separation_draws_in_order(self, d):
        rng = np.random.default_rng(100 + d)
        for k in range(2, 11):
            q_x, q_c, lam, obs = _dyadic_case(rng, d, k)
            _assert_same(q_x, q_c, lam, obs, seed=k)
            # the on-line points draw, so a fresh rng ends in a moved state
            moved = np.random.default_rng(k)
            grad_g3(q_x, q_c, obs - q_x, lam, moved)
            assert moved.bit_generator.state != np.random.default_rng(k).bit_generator.state

    def test_degenerate_segment_rejected(self):
        q = np.array([0.5, 0.5])
        with pytest.raises(ValueError):
            grad_g3(q, q.copy(), np.array([[0.1, 0.1]]) - q, 0.1, np.random.default_rng(0))


def _bit_cases(d, k, rng):
    """(label, points ahead, (q_x, q_c, lam, obs)) cases on a dyadic q_x
    and q_c - q_x, with no, one and several of k points ahead of q_x, and
    the same with one ahead point exactly on the line, which draws a random
    direction."""
    lam = 0.05
    q_x = rng.integers(0, 32, d) / 64.0
    dv = rng.integers(-4, 5, d) / 64.0
    dv[0] = 1.0 / 64.0
    q_c = q_x + dv

    def point(t):
        return q_x + t * dv + float(rng.uniform(0.1, 3.0)) * lam * _perp(rng, dv)

    def obs(n_ahead, on_line):
        pts = [point(float(rng.uniform(0.05, 2.0))) for _ in range(n_ahead)]
        pts += [point(-float(rng.uniform(0.05, 2.0))) for _ in range(k - n_ahead)]
        if on_line:
            pts[0] = q_x + 0.5 * dv  # exact in dyadic arithmetic: separation 0
        order = rng.permutation(k)
        return np.array([pts[i] for i in order])

    counts = (0, 1, int(rng.integers(2, k + 1))) if k >= 2 else (0, 1)
    for n_ahead in counts:
        yield f"{n_ahead} ahead", n_ahead, (q_x, q_c, lam, obs(n_ahead, False))
        if n_ahead:
            yield f"{n_ahead} ahead, one on the line", n_ahead, (q_x, q_c, lam, obs(n_ahead, True))


def _signed_zero_case(d, k):
    """One point abeam q_x (s = +0, ahead) whose residual has a -0
    coordinate: s * dv[1] is -0 there and rel[1] is +0; the other k - 1
    points lie behind, on the line."""
    q_x = np.full(d, 0.25)
    dv = np.full(d, 1.0 / 64.0)
    dv[0], dv[1] = 0.0, -1.0 / 64.0
    q_c = q_x + dv
    abeam = q_x.copy()
    abeam[0] += 1.0 / 64.0
    obs = [abeam] + [q_x - (j + 1) * dv for j in range(k - 1)]
    return q_x, q_c, 0.05, np.array(obs)


def _all_cases():
    rng = np.random.default_rng(23)
    for d in (2, 6, 10):
        for k in range(1, 11):
            for rep in range(3):
                for label, n_ahead, case in _bit_cases(d, k, rng):
                    yield f"d={d} k={k} {label} #{rep}", n_ahead, case
            yield f"d={d} k={k} signed zero", 1, _signed_zero_case(d, k)


def _differences(g3):
    """Labels of the cases where g3 and the all-rows formula differ in the
    bytes of the result or in the generator's next draw."""
    out = []
    for seed, (label, _, (q_x, q_c, lam, obs)) in enumerate(_all_cases()):
        rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
        got = g3(q_x, q_c, obs - q_x, lam, rng_got)
        want = grad_g3_all_rows(q_x, q_c, obs, lam, rng_want)
        if got.tobytes() != want.tobytes() or rng_got.random() != rng_want.random():
            out.append(label)
    return out


class TestGradG3BitIdentical:
    def test_cases_have_the_points_ahead_they_claim(self):
        paths = set()
        for label, n_ahead, (q_x, q_c, lam, obs) in _all_cases():
            region = Region(q_x, q_c)
            assert sum(hvs(proj_scalar(q, region)) for q in obs) == n_ahead, label
            paths.add(min(n_ahead, 2))
        assert paths == {0, 1, 2}

    def test_matches_all_rows_formula(self):
        assert _differences(grad_g3) == []


def _edge_differences(d, k, seed):
    """Labels of the extensions where local_edge and the per-call form differ
    in the bytes of the candidate or in the generator's next draw.  One
    tree, with random weights and one or two ascent iterations, has k
    collision points at its root; the root (whose predecessor is virtual)
    and a node two edges down are each extended twice; then collisions at
    the node add points, and a checkpoint promoted between the two gives
    the node points of its own."""
    rng = np.random.default_rng(seed)
    p = SprintParams(lam=float(rng.uniform(0.02, 0.2)), k_obs=10,
                     eta=None if rng.random() < 0.5 else float(rng.uniform(0.01, 0.1)),
                     w1_l=float(rng.uniform(0.5, 2.0)), w2_l=float(rng.uniform(0.5, 2.0)),
                     w3_l=float(rng.uniform(0.5, 2.0)), ascent_iters=int(rng.integers(1, 3)))
    tree = LocalTree(rng.uniform(0, 1, d), rng.uniform(0, 1, d), p)

    def child(parent):
        return tree.add(tree.points[parent] + p.lam * unit(rng.normal(size=d)), parent)

    def near(node):
        return tree.points[node] + rng.normal(scale=2.0 * p.lam, size=d)

    a = child(0)
    b = child(a)
    for _ in range(k):
        backprop_collision(tree, 0, near(0))
    rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
    out = []

    def extend(node, label):
        obs = collision_points(node, tree)
        got = local_edge(node, tree, obs, rng_got)
        want = local_edge_per_call(node, tree, obs, rng_want)
        if got.tobytes() != want.tobytes() or rng_got.random() != rng_want.random():
            out.append(f"d={d} k={k} {label}")
        return got

    extend(0, "root")
    extend(0, "root again")
    extend(b, "node")
    q_c = extend(b, "node again")
    backprop_collision(tree, b, q_c)
    extend(b, "node after a collision")
    extend(0, "root after a collision")
    child(a)
    promote_checkpoint(tree, a)
    extend(b, "node under an empty checkpoint")
    for i in range(3):
        backprop_collision(tree, b, near(b))
        extend(b, f"node after collision {i + 2}")
        extend(0, f"root after collision {i + 2}")
    return out


class TestLocalEdgeBitIdentical:
    @pytest.mark.parametrize("d", [2, 6, 10])
    def test_matches_per_call_formula(self, d):
        diffs = []
        for k in range(11):
            diffs += _edge_differences(d, k, seed=100 * d + k)
        assert diffs == []


def _gate_params():
    base = SprintParams()
    out = [base]
    for seed in range(3):
        perturbed, _ = SPRINT_VARIANTS["sprint:random-params"](base, np.random.default_rng(seed))
        out.append(perturbed)
    return out


class TestCachedCutoffGate:
    @pytest.mark.parametrize("p", _gate_params(), ids=["default", "rand0", "rand1", "rand2"])
    def test_matches_gate_formula(self, p):
        tree = LocalTree(np.zeros(2), np.ones(2), p)
        rec = tree.records[0]
        for n in range(1, 2001):
            rec.subtree_node_count = n
            c = subtree_sigma(n, p)
            for x in range(401):
                rec.samples_since_exploit = rec.samples_since_explore = x
                expect = not math.exp(-(x * x) / (2.0 * c * c)) < p.kappa
                if valid_node(0, tree) != expect:
                    pytest.fail(f"n={n} x={x}: gate {not expect}, formula {expect}")

    def test_never_rejecting_sigma_passes(self):
        # an infinite sigma gives gate probability one at every stall count
        p = SprintParams(c_base=math.inf)
        tree = LocalTree(np.zeros(2), np.ones(2), p)
        rec = tree.records[0]
        rec.samples_since_exploit = rec.samples_since_explore = 10 ** 9
        assert valid_node(0, tree)

    # the largest passing stall count at subtree sizes 1, 10, 100, 2000 and
    # 10**5, as the gate gave before it was evaluated by its formula
    @pytest.mark.parametrize("changes, largest", [
        ({}, [130, 80, 46, 46, 46]),
        ({"c_base": 1000.0}, [4359, 2693, 1551, 1551, 1551]),
        ({"kappa": 0.01}, [255, 158, 91, 91, 91]),
        ({"kappa": 0.99}, [11, 7, 4, 4, 4]),
    ], ids=["default", "c_base=1000", "kappa=0.01", "kappa=0.99"])
    def test_boundary_is_pinned(self, changes, largest):
        tree = LocalTree(np.zeros(2), np.ones(2), SprintParams(**changes))
        rec = tree.records[0]
        for n, x in zip([1, 10, 100, 2000, 10 ** 5], largest):
            rec.subtree_node_count = n
            # the smaller of the two stall counts decides
            for exploit, explore, passes in [(x, x, True), (x + 1, x + 1, False),
                                             (x, 10 ** 12, True), (10 ** 12, x + 1, False)]:
                rec.samples_since_exploit, rec.samples_since_explore = exploit, explore
                assert valid_node(0, tree) is passes, (n, exploit, explore)

    def test_huge_finite_sigma_passes(self):
        tree = LocalTree(np.zeros(2), np.ones(2), SprintParams(c_base=1e150))
        rec = tree.records[0]
        rec.samples_since_exploit = rec.samples_since_explore = 10 ** 9
        assert valid_node(0, tree)


class TestObsRing:
    @pytest.mark.parametrize("k_obs", [1, 3, 10])
    def test_matches_bounded_deque(self, k_obs):
        rng = np.random.default_rng(k_obs)
        p = SprintParams(lam=0.05, k_obs=k_obs)
        for _ in range(10):
            tree = LocalTree(rng.uniform(0, 1, 3), rng.uniform(0, 1, 3), p)
            model = {0: deque(maxlen=k_obs)}
            for _ in range(200):
                nid = int(rng.integers(len(tree.points)))
                if rng.random() < 0.4:
                    tree.add(rng.uniform(0, 1, 3), nid)
                    if len(tree.children[nid]) >= 2 and nid not in model:
                        promote_checkpoint(tree, nid)
                        model[nid] = deque(maxlen=k_obs)
                else:
                    q = rng.uniform(0, 1, 3)
                    backprop_collision(tree, nid, q)
                    for cp in tree.cp_chain[nid]:
                        model[cp].append(q.copy())
                    q[:] = -1.0  # the records keep their own copy
            assert set(model) == set(tree.records)
            for cp, pts in model.items():
                got = collision_points(cp, tree)
                assert got.shape == (len(pts), 3)
                assert len(pts) <= k_obs
                np.testing.assert_array_equal(got, np.array(pts).reshape(-1, 3))
            for nid in range(len(tree.points)):
                expect = model[tree.cp_chain[nid][-1]]
                np.testing.assert_array_equal(collision_points(nid, tree),
                                              np.array(expect).reshape(-1, 3))
