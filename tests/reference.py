"""Scalar and list-based reference implementations, kept as test oracles.

The library runs the fast forms: `_PairSelector` for region selection,
`local_planner.grad_g3` for the repulsion, the kd-tree-pruned
`bench.delta_useful_ratio`, the early-exit `CollisionOracle.is_free` and the
cached `LocalTree.cp_chain`.  The plain versions here recompute everything
from scratch and are what the equivalence tests compare those against;
`grad_g3_all_rows` and `local_edge_per_call` are kept for bit identity
rather than as plain versions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from sprint_planner.geometry import Config, _check_dims, dist, unit
from sprint_planner.local_planner import grad_g2
from sprint_planner.params import SprintParams
from sprint_planner.world import Box, Scene, Sphere


@dataclass(frozen=True)
class Region:
    """A search-space region marked by two endpoint configurations."""

    a: Config
    b: Config

    def __post_init__(self):
        _check_dims(self.a, self.b)


def proj_scalar(p: Config, r: Region) -> float:
    """Unclamped parameter t of the orthogonal projection of p onto the line
    through r.a and r.b, so that the projected point is r.a + t*(r.b - r.a)."""
    _check_dims(p, r.a)
    d = r.b - r.a
    denom = float(np.dot(d, d))
    if denom == 0.0:
        raise ValueError("degenerate region: endpoints coincide")
    return float(np.dot(p - r.a, d)) / denom


def proj(p: Config, r: Region) -> Config:
    """Orthogonal projection of p onto the infinite line through r.a and r.b."""
    t = proj_scalar(p, r)
    return r.a + t * (r.b - r.a)


def hvs(x: float) -> float:
    """Heaviside step; the value at exactly 0 is 1."""
    return 0.0 if x < 0.0 else 1.0


def grad_g3_all_rows(q_x: Config, q_c: Config, obs, lam: float,
                     rng: np.random.Generator) -> Config:
    """`local_planner.grad_g3` as it was before it returned +0 with no point
    ahead: every row's residual and weight, gated-out rows weighted 0,
    summed by one vector-matrix product.  Fixed-seed trajectories were
    recorded with it, so grad_g3 must match it byte for byte."""
    obs = np.asarray(obs, dtype=np.float64)
    k = len(obs)
    if k == 0:
        raise ValueError("grad_g3 requires at least one collision point")
    dv = q_c - q_x
    denom = float(dv.dot(dv))
    if denom == 0.0:
        raise ValueError("degenerate region: endpoints coincide")
    rel = obs - q_x
    s = rel.dot(dv) / denom
    res = s[:, None] * dv - rel
    sep2 = np.einsum("ij,ij->i", res, res)
    four_lam2 = 4.0 * lam * lam
    weights = [0.0] * k
    for i, (t, n2) in enumerate(zip(s.tolist(), sep2.tolist())):
        if t < 0.0:
            continue
        n = math.sqrt(n2)
        psi32 = 5.0 * math.exp(-(n * n) / four_lam2)
        if n == 0.0:
            direction = rng.normal(size=dv.shape[0])
            res[i] = direction / np.linalg.norm(direction)
            weights[i] = psi32 / k
        else:
            weights[i] = psi32 / (n * k)
    return np.dot(weights, res)


def local_edge_per_call(node_id: int, tree, obs, rng: np.random.Generator) -> Config:
    """`local_planner.local_edge` as it was before it kept values at the scope
    where they hold: every call forms the extend node's heading and the step
    weights, draws the jitter by `rng.uniform`, and every ascent iteration
    forms the offsets obs - q_x again, inside `grad_g3_all_rows`.
    Fixed-seed trajectories were recorded with it, so local_edge must match
    it byte for byte."""
    params = tree.params
    lam = params.lam
    q_x = tree.points[node_id]
    if node_id == 0:
        q_p = tree.root - lam * unit(tree.goal - tree.root)
    else:
        q_p = tree.points[tree.parents[node_id]]
    step = q_x - q_p
    g1 = unit(step)
    repel = len(obs) > 0
    if repel:
        step = step + rng.uniform(-lam / 100.0, lam / 100.0, size=q_x.shape[0])
    q_c = q_x + step
    eta = params.eta_eff
    pull = (eta * params.w1_l) * g1
    eta_w2, eta_w3, goal = eta * params.w2_l, eta * params.w3_l, tree.goal
    for _ in range(params.ascent_iters):
        step = step + pull + eta_w2 * grad_g2(q_c, goal, lam)
        if repel:
            step = step + eta_w3 * grad_g3_all_rows(q_x, q_c, obs, lam, rng)
        n = math.sqrt(step.dot(step))
        if n == 0.0:
            step, n = g1, 1.0
        step = (lam / n) * step
        q_c = q_x + step
    return q_c


@dataclass
class RegionState:
    """What region selection sees: global nodes, the milestone pool, failed
    regions, attempted (node, milestone) pairs and reached milestones."""

    nodes: list[Config]
    milestones: list[Config] = field(default_factory=list)
    local_min_regions: list[Region] = field(default_factory=list)
    attempted: set[tuple[int, int]] = field(default_factory=set)
    reached_milestones: set[int] = field(default_factory=set)


def candidate_pairs(tree: RegionState) -> list[tuple[int, int]]:
    out = []
    for mi in range(len(tree.milestones)):
        if mi in tree.reached_milestones:
            continue
        for ni in range(len(tree.nodes)):
            if (ni, mi) not in tree.attempted:
                out.append((ni, mi))
    return out


def pair_scores(tree: RegionState, q_goal: Config, params: SprintParams,
                pairs: list[tuple[int, int]]) -> np.ndarray:
    c = dist(tree.nodes[0], q_goal)
    if c == 0.0:
        c = 1.0
    nodes = np.array(tree.nodes)
    miles = np.array(tree.milestones)
    d_m_goal = np.linalg.norm(miles - q_goal, axis=1)
    d_n_goal = np.linalg.norm(nodes - q_goal, axis=1)

    # goal-progress term per (node, milestone) pair: shortfall from ideal
    # goal-ward progress of the region
    ni = np.array([p[0] for p in pairs])
    mi = np.array([p[1] for p in pairs])
    d_nm = np.linalg.norm(nodes[ni] - miles[mi], axis=1)
    x1 = np.maximum(0.0, d_m_goal[mi] - (d_n_goal[ni] - d_nm))
    g1 = np.exp(-(x1 * x1) / (2.0 * c * c))

    # failed-region repulsion: penalize milestones sitting past the far
    # endpoint of any exhausted region's ray
    peak = np.zeros(len(tree.milestones))
    for region in tree.local_min_regions:
        dvec = region.b - region.a
        denom = float(np.dot(dvec, dvec))
        if denom == 0.0:
            continue
        s = (miles - region.a) @ dvec / denom
        projs = region.a + s[:, None] * dvec
        dr = np.linalg.norm(miles - projs, axis=1)
        term = np.where(s >= 1.0, np.exp(-(dr * dr) / (2.0 * c * c)), 0.0)
        peak = np.maximum(peak, term)
    g2 = 1.0 - peak

    return (params.w1_g * g1) * (params.w2_g * g2[mi])


def select_pair(tree: RegionState, q_goal: Config, params: SprintParams) -> tuple[int, int]:
    pairs = candidate_pairs(tree)
    if not pairs:
        raise ValueError("select_region requires at least one unattempted pair")
    scores = pair_scores(tree, q_goal, params, pairs)
    best = float(np.max(scores))
    ties = [pairs[i] for i in np.flatnonzero(scores == best)]
    if len(ties) == 1:
        return ties[0]
    # break ties by milestone closeness to goal, then insertion order
    miles = tree.milestones
    return min(ties, key=lambda p: (dist(miles[p[1]], q_goal), p[0], p[1]))


def select_region(tree: RegionState, q_goal: Config, params: SprintParams) -> tuple[Config, Config]:
    """Best unattempted (global node, milestone) pair under the region heuristic."""
    ni, mi = select_pair(tree, q_goal, params)
    return tree.nodes[ni], tree.milestones[mi]


def delta_useful_ratio_all_pairs(samples: list[tuple[Config, bool]], path: np.ndarray,
                                 delta: float) -> float:
    """`bench.delta_useful_ratio` measured on every (free sample, segment)
    pair, without pruning."""
    path = np.asarray(path, dtype=float)
    free_pts = np.array([q for q, free in samples if free])
    if free_pts.size == 0:
        return 0.0
    a = path[:-1]
    seg = path[1:] - a
    seg_len2 = np.einsum("ij,ij->i", seg, seg)
    seg_len2 = np.where(seg_len2 == 0.0, 1.0, seg_len2)
    useful = 0
    # chunk over samples to bound the (samples x segments) intermediate
    for chunk in np.array_split(free_pts, max(1, len(free_pts) // 2048)):
        rel = chunk[:, None, :] - a[None, :, :]
        t = np.clip(np.einsum("kij,ij->ki", rel, seg) / seg_len2, 0.0, 1.0)
        closest = a[None, :, :] + t[:, :, None] * seg[None, :, :]
        d2 = np.sum((chunk[:, None, :] - closest) ** 2, axis=2)
        useful += int(np.count_nonzero(np.min(d2, axis=1) <= delta * delta))
    return useful / len(samples)


def is_free_reference(scene: Scene, q: Config) -> bool:
    """`CollisionOracle.is_free` without the meter, as one `all()` per
    interval test: the world boundary is free, a box or sphere boundary
    collides, and a NaN coordinate is never free."""
    ql = q.tolist()
    if not all(l <= x <= h for x, l, h in zip(ql, scene.lower.tolist(), scene.upper.tolist())):
        return False
    for o in scene.obstacles:
        if isinstance(o, Box):
            if all(l <= x <= h for x, l, h in zip(ql, o.min.tolist(), o.max.tolist())):
                return False
        elif isinstance(o, Sphere):
            r2 = o.radius * o.radius
            if sum((x - c) * (x - c) for x, c in zip(ql, o.center.tolist())) <= r2:
                return False
    return True


def checkpoint_path(tree, node_id: int) -> list[int]:
    """Checkpoint ids on the path node_id -> root (inclusive of both ends),
    read from the tree's cached `cp_chain`."""
    return list(reversed(tree.cp_chain[node_id]))
