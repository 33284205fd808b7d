"""Greedy depth-first local tree search with checkpoint bookkeeping.

The local search grows a tree of fixed-length edges from a root toward a
goal.  Checkpoints (the root plus every node with two or more children)
store back-propagated subtree statistics: progress counters, collision
points, and node counts.  Those records drive the node-culling gate and the
gradient-steered edge extension.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .geometry import Config, Tree, dist, unit
from .params import SprintParams
from .world import CollisionOracle, Scene


class LocalStatus(enum.Enum):
    REACHED = "Reached"
    EXHAUSTED = "Exhausted"


@dataclass
class CheckpointRecord:
    """Subtree statistics held at one checkpoint node.

    samples_since_exploit / samples_since_explore count collision-check
    samples since the subtree last improved its best distance-to-goal /
    max distance-from-root.  obs holds the newest k_obs collision points,
    oldest first.
    """

    best_goal_dist: float
    max_root_dist: float
    obs: deque[Config]
    samples_since_exploit: int = 0
    samples_since_explore: int = 0
    subtree_node_count: int = 1


@dataclass
class LocalResult:
    status: LocalStatus
    path: np.ndarray | None
    samples_used: int


class LocalTree(Tree):
    """Search tree rooted at the region's first endpoint, aiming at the second.

    Each node field is a list indexed by node id.  Node i is a checkpoint
    exactly when i is in records.  The per-tree (d,) vectors hold the
    jitter's lower end and span and the goal and repulsion step weights.
    """

    def __init__(self, root: Config, goal: Config, params: SprintParams):
        super().__init__(root)
        self.root = root
        self.goal = goal
        self.params = params
        self.children: list[list[int]] = [[]]
        d, jitter, eta = root.shape[0], params.lam / 100.0, params.eta_eff
        # uniform(-jitter, jitter) draws lo + (hi - lo) * random(d)
        self.jitter_lo = np.full(d, -jitter)
        self.jitter_span = np.full(d, jitter - -jitter)
        self.eta_w2 = np.full(d, eta * params.w2_l)
        self.eta_w3 = np.full(d, eta * params.w3_l)
        # cached at insertion so checkpoint snapshots never re-measure the tree
        self.d_goal = [dist(root, goal)]
        self.d_root = [0.0]
        # checkpoint ids on the root -> node path, node included when it is one
        self.cp_chain: list[tuple[int, ...]] = [(0,)]
        self.records = {0: CheckpointRecord(
            best_goal_dist=self.d_goal[0], max_root_dist=0.0, obs=deque(maxlen=params.k_obs),
        )}

    def add(self, q: Config, parent: int) -> int:
        nid = super().add(q, parent)
        self.children.append([])
        self.children[parent].append(nid)
        d = q - self.goal
        self.d_goal.append(math.sqrt(d.dot(d)))
        d = q - self.root
        self.d_root.append(math.sqrt(d.dot(d)))
        self.cp_chain.append(self.cp_chain[parent])
        return nid

    def subtree_ids(self, node_id: int) -> list[int]:
        out = []
        todo = [node_id]
        while todo:
            i = todo.pop()
            out.append(i)
            todo.extend(self.children[i])
        return out


def subtree_sigma(n: int, params: SprintParams) -> float:
    """Culling-Gaussian standard deviation, widened for small subtrees."""
    if n < 1:
        raise ValueError("subtree node count must be >= 1")
    return params.c_base * (1.0 + params.sigma_slack * math.exp(-n / params.n_scale))


def valid_node(node_id: int, tree: LocalTree) -> bool:
    """Gate a node for extension: every checkpoint on its root path must show
    recent exploitation or exploration progress, i.e. a gate probability
    exp(-x^2 / 2c^2) >= kappa, where x is the smaller of its two stall counts
    and c = subtree_sigma of its subtree node count."""
    params = tree.params
    records = tree.records
    for cp in tree.cp_chain[node_id]:
        rec = records[cp]
        x = min(rec.samples_since_exploit, rec.samples_since_explore)
        c = subtree_sigma(rec.subtree_node_count, params)
        if math.exp(-(x * x) / (2.0 * c * c)) < params.kappa:
            return False
    return True


def collision_points(node_id: int, tree: LocalTree) -> np.ndarray:
    """Collision points stored at the nearest ancestor checkpoint of node_id,
    oldest first, as a fresh (k, d) array."""
    obs = tree.records[tree.cp_chain[node_id][-1]].obs
    return np.array(obs) if obs else np.empty((0, tree.root.shape[0]))


def backprop_progress(tree: LocalTree, new_node_id: int) -> None:
    """Propagate a freshly inserted free node's progress to every checkpoint
    on its path to the root."""
    d_goal = tree.d_goal[new_node_id]
    d_root = tree.d_root[new_node_id]
    eps = tree.params.eps_prog_eff
    for cp in tree.cp_chain[new_node_id]:
        rec = tree.records[cp]
        rec.subtree_node_count += 1
        if d_goal < rec.best_goal_dist - eps:
            rec.best_goal_dist = d_goal
            rec.samples_since_exploit = 0
        else:
            rec.samples_since_exploit += 1
        if d_root > rec.max_root_dist + eps:
            rec.max_root_dist = d_root
            rec.samples_since_explore = 0
        else:
            rec.samples_since_explore += 1


def backprop_collision(tree: LocalTree, node_id: int, q_obs: Config) -> None:
    """Store an observed collision point at every checkpoint on the path
    node_id -> root; a collision is a sample without progress.  The records
    share one copy of q_obs, so the caller may reuse its array."""
    q_obs = q_obs.copy()
    for cp in tree.cp_chain[node_id]:
        rec = tree.records[cp]
        rec.obs.append(q_obs)
        rec.samples_since_exploit += 1
        rec.samples_since_explore += 1


def promote_checkpoint(tree: LocalTree, node_id: int) -> None:
    """Label a node that just gained its second child as a checkpoint, with a
    fresh record snapshotting its current subtree."""
    records = tree.records
    if node_id in records:
        return
    ids = tree.subtree_ids(node_id)
    chain, parents = tree.cp_chain, tree.parents
    chain[node_id] += (node_id,)
    for i in ids[1:]:  # ids[0] is node_id
        chain[i] = chain[parents[i]] + ((i,) if i in records else ())
    records[node_id] = CheckpointRecord(
        best_goal_dist=min(tree.d_goal[i] for i in ids),
        max_root_dist=max(tree.d_root[i] for i in ids),
        subtree_node_count=len(ids),
        obs=deque(maxlen=tree.params.k_obs),
    )


def grad_g2(q_c: Config, q_goal: Config, lam: float) -> Config:
    """Goal pull, strengthened as the candidate nears the goal."""
    diff = q_goal - q_c
    n = math.sqrt(diff.dot(diff))
    if n == 0.0:
        return np.zeros_like(q_c)
    psi2 = math.exp(-(n * n) / (4.0 * lam * lam)) + 1.0
    return (psi2 / n) * diff


def grad_g3(q_x: Config, q_c: Config, rel, lam: float,
            rng: np.random.Generator) -> Config:
    """Mean repulsion away from nearby observed collision points.

    rel holds k collision points' offsets from q_x, obs - q_x, as a (k, d)
    array or a sequence of vectors.  Points projecting behind q_x are gated
    out; a point landing exactly on the line through q_x and q_c pushes in a
    random unit direction, one rng draw per such point in the order of rel.
    With no point ahead the result is +0, as the all-rows product gives.
    """
    rel = np.asarray(rel, dtype=np.float64)
    k = len(rel)
    if k == 0:
        raise ValueError("grad_g3 requires at least one collision point")
    dv = q_c - q_x
    denom = float(dv.dot(dv))
    if denom == 0.0:
        raise ValueError("degenerate region: endpoints coincide")
    s = rel.dot(dv) / denom
    ahead = [i for i, t in enumerate(s.tolist()) if not t < 0.0]
    if not ahead:
        return np.zeros(dv.shape[0])
    four_lam2 = 4.0 * lam * lam
    # each point's offset to its projection q_x + s*dv, formed explicitly:
    # |rel|^2 - (rel.dv)^2/denom cancels for points near the line
    res = s[:, None] * dv - rel
    sep2 = np.einsum("ij,ij->i", res, res).tolist()
    weights = [0.0] * k
    for i in ahead:
        n = math.sqrt(sep2[i])
        psi32 = 5.0 * math.exp(-(n * n) / four_lam2)
        if n == 0.0:
            res[i] = unit(rng.normal(size=dv.shape[0]))
            weights[i] = psi32 / k
        else:
            weights[i] = psi32 / (n * k)  # also scales the residual to unit length
    return np.dot(weights, res)


def local_edge(node_id: int, tree: LocalTree, obs,
               rng: np.random.Generator) -> Config:
    """Gradient-ascent steered candidate for the next edge endpoint; the
    returned candidate always sits at distance lam from the extend node.
    obs is the extend node's collision points, a (k, d) array or a sequence
    of configurations."""
    params = tree.params
    lam = params.lam
    q_x = tree.points[node_id]
    if node_id == 0:
        # one step behind the root, opposite the goal direction, so the
        # first extension's straight-line term points at the goal
        q_p = tree.root - lam * unit(tree.goal - tree.root)
    else:
        q_p = tree.points[tree.parents[node_id]]
    # the candidate is tracked as its offset from q_x, which each ascent
    # step moves by eta * gradient and then rescales to length lam
    step = q_x - q_p
    g1 = unit(step)  # the straight-line pull along the predecessor edge
    pull = (params.eta_eff * params.w1_l) * g1
    repel = len(obs) > 0
    if repel:
        rel = obs - q_x
        step = step + (tree.jitter_lo + tree.jitter_span * rng.random(q_x.shape[0]))
    q_c = q_x + step
    eta_w2, eta_w3, goal = tree.eta_w2, tree.eta_w3, tree.goal
    for _ in range(params.ascent_iters):
        step = step + pull + eta_w2 * grad_g2(q_c, goal, lam)
        if repel:
            # rel goes third and by position: the benchmark's tracer reads it there
            step = step + eta_w3 * grad_g3(q_x, q_c, rel, lam, rng)
        n = math.sqrt(step.dot(step))
        if n == 0.0:
            step, n = g1, 1.0
        step = (lam / n) * step
        q_c = q_x + step
    return q_c


def check_edge_step(params: SprintParams, scene: Scene) -> None:
    """Raise a ValueError naming the fields unless local_edge's step fits the
    scene's floats: a step of length lam, whose largest coordinate is at
    least lam / sqrt(d), moves any point of the scene's box; lam * lam, which
    grad_g2 and grad_g3 divide by, is not 0; and the longest step an ascent
    can form, jitter included, squares to a finite float (|grad_g2| <= 2,
    |grad_g3| <= 5)."""
    lam, d = params.lam, scene.dim
    ulp = float(np.spacing(max(np.abs(scene.lower).max(), np.abs(scene.upper).max())))
    if not lam / math.sqrt(d) > ulp:
        raise ValueError(f"lam {lam!r} is below the resolution of the scene's coordinates, "
                         f"whose spacing reaches {ulp!r}")
    if lam * lam == 0.0:
        raise ValueError(f"lam {lam!r} is too small: lam * lam underflows to 0")
    longest = (lam * (1.0 + math.sqrt(d) / 100.0)
               + params.eta_eff * (params.w1_l + 2.0 * params.w2_l + 5.0 * params.w3_l))
    if longest * longest == math.inf:
        raise ValueError("lam, eta, w1_l, w2_l and w3_l are too large: the square of the "
                         "longest edge step they allow overflows")


def local_search(root: Config, goal: Config, oracle: CollisionOracle,
                 params: SprintParams, rng: np.random.Generator,
                 gate_fn=None, edge_fn=None) -> LocalResult:
    """Run one local search over the region [root, goal].

    Pops extend nodes off a LIFO stack, gates them through the culling
    heuristic, extends with the gradient-steered candidate, and
    back-propagates progress or collision information.  Terminates Reached
    when a free node lands within lam of the goal and a metered endpoint
    check of the goal passes (the short terminal edge carries no interior
    checks), or Exhausted when the stack empties.  The oracle's
    BudgetExhausted passes through.

    gate_fn/edge_fn override valid_node and local_edge, with their
    signatures; used by the ablation harness.
    """
    if np.array_equal(root, goal):
        raise ValueError("local search requires root != goal")
    start_count = oracle.sample_count
    tree = LocalTree(root, goal, params)
    gate = gate_fn or valid_node
    edge = edge_fn or local_edge

    goal_reach = params.lam * (1.0 + 1e-9)  # tolerance for exact-multiple spans
    if dist(root, goal) <= goal_reach and oracle.query(goal):
        return LocalResult(LocalStatus.REACHED, np.vstack([root, goal]), 1)

    stack: list[tuple[int, int]] = [(0, params.r_retry)]
    while stack:
        node_id, retries = stack.pop()
        if not gate(node_id, tree):
            continue
        obs = collision_points(node_id, tree)
        q_c = edge(node_id, tree, obs, rng)
        if retries - 1 > 0:
            # the node stays reachable below any new branch for backtracking
            stack.append((node_id, retries - 1))
        if oracle.query(q_c):
            child = tree.add(q_c, node_id)
            backprop_progress(tree, child)
            if len(tree.children[node_id]) >= 2:
                promote_checkpoint(tree, node_id)
            if tree.d_goal[child] <= goal_reach and oracle.query(goal):
                return LocalResult(LocalStatus.REACHED, np.array(tree.path_to(child, goal)),
                                   oracle.sample_count - start_count)
            stack.append((child, params.r_retry))
        else:
            backprop_collision(tree, node_id, q_c)
    return LocalResult(LocalStatus.EXHAUSTED, None, oracle.sample_count - start_count)
