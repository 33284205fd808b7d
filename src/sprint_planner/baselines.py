"""RRT and RRT-Connect baselines sharing the instrumented oracle."""

from __future__ import annotations

import math
import time

import numpy as np

from .geometry import Config, dist
from .global_planner import PlanResult, Tree, check_endpoints
from .params import BaselineParams
from .world import BudgetExhausted, CollisionOracle

# Random targets drawn ahead per tree at once.  scipy's per-call overhead
# dominates a single kd-tree query, so answering a block in one stacked query
# is cheaper per target; a larger block wastes more draws and queries at the
# end of a trial and on each rebuild that lands mid-block.
TARGET_BLOCK = 128


class KdTree:
    """Incremental exact nearest-neighbor index.

    Backed by a periodically rebuilt scipy kd-tree plus a brute-force buffer
    of recent insertions, so queries stay exact while insertion stays cheap.
    `scipy.spatial` is imported at the first rebuild (the `rebuild_every`-th
    insert), not with this module, so a process that never builds a kd-tree
    never pays its import.

    Callers that know their upcoming queries can `queue` them: `next_target`
    hands them out in order, and the `nearest` call that follows answers the
    kd-tree part of every queued target still ahead in one batched scipy
    query.  The buffer scan stays per query, because the buffer grows between
    queries.
    """

    def __init__(self, dim: int, rebuild_every: int = 256):
        self.dim = dim
        self.rebuild_every = rebuild_every
        self._pts = np.empty((rebuild_every, dim))
        self._size = 0
        self._tree = None  # scipy cKDTree over the first _tree_size points
        self._tree_size = 0
        self._targets = np.empty((0, dim))
        self._next = 0  # index of the next target next_target() hands out
        self._pending: int | None = None  # target the next nearest() answers
        # scipy answers for the targets from _batch_start on; stale once a
        # rebuild or a new queue replaces what they were computed against
        self._batch_d = self._batch_i = np.empty(0)
        self._batch_start = 0
        self._batch_fresh = False

    def __len__(self) -> int:
        return self._size

    def insert(self, q: Config) -> int:
        if q.shape[0] != self.dim:
            raise ValueError("point dimension mismatch")
        if self._size == self._pts.shape[0]:
            grown = np.empty((2 * self._size, self.dim))
            grown[: self._size] = self._pts
            self._pts = grown
        self._pts[self._size] = q
        self._size += 1
        if self._size - self._tree_size >= self.rebuild_every:
            from scipy.spatial import cKDTree
            self._tree = cKDTree(self._pts[: self._size].copy())
            self._tree_size = self._size
            self._batch_fresh = False
        return self._size - 1

    def queue(self, targets: np.ndarray) -> None:
        """Replace the queued targets with the rows of `targets`, (n, dim)."""
        if targets.ndim != 2 or targets.shape[1] != self.dim:
            raise ValueError("targets must be an (n, dim) array")
        self._targets = targets
        self._next = 0
        self._pending = None
        self._batch_fresh = False

    @property
    def queued(self) -> int:
        """Queued targets that `next_target` has not handed out yet."""
        return len(self._targets) - self._next

    def next_target(self) -> Config:
        """The next queued target; the next `nearest` call must be for it."""
        if not self.queued:
            raise IndexError("no queued target left")
        self._pending = self._next
        self._next += 1
        return self._targets[self._pending]

    def nearest(self, q: Config) -> int:
        if self._size == 0:
            raise ValueError("nearest query on an empty tree")
        best_d = np.inf
        best_i = -1
        k, self._pending = self._pending, None
        if self._tree is not None:
            if k is None:
                d, i = self._tree.query(q)
            else:
                if not self._batch_fresh:
                    self._batch_d, self._batch_i = self._tree.query(self._targets[k:])
                    self._batch_start = k
                    self._batch_fresh = True
                d = self._batch_d[k - self._batch_start]
                i = self._batch_i[k - self._batch_start]
            best_d, best_i = float(d), int(i)
        if self._tree_size < self._size:
            buf = self._pts[self._tree_size : self._size]
            diff = buf - q
            dd = np.einsum("ij,ij->i", diff, diff)
            j = int(np.argmin(dd))
            if float(dd[j]) < best_d * best_d:
                best_i = self._tree_size + j
        return best_i


def _steer(q_from: Config, q_to: Config, step: float) -> Config | None:
    diff = q_to - q_from
    n = math.sqrt(diff.dot(diff))  # np.linalg.norm's own formula, minus its overhead
    if n == 0.0:
        return None
    if n <= step:
        return q_to
    return q_from + step * (diff / n)


class _Tree(Tree):
    """A Tree that also indexes its points for nearest-neighbor queries."""

    def __init__(self, root: Config):
        super().__init__(root)
        self.kd = KdTree(root.shape[0])
        self.kd.insert(root)

    def add(self, q: Config, parent: int) -> int:
        self.kd.insert(q)
        return super().add(q, parent)


def _rrt_targets(rng: np.random.Generator, n: int, lo: Config, hi: Config,
                 q_goal: Config, goal_bias: float,
                 carry: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The next n RRT targets and the doubles left over for the next block.

    Per target, RRT takes a goal-bias draw and then, unless the goal was
    picked, a uniform draw in [lo, hi).  `Generator.uniform` is
    `lo + (hi - lo) * u` over one `random` double per coordinate, so one
    `random` call for the most doubles n targets can use, decoded in stream
    order after the doubles `carry` kept from the block before, gives the
    same targets bit for bit.
    """
    d = len(lo)
    u = np.concatenate((carry, rng.random(max(0, n * (1 + d) - len(carry)))))
    flags = u.tolist()
    starts = []  # index of each target's first coordinate double, -1 for the goal
    k = 0
    for _ in range(n):
        if flags[k] < goal_bias:
            starts.append(-1)
            k += 1
        else:
            starts.append(k + 1)
            k += 1 + d
    starts = np.array(starts)
    targets = lo + (hi - lo) * u[np.maximum(starts, 0)[:, None] + np.arange(d)]
    targets[starts < 0] = q_goal
    return targets, u[k:]


def rrt_plan(q_init: Config, q_goal: Config, oracle: CollisionOracle,
             params: BaselineParams, rng: np.random.Generator) -> PlanResult:
    """Goal-biased RRT with fixed-step extension and per-step point checks."""
    t0 = time.perf_counter()
    lo, hi = oracle.scene.lower, oracle.scene.upper

    tree = _Tree(q_init)
    kd = tree.kd

    path_pts = None
    carry = np.empty(0)
    try:
        check_endpoints(oracle, q_init, q_goal)
        while path_pts is None:
            if not kd.queued:
                targets, carry = _rrt_targets(rng, TARGET_BLOCK, lo, hi,
                                              q_goal, params.goal_bias, carry)
                kd.queue(targets)
            q_rand = kd.next_target()
            ni = kd.nearest(q_rand)
            q_new = _steer(tree.points[ni], q_rand, params.step)
            if q_new is None:
                continue
            if not oracle.query(q_new):
                continue
            i = tree.add(q_new, ni)
            if dist(q_new, q_goal) <= params.step:
                path_pts = tree.path_to(i)
                if not np.array_equal(path_pts[-1], q_goal):
                    path_pts.append(q_goal)
    except BudgetExhausted:
        pass
    return PlanResult.finish(path_pts, oracle.sample_count, t0, (tree,))


def rrt_connect_plan(q_init: Config, q_goal: Config, oracle: CollisionOracle,
                     params: BaselineParams, rng: np.random.Generator) -> PlanResult:
    """Bidirectional RRT with the greedy connect heuristic."""
    t0 = time.perf_counter()
    lo, hi = oracle.scene.lower, oracle.scene.upper
    dim = oracle.scene.dim

    trees = (_Tree(q_init), _Tree(q_goal))
    ta, tb = trees
    a_is_start = True

    def extend(tree: _Tree, target: Config) -> int | None:
        ni = tree.kd.nearest(target)
        q_new = _steer(tree.points[ni], target, params.step)
        if q_new is None:
            return ni if np.array_equal(tree.points[ni], target) else None
        if not oracle.query(q_new):
            return None
        return tree.add(q_new, ni)

    path_pts = None
    try:
        check_endpoints(oracle, q_init, q_goal)
        while path_pts is None:
            if not ta.kd.queued:
                # row i holds the values iteration i drew on its own before, from
                # one call instead of one call per row with array bounds.  Both
                # queues get TARGET_BLOCK rows and the trees swap every iteration,
                # so the queues run dry together, with `ta` the start tree: even
                # rows are its targets and odd rows the goal tree's
                block = rng.uniform(lo, hi, size=(2 * TARGET_BLOCK, dim))
                ta.kd.queue(block[0::2])
                tb.kd.queue(block[1::2])
            q_rand = ta.kd.next_target()
            ia = extend(ta, q_rand)
            if ia is not None:
                q_new = ta.points[ia]
                # greedily connect the other tree toward the new node
                ib = None
                cur = tb.kd.nearest(q_new)
                while True:
                    q_step = _steer(tb.points[cur], q_new, params.step)
                    if q_step is None:
                        ib = cur
                        break
                    if not oracle.query(q_step):
                        break
                    cur = tb.add(q_step, cur)
                    if np.array_equal(q_step, q_new):
                        ib = cur
                        break
                if ib is not None:
                    pa = ta.path_to(ia)
                    pb = tb.path_to(ib)
                    pb.reverse()
                    if np.array_equal(pa[-1], pb[0]):
                        pb = pb[1:]
                    path_pts = pa + pb
                    if not a_is_start:
                        path_pts.reverse()
            ta, tb = tb, ta
            a_is_start = not a_is_start
    except BudgetExhausted:
        pass
    return PlanResult.finish(path_pts, oracle.sample_count, t0, trees)
