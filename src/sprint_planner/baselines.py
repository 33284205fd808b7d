"""RRT and RRT-Connect baselines sharing the instrumented oracle."""

from __future__ import annotations

import math

import numpy as np

from .geometry import Config, dist
from .global_planner import PlanResult, Tree, run_search
from .world import CollisionOracle

# Random targets drawn ahead per tree at once.  scipy's per-call overhead
# dominates a single kd-tree query, so answering a block in one stacked query
# is cheaper per target; a larger block wastes more draws and queries at the
# end of a trial and on each rebuild that lands mid-block.
TARGET_BLOCK = 128

GOAL_BIAS = 0.05  # RRT's chance per target of aiming at the goal
REBUILD_EVERY = 256  # KdTree inserts between rebuilds of its scipy index


class KdTree:
    """Incremental exact nearest-neighbor index.

    A scipy kd-tree over the first `_tree_size` points plus a brute-force
    scan of one fixed (REBUILD_EVERY, dim) buffer of the points inserted
    since; the insert that fills the buffer rebuilds the index over both.
    `scipy.spatial` is imported when the first KdTree is built, not with
    this module: a process that never builds a kd-tree never pays its
    import, and a planner that builds its trees before it starts its clock
    is not charged for it.

    `nearest_each(block)` answers the scipy part of a block's rows in one
    query, again for the rows still ahead after a rebuild, and hands each
    row's answer to `nearest`, which scans the buffer as it is at that row.
    """

    def __init__(self, dim: int):
        from scipy.spatial import cKDTree
        self._cKDTree = cKDTree
        self.dim = dim
        self._buf = np.empty((REBUILD_EVERY, dim))  # the points from _tree_size on
        self._size = 0
        self._tree = None  # scipy cKDTree over the first _tree_size points
        self._tree_size = 0

    def __len__(self) -> int:
        return self._size

    def insert(self, q: Config) -> int:
        if q.shape[0] != self.dim:
            raise ValueError("point dimension mismatch")
        self._buf[self._size - self._tree_size] = q
        self._size += 1
        if self._size - self._tree_size == len(self._buf):
            # cKDTree keeps a contiguous float64 array without copying it,
            # so the first index gets a copy of the buffer it would alias
            pts = self._buf.copy() if self._tree is None else np.concatenate(
                (self._tree.data, self._buf))
            self._tree = self._cKDTree(pts)
            self._tree_size = self._size
        return self._size - 1

    def nearest(self, q: Config, indexed: tuple[float, int] | None = None) -> int:
        """Index of the point nearest q; indexed, when given, is q's
        (distance, index) answer from the current scipy index."""
        if self._size == 0:
            raise ValueError("nearest query on an empty tree")
        best_d, best_i = np.inf, -1
        if self._tree is not None:
            best_d, best_i = self._tree.query(q) if indexed is None else indexed
        if self._tree_size < self._size:
            diff = self._buf[: self._size - self._tree_size] - q
            dd = np.einsum("ij,ij->i", diff, diff)
            j = dd.argmin()
            if dd[j] < best_d * best_d:
                best_i = self._tree_size + j
        return int(best_i)

    def nearest_each(self, block: np.ndarray):
        """Yield (target, index nearest it) for each row of block, (n, dim),
        in order; the caller may insert between rows."""
        if block.ndim != 2 or block.shape[1] != self.dim:
            raise ValueError("block must be an (n, dim) array")
        tree, answers = None, iter(())
        for k, q in enumerate(block):
            if self._tree is not tree:
                tree = self._tree
                d, i = tree.query(block[k:])
                answers = zip(d.tolist(), i.tolist())
            yield q, self.nearest(q, next(answers, None))


class _Tree(Tree):
    """A Tree that also indexes its points for nearest-neighbor queries."""

    def __init__(self, root: Config):
        super().__init__(root)
        self.kd = KdTree(root.shape[0])
        self.kd.insert(root)

    def add(self, q: Config, parent: int) -> int:
        self.kd.insert(q)
        return super().add(q, parent)


def _extend(tree: _Tree, i: int, q_to: Config, oracle: CollisionOracle,
            step: float) -> int | None:
    """EXTEND node i toward q_to: i itself when it stands on q_to (no
    query), else the index of the point one step along the way, or of q_to
    within one step, once the oracle finds it free; None when it does not."""
    q = tree.points[i]
    diff = q_to - q
    n = math.sqrt(diff.dot(diff))  # np.linalg.norm's own formula, minus its overhead
    # n also underflows to 0 for distinct points closer than about 1e-162;
    # they are within one step
    if n == 0.0 and not diff.any():
        return i
    if n > step:
        q_to = q + step * (diff / n)
    return tree.add(q_to, i) if oracle.query(q_to) else None


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
             step: float, rng: np.random.Generator) -> PlanResult:
    """Goal-biased RRT with fixed-step extension and per-step point checks;
    step should equal SPRINT's lam when comparing sample counts."""
    if not step > 0:  # written so that NaN fails it
        raise ValueError("step must be positive")
    lo, hi = oracle.scene.lower, oracle.scene.upper
    tree = _Tree(q_init)

    def search() -> list[Config]:
        carry = np.empty(0)
        while True:
            targets, carry = _rrt_targets(rng, TARGET_BLOCK, lo, hi, q_goal, GOAL_BIAS, carry)
            for q_rand, ni in tree.kd.nearest_each(targets):
                i = _extend(tree, ni, q_rand, oracle, step)
                if i is not None and dist(tree.points[i], q_goal) <= step:
                    return tree.path_to(i, q_goal)

    return run_search(search, oracle, q_init, q_goal, (tree,))


def rrt_connect_plan(q_init: Config, q_goal: Config, oracle: CollisionOracle,
                     step: float, rng: np.random.Generator) -> PlanResult:
    """Bidirectional RRT with the greedy connect heuristic."""
    if not step > 0:  # written so that NaN fails it
        raise ValueError("step must be positive")
    lo, hi = oracle.scene.lower, oracle.scene.upper
    trees = (_Tree(q_init), _Tree(q_goal))

    def search() -> list[Config]:
        while True:
            # row k holds the values iteration k drew on its own before, from
            # one call instead of one call per row with array bounds.  Row k
            # extends trees[k % 2], the start tree on even rows, and connects
            # the other tree to the new node
            block = rng.uniform(lo, hi, size=(2 * TARGET_BLOCK, oracle.scene.dim))
            rows = [tree.kd.nearest_each(block[i::2]) for i, tree in enumerate(trees)]
            for k in range(len(block)):
                ta, tb = trees[k % 2], trees[1 - k % 2]
                q_rand, ni = next(rows[k % 2])
                ia = _extend(ta, ni, q_rand, oracle, step)
                if ia is None:
                    continue
                # greedily connect the other tree toward the new node until
                # a step fails or the connect stands on it
                q_new = ta.points[ia]
                cur = tb.kd.nearest(q_new)
                while (nxt := _extend(tb, cur, q_new, oracle, step)) not in (None, cur):
                    cur = nxt
                if nxt is not None:
                    path = ta.path_to(ia) + tb.path_to(cur)[-2::-1]
                    return path[::-1] if k % 2 else path

    return run_search(search, oracle, q_init, q_goal, trees)
