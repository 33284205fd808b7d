"""Global milestone search: region selection and local-search dispatch; also
the endpoint checks, run wrapper and result record all three planners share."""

from __future__ import annotations

import enum
import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .geometry import Config, Tree, dist, polyline_length
from .local_planner import LocalStatus, local_search
from .params import SprintParams
from .world import BudgetExhausted, CollisionOracle

__all__ = [
    "SprintParams", "PlanStatus", "PlanResult", "Tree", "SprintVariant",
    "check_endpoints", "run_search", "plan", "add_milestones",
]


class PlanStatus(enum.Enum):
    SOLVED = "Solved"
    BUDGET_EXHAUSTED = "BudgetExhausted"


@dataclass
class PlanResult:
    status: PlanStatus
    path: np.ndarray | None
    total_samples: int
    wall_time: float
    path_length: float
    trees: tuple[Tree, ...] = field(repr=False)


def check_endpoints(oracle: CollisionOracle, q_init: Config, q_goal: Config) -> None:
    """Raise ValueError unless both endpoints are distinct and free; only
    the two free-space checks take samples."""
    if np.array_equal(q_init, q_goal):
        raise ValueError("q_init equals q_goal")
    if not oracle.query(q_init):
        raise ValueError("q_init is in collision")
    if not oracle.query(q_goal):
        raise ValueError("q_goal is in collision")


def run_search(search: Callable[[], list[Config]], oracle: CollisionOracle,
               q_init: Config, q_goal: Config, trees: tuple[Tree, ...]) -> PlanResult:
    """Run a planner's search() over the trees it has built: the clock starts
    here, the endpoint checks come first, and search() returns the path where
    it finds it.  The oracle's BudgetExhausted ends the run unsolved, caught
    here and nowhere else."""
    t0 = time.perf_counter()
    try:
        check_endpoints(oracle, q_init, q_goal)
        path_pts = search()
    except BudgetExhausted:
        path_pts = None
    total, wall = oracle.sample_count, time.perf_counter() - t0
    if path_pts is None:
        return PlanResult(PlanStatus.BUDGET_EXHAUSTED, None, total, wall, float("nan"), trees)
    path = np.array(path_pts)
    return PlanResult(PlanStatus.SOLVED, path, total, wall, polyline_length(path), trees)


@dataclass(frozen=True)
class SprintVariant:
    """Heuristic overrides for ablation runs, each a function with the
    signature of the default it replaces; None keeps the default.
    select_fn(selector) stands in for _PairSelector.select_best,
    gate_fn(node_id, tree) for local_planner.valid_node and
    edge_fn(node_id, tree, obs, rng) for local_planner.local_edge."""

    select_fn: Callable | None = None
    gate_fn: Callable | None = None
    edge_fn: Callable | None = None


class _PairSelector:
    """The region scorer: ranks (global node, milestone) pairs by
    g1 * (1 - peak).  The paper's weights w1_g and w2_g scale every score
    alike, so they are left out: an extreme one could only overflow or
    underflow the scores and tie pairs.

    g1 is the goal-progress term of each pair, kept as a nodes x milestones
    matrix that grows a row per node and a column block per milestone batch.
    peak is each milestone's largest failed-region term, a running max over
    regions.  Each selection builds the score matrix afresh, with -inf for
    attempted pairs and reached milestones.
    """

    def __init__(self, q_init: Config, q_goal: Config, params: SprintParams):
        self.q_goal = q_goal
        self.params = params
        c = dist(q_init, q_goal)
        self.c = c if c != 0.0 else 1.0
        dim = q_init.shape[0]
        self._nodes = np.empty((0, dim))
        self._d_n_goal = np.empty(0)
        self._miles = np.empty((0, dim))
        self._d_m_goal = np.empty(0)
        self._g1 = np.empty((0, 0))
        self._peak = np.empty(0)
        self._attempted = np.zeros((0, 0), dtype=bool)
        self._reached = np.zeros(0, dtype=bool)
        self._regions: list[tuple[Config, Config, float]] = []
        self.add_node(q_init)

    def _progress(self, nodes, d_n_goal, miles, d_m_goal) -> np.ndarray:
        """g1 for every (node, milestone) pair: the shortfall of the region's
        goal-ward progress from the ideal, under a Gaussian of width c."""
        d_nm = np.linalg.norm(nodes[:, None, :] - miles[None, :, :], axis=2)
        x1 = np.maximum(0.0, d_m_goal[None, :] - (d_n_goal[:, None] - d_nm))
        return np.exp(-(x1 * x1) / (2.0 * self.c * self.c))

    def _region_peak(self, miles: np.ndarray, regions) -> np.ndarray:
        """Per milestone, the largest failed-region term over the given
        (a, dvec, denom) regions: a Gaussian of the milestone's distance from
        a region's line where it projects past the far endpoint, else 0.

        A failed region's own milestone projects at s = 1 in exact
        arithmetic, so rounding in s decides whether it is penalized; the
        fixed-seed trials depend on s being computed as this matmul over
        the milestone rows passed in."""
        peak = np.zeros(len(miles))
        for a, dvec, denom in regions:
            s = (miles - a) @ dvec / denom
            dr = np.linalg.norm(miles - (a + s[:, None] * dvec), axis=1)
            term = np.where(s >= 1.0, np.exp(-(dr * dr) / (2.0 * self.c * self.c)), 0.0)
            peak = np.maximum(peak, term)
        return peak

    def add_node(self, q: Config) -> None:
        d_goal = np.array([dist(q, self.q_goal)])
        row = self._progress(q[None, :], d_goal, self._miles, self._d_m_goal)
        self._nodes = np.vstack([self._nodes, q])
        self._d_n_goal = np.concatenate([self._d_n_goal, d_goal])
        self._g1 = np.vstack([self._g1, row])
        self._attempted = np.vstack([self._attempted, np.zeros_like(row, dtype=bool)])

    def add_milestones(self, batch) -> None:
        miles = np.asarray(batch, dtype=np.float64)
        d_goal = np.array([dist(q, self.q_goal) for q in miles])
        cols = self._progress(self._nodes, self._d_n_goal, miles, d_goal)
        self._miles = np.vstack([self._miles, miles])
        self._d_m_goal = np.concatenate([self._d_m_goal, d_goal])
        self._g1 = np.hstack([self._g1, cols])
        self._attempted = np.hstack([self._attempted, np.zeros_like(cols, dtype=bool)])
        self._reached = np.concatenate([self._reached, np.zeros(len(miles), dtype=bool)])
        self._peak = np.concatenate([self._peak, self._region_peak(miles, self._regions)])

    def add_region(self, a: Config, b: Config) -> None:
        dvec = b - a
        denom = float(np.dot(dvec, dvec))
        if denom == 0.0:
            return
        self._regions.append((a, dvec, denom))
        self._peak = np.maximum(self._peak, self._region_peak(self._miles, self._regions[-1:]))

    def mark_attempted(self, ni: int, mi: int) -> None:
        self._attempted[ni, mi] = True

    def mark_reached(self, mi: int) -> None:
        self._reached[mi] = True

    def scores(self) -> np.ndarray:
        """The nodes x milestones score matrix; -inf marks attempted pairs
        and reached milestones."""
        out = self._g1 * (1.0 - self._peak)[None, :]
        out[self._attempted | self._reached] = -np.inf
        return out

    def select_random(self, rng: np.random.Generator) -> tuple[int, int] | None:
        flat = np.flatnonzero(~(self._attempted | self._reached[None, :]))
        if flat.size == 0:
            return None
        pick = int(flat[int(rng.integers(flat.size))])
        return divmod(pick, len(self._miles))

    def select_best(self) -> tuple[int, int] | None:
        view = self.scores()
        best = view.max(initial=-np.inf)
        if best == -np.inf:
            return None
        n_miles = len(self._miles)
        flat = np.flatnonzero(view == best)
        # break ties by milestone closeness to goal, then insertion order;
        # flat indices are row-major so argmin's first-hit rule matches the
        # (node index, milestone index) ordering
        ni, mi = np.divmod(flat, n_miles)
        k = int(np.argmin(self._d_m_goal[mi]))
        return int(ni[k]), int(mi[k])


def add_milestones(oracle: CollisionOracle, params: SprintParams,
                   rng: np.random.Generator) -> list[Config]:
    """A fresh batch of free-space milestones."""
    return [oracle.sample_free(rng) for _ in range(params.milestone_batch)]


def plan(q_init: Config, q_goal: Config, oracle: CollisionOracle,
         params: SprintParams, rng: np.random.Generator,
         variant: SprintVariant = SprintVariant()) -> PlanResult:
    """Full SPRINT run from q_init to q_goal, until the oracle refuses a query.

    The tree holds every vertex of every local path that reached its
    milestone, each hanging off the vertex before it; global node n (the
    selector's row n) is tree node at[n].  The selector alone keeps the
    milestones, the goal first.  The default selection is looked up here, not
    bound at import, so that a patched select_best sees every call."""
    select = variant.select_fn or _PairSelector.select_best
    tree = Tree(q_init)

    def search() -> list[Config]:
        at = [0]
        selector = _PairSelector(q_init, q_goal, params)
        selector.add_milestones([q_goal])
        selector.add_milestones(add_milestones(oracle, params, rng))
        while True:
            pick = select(selector)
            if pick is None:
                selector.add_milestones(add_milestones(oracle, params, rng))
                continue
            ni, mi = pick
            selector.mark_attempted(ni, mi)
            q_n, q_m = tree.points[at[ni]], selector._miles[mi]
            res = local_search(q_n, q_m, oracle, params, rng,
                               gate_fn=variant.gate_fn, edge_fn=variant.edge_fn)
            if res.status is LocalStatus.REACHED:
                node = at[ni]
                for q in res.path[1:]:
                    node = tree.add(q, node)
                if mi == 0:
                    return tree.path_to(node)
                at.append(node)
                selector.add_node(q_m)
                selector.mark_reached(mi)
            else:
                selector.add_region(q_n, q_m)

    return run_search(search, oracle, q_init, q_goal, (tree,))
