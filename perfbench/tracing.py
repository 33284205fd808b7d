"""Per-layer tracing from outside the library.

Each hook replaces one function at the place its caller looks it up (for
example `plan` reaches the local layer through `global_planner.local_search`,
so that is the name patched) and restores it when the trial ends.  A wrapped
call is one span: its self time is its duration minus the durations of the
wrapped calls it covers.  Geometry helpers are not hooked; at 100k+ calls a
run their cost folds into the self time of whichever layer calls them.
Rendering and the CLI are not on the benchmark path.

The library is single-threaded and has no queues, so no layer ever waits
for another and no wait time is recorded.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import itertools
import time


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _free(c, args, kwargs, out, before):
    c["world.is_free.free"] += bool(out)


def _sample_count(args, kwargs):
    return args[0].sample_count


def _draw_attempts(c, args, kwargs, out, before):
    c["world.sample_free.attempts"] += args[0].sample_count - before


def _local_outcome(c, args, kwargs, out, before):
    if out.status.value == "Reached":
        c["local_planner.local_search.reached"] += 1
    else:
        c["local_planner.local_search.exhausted_samples"] += out.samples_used


def _obs_count(c, args, kwargs, out, before):
    c["local_planner.grad_g3.obs"] += len(_arg(args, kwargs, 2, "obs"))


def _reject(c, args, kwargs, out, before):
    c["local_planner.valid_node.rejects"] += not out


def _tree_size(c, args, kwargs, out, before):
    c["baselines.nearest.tree_size"] += len(args[0])


def _logged_samples(c, args, kwargs, out, before):
    c["bench.delta_useful_ratio.samples"] += len(_arg(args, kwargs, 0, "samples"))


# (layer, module, attribute path in the module, keep every span, pre, post).
# A layer may own several hooks; `backprop` covers the three functions that
# push a new node's outcome up the local tree.  Only layers called a few
# hundred times per trial keep each span; the rest keep per-trial totals.
HOOKS = (
    ("bench.run_trial", "bench", "run_trial", True, None, None),
    ("bench.delta_useful_ratio", "bench", "delta_useful_ratio", True, None, _logged_samples),
    ("global_planner.plan", "global_planner", "plan", True, None, None),
    ("global_planner.add_milestones", "global_planner", "add_milestones", True, None, None),
    ("global_planner.select", "global_planner", "_PairSelector.select_best", False, None, None),
    ("local_planner.local_search", "global_planner", "local_search", True, None, _local_outcome),
    ("local_planner.valid_node", "local_planner", "valid_node", False, None, _reject),
    ("local_planner.local_edge", "local_planner", "local_edge", False, None, None),
    ("local_planner.grad_g3", "local_planner", "grad_g3", False, None, _obs_count),
    ("local_planner.backprop", "local_planner", "backprop_progress", False, None, None),
    ("local_planner.backprop", "local_planner", "backprop_collision", False, None, None),
    ("local_planner.backprop", "local_planner", "promote_checkpoint", False, None, None),
    ("baselines.plan", "baselines", "rrt_plan", True, None, None),
    ("baselines.plan", "baselines", "rrt_connect_plan", True, None, None),
    ("baselines.nearest", "baselines", "KdTree.nearest", False, None, _tree_size),
    ("baselines.insert", "baselines", "KdTree.insert", False, None, None),
    ("world.sample_free", "world", "CollisionOracle.sample_free", False, _sample_count, _draw_attempts),
    ("world.is_free", "world", "CollisionOracle.is_free", False, None, _free),
)

LAYERS = tuple(dict.fromkeys(h[0] for h in HOOKS))


def _resolve(module: str, path: str):
    owner = importlib.import_module(f"sprint_planner.{module}")
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Installs the hooks around one trial at a time and keeps, per trial,
    each layer's (calls, total_s, self_s), its counters, and the spans of
    the coarse layers, all in memory until the run writes them out."""

    def __init__(self):
        self.absent: list[str] = []
        self.trials: list[dict] = []
        self.totals = {layer: [0, 0.0, 0.0] for layer in LAYERS}
        self.counters: collections.Counter = collections.Counter()
        self._acc = {layer: [0, 0.0, 0.0] for layer in LAYERS}
        self._counts: collections.defaultdict = collections.defaultdict(int)
        self._spans: list[tuple] = []
        self._stack = [[0.0, -1]]
        self._ids = itertools.count()
        self._patches = []
        for layer, module, path, keep, pre, post in HOOKS:
            try:
                owner, attr, fn = _resolve(module, path)
            except (ImportError, AttributeError):
                self.absent.append(f"{module}.{path}")
                continue
            self._patches.append((owner, attr, fn, self._wrap(layer, fn, keep, pre, post)))

    def _wrap(self, layer, fn, keep, pre, post):
        stack, acc, counts, spans, ids = self._stack, self._acc[layer], self._counts, self._spans, self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = pre(args, kwargs) if pre else None
            parent = stack[-1]
            frame = [0.0, next(ids) if keep else parent[1]]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                parent[0] += dt
                acc[0] += 1
                acc[1] += dt
                acc[2] += dt - frame[0]
                if keep:
                    spans.append((frame[1], parent[1], layer, t0, t1))
            if post:
                post(counts, args, kwargs, out, before)
            return out

        return traced

    @contextlib.contextmanager
    def trial(self, info: dict):
        """Trace the calls made inside the block as one trial."""
        for owner, attr, _, traced in self._patches:
            setattr(owner, attr, traced)
        t_start = time.perf_counter()
        try:
            yield
        finally:
            for owner, attr, fn, _ in self._patches:
                setattr(owner, attr, fn)
            self._close_trial(info, t_start)

    def _close_trial(self, info: dict, t_start: float) -> None:
        layers = {}
        for layer, acc in self._acc.items():
            if acc[0]:
                layers[layer] = list(acc)
                tot = self.totals[layer]
                for i in range(3):
                    tot[i] += acc[i]
                acc[:] = [0, 0.0, 0.0]
        spans = [(sid, parent, layer, t0 - t_start, t1 - t_start)
                 for sid, parent, layer, t0, t1 in self._spans]
        self.trials.append({**info, "layers": layers, "counters": dict(self._counts),
                            "spans": spans})
        self.counters.update(self._counts)
        self._counts.clear()
        self._spans.clear()
        self._stack[0][0] = 0.0

    def metrics(self, sprint_samples: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over every traced trial.  us_per_call is the
        inclusive span per call, what a caller pays; self_s excludes the
        wrapped layers the call covers."""
        t, c = self.totals, self.counters

        def calls(layer):
            return (t[layer][0], "count")

        def self_s(layer):
            return (t[layer][2], "s")

        def per_call(layer, value, unit, scale=1.0):
            n = t[layer][0]
            return (scale * value / n if n else 0.0, unit)

        def us(layer):
            return per_call(layer, t[layer][1], "us", 1e6)

        m = {}
        for layer in ("world.is_free", "world.sample_free", "local_planner.local_search",
                      "local_planner.local_edge", "local_planner.grad_g3",
                      "local_planner.valid_node", "global_planner.select",
                      "global_planner.add_milestones", "baselines.nearest",
                      "baselines.insert", "bench.delta_useful_ratio"):
            m[f"{layer}.calls"] = calls(layer)
        for layer in LAYERS:
            m[f"{layer}.self_s"] = self_s(layer)
        for layer in ("world.is_free", "local_planner.local_edge", "local_planner.grad_g3",
                      "global_planner.select", "baselines.nearest"):
            m[f"{layer}.us_per_call"] = us(layer)
        m["world.is_free.free_ratio"] = per_call("world.is_free", c["world.is_free.free"], "ratio")
        m["world.sample_free.attempts_per_draw"] = per_call(
            "world.sample_free", c["world.sample_free.attempts"], "count")
        m["local_planner.local_search.reached_ratio"] = per_call(
            "local_planner.local_search", c["local_planner.local_search.reached"], "ratio")
        exhausted = c["local_planner.local_search.exhausted_samples"]
        m["local_planner.local_search.exhausted_sample_share"] = (
            exhausted / sprint_samples if sprint_samples else 0.0, "ratio")
        m["local_planner.grad_g3.obs_per_call"] = per_call(
            "local_planner.grad_g3", c["local_planner.grad_g3.obs"], "count")
        m["local_planner.valid_node.reject_ratio"] = per_call(
            "local_planner.valid_node", c["local_planner.valid_node.rejects"], "ratio")
        m["baselines.nearest.tree_size_mean"] = per_call(
            "baselines.nearest", c["baselines.nearest.tree_size"], "nodes")
        m["bench.delta_useful_ratio.samples_per_call"] = per_call(
            "bench.delta_useful_ratio", c["bench.delta_useful_ratio.samples"], "count")
        return m

    def shares(self) -> list[tuple[str, float]]:
        """Each layer's self time as a share of all traced trial time,
        largest first."""
        whole = self.totals["bench.run_trial"][1]
        out = [(layer, tot[2] / whole if whole else 0.0) for layer, tot in self.totals.items()]
        return sorted(out, key=lambda x: -x[1])
