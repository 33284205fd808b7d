"""Benchmark harness: planner x scene x seed grids, the delta-usefulness
metric, heuristic ablations, CSV output, and optional SVG renders.

The delta-useful ratio counts, over ALL oracle queries of a trial (free and
colliding), the fraction that were free and landed within delta of the final
path.  Sample budgets, not wall-clock limits, bound every trial so results
are machine-independent; wall time is recorded but never a stop condition.
"""

from __future__ import annotations

import collections
import csv
import itertools
import math
import os
import statistics
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import baselines, global_planner
from .geometry import Config, unit
from .global_planner import PlanResult, PlanStatus, SprintParams
from .local_planner import check_edge_step
from .params import params_from_json
from .render import render_svg
from .scenes import FIXTURE_NAMES, fixture_endpoints, fixture_lam, fixture_scene
from .world import CollisionOracle, Scene, is_json_int, is_json_point, load_scene, read_json

CSV_HEADER = "planner,scene,seed,status,total_samples,path_length,wall_time_s,delta_useful_ratio"

@dataclass
class TrialRecord:
    planner: str
    scene: str
    seed: int
    status: str
    total_samples: int
    path_length: float
    wall_time_s: float
    delta_useful_ratio: float | None


def delta_useful_ratio(samples: list[tuple[Config, bool]], path: np.ndarray,
                       delta: float) -> float:
    """Fraction of oracle samples that were free and lie within delta of the
    solution path (point-to-segment distance with clamped projection): its
    rounded squared distance to some segment is `<= delta**2`, so rounding
    decides the many samples that straight-line extensions leave at 2*lam.

    The first call in a process imports `scipy.spatial` for its kd-tree
    prune; importing this module does not."""
    if not samples:
        raise ValueError("delta_useful_ratio requires a nonempty sample list")
    if not 0 < delta < math.inf:
        raise ValueError("delta must be positive and finite")
    path = np.asarray(path, dtype=float)
    if path.ndim != 2 or path.shape[0] < 2:
        raise ValueError("path must be an (n, d) polyline with n >= 2")
    free_pts = np.array([q for q, free in samples if free])
    if free_pts.size == 0:
        return 0.0
    if not (np.isfinite(path).all() and np.isfinite(free_pts).all()):
        raise ValueError("path and samples must be finite")
    a = path[:-1]
    seg = path[1:] - a
    seg_len2 = np.einsum("ij,ij->i", seg, seg)
    # Prune: a point within delta of a segment lies within delta + |seg|/2 of
    # its midpoint.  The slack, relative to the distances and to the size of
    # the coordinates, keeps every pair whose rounded distance below can
    # still come out <= delta.
    from scipy.spatial import cKDTree
    scale = max(np.abs(path).max(), np.abs(free_pts).max())
    reach = (delta + 0.5 * np.sqrt(seg_len2)) * (1.0 + 1e-9) + 1e-9 * scale
    near = cKDTree(free_pts).query_ball_point(a + 0.5 * seg, reach)
    counts = np.fromiter(map(len, near), dtype=np.intp, count=len(near))
    pi = np.fromiter(itertools.chain.from_iterable(near), dtype=np.intp,
                     count=int(counts.sum()))
    si = np.repeat(np.arange(len(seg)), counts)
    # Decide each (sample, segment) pair by the all-pairs formula, reducing
    # over the contiguous last axis, so each pair rounds as it would there:
    # samples at exactly delta are common (straight-line extensions put them
    # at 2*lam) and rounding decides them.
    seg_len2 = np.where(seg_len2 == 0.0, 1.0, seg_len2)
    p, a, seg = free_pts[pi], a[si], seg[si]
    t = np.clip(np.einsum("ij,ij->i", p - a, seg) / seg_len2[si], 0.0, 1.0)
    closest = a + t[:, None] * seg
    d2 = np.sum((p - closest) ** 2, axis=1)
    useful = np.unique(pi[d2 <= delta * delta]).size
    return useful / len(samples)


RANDOM_FACTORS = (0.75, 1.25)  # uniform() can round onto either end


def _random_params(params: SprintParams, rng: np.random.Generator, factor=None):
    """Every continuous (non-int) field scaled by an independent uniform
    factor in RANDOM_FACTORS, or by factor when given; eta and eps_prog from
    their effective values."""
    changes = {}
    for f in fields(params):
        if f.type != "int":
            value = getattr(params, f.name)
            if value is None:
                value = getattr(params, f"{f.name}_eff")
            changes[f.name] = value * (factor or float(rng.uniform(*RANDOM_FACTORS)))
    return replace(params, **changes)


def _random_edge(node_id, tree, obs, rng):
    return tree.points[node_id] + tree.params.lam * unit(rng.normal(size=tree.root.shape[0]))


# planner id -> (params, trial rng) -> (params, overrides): the params the
# trial plans with, leaving the given ones unchanged, and the keyword
# overrides run_trial passes to global_planner.plan.  What it builds may draw
# from that rng, which run_trial also hands to the planner.
SPRINT_VARIANTS = {
    "sprint": lambda params, rng: (params, {}),
    "sprint:random-params": lambda params, rng: (_random_params(params, rng), {}),
    "sprint:no-pr1": lambda params, rng: (
        params, {"select_fn": lambda selector: selector.select_random(rng)}),
    # the culling gate as a fair coin
    "sprint:no-pr2": lambda params, rng: (
        params, {"gate_fn": lambda node_id, tree: bool(rng.random() < 0.5)}),
    "sprint:no-pr3": lambda params, rng: (params, {"edge_fn": _random_edge}),
}

PLANNER_IDS = (*SPRINT_VARIANTS, "rrt", "rrt-connect")


def _check_planner(ident: str) -> None:
    if ident not in PLANNER_IDS:
        raise ValueError(f"unknown planner {ident!r}; known: {', '.join(PLANNER_IDS)}")


def resolve_scene(ident: str) -> Scene:
    """Fixture name or path to a scene JSON file."""
    if ident in FIXTURE_NAMES:
        return fixture_scene(ident)
    p = Path(ident)
    if p.is_file():
        return load_scene(p)
    raise ValueError(f"unknown scene {ident!r}: not a fixture name or existing file")


def trial_params(ident: str, scene: Scene, overrides, planners) -> SprintParams:
    """SprintParams from parsed JSON field overrides for the trials of the
    given planner ids on scene, named ident: a fixture runs at its own lam
    unless the overrides set one.  For sprint:random-params they must pass
    every check at both ends of RANDOM_FACTORS, and so at every factor
    between; the edge step must fit the scene's floats, at both ends too."""
    params = params_from_json(overrides)
    if ident in FIXTURE_NAMES and "lam" not in overrides:
        params = replace(params, lam=fixture_lam(ident))
    runs = {"": params}
    if "sprint:random-params" in planners:
        for end in RANDOM_FACTORS:
            where = f"sprint:random-params at factor {end}: "
            try:
                runs[where] = _random_params(params, None, end)
            except ValueError as e:
                raise ValueError(f"{where}{e}") from None
    for where, run in runs.items():
        try:
            check_edge_step(run, scene)
        except ValueError as e:
            raise ValueError(f"scene {ident!r}: {where}{e}") from None
    return params


def run_trial(planner: str, scene: Scene, start: Config, goal: Config, seed: int,
              params: SprintParams, max_samples: int,
              scene_label: str | None = None) -> tuple[TrialRecord, PlanResult, CollisionOracle]:
    """Execute a single planning trial under a hard cap of max_samples samples.

    The oracle keeps the full query log, and a solved trial gets its
    delta-useful ratio from it; an unsolved one leaves the ratio empty.
    """
    _check_planner(planner)
    oracle = CollisionOracle(scene, record_samples=True, budget=max_samples)
    rng = np.random.default_rng(seed)
    if planner in SPRINT_VARIANTS:
        params, overrides = SPRINT_VARIANTS[planner](params, rng)
        result = global_planner.plan(start, goal, oracle, params, rng, **overrides)
    else:
        fn = baselines.rrt_plan if planner == "rrt" else baselines.rrt_connect_plan
        result = fn(start, goal, oracle, params.lam, rng)
    ratio = None
    if result.status is PlanStatus.SOLVED:
        ratio = delta_useful_ratio(oracle.samples, result.path, 2.0 * params.lam)
    record = TrialRecord(
        planner=planner, scene=scene_label or scene.name, seed=seed,
        status=result.status.value, total_samples=result.total_samples,
        path_length=result.path_length, wall_time_s=result.wall_time,
        delta_useful_ratio=ratio,
    )
    return record, result, oracle


def _fmt_field(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return "" if math.isnan(x) else f"{x:.9g}"
    return str(x)


def record_row(r: TrialRecord) -> list[str]:
    return [r.planner, r.scene, str(r.seed), r.status, str(r.total_samples),
            _fmt_field(r.path_length), f"{r.wall_time_s:.6f}",
            _fmt_field(r.delta_useful_ratio)]


def _aggregate_rows(records: list[TrialRecord]) -> list[list[str]]:
    cells: dict[tuple[str, str], list[TrialRecord]] = {}
    for r in records:
        cells.setdefault((r.planner, r.scene), []).append(r)
    rows = []
    for (planner, scene), recs in sorted(cells.items()):
        solved = [r for r in recs if r.status == "Solved"]
        status = f"solved={len(solved)}/{len(recs)}"
        samples = [r.total_samples for r in recs]
        lengths = [r.path_length for r in solved]
        times = [r.wall_time_s for r in recs]
        ratios = [r.delta_useful_ratio for r in solved if r.delta_useful_ratio is not None]

        def stats(values, fn):
            return fn(values) if values else None

        for label, fn in (("median", statistics.median), ("mean", statistics.fmean),
                          ("stderr", _stderr)):
            rows.append([planner, scene, label, status,
                         _fmt_field(stats(samples, fn)),
                         _fmt_field(stats(lengths, fn)),
                         _fmt_field(stats(times, fn)),
                         _fmt_field(stats(ratios, fn))])
    return rows


def _stderr(values) -> float:
    if len(values) < 2:
        return 0.0
    return statistics.stdev(values) / math.sqrt(len(values))


def write_csv(records: list[TrialRecord], path) -> None:
    records = sorted(records, key=lambda r: (r.planner, r.scene, r.seed))
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(CSV_HEADER.split(","))
        for r in records:
            w.writerow(record_row(r))
        for row in _aggregate_rows(records):
            w.writerow(row)


_GRID_KEYS = ("scenes", "planners", "seeds", "max_samples", "params", "svg", "endpoints")


def load_grid_config(path) -> dict:
    """Read and type-check a grid config.  The result has every key: seeds
    as a sequence of ints (a range for the start/count form, so a huge count
    allocates nothing), params as the checked field overrides for
    trial_params, and the documented defaults for omitted optional keys.
    Any malformed field raises ValueError."""
    cfg = read_json(path)
    if not isinstance(cfg, dict):
        raise ValueError("grid config must be a JSON object")
    unknown = sorted(set(cfg) - set(_GRID_KEYS))
    if unknown:
        raise ValueError(f"grid config has unknown key(s) {', '.join(map(repr, unknown))}; "
                         f"known: {', '.join(_GRID_KEYS)}")
    for key in ("scenes", "planners"):
        if key not in cfg or not cfg[key]:
            raise ValueError(f"grid config missing {key!r}")
        if not isinstance(cfg[key], list) or not all(isinstance(x, str) for x in cfg[key]):
            raise ValueError(f"grid config {key!r} must be a list of strings")
        # a repeated planner would run its trials twice, a repeated scene once
        repeated = [x for x, n in collections.Counter(cfg[key]).items() if n > 1]
        if repeated:
            raise ValueError(f"grid config {key!r} lists {repeated[0]!r} more than once")

    seeds = cfg.get("seeds", {"start": 0, "count": 10})
    if isinstance(seeds, dict) and set(seeds) <= {"start", "count"}:
        start, count = seeds.get("start", 0), seeds.get("count")
        if is_json_int(start) and is_json_int(count) and start >= 0 and count >= 0:
            seeds = range(start, start + count)
    if not (isinstance(seeds, range)
            or isinstance(seeds, list) and all(is_json_int(s) and s >= 0 for s in seeds)):
        raise ValueError('grid config "seeds" must be {"start": int, "count": int} '
                         'or a list of non-negative ints')

    max_samples = cfg.get("max_samples", 50_000)
    if not is_json_int(max_samples) or max_samples <= 0:
        raise ValueError('grid config "max_samples" must be a positive integer')
    svg = cfg.get("svg", False)
    if not isinstance(svg, bool):
        raise ValueError('grid config "svg" must be true or false')
    endpoints = cfg.get("endpoints", {})
    if not (isinstance(endpoints, dict)
            and all(isinstance(v, list) and len(v) == 2 and all(map(is_json_point, v))
                    for v in endpoints.values())):
        raise ValueError('grid config "endpoints" must map scene names to '
                         '[start, goal] lists of finite coordinates')
    stray = sorted(set(endpoints) - set(cfg["scenes"]))
    if stray:
        raise ValueError(f'grid config "endpoints" names scene(s) {", ".join(map(repr, stray))} '
                         'not in "scenes"')
    for planner in cfg["planners"]:
        _check_planner(planner)
    params_from_json(cfg.setdefault("params", {}))
    return {"scenes": cfg["scenes"], "planners": cfg["planners"], "seeds": seeds,
            "max_samples": max_samples, "params": cfg["params"], "svg": svg, "endpoints": endpoints}


def run_grid(config_path, out_dir) -> list[TrialRecord]:
    """Run the full planner x scene x seed grid from a JSON config and write
    results.csv (plus SVGs for 2-D scenes when requested) into out_dir."""
    cfg = load_grid_config(config_path)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    seeds = cfg["seeds"]
    max_samples = cfg["max_samples"]

    def svg_name(planner, label, seed):
        return f"{planner.replace(':', '_')}__{label}__{seed}.svg"

    # validate everything before any trial runs
    name_max = os.pathconf(out_dir, "PC_NAME_MAX")
    longest = (max(cfg["planners"], key=len),
               max(seeds if isinstance(seeds, list) else seeds[-1:], default=0))
    scenes, svg_labels = {}, {}
    for ident in cfg["scenes"]:
        scene = resolve_scene(ident)
        if ident in cfg["endpoints"]:
            start, goal = (np.array(q, dtype=float) for q in cfg["endpoints"][ident])
        elif ident in FIXTURE_NAMES:
            start, goal = fixture_endpoints(ident)
        else:
            raise ValueError(f'scene {ident!r} is no fixture: give its [start, goal] '
                             'in the grid config\'s "endpoints"')
        try:
            # a throwaway oracle: its two samples are no trial's
            global_planner.check_endpoints(CollisionOracle(scene), start, goal)
        except ValueError as e:
            raise ValueError(f"scene {ident!r}: {e}") from None
        scenes[ident] = (scene, start, goal,
                         trial_params(ident, scene, cfg["params"], cfg["planners"]))
        if cfg["svg"] and scene.dim == 2:
            # the scene's part of its SVG names: separators replaced, so that
            # every file lands in out_dir, no two scenes alike, none too long
            label = ident.replace("/", "_").replace("\\", "_")
            if label in svg_labels.values():
                raise ValueError(f"scene {ident!r}: its SVG names would repeat another scene's")
            if 0 < name_max < len(os.fsencode(svg_name(longest[0], label, longest[1]))):
                raise ValueError(f"scene {ident!r}: its SVG names would be longer than "
                                 f"the file system's {name_max} bytes")
            svg_labels[ident] = label

    records = []
    for planner in cfg["planners"]:
        for ident, (scene, start, goal, params) in scenes.items():
            for seed in seeds:
                rec, result, oracle = run_trial(planner, scene, start, goal, seed,
                                                params, max_samples, scene_label=ident)
                records.append(rec)
                if ident in svg_labels:
                    svg = render_svg(scene, oracle.samples, result.trees,
                                     result.path, result.total_samples)
                    (out_dir / svg_name(planner, svg_labels[ident], seed)).write_text(
                        svg, encoding="utf-8")

    write_csv(records, out_dir / "results.csv")
    return records
