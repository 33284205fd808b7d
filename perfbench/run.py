"""Benchmark of the sprint_planner library through `bench.run_trial`.

    python3 perfbench/run.py --workload sprint_highdim --seed 0 --seconds 30 --trace 0

Run from the repository root.  One process, one caller, no threads: each
trial starts after the previous one returns (a closed loop), as `sprint
bench` and the acceptance grids drive the library.  The last line of
standard output is one JSON object with the run's verdict and metrics;
everything above it is a readable report.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# numpy reads these at import; the benchmark's load comes from one thread
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

BUDGET = 50_000
# the untraced run replays its trials this many times and keeps each trial's
# fastest time: the host's speed drifts by tens of percent for seconds at a
# time, and a slow spell rarely covers every pass
PASSES = 3
# fresh-interpreter set-up probes before each pass
SETUP_PROBES_PER_PASS = 2


@dataclass(frozen=True)
class Workload:
    planners: tuple[str, ...]
    scenes: tuple[str, ...]
    # mean seconds one round (every cell once, output checks included) takes
    # in a pass on the reference machine; a run's round count is fixed from
    # --seconds by this, never by the clock, so a seed always yields the same
    # trials
    round_s: float


WORKLOADS = {
    # local layer does most of the work; SPRINT's weak spot on samples
    "sprint_highdim": Workload(("sprint",), ("narrow_passage_6d", "box_maze_10d"), 0.64),
    # kd-tree bound at 2k-16k nodes; the local and global layers do no work
    "baselines_mix": Workload(("rrt", "rrt-connect"), ("narrow_passage_2d", "box_maze_10d"), 3.6),
    # the paper's 2-D grid: many short trials where per-trial fixed costs weigh
    "paper_2d": Workload(("sprint", "rrt", "rrt-connect"),
                         ("narrow_passage_2d", "single_box_2d", "vertical_bars_2d"), 0.68),
}

# measured in a fresh interpreter: library import, fixture loading, and the
# first oracle construction
SETUP_SNIPPET = """
import sys, time
t0 = time.perf_counter()
from sprint_planner import bench, scenes, world
loaded = [scenes.fixture_scene(name) for name in sys.argv[1:]]
world.CollisionOracle(loaded[0], record_samples=True)
print(repr(time.perf_counter() - t0))
"""


@dataclass(frozen=True)
class Cell:
    planner: str
    scene_name: str
    scene: object
    start: object
    goal: object
    params: object


def die(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    return args


def rounds_for(workload: Workload, seconds: int) -> int:
    cells = len(workload.planners) * len(workload.scenes)
    # the tail percentile needs at least eleven trials
    return max(math.ceil(11 / cells), round(seconds / (PASSES * workload.round_s)))


def probe_setup(scenes, count: int) -> list[float]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(count):
        out = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, *scenes], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def machine_info() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count()}


def make_cells(workload: Workload) -> list[Cell]:
    from sprint_planner.global_planner import SprintParams
    from sprint_planner.scenes import fixture_endpoints, fixture_lam, fixture_scene
    cells = []
    for planner in workload.planners:
        for name in workload.scenes:
            start, goal = fixture_endpoints(name)
            cells.append(Cell(planner, name, fixture_scene(name), start, goal,
                              SprintParams(lam=fixture_lam(name))))
    return cells


def run_trials(cells, seeds, tracer=None) -> list[dict]:
    """One closed-loop pass: every cell for each seed in turn.  Only the
    run_trial call is timed; output checks follow it, untraced."""
    from sprint_planner import bench
    from checks import EdgeChecker, check_trial
    checkers = {c.scene_name: EdgeChecker(c.scene) for c in cells}
    rows = []
    for seed in seeds:
        for cell in cells:
            info = {"trial": len(rows), "planner": cell.planner, "scene": cell.scene_name,
                    "seed": seed}
            row = dict(info, status="Error", total_samples=0, path_length=math.nan,
                       delta_useful_ratio=None, crossed=False)
            try:
                with tracer.trial(info) if tracer else contextlib.nullcontext():
                    t0 = time.perf_counter()
                    rec, res, oracle = bench.run_trial(cell.planner, cell.scene, cell.start,
                                                       cell.goal, seed, cell.params, BUDGET,
                                                       scene_label=cell.scene_name)
                    row["trial_s"] = time.perf_counter() - t0
                row.update(status=rec.status, total_samples=rec.total_samples,
                           path_length=rec.path_length, delta_useful_ratio=rec.delta_useful_ratio)
                row["problems"] = check_trial(cell, BUDGET, rec, res, oracle)
                if rec.status == "Solved" and not row["problems"]:
                    row["crossed"] = checkers[cell.scene_name].crosses(res.path)
            except Exception:
                traceback.print_exc()
                row["problems"] = ["raised: " + traceback.format_exc().strip().splitlines()[-1]]
                row.setdefault("trial_s", 0.0)
            rows.append(row)
    return rows


def tail(values) -> tuple[int, float]:
    """Highest whole percentile with at least ten values beyond it, and its
    nearest-rank value."""
    xs = sorted(values)
    n = len(xs)
    p = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(p * n / 100))
    return p, xs[rank - 1]


def us_per_sample(rows) -> float:
    """Geometric mean over trials of per-trial wall us per oracle sample;
    every cell runs the same number of trials, so cells weigh equally.
    Per-sample cost grows with tree size, so a pooled ratio follows the few
    longest trials a seed happens to draw; the geometric mean does not."""
    return math.exp(statistics.fmean(math.log(1e6 * r["trial_s"] / r["total_samples"])
                                     for r in rows if r["total_samples"]))


def end_to_end(rows) -> tuple[dict, dict]:
    ok = [r for r in rows if not r["problems"]]
    solved = [r for r in ok if r["status"] == "Solved"]
    samples = sum(r["total_samples"] for r in rows)
    times = [r["trial_s"] for r in rows]
    p, tail_s = tail(times)
    n_solved = len(solved)
    m = {
        "us_per_sample": (us_per_sample(rows), "us"),
        "us_per_sample_pooled": (1e6 * sum(times) / samples, "us"),
        "trial_s_p50": (statistics.median(times), "s"),
        "trial_s_tail": (tail_s, "s"),
        "samples_per_solve": (samples / n_solved if n_solved else float(samples), "count"),
        "solve_rate": (n_solved / len(rows), "ratio"),
        "delta_useful_mean": (statistics.fmean(r["delta_useful_ratio"] for r in solved)
                              if n_solved else 0.0, "ratio"),
        "path_length_mean": (statistics.fmean(r["path_length"] for r in solved)
                             if n_solved else 0.0, "cspace"),
        "path_crossing_rate": (sum(r["crossed"] for r in solved) / n_solved
                               if n_solved else 0.0, "ratio"),
    }
    return m, {"trial_s_tail_percentile": p, "trials": len(rows)}


def select(metrics: dict, spec: list[dict]) -> dict:
    """The metrics BENCHMARK.json declares, in its order and with its units."""
    out = {}
    for entry in spec:
        value, unit = metrics[entry["name"]]
        if unit != entry["unit"]:
            raise ValueError(f"{entry['name']}: unit {unit!r} != declared {entry['unit']!r}")
        out[entry["name"]] = {"value": value, "unit": unit}
    return out


def report_problems(rows) -> None:
    for r in rows:
        for problem in r["problems"]:
            print(f"FAILED trial {r['planner']} {r['scene']} seed {r['seed']}: {problem}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sprint_planner" / "__init__.py").is_file():
        die(f"no library source at {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import sprint_planner
    if Path(sprint_planner.__file__).resolve().parent != SRC / "sprint_planner":
        die(f"imported sprint_planner from {sprint_planner.__file__}, not from {SRC}")
    from checks import fingerprint

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload = WORKLOADS[args.workload]
    n_rounds = rounds_for(workload, args.seconds)
    seeds = range(args.seed, args.seed + n_rounds)
    machine = machine_info()
    print(f"workload {args.workload} seed {args.seed} rounds {n_rounds} budget {BUDGET} "
          f"trace {args.trace}; closed loop, one caller, one process, no threads")
    print("machine " + " ".join(f"{k} {v}" for k, v in machine.items()))

    cells = make_cells(workload)
    run_trials(cells[:1], [args.seed])  # warm-up, not timed or counted

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-s{args.seconds}"
    if not args.trace:
        setup_times, passes = [], []
        for _ in range(PASSES):
            setup_times += probe_setup(workload.scenes, SETUP_PROBES_PER_PASS)
            passes.append(run_trials(cells, seeds))
        rows = passes[0]
        # every pass must replay the same trials exactly
        repeatable = len({fingerprint(p) for p in passes}) == 1
        for i, row in enumerate(rows):
            row["trial_s"] = min(p[i]["trial_s"] for p in passes)
        metrics, extra = end_to_end(rows)
        metrics["setup_s"] = (statistics.median(setup_times), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        digest = fingerprint(rows)
        failed = sum(any(p[i]["problems"] for p in passes) for i in range(len(rows)))
        correct = failed == 0 and repeatable and any(r["status"] == "Solved" for r in rows)
        print(f"fingerprint {digest}; {PASSES} passes "
              f"{'agree' if repeatable else 'DISAGREE'}, each trial timed at its fastest pass")
        print(f"trial_s_tail is p{extra['trial_s_tail_percentile']} of n={extra['trials']} trials")
        for name, (value, unit) in metrics.items():
            print(f"metric {name} {value!r} {unit}")
        (OUT / f"{tag}.json").write_text(json.dumps(
            {"machine": machine, "fingerprint": digest, **extra, "metrics": metrics, "rows": rows}
        ) + "\n", encoding="utf-8")
        chosen = select(metrics, spec["end_to_end"])
    else:
        from tracing import Tracer
        # an untraced prefix of the same trials gives the overhead and the
        # digest the traced trials must reproduce
        prefix = seeds[:max(1, n_rounds // 5)]
        plain = run_trials(cells, prefix)
        tracer = Tracer()
        rows = run_trials(cells, seeds, tracer)
        traced_prefix = rows[:len(plain)]
        overhead = sum(r["trial_s"] for r in traced_prefix) / sum(r["trial_s"] for r in plain) - 1
        digest = fingerprint(rows)
        digest_ok = fingerprint(traced_prefix) == fingerprint(plain)
        samples = sum(r["total_samples"] for r in rows)
        sprint_samples = sum(r["total_samples"] for r in rows if r["planner"] == "sprint")
        is_free_calls = tracer.totals["world.is_free"][0]
        count_ok = is_free_calls == samples
        failed = sum(bool(r["problems"]) for r in rows)
        correct = failed == 0 and digest_ok and count_ok and not any(r["problems"] for r in plain)
        metrics = tracer.metrics(sprint_samples)
        metrics["trace.overhead"] = (100.0 * overhead, "%")
        print(f"fingerprint {digest}")
        print(f"traced prefix digest {'matches' if digest_ok else 'DIFFERS FROM'} the untraced "
              f"prefix ({len(plain)} trials); tracing overhead {100 * overhead:.1f}%")
        print(f"world.is_free calls {is_free_calls} {'==' if count_ok else '!='} "
              f"sum of total_samples {samples}")
        print("wait time: none; the library is single-threaded with no queues")
        if tracer.absent:
            print("absent hook targets (reported as zero): " + ", ".join(tracer.absent))
        for layer, share in tracer.shares():
            print(f"self share {layer} {100 * share:.1f}%")
        for name, (value, unit) in metrics.items():
            print(f"metric {name} {value!r} {unit}")
        with open(OUT / f"{tag}-spans.jsonl", "w", encoding="utf-8") as f:
            for trial in tracer.trials:
                f.write(json.dumps(trial) + "\n")
        chosen = select(metrics, spec["per_layer"])

    report_problems(rows)
    print(json.dumps({"correct": correct, "attempted": len(rows), "failed": failed,
                      "metrics": chosen}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
