"""Interleaved in-process A/B timing of two checkouts of sprint_planner.

    python3 tools/ab_inprocess.py --base ../parent --head . --workload paper_2d \
        --seeds 10 --rounds 3 [--json BENCH_x.json]

Copies each checkout's `src/sprint_planner` into a temporary directory under
the package names `ab_base` and `ab_head`, and the base a second time as
`ab_control`, imports all three into one interpreter, and runs every (cell,
seed) trial of a benchmark workload (the cells of `perfbench/run.py`'s
WORKLOADS, budget 50k) on each side, the order of the three changing from
trial to trial through all six permutations.  Timing the sides in one
process, trial by trial, cancels most of the host's drift between runs
minutes apart; the control, base against its own copy, measures what is
left: the tool's lean toward one side, which a head/base ratio must be read
against.  Each trial runs after a full garbage collection with the collector
off, and is timed by the process's CPU time (`time.process_time`) and by
wall time, keeping each side's fastest of --rounds runs on each clock.  The
ratios and the win counts use CPU time, which other processes on the host
disturb less than wall time.

Per cell it prints each side's geometric mean of CPU µs per oracle sample,
their ratio (head / base), how many trials the head took less CPU time in,
and whether the two sides agree on a SHA-256 over every trial's (status,
total_samples, repr(path_length), repr(delta_useful_ratio), path bytes).
The overall line gives the same over every cell, and the control line the
copy's ratio (copy / base), its wins and its digest agreement with the base.
Both lines follow the ratio with its paired interval and a sign test: a 95%
percentile bootstrap of the mean per-trial log-ratio, resampled from a fixed
seed so that the same timings give the same interval, and the exact
two-sided sign test's p value over the trials that did not tie.  A head
faster beyond the tool's own lean has an interval that excludes 1 while the
control's includes it.
Several workloads may be named, after one --workload or each after its own;
each gets its own table.  Exits 1 when any digests differ, the control's
included.

`--json PATH` also writes the report as JSON: each checkout's commit (and
whether its `src/` differs from it), the machine, the command, and per
workload and cell each side's geometric means of CPU and of wall µs per
sample, the CPU ratio, the head's wins, n and digest agreement, and per
workload the overall and control figures, each with its `ratio_interval`
and `sign_p`.  Committed as `BENCH_*.json`, such a file is a perf change's
before-and-after evidence; `tests/test_ab_inprocess.py` checks every
committed one.  Files written before the tool reported intervals have no
`ratio_interval` or `sign_p`, those written before it timed the control have
no `control` entry, and those written before it timed CPU time hold one
wall-time `{base,head}_us_per_sample` per cell instead, and their ratio is
wall time.
"""

from __future__ import annotations

import os

# numpy reads these at import; the trials run on one thread, as in perfbench
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import importlib
import importlib.util
import itertools
import json
import math
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BUDGET = 50_000
SIDES = ("base", "head", "control")
# the order of the sides in a trial cycles through these, so each side runs
# in each position, and before and after each other side, equally often
ORDERS = list(itertools.permutations(SIDES))
BOOTSTRAP_SEED = 0
BOOTSTRAP_RESAMPLES = 10_000


def load_perfbench():
    """perfbench/run.py as a module: its WORKLOADS and machine_info."""
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def import_copy(checkout: Path, name: str, tmp: Path):
    """Import checkout's src/sprint_planner as the package `name`."""
    src = checkout / "src" / "sprint_planner"
    if not (src / "__init__.py").is_file():
        raise SystemExit(f"ab_inprocess: no src/sprint_planner package under {checkout}")
    shutil.copytree(src, tmp / name, ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


class Side:
    """One checkout's run_trial and its per-cell inputs."""

    def __init__(self, pkg, scene_names):
        self.bench = importlib.import_module(pkg.__name__ + ".bench")
        scenes = importlib.import_module(pkg.__name__ + ".scenes")
        world = importlib.import_module(pkg.__name__ + ".world")
        params = importlib.import_module(pkg.__name__ + ".params")
        self.inputs = {}
        for name in scene_names:
            # parsed by this copy's own scene_from_dict: fixture_scene in
            # checkouts that name their package literally cannot load a copy
            data = json.loads((Path(pkg.__file__).parent / "data" / f"{name}.json")
                              .read_text("utf-8"))
            start, goal = scenes.fixture_endpoints(name)
            self.inputs[name] = (world.scene_from_dict(data), start, goal,
                                 params.SprintParams(lam=scenes.fixture_lam(name)))

    def trial(self, planner: str, scene_name: str, seed: int) -> tuple[float, float, int, bytes]:
        """(CPU seconds, wall seconds, total_samples, outcome digest) of one
        timed trial, run with the garbage collector off."""
        scene, start, goal, params = self.inputs[scene_name]
        gc.collect()
        gc.disable()
        try:
            c0, t0 = time.process_time(), time.perf_counter()
            rec, res, _ = self.bench.run_trial(planner, scene, start, goal, seed, params,
                                               BUDGET, scene_label=scene_name)
            cpu, wall = time.process_time() - c0, time.perf_counter() - t0
        finally:
            gc.enable()
        h = hashlib.sha256(repr((rec.status, rec.total_samples, rec.path_length,
                                 rec.delta_useful_ratio)).encode())
        if res.path is not None:
            h.update(res.path.tobytes())
        return cpu, wall, rec.total_samples, h.digest()


def geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def ratio_interval(log_ratios) -> list[float]:
    """95% percentile bootstrap interval of the geometric-mean ratio, from
    BOOTSTRAP_RESAMPLES resamples of the paired per-trial log-ratios drawn
    with the fixed BOOTSTRAP_SEED."""
    logs = np.asarray(log_ratios, dtype=np.float64)
    rng = np.random.default_rng(BOOTSTRAP_SEED)
    means = logs[rng.integers(0, len(logs), size=(BOOTSTRAP_RESAMPLES, len(logs)))].mean(axis=1)
    lo, hi = np.quantile(means, [0.025, 0.975])
    return [math.exp(lo), math.exp(hi)]


def sign_test_p(log_ratios) -> float:
    """Exact two-sided sign test of paired per-trial log-ratios, ties left
    out: the probability, under a fair coin, of a split of wins (negative)
    and losses (positive) at least as uneven as this one."""
    wins = sum(x < 0.0 for x in log_ratios)
    losses = sum(x > 0.0 for x in log_ratios)
    tail = sum(math.comb(wins + losses, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2.0 * tail / 2 ** (wins + losses))


def git_state(checkout: Path) -> dict:
    """The commit checked out and whether `src/` differs from it; None for
    each when checkout is no git work tree."""
    def git(*cmd):
        out = subprocess.run(["git", "-C", str(checkout), *cmd], capture_output=True, text=True)
        return out.stdout.strip() if out.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--", "src")
    return {"commit": commit, "src_modified": None if status is None else status != ""}


def main(argv=None) -> int:
    perfbench = load_perfbench()
    workloads = perfbench.WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", type=Path, required=True, help="checkout timed as the reference")
    ap.add_argument("--head", type=Path, required=True, help="checkout timed against it")
    ap.add_argument("--workload", required=True, nargs="+", action="extend",
                    choices=sorted(workloads), help="repeatable")
    ap.add_argument("--seeds", type=int, default=10, help="seeds 0..N-1 per cell")
    ap.add_argument("--rounds", type=int, default=3, help="runs per trial and side; the fastest counts")
    ap.add_argument("--json", type=Path, help="also write the report to this JSON file")
    args = ap.parse_args(argv)
    if args.seeds < 1 or args.rounds < 1:
        ap.error("--seeds and --rounds must be >= 1")

    machine = perfbench.machine_info()
    print("machine " + " ".join(f"{k} {v}" for k, v in machine.items()))
    scene_names = sorted({s for w in args.workload for s in workloads[w].scenes})
    reports = {}
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        checkouts = {"base": args.base, "head": args.head, "control": args.base}
        sides = {side: Side(import_copy(checkouts[side].resolve(), f"ab_{side}", Path(tmp)),
                            scene_names)
                 for side in SIDES}
        for name in args.workload:
            wl = workloads[name]
            reports[name] = compare(sides, name, [(p, s) for p in wl.planners for s in wl.scenes],
                                    args.seeds, args.rounds)
    agree = all(r["overall"]["digests_agree"] for r in reports.values())
    if args.json:
        report = {
            "command": shlex.join(["python3", "tools/ab_inprocess.py",
                                   *(sys.argv[1:] if argv is None else argv)]),
            "base": git_state(args.base), "head": git_state(args.head),
            "machine": machine, "budget": BUDGET, "seeds": args.seeds, "rounds": args.rounds,
            "digests_agree": agree, "workloads": reports,
        }
        args.json.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0 if agree else 1


def compare(sides: dict, workload: str, cells: list[tuple[str, str]], n_seeds: int,
            rounds: int) -> dict:
    """Time every (cell, seed) trial on each side, print the workload's
    table and return it as the JSON report's workload entry."""
    best = {}  # (side, cell, seed) -> [CPU seconds, wall seconds, samples, digest]
    agree = True
    for r in range(rounds):
        for c, (planner, scene_name) in enumerate(cells):
            for seed in range(n_seeds):
                for side in ORDERS[(r + c + seed) % len(ORDERS)]:
                    cpu, wall, samples, digest = sides[side].trial(planner, scene_name, seed)
                    key = (side, c, seed)
                    if key not in best:
                        best[key] = [cpu, wall, samples, digest]
                    else:
                        agree &= best[key][3] == digest
                        best[key][0] = min(best[key][0], cpu)
                        best[key][1] = min(best[key][1], wall)

    def us(side, c, seed, clock=0):
        return 1e6 * best[side, c, seed][clock] / best[side, c, seed][2]

    print(f"workload {workload}  seeds 0-{n_seeds - 1}  best of {rounds}  budget {BUDGET}  CPU time")
    print(f"{'cell':<32} {'base us/s':>10} {'head us/s':>10} {'head/base':>10} {'head won':>9} digests")
    all_ratios, all_wins, rows = [], 0, []
    control_ratios, control_wins, control_agree = [], 0, True
    for c, (planner, scene_name) in enumerate(cells):
        seeds = range(n_seeds)
        ratios = [us("head", c, s) / us("base", c, s) for s in seeds]
        wins = sum(best["head", c, s][0] < best["base", c, s][0] for s in seeds)
        same = all(best["head", c, s][3] == best["base", c, s][3] for s in seeds)
        agree &= same
        all_ratios += ratios
        all_wins += wins
        control_ratios += [us("control", c, s) / us("base", c, s) for s in seeds]
        control_wins += sum(best["control", c, s][0] < best["base", c, s][0] for s in seeds)
        control_agree &= all(best["control", c, s][3] == best["base", c, s][3] for s in seeds)
        row = {"planner": planner, "scene": scene_name}
        for side in ("base", "head"):
            row[f"{side}_cpu_us_per_sample"] = geomean(us(side, c, s) for s in seeds)
            row[f"{side}_wall_us_per_sample"] = geomean(us(side, c, s, 1) for s in seeds)
        row.update(ratio=geomean(ratios), head_wins=wins, n=n_seeds, digests_agree=same)
        rows.append(row)
        print(f"{planner + ' ' + scene_name:<32} {row['base_cpu_us_per_sample']:>10.2f} "
              f"{row['head_cpu_us_per_sample']:>10.2f} {row['ratio']:>10.3f} "
              f"{wins:>5}/{n_seeds:<3} {'same' if same else 'DIFFER'}")
    control = {"ratio": geomean(control_ratios), "wins": control_wins,
               "n": len(control_ratios), "digests_agree": control_agree}
    agree &= control_agree
    overall = {"ratio": geomean(all_ratios), "head_wins": all_wins, "n": len(all_ratios),
               "digests_agree": agree}
    for entry, ratios in ((overall, all_ratios), (control, control_ratios)):
        logs = [math.log(r) for r in ratios]
        entry.update(ratio_interval=ratio_interval(logs), sign_p=sign_test_p(logs))
    print(f"overall head/base {overall['ratio']:.3f}  {_interval_text(overall)}  "
          f"head won {all_wins}/{len(all_ratios)}  digests {'same' if agree else 'DIFFER'}")
    print(f"control copy/base {control['ratio']:.3f}  {_interval_text(control)}  "
          f"copy won {control_wins}/{control['n']}  digests {'same' if control_agree else 'DIFFER'}")
    return {"cells": rows, "overall": overall, "control": control}


def _interval_text(entry: dict) -> str:
    lo, hi = entry["ratio_interval"]
    return f"interval {lo:.3f}-{hi:.3f}  sign p {entry['sign_p']:.2g}"


if __name__ == "__main__":
    sys.exit(main())
