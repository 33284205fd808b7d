"""Interleaved in-process A/B timing of two checkouts of sprint_planner.

    python3 tools/ab_inprocess.py --base ../parent --head . --workload paper_2d \
        --seeds 10 --rounds 3

Copies each checkout's `src/sprint_planner` into a temporary directory under
the package names `ab_base` and `ab_head`, imports both into one interpreter,
and runs every (cell, seed) trial of a benchmark workload (the cells of
`perfbench/run.py`'s WORKLOADS, budget 50k) on both sides in alternating
order, keeping each side's fastest of --rounds runs.  Timing both sides in
one process, trial by trial, cancels most of the host's drift between runs
minutes apart.

Per cell it prints each side's geometric mean of µs per oracle sample, their
ratio (head / base), how many trials the head was faster in, and whether the
two sides agree on a SHA-256 over every trial's (status, total_samples,
repr(path_length), repr(delta_useful_ratio), path bytes).  The last line
gives the same over every cell.  Exits 1 when the digests differ.
"""

from __future__ import annotations

import os

# numpy reads these at import; the trials run on one thread, as in perfbench
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import importlib
import importlib.util
import json
import math
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUDGET = 50_000
SIDES = ("base", "head")


def load_workloads() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module.WORKLOADS


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

    def trial(self, planner: str, scene_name: str, seed: int) -> tuple[float, int, bytes]:
        """(seconds, total_samples, outcome digest) of one timed trial."""
        scene, start, goal, params = self.inputs[scene_name]
        t0 = time.perf_counter()
        rec, res, _ = self.bench.run_trial(planner, scene, start, goal, seed, params, BUDGET,
                                           scene_label=scene_name)
        elapsed = time.perf_counter() - t0
        h = hashlib.sha256(repr((rec.status, rec.total_samples, rec.path_length,
                                 rec.delta_useful_ratio)).encode())
        if res.path is not None:
            h.update(res.path.tobytes())
        return elapsed, rec.total_samples, h.digest()


def geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def main(argv=None) -> int:
    workloads = load_workloads()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", type=Path, required=True, help="checkout timed as the reference")
    ap.add_argument("--head", type=Path, required=True, help="checkout timed against it")
    ap.add_argument("--workload", required=True, choices=sorted(workloads))
    ap.add_argument("--seeds", type=int, default=10, help="seeds 0..N-1 per cell")
    ap.add_argument("--rounds", type=int, default=3, help="runs per trial and side; the fastest counts")
    args = ap.parse_args(argv)
    if args.seeds < 1 or args.rounds < 1:
        ap.error("--seeds and --rounds must be >= 1")

    wl = workloads[args.workload]
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        sides = {side: Side(import_copy(getattr(args, side).resolve(), f"ab_{side}", Path(tmp)),
                            wl.scenes)
                 for side in SIDES}
        return compare(sides, [(p, s) for p in wl.planners for s in wl.scenes], args)


def compare(sides: dict, cells: list[tuple[str, str]], args) -> int:
    best = {}  # (side, cell, seed) -> [seconds, samples, digest]
    agree = True
    for r in range(args.rounds):
        for c, (planner, scene_name) in enumerate(cells):
            for seed in range(args.seeds):
                order = SIDES if (r + c + seed) % 2 == 0 else SIDES[::-1]
                for side in order:
                    elapsed, samples, digest = sides[side].trial(planner, scene_name, seed)
                    key = (side, c, seed)
                    if key not in best:
                        best[key] = [elapsed, samples, digest]
                    else:
                        agree &= best[key][2] == digest
                        best[key][0] = min(best[key][0], elapsed)

    def us(side, c, seed):
        seconds, samples, _ = best[side, c, seed]
        return 1e6 * seconds / samples

    print(f"workload {args.workload}  seeds 0-{args.seeds - 1}  best of {args.rounds}  budget {BUDGET}")
    print(f"{'cell':<32} {'base us/s':>10} {'head us/s':>10} {'head/base':>10} {'head won':>9} digests")
    all_ratios, all_wins = [], 0
    for c, (planner, scene_name) in enumerate(cells):
        seeds = range(args.seeds)
        ratios = [us("head", c, s) / us("base", c, s) for s in seeds]
        wins = sum(best["head", c, s][0] < best["base", c, s][0] for s in seeds)
        same = all(best["head", c, s][2] == best["base", c, s][2] for s in seeds)
        agree &= same
        all_ratios += ratios
        all_wins += wins
        print(f"{planner + ' ' + scene_name:<32} {geomean(us('base', c, s) for s in seeds):>10.2f} "
              f"{geomean(us('head', c, s) for s in seeds):>10.2f} {geomean(ratios):>10.3f} "
              f"{wins:>5}/{args.seeds:<3} {'same' if same else 'DIFFER'}")
    print(f"overall head/base {geomean(all_ratios):.3f}  head won {all_wins}/{len(all_ratios)}  "
          f"digests {'same' if agree else 'DIFFER'}")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
