"""Command-line interface: single planning runs and benchmark grids."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .bench import PLANNER_IDS, resolve_scene, run_grid, run_trial, trial_params
from .geometry import as_config
from .render import check_renderable, render_svg
from .scenes import FIXTURE_NAMES, fixture_endpoints
from .world import read_json


def _parse_point(flag: str, text: str) -> np.ndarray:
    try:
        return as_config([float(x) for x in text.split(",")] if text.strip() else [])
    except ValueError as e:
        raise ValueError(f"{flag}: {e}") from None


def cmd_plan(args) -> int:
    scene = resolve_scene(args.scene)
    if args.svg is not None:  # before the trial, not after it
        check_renderable(scene)
        svg = Path(args.svg)
        if not args.svg or "\0" in args.svg or svg.is_dir() or not svg.parent.is_dir():
            raise ValueError(f"--svg {args.svg!r} names no file in an existing directory")
    if (args.start is None) != (args.goal is None):
        raise ValueError("--start and --goal must be given together")
    if args.start is not None:
        start, goal = _parse_point("--start", args.start), _parse_point("--goal", args.goal)
    elif args.scene in FIXTURE_NAMES:
        start, goal = fixture_endpoints(args.scene)
    else:
        raise ValueError("--start/--goal required for non-fixture scenes")
    params = trial_params(args.scene, scene,
                          {} if args.params is None else read_json(args.params), (args.planner,))
    record, result, oracle = run_trial(args.planner, scene, start, goal, args.seed,
                                       params, args.max_samples, scene_label=args.scene)
    print(f"planner={record.planner} scene={record.scene} seed={record.seed} "
          f"status={record.status} samples={record.total_samples} "
          f"path_length={record.path_length:.6g} wall_time={record.wall_time_s:.3f}s "
          f"delta_useful_ratio={'' if record.delta_useful_ratio is None else f'{record.delta_useful_ratio:.4f}'}")
    if args.svg is not None:
        svg.write_text(render_svg(scene, oracle.samples, result.trees, result.path,
                                  result.total_samples), encoding="utf-8")
        print(f"wrote {args.svg}")
    return 0


def cmd_bench(args) -> int:
    records = run_grid(args.config, args.out)
    solved = sum(1 for r in records if r.status == "Solved")
    print(f"ran {len(records)} trials ({solved} solved); results in {args.out}/results.csv")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sprint",
        description="Sampling-based path planning benchmark suite. The "
                    "delta-useful ratio reported for solved trials counts all "
                    "oracle samples (free and colliding) in its denominator.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="run a single planner on one scene")
    p.add_argument("--scene", required=True,
                   help=f"fixture name ({', '.join(FIXTURE_NAMES)}) or scene JSON path")
    p.add_argument("--planner", choices=PLANNER_IDS, default="sprint",
                   help="planner id; each sprint:<mode> is one of the paper's ablations")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--start", help="comma-separated start configuration")
    p.add_argument("--goal", help="comma-separated goal configuration")
    p.add_argument("--max-samples", type=int, default=200_000,
                   help="hard cap on collision-check samples, endpoint checks included")
    p.add_argument("--params", help="JSON file overriding planner parameter fields")
    p.add_argument("--svg", help="write an SVG render (2-D scenes only)")
    p.set_defaults(func=cmd_plan)

    b = sub.add_parser("bench", help="run a planner x scene x seed grid")
    b.add_argument("--config", required=True, help="grid config JSON file")
    b.add_argument("--out", required=True, help="output directory")
    b.set_defaults(func=cmd_bench)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
