"""Bundled synthetic scene fixtures and their default start/goal endpoints."""

from __future__ import annotations

import json
from importlib import resources

import numpy as np

from .geometry import Config
from .world import Scene, scene_from_dict

# name -> (start, goal, lam): scene files carry geometry only; lam, the
# default edge length, is scaled to the fixture's passage widths and diameter
_FIXTURES: dict[str, tuple[list[float], list[float], float]] = {
    "empty_2d": ([0.1, 0.1], [0.9, 0.9], 0.05),
    "single_box_2d": ([0.1, 0.5], [0.9, 0.5], 0.02),
    "narrow_passage_2d": ([0.1, 0.1], [0.9, 0.9], 0.005),
    "vertical_bars_2d": ([0.1, 0.2], [0.95, 0.95], 0.01),
    "narrow_passage_6d": ([0.1, 0.3, 0.3, 0.3, 0.3, 0.3], [0.9, 0.7, 0.7, 0.7, 0.7, 0.7], 0.05),
    "box_maze_10d": ([0.1] + [0.2] * 9, [0.9] + [0.8] * 9, 0.1),
}

FIXTURE_NAMES = tuple(_FIXTURES)


def _fixture(name: str) -> tuple[list[float], list[float], float]:
    if name not in _FIXTURES:
        raise ValueError(f"unknown scene fixture {name!r}; known: {', '.join(FIXTURE_NAMES)}")
    return _FIXTURES[name]


def fixture_lam(name: str) -> float:
    return _fixture(name)[2]


def fixture_scene(name: str) -> Scene:
    _fixture(name)
    text = resources.files(__package__).joinpath(f"data/{name}.json").read_text("utf-8")
    return scene_from_dict(json.loads(text))


def fixture_endpoints(name: str) -> tuple[Config, Config]:
    start, goal, _ = _fixture(name)
    return np.array(start, dtype=float), np.array(goal, dtype=float)
