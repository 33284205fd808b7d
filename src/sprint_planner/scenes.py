"""Bundled synthetic scene fixtures and their default start/goal endpoints."""

from __future__ import annotations

from importlib import resources

import numpy as np

from .geometry import Config
from .world import Scene, scene_from_dict

import json

# default endpoints per fixture; scene files carry geometry only
_ENDPOINTS: dict[str, tuple[list[float], list[float]]] = {
    "empty_2d": ([0.1, 0.1], [0.9, 0.9]),
    "single_box_2d": ([0.1, 0.5], [0.9, 0.5]),
    "narrow_passage_2d": ([0.1, 0.1], [0.9, 0.9]),
    "vertical_bars_2d": ([0.1, 0.2], [0.95, 0.95]),
    "narrow_passage_6d": ([0.1, 0.3, 0.3, 0.3, 0.3, 0.3], [0.9, 0.7, 0.7, 0.7, 0.7, 0.7]),
    "box_maze_10d": ([0.1] + [0.2] * 9, [0.9] + [0.8] * 9),
}

FIXTURE_NAMES = tuple(_ENDPOINTS)

# default edge length per fixture, scaled to its passage widths and diameter
_FIXTURE_LAM: dict[str, float] = {
    "empty_2d": 0.05,
    "single_box_2d": 0.02,
    "narrow_passage_2d": 0.005,
    "vertical_bars_2d": 0.01,
    "narrow_passage_6d": 0.05,
    "box_maze_10d": 0.1,
}


def fixture_lam(name: str) -> float:
    if name not in _FIXTURE_LAM:
        raise KeyError(f"unknown scene fixture {name!r}; known: {', '.join(FIXTURE_NAMES)}")
    return _FIXTURE_LAM[name]


def fixture_scene(name: str) -> Scene:
    if name not in _ENDPOINTS:
        raise KeyError(f"unknown scene fixture {name!r}; known: {', '.join(FIXTURE_NAMES)}")
    text = resources.files(__package__).joinpath(f"data/{name}.json").read_text("utf-8")
    return scene_from_dict(json.loads(text))


def fixture_endpoints(name: str) -> tuple[Config, Config]:
    if name not in _ENDPOINTS:
        raise KeyError(f"unknown scene fixture {name!r}; known: {', '.join(FIXTURE_NAMES)}")
    start, goal = _ENDPOINTS[name]
    return np.array(start, dtype=float), np.array(goal, dtype=float)
