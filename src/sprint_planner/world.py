"""Scenes, obstacles, and the instrumented collision oracle.

The oracle is the single accounting point for collision-check samples: every
feasibility query, including rejection-sampling attempts, bumps its counter
by exactly one, and the oracle alone enforces the sample budget.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .geometry import Config


class BudgetExhausted(RuntimeError):
    """A budgeted query came after the oracle's sample budget was spent."""


@dataclass(frozen=True)
class Box:
    """Axis-aligned hyper-box obstacle; the boundary counts as in collision."""

    min: Config
    max: Config

    def __post_init__(self):
        if self.min.shape != self.max.shape:
            raise ValueError("box min/max dimension mismatch")
        if np.any(self.min > self.max):
            raise ValueError("box min exceeds max")

    @property
    def dim(self) -> int:
        return self.min.shape[0]


@dataclass(frozen=True)
class Sphere:
    """Hyper-sphere obstacle; the boundary counts as in collision."""

    center: Config
    radius: float

    def __post_init__(self):
        # written so that NaN fails it too
        if not 0 < self.radius < math.inf:
            raise ValueError("sphere radius must be positive and finite")

    @property
    def dim(self) -> int:
        return self.center.shape[0]


Obstacle = Box | Sphere


@dataclass(frozen=True)
class Scene:
    """Bounded d-dimensional world with a list of obstacles."""

    name: str
    lower: Config
    upper: Config
    obstacles: tuple[Obstacle, ...] = ()

    def __post_init__(self):
        if self.lower.shape != self.upper.shape:
            raise ValueError("scene lower/upper dimension mismatch")
        if not np.all(self.lower < self.upper):
            raise ValueError("scene requires lower[i] < upper[i] for every i")
        for i, obs in enumerate(self.obstacles):
            if obs.dim != self.dim:
                raise ValueError(f"obstacles[{i}]: dimension {obs.dim} != scene dimension {self.dim}")

    @property
    def dim(self) -> int:
        return self.lower.shape[0]


class CollisionOracle:
    """Feasibility oracle over a scene.

    Counts every is_free call.  With record_samples=True it also keeps the
    full (config, free) query log, which the benchmark harness needs for the
    delta-usefulness metric.  Planners draw through `query`, which refuses
    every query past `budget` samples; is_free is the raw, unbudgeted check.
    """

    def __init__(self, scene: Scene, record_samples: bool = False, budget: int = 200_000):
        if not budget > 0:
            raise ValueError(f"sample budget must be positive, got {budget!r}")
        self.scene = scene
        self.budget = budget
        self.sample_count = 0
        self.record_samples = record_samples
        self.samples: list[tuple[Config, bool]] = []
        self._dim = scene.dim
        # bounds and boxes as (axis, lo, hi) triples of Python floats, so a
        # query is plain comparisons that stop at the first deciding axis
        axes = range(scene.dim)
        self._bounds = tuple(zip(axes, scene.lower.tolist(), scene.upper.tolist()))
        self._boxes = tuple(tuple(zip(axes, o.min.tolist(), o.max.tolist()))
                            for o in scene.obstacles if isinstance(o, Box))
        self._spheres = tuple((o.center.tolist(), o.radius * o.radius)
                              for o in scene.obstacles if isinstance(o, Sphere))

    def is_free(self, q: Config) -> bool:
        if q.shape[0] != self._dim:
            raise ValueError(f"query dimension {q.shape[0]} != scene dimension {self._dim}")
        self.sample_count += 1
        free = self._free(q.tolist())
        if self.record_samples:
            self.samples.append((q.copy(), free))
        return free

    def query(self, q: Config) -> bool:
        """is_free(q) if the budget allows, else BudgetExhausted, uncounted and unlogged."""
        if self.sample_count >= self.budget:
            raise BudgetExhausted(f"sample budget of {self.budget} spent")
        return self.is_free(q)

    def _free(self, ql: list[float]) -> bool:
        """World boundary free, obstacle boundary in collision, NaN never free."""
        for i, l, h in self._bounds:
            if not l <= ql[i] <= h:
                return False
        for box in self._boxes:
            for i, l, h in box:
                if not l <= ql[i] <= h:
                    break
            else:
                return False
        for center, r2 in self._spheres:
            if sum((x - c) * (x - c) for x, c in zip(ql, center)) <= r2:
                return False
        return True

    def sample_free(self, rng: np.random.Generator) -> Config:
        """Uniform draw from free space by rejection; each attempt is a query, so the
        budget alone stops it.  `lo + span * random(d)` is `uniform(lo, hi)` bit for bit."""
        lo, span = self.scene.lower, self.scene.upper - self.scene.lower
        while True:
            if self.query(q := lo + span * rng.random(lo.shape)):
                return q


def _obstacle_to_dict(obs: Obstacle) -> dict:
    if isinstance(obs, Box):
        return {"type": "box", "min": obs.min.tolist(), "max": obs.max.tolist()}
    return {"type": "sphere", "center": obs.center.tolist(), "radius": obs.radius}


def scene_to_dict(scene: Scene) -> dict:
    return {
        "name": scene.name,
        "lower": scene.lower.tolist(),
        "upper": scene.upper.tolist(),
        "obstacles": [_obstacle_to_dict(o) for o in scene.obstacles],
    }


def is_json_int(v) -> bool:
    """A JSON integer: no boolean, no number with a fraction part."""
    return isinstance(v, int) and not isinstance(v, bool)


def is_json_number(v) -> bool:
    """A JSON number that fits a float: no boolean, NaN or infinity."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def is_json_point(x) -> bool:
    """True for a nonempty JSON list of numbers that fit a float."""
    return isinstance(x, list) and len(x) > 0 and all(map(is_json_number, x))


def _field(data: dict, key: str, ok, what: str):
    """data[key], or a ValueError naming the field if it is missing or not ok."""
    if key not in data:
        raise ValueError(f"missing field {key!r}")
    if not ok(data[key]):
        raise ValueError(f"field {key!r} must be {what}")
    return data[key]


def _point(data: dict, key: str) -> Config:
    return np.array(_field(data, key, is_json_point, "a nonempty list of finite numbers"),
                    dtype=float)


def scene_from_dict(data: dict) -> Scene:
    """Build a scene from its JSON form; any malformed part raises a
    ValueError that names the offending field."""
    if not isinstance(data, dict):
        raise ValueError("scene file must hold a JSON object")
    name = _field(data, "name", lambda v: isinstance(v, str), "a string")
    lower, upper = _point(data, "lower"), _point(data, "upper")
    entries = data.get("obstacles", [])
    if not isinstance(entries, list):
        raise ValueError("field 'obstacles' must be a list")
    obstacles = []
    for i, entry in enumerate(entries):
        try:
            if not isinstance(entry, dict):
                raise ValueError("obstacle must be a JSON object")
            kind = entry.get("type")
            if kind == "box":
                obstacles.append(Box(_point(entry, "min"), _point(entry, "max")))
            elif kind == "sphere":
                radius = _field(entry, "radius", is_json_number, "a finite number")
                obstacles.append(Sphere(_point(entry, "center"), float(radius)))
            else:
                raise ValueError(f"unknown obstacle type {kind!r}")
        except ValueError as e:
            raise ValueError(f"obstacles[{i}]: {e}") from None
    return Scene(name=name, lower=lower, upper=upper, obstacles=tuple(obstacles))


def read_json(path):
    """The JSON value in the file at path.  Text that is no JSON, or JSON
    nested too deeply for the parser's recursion, raises ValueError, so a
    bad file gives a one-line error."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            return json.load(f)
        except json.JSONDecodeError as e:
            raise ValueError(f"{path}: invalid JSON: {e}") from None
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def load_scene(path) -> Scene:
    data = read_json(path)
    try:
        return scene_from_dict(data)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def save_scene(scene: Scene, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(scene_to_dict(scene), f, indent=2)
        f.write("\n")
