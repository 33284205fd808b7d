"""Configuration-space vector math: configurations, distances, and the
search tree every planner grows.

A configuration is a 1-D float64 numpy array.  The functions here are pure
and safe to call concurrently; a `Tree` is mutable and belongs to one run.
"""

from __future__ import annotations

import math

import numpy as np

Config = np.ndarray


def as_config(x) -> Config:
    """Coerce to a validated configuration vector (finite, 1-D, nonempty)."""
    q = np.asarray(x, dtype=np.float64)
    if q.ndim != 1 or q.size == 0:
        raise ValueError(f"configuration must be a nonempty 1-D vector, got shape {q.shape}")
    if not np.all(np.isfinite(q)):
        raise ValueError("configuration contains non-finite coordinates")
    return q


def _check_dims(a: Config, b: Config) -> None:
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")


class Tree:
    """A planner's search tree: configurations and their parents' indices,
    with the root at index 0 and its parent -1."""

    def __init__(self, root: Config):
        self.points = [root]
        self.parents = [-1]

    def add(self, q: Config, parent: int) -> int:
        self.points.append(q)
        self.parents.append(parent)
        return len(self.points) - 1

    def path_to(self, i: int, end: Config | None = None) -> list[Config]:
        """Configs from the root to node i, then end unless node i is at it."""
        out = []
        while i != -1:
            out.append(self.points[i])
            i = self.parents[i]
        out.reverse()
        if end is not None and not np.array_equal(out[-1], end):
            out.append(end)
        return out


def dist(a: Config, b: Config) -> float:
    """Euclidean distance between two configurations."""
    _check_dims(a, b)
    d = a - b
    return math.sqrt(d.dot(d))


def polyline_length(points) -> float:
    """Total length of a piecewise-linear path given as an (n, d) array."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < 2:
        raise ValueError(f"polyline needs >= 2 points, got shape {pts.shape}")
    return float(np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1)))


def unit(v: Config) -> Config:
    """v normalized to unit length; raises on the zero vector."""
    n = math.sqrt(v.dot(v))
    if n == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return v / n
