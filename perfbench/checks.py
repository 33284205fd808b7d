"""Output checks for one benchmark trial and the behaviour fingerprint.

Every check reads the trial's returned path and counters; none of them is
part of a trial's timed span, and the fresh oracle used for the vertex check
is a separate object, so its queries never enter the trial's sample count.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from sprint_planner.world import Box, CollisionOracle, Sphere

# interior points per edge for the dense crossing check; edges are at most
# lam long, so this probes every lam/50
DENSE_POINTS_PER_EDGE = 50
# bounds the (points x obstacles x d) intermediate of the dense check
_CHUNK_POINTS = 4096


class EdgeChecker:
    """Unmetered dense point test along path edges against a scene's obstacles."""

    def __init__(self, scene):
        boxes = [o for o in scene.obstacles if isinstance(o, Box)]
        spheres = [o for o in scene.obstacles if isinstance(o, Sphere)]
        d = scene.dim
        self._mn = np.array([b.min for b in boxes]).reshape(-1, d)
        self._mx = np.array([b.max for b in boxes]).reshape(-1, d)
        self._centers = np.array([s.center for s in spheres]).reshape(-1, d)
        self._r2 = np.array([s.radius * s.radius for s in spheres])
        t = np.arange(1, DENSE_POINTS_PER_EDGE + 1) / (DENSE_POINTS_PER_EDGE + 1)
        self._t = t[None, :, None]

    def crosses(self, path: np.ndarray) -> bool:
        """True when any interior edge point lies in an obstacle (boundary
        included, as the oracle counts it)."""
        a = path[:-1, None, :]
        pts = (a + self._t * (path[1:, None, :] - a)).reshape(-1, path.shape[1])
        for lo in range(0, len(pts), _CHUNK_POINTS):
            chunk = pts[lo:lo + _CHUNK_POINTS, None, :]
            if len(self._mn) and np.any(np.all((chunk >= self._mn) & (chunk <= self._mx), axis=2)):
                return True
            if len(self._r2):
                rel = chunk - self._centers
                if np.any(np.einsum("pod,pod->po", rel, rel) <= self._r2):
                    return True
        return False


def check_trial(cell, budget, record, result, oracle) -> list[str]:
    """Problems found in one trial's outputs; an empty list means it passed.

    cell carries scene, start, goal and params; oracle is the trial's own.
    """
    problems = []
    if record.total_samples != oracle.sample_count or result.total_samples != oracle.sample_count:
        problems.append(f"total_samples {record.total_samples} != oracle count {oracle.sample_count}")
    if len(oracle.samples) != oracle.sample_count:
        problems.append(f"sample log holds {len(oracle.samples)} of {oracle.sample_count} queries")
    if record.status != "Solved":
        if result.path is not None:
            problems.append(f"status {record.status} but a path was returned")
        if record.total_samples < budget:
            problems.append(f"status {record.status} after {record.total_samples} < {budget} samples")
        return problems

    path = result.path
    if path is None or path.ndim != 2 or path.shape[0] < 2 or path.shape[1] != cell.scene.dim:
        return problems + ["solved trial returned no (n, d) path"]
    if not np.array_equal(path[0], cell.start):
        problems.append("path does not start at the start configuration")
    if not np.array_equal(path[-1], cell.goal):
        problems.append("path does not end at the goal")
    steps = np.linalg.norm(np.diff(path, axis=0), axis=1)
    longest = float(steps.max())
    lam = cell.params.lam
    if longest > lam * (1.0 + 1e-9):
        problems.append(f"step {longest!r} longer than lam {lam!r}")
    checker = CollisionOracle(cell.scene)
    blocked = [i for i, q in enumerate(path) if not checker.is_free(q)]
    if blocked:
        problems.append(f"path vertices {blocked[:5]} are in collision")
    if not math.isclose(record.path_length, float(steps.sum()), rel_tol=1e-9):
        problems.append(f"path_length {record.path_length!r} != polyline length {float(steps.sum())!r}")
    ratio = record.delta_useful_ratio
    if ratio is None or not 0.0 <= ratio <= 1.0:
        problems.append(f"delta_useful_ratio {ratio!r} outside [0, 1]")
    return problems


def fingerprint(rows) -> str:
    """SHA-256 over the per-trial (planner, scene, seed, status,
    total_samples, path_length, delta_useful_ratio) rows; floats use repr,
    so any behavioural change in any trial changes the digest."""
    h = hashlib.sha256()
    for r in rows:
        line = (f"{r['planner']},{r['scene']},{r['seed']},{r['status']},"
                f"{r['total_samples']},{r['path_length']!r},{r['delta_useful_ratio']!r}\n")
        h.update(line.encode())
    return h.hexdigest()
