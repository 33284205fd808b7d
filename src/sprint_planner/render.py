"""Deterministic SVG rendering of 2-D scenes, samples, trees, and paths."""

from __future__ import annotations

import numpy as np

from .world import Box, Scene, Sphere

_SIZE = 600.0
_MARGIN = 30.0


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def check_renderable(scene: Scene) -> None:
    """Raise ValueError unless `render_svg` can draw the scene."""
    if scene.dim != 2:
        raise ValueError(f"SVG rendering supports 2-D scenes only, got d={scene.dim}")


def render_svg(scene: Scene, samples=None, trees=None, path=None,
               total_samples: int | None = None) -> str:
    """Render a 2-D scene with oracle samples, search trees, and the final path.

    samples is a list of (config, free) pairs; trees a sequence of
    `geometry.Tree`, each non-root node drawn as one segment from its
    parent, tree by tree in node order; path an (n, 2) polyline or None.
    """
    check_renderable(scene)
    lo, hi = scene.lower, scene.upper
    span = hi - lo
    scale = (_SIZE - 2 * _MARGIN) / float(np.max(span))

    def sx(x: float) -> float:
        return _MARGIN + (x - lo[0]) * scale

    def sy(y: float) -> float:
        # flip so larger y is up
        return _SIZE - _MARGIN - (y - lo[1]) * scale

    def polyline(pts, stroke: str, width: str) -> str:
        xy = " ".join(f"{_fmt(sx(p[0]))},{_fmt(sy(p[1]))}" for p in pts)
        return f'<polyline points="{xy}" fill="none" stroke="{stroke}" stroke-width="{width}"/>'

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{int(_SIZE)}" height="{int(_SIZE)}" '
        f'viewBox="0 0 {int(_SIZE)} {int(_SIZE)}">',
        f'<rect x="{_fmt(sx(lo[0]))}" y="{_fmt(sy(hi[1]))}" '
        f'width="{_fmt(span[0] * scale)}" height="{_fmt(span[1] * scale)}" '
        f'fill="white" stroke="black" stroke-width="1"/>',
    ]
    for obs in scene.obstacles:
        if isinstance(obs, Box):
            parts.append(
                f'<rect x="{_fmt(sx(obs.min[0]))}" y="{_fmt(sy(obs.max[1]))}" '
                f'width="{_fmt((obs.max[0] - obs.min[0]) * scale)}" '
                f'height="{_fmt((obs.max[1] - obs.min[1]) * scale)}" '
                f'fill="#888888" stroke="none"/>')
        elif isinstance(obs, Sphere):
            parts.append(
                f'<circle cx="{_fmt(sx(obs.center[0]))}" cy="{_fmt(sy(obs.center[1]))}" '
                f'r="{_fmt(obs.radius * scale)}" fill="#888888" stroke="none"/>')
    for q, free in samples or []:
        color = "#2a9d2a" if free else "#d43a3a"
        parts.append(
            f'<circle cx="{_fmt(sx(q[0]))}" cy="{_fmt(sy(q[1]))}" r="1.5" '
            f'fill="{color}"/>')
    for tree in trees or ():
        for q, parent in zip(tree.points, tree.parents):
            if parent != -1:
                parts.append(polyline((tree.points[parent], q), "#5577cc", "0.8"))
    if path is not None:
        parts.append(polyline(np.asarray(path), "#111111", "2.5"))
    if total_samples is not None:
        parts.append(
            f'<text x="{_fmt(_MARGIN)}" y="{_fmt(_MARGIN - 10)}" font-size="14" '
            f'font-family="monospace">samples: {total_samples}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
