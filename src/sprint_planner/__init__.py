"""Sample-efficient probability-informed tree planner, RRT baselines, and a
benchmark harness over synthetic n-dimensional configuration spaces."""

from .geometry import as_config, dist, polyline_length
from .global_planner import PlanResult, PlanStatus, SprintParams, SprintVariant, plan
from .local_planner import LocalResult, LocalStatus, local_search
from .world import Box, CollisionOracle, Scene, Sphere, load_scene, save_scene

__all__ = [
    "as_config", "dist", "polyline_length",
    "PlanResult", "PlanStatus", "SprintParams", "SprintVariant", "plan",
    "LocalResult", "LocalStatus", "local_search",
    "Box", "CollisionOracle", "Scene", "Sphere", "load_scene", "save_scene",
]
