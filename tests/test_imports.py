"""Every name a library module, test file or tool imports is used in that
file or listed in its `__all__`; and importing the library costs numpy
only: scipy is loaded by the first `KdTree` built or delta-useful ratio,
inside the function that needs it, never by a module import, and no
baseline trial's wall time is charged for it."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_behaviour_pin import PINNED, PINNED_BASELINES, PINNED_RATIOS, PINNED_SPRINT_PATHS

import sprint_planner

MODULES = sorted(Path(sprint_planner.__file__).parent.glob("*.py"))
REPO = Path(__file__).resolve().parent.parent
SCRIPTS = sorted([*(REPO / "tests").glob("*.py"), *(REPO / "tools").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import a.b` binds `a`
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


# library modules keep their bare file names as ids
@pytest.mark.parametrize("path", MODULES + SCRIPTS, ids=lambda p: (
    p.name if p in MODULES else f"{p.parent.name}/{p.name}"))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_finds_unused_imports():
    source = ("from __future__ import annotations\nimport os\nimport os.path\n"
              "import numpy as np\nfrom a import b, c as d\n__all__ = ['b']\nprint(np, d)\n")
    assert unused_imports(source) == ["os"]


def module_level_imports(source: str) -> list[str]:
    """Absolute module names imported when the module itself is imported:
    every import outside a function body, class bodies and `if` blocks
    included."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                found.extend(a.name for a in child.names)
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                found.append(child.module)
            visit(child)

    visit(ast.parse(source))
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_level_scipy_import(path):
    imported = module_level_imports(path.read_text(encoding="utf-8"))
    assert [m for m in imported if m.partition(".")[0] == "scipy"] == []


def test_finds_module_level_imports():
    source = ("import numpy as np, scipy\nfrom scipy.spatial import cKDTree\nfrom . import world\n"
              "if np:\n    import scipy.sparse\n"
              "class K:\n    import json\n    def f(self):\n        import os\n"
              "def g():\n    from scipy.spatial import cKDTree\n")
    assert module_level_imports(source) == ["numpy", "scipy", "scipy.spatial", "scipy.sparse",
                                            "json"]


# a fresh interpreter imports every library module, runs a SPRINT trial
# through global_planner.plan (no sample log, so no delta-useful ratio), then
# the same RRT trial (kd-trees and a ratio) twice, noting after each step
# whether scipy is loaded and each trial's wall time
_LAZY_SCIPY = """
import hashlib, importlib, json, pkgutil, sys
import numpy as np
import sprint_planner
from sprint_planner.bench import run_trial
from sprint_planner.global_planner import plan
from sprint_planner.params import SprintParams
from sprint_planner.scenes import fixture_endpoints, fixture_lam, fixture_scene
from sprint_planner.world import CollisionOracle

def scipy_loaded():
    return any(m.partition(".")[0] == "scipy" for m in sys.modules)

def digest(path):
    return hashlib.sha256(path.tobytes()).hexdigest()[:16]

def sprint(name, seed):
    res = plan(*fixture_endpoints(name), CollisionOracle(fixture_scene(name), budget=50_000),
               SprintParams(lam=fixture_lam(name)), np.random.default_rng(seed))
    return [res.status.value, res.total_samples, digest(res.path), scipy_loaded()]

def rrt(name, seed):
    rec, res, _ = run_trial("rrt", fixture_scene(name), *fixture_endpoints(name), seed,
                            SprintParams(lam=fixture_lam(name)), 50_000)
    return [rec.wall_time_s, rec.status, rec.total_samples, digest(res.path),
            repr(rec.delta_useful_ratio), scipy_loaded()]

for m in pkgutil.iter_modules(sprint_planner.__path__):
    importlib.import_module("sprint_planner." + m.name)
print(json.dumps({"imported": scipy_loaded(),
                  "sprint": sprint("narrow_passage_6d", 4),
                  "rrt": rrt("narrow_passage_2d", 0),
                  "rrt_again": rrt("narrow_passage_2d", 0),
                  "spatial": "scipy.spatial" in sys.modules}))
"""


def test_scipy_loads_at_first_kd_tree_use():
    src = Path(sprint_planner.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", _LAZY_SCIPY], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    got = json.loads(out.stdout)
    assert got["imported"] is False
    assert got["sprint"] == [*PINNED["narrow_passage_6d"][4],
                             PINNED_SPRINT_PATHS["narrow_passage_6d"][4], False]
    first, *rrt = got["rrt"]
    second, *again = got["rrt_again"]
    assert rrt == again == [*PINNED_BASELINES["rrt", "narrow_passage_2d"][0],
                            PINNED_RATIOS["rrt", "narrow_passage_2d"][0], True]
    assert got["spatial"] is True
    # the first trial built the process's first kd-tree, and scipy's import
    # (0.3-0.4 s when it was timed) came before its clock started
    assert first <= 3 * second + 0.05
