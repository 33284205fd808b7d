"""Every name a library module imports is used in that module or listed in
its `__all__`."""

import ast
from pathlib import Path

import pytest

import sprint_planner

MODULES = sorted(Path(sprint_planner.__file__).parent.glob("*.py"))


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_finds_unused_imports():
    source = ("from __future__ import annotations\nimport os\nimport os.path\n"
              "import numpy as np\nfrom a import b, c as d\n__all__ = ['b']\nprint(np, d)\n")
    assert unused_imports(source) == ["os"]
