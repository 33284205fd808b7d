"""Every metered sample goes through the oracle's budgeted `query`: no
library module but `world.py`, which defines it, touches `.is_free`, so no
draw site can get round the sample budget."""

import ast
from pathlib import Path

import pytest

import sprint_planner

MODULES = sorted(p for p in Path(sprint_planner.__file__).parent.glob("*.py")
                 if p.name != "world.py")


def is_free_uses(source: str) -> list[int]:
    """Sorted line numbers of every `<expr>.is_free` attribute access, so
    calls and bound-method aliases both count."""
    return sorted(n.lineno for n in ast.walk(ast.parse(source))
                  if isinstance(n, ast.Attribute) and n.attr == "is_free")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_draw_site_bypasses_the_budget(path):
    assert is_free_uses(path.read_text(encoding="utf-8")) == []


def test_finds_is_free_uses():
    source = ("ok = oracle.query(q)\nfree = oracle.is_free(q)\n"
              "check = self.oracle.is_free\nis_free = 1\n")
    assert is_free_uses(source) == [2, 3]
