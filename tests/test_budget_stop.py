"""The sample budget ends a run in one place: `global_planner.run_search`
is the only library code that can catch the oracle's `BudgetExhausted`, so
every planner's budget stop is counted and timed the same way."""

import ast
from pathlib import Path

import sprint_planner

MODULES = sorted(Path(sprint_planner.__file__).parent.glob("*.py"))

# BudgetExhausted and every class it derives from
CATCHERS = {"BudgetExhausted", "RuntimeError", "Exception", "BaseException"}


def budget_catches(source: str) -> list[str]:
    """The name of the function around each `except` clause that can catch
    BudgetExhausted, in source order: a bare `except`, or one naming the
    class or a base of it, alone, in a tuple or as a module attribute.
    A clause outside any function counts as `<module>`."""
    found = []

    def names(node):
        if isinstance(node, ast.Tuple):
            return [n for elt in node.elts for n in names(elt)]
        if isinstance(node, ast.Attribute):
            return [node.attr]
        return [node.id] if isinstance(node, ast.Name) else []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ExceptHandler) and (
                    child.type is None or CATCHERS & set(names(child.type))):
                found.append(where)
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
            visit(child, inner)

    visit(ast.parse(source), "<module>")
    return found


def test_only_the_run_wrapper_catches_the_budget_stop():
    catches = {p.name: budget_catches(p.read_text(encoding="utf-8")) for p in MODULES}
    assert {name: where for name, where in catches.items() if where} == {
        "global_planner.py": ["run_search"]}


def test_finds_budget_catches():
    source = (
        "try:\n    pass\nexcept BudgetExhausted:\n    pass\n"
        "def f():\n    try:\n        pass\n    except (ValueError, world.BudgetExhausted):\n"
        "        pass\n"
        "    def g():\n        try:\n            pass\n        except:\n            pass\n"
        "    try:\n        pass\n    except RuntimeError as e:\n        pass\n"
        "class C:\n    def h(self):\n        try:\n            pass\n"
        "        except (KeyError, OSError):\n            pass\n"
        "        except Exception:\n            pass\n"
    )
    assert budget_catches(source) == ["<module>", "f", "g", "f", "h"]
