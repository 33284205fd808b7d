"""The sample budget ends a run in one place: `global_planner.run_search`
is the only library code that can catch the oracle's `BudgetExhausted`, so
every planner's budget stop is counted and timed the same way.  And it is
the only stop: the library raises nothing but `BudgetExhausted` and the
`ValueError` of bad input, which the CLI prints as a one-line error."""

import ast
from pathlib import Path

import sprint_planner

MODULES = sorted(Path(sprint_planner.__file__).parent.glob("*.py"))

# BudgetExhausted and every class it derives from
CATCHERS = {"BudgetExhausted", "RuntimeError", "Exception", "BaseException"}
# what library code may raise: the budget stop and the input error
RAISABLE = {"BudgetExhausted", "ValueError"}


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


def raised_names(source: str) -> list[str]:
    """The class each `raise` statement raises, in source order: the name of
    the class it calls or names, alone or as a module attribute.  A bare
    re-raise gives `<reraise>`, and any other expression `<expr>`."""
    def name(exc):
        if exc is None:
            return "<reraise>"
        if isinstance(exc, ast.Call):
            exc = exc.func
        if isinstance(exc, ast.Attribute):
            return exc.attr
        return exc.id if isinstance(exc, ast.Name) else "<expr>"

    raises = [n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Raise)]
    return [name(n.exc) for n in sorted(raises, key=lambda n: (n.lineno, n.col_offset))]


def test_library_raises_only_the_budget_stop_and_input_errors():
    raised = {p.name: set(raised_names(p.read_text(encoding="utf-8"))) for p in MODULES}
    assert {name: kinds - RAISABLE for name, kinds in raised.items() if kinds - RAISABLE} == {}


def test_finds_raised_names():
    source = (
        "raise ValueError('x')\n"
        "def f():\n    try:\n        pass\n    except KeyError:\n        raise\n"
        "    raise world.BudgetExhausted('y') from None\n"
        "class C:\n    def g(self):\n        raise RuntimeError\n"
        "        raise errors[0]\n"
    )
    assert raised_names(source) == ["ValueError", "<reraise>", "BudgetExhausted",
                                    "RuntimeError", "<expr>"]
