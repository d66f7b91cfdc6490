"""Checks on the library source itself."""

import ast
from pathlib import Path

import crossings

PACKAGE = Path(crossings.__file__).parent


def test_no_assert_statements():
    # python -O strips assert statements, so a runtime invariant written as
    # one silently stops being checked; raise an explicit error instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the library: {found}"


def test_single_threaded():
    # the estimator's work is interpreter-bound, so threads or processes
    # would add memory and code paths without making it faster
    banned = {"threading", "concurrent", "multiprocessing"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            found += [f"{path.name}:{node.lineno}: {name}" for name in _imported(node)
                      if name.split(".")[0] in banned]
    assert not found, f"concurrency imports in the library: {found}"


def test_q_pairs_only_in_oracles():
    # Q has O(m^2) elements: only the brute-force oracles may enumerate it
    allowed = {("product_types.py", "freq_brute"), ("validation.py", "check_graph")}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "graphs.py":
            continue
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            if (path.name, getattr(top, "name", None)) in allowed:
                continue
            found += [
                f"{path.name}:{node.lineno}"
                for node in ast.walk(top)
                if "q_pairs" in (getattr(node, "attr", None), getattr(node, "id", None),
                                 getattr(node, "value", None))
            ]
    assert not found, f"q_pairs outside the oracles: {found}"


def test_budget_error_raised_only_by_check_budget():
    # one policy: every budget refuses through graphs.check_budget, so each
    # refusal has the same wording and no step grows a check of its own
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            if (path.name, getattr(top, "name", None)) == ("graphs.py", "check_budget"):
                continue
            # BudgetError(...) constructs one, and a bare `raise BudgetError` too
            made = [node.func if isinstance(node, ast.Call) else node.exc
                    for node in ast.walk(top) if isinstance(node, (ast.Call, ast.Raise))]
            found += [f"{path.name}:{node.lineno}" for node in made
                      if "BudgetError" in (getattr(node, "id", None),
                                           getattr(node, "attr", None))]
    assert not found, f"BudgetError constructed outside check_budget: {found}"


def _imported(node) -> list[str]:
    """The absolute module names an import statement names; [] for any
    other node."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module]
    return []


def _import_time_nodes(node):
    """The nodes of a statement that run when its module is imported: all
    but those inside a function."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        return
    yield node
    for child in ast.iter_child_nodes(node):
        yield from _import_time_nodes(child)


def test_numpy_not_imported_at_module_level():
    # importing numpy costs every command about 0.15 s of start-up; only the
    # functions that build arrays or draw random numbers may import it
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            stmts = [top]
            if isinstance(top, ast.If) and ast.unparse(top.test) in (
                    "TYPE_CHECKING", "typing.TYPE_CHECKING"):
                stmts = top.orelse  # the body runs only under a type checker
            found += [f"{path.name}:{node.lineno}: {name}"
                      for stmt in stmts for node in _import_time_nodes(stmt)
                      for name in _imported(node) if name.split(".")[0] == "numpy"]
    assert not found, f"module-level numpy imports in the library: {found}"
