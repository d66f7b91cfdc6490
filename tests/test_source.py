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
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}" for name in names
                      if name.split(".")[0] in banned]
    assert not found, f"concurrency imports in the library: {found}"
