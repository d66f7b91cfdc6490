"""Checks on the library source itself."""

import ast
import re
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


def test_threads_only_in_the_estimator():
    # Monte Carlo counts each slice in one worker thread while the calling
    # thread draws the next: about 1.45x on the 50-cycle at T = 5 * 10^4 in
    # a warm process, on a 2-CPU host, where two counting workers gave
    # 1.16-1.20x and whole blocks in two threads 0.82x at n = 60. No other
    # module needs threads, and no module needs processes
    allowed = {("estimator.py", "threading"), ("estimator.py", "queue")}
    banned = {"threading", "queue", "concurrent", "multiprocessing"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            found += [f"{path.name}:{node.lineno}: {name}" for name in _imported(node)
                      if name.split(".")[0] in banned
                      and (path.name, name.split(".")[0]) not in allowed]
    assert not found, f"concurrency imports in the library: {found}"


def test_q_pairs_only_in_oracles():
    # Q has O(m^2) elements: only the brute-force oracles may enumerate it
    allowed = {("census.py", "freq_brute")}
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


def test_no_neighbour_sets_read_from_a_graph():
    # a Graph is its edges and degrees: code that needs neighbour sets builds
    # them itself, over the vertices it reads
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in ("adj", "_adj")
    ]
    assert not found, f"neighbour sets read as an attribute: {found}"


def test_graphette_census_independent_of_the_fast_path():
    # the census is an oracle that freq_fast is checked against: if it
    # reached the fast path's code, it would check that code against itself
    tree = ast.parse((PACKAGE / "census.py").read_text(encoding="utf-8"))
    functions = {top.name: top for top in tree.body if isinstance(top, ast.FunctionDef)}

    def names(function):
        return {getattr(node, "id", None) or getattr(node, "attr", None)
                for node in ast.walk(function)}

    reached, todo = set(), ["count_graphette"]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += names(functions[name]) & functions.keys()
    assert {"_count_c4", "_p3_list", "_p4_list", "_count_matchings"} <= reached
    found = {(name, used) for name in reached
             for used in names(functions[name]) & {"freq_fast", "_graph_sums",
                                                   "_two_core", "_rank_core"}}
    assert not found, f"census functions that use the fast path: {sorted(found)}"


def test_formula_sheet_in_one_function_that_reads_no_graph():
    # _graph_sums gathers the sums and _freq_from_sums applies the formulas
    # to them alone, so a sums pass over other inputs can reuse the sheet
    tree = ast.parse((PACKAGE / "product_types.py").read_text(encoding="utf-8"))
    functions = {top.name: top for top in tree.body if isinstance(top, ast.FunctionDef)}
    built = {name for name, function in functions.items() for node in ast.walk(function)
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "FreqVector"}
    checked = {name for name, function in functions.items() for node in ast.walk(function)
               if isinstance(node, ast.Raise) and "f12" in ast.unparse(node)}
    assert built == checked == {"_freq_from_sums"}
    read = [f"line {node.lineno}: .{node.attr}"
            for node in ast.walk(functions["_freq_from_sums"])
            if isinstance(node, ast.Attribute)]
    assert not read, f"attributes read by _freq_from_sums: {read}"


def test_every_budget_has_its_readme_row():
    # a module-level constant that check_budget enforces is a limit users
    # meet, so the README's budget table must name it
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = re.search(r"^\| constant \| module \|.*\n((?:\|.*\n)+)", readme, flags=re.M)
    assert table, "README has no budget table"
    documented = {name for row in table.group(1).splitlines()
                  for name in re.findall(r"`(\w+)`", row.split("|")[1])}
    limits, found = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        constants = {target.id for top in tree.body if isinstance(top, ast.Assign)
                     for target in top.targets if isinstance(target, ast.Name)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "check_budget"
                    and getattr(node.args[1], "id", None) in constants):
                limits.add(node.args[1].id)
                if node.args[1].id not in documented:
                    found.append(f"{path.name}:{node.lineno}: {node.args[1].id}")
    assert limits, "no check_budget call with a module-level limit"
    assert not found, f"budgets without a README row: {found}"


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


def test_readme_library_example_runs():
    # the README's python example must keep running, so that no name it
    # uses is deleted or renamed while the README still shows it
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```$", readme.read_text(encoding="utf-8"),
                        flags=re.M | re.S)
    assert blocks, "README has no python example"
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_no_argparse_internals_read():
    # argparse's private names change between Python versions; the CLI
    # declares its options itself and reads that declaration
    private = {"_actions", "_defaults", "_option_string_actions", "_subparsers",
               "_StoreAction"}
    found = [
        f"{path.name}:{node.lineno}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        for name in (getattr(node, "attr", None), getattr(node, "id", None))
        if name in private
    ]
    assert not found, f"argparse internals read in the library: {found}"
