"""Which modules each command loads, each run in a fresh interpreter: the
exact commands need no arrays and must start without numpy, only `scan`
and `validate` load the closed forms and the validation battery, and each
command compiles only the generators, census and counters it runs and
builds an argparse parser only for a line it cannot read as plain."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import crossings
from freq_loops import CORRUPTED_DEGREES, required_outcome

SRC = str(Path(crossings.__file__).parents[1])

# runs crossings.cli.main on its arguments, then reports on stderr the exit
# code and whether numpy was loaded
PROBE = """
import sys
from crossings.cli import main
try:
    rc = main(sys.argv[1:])
except SystemExit as exc:
    rc = exc.code
print(f"probe {rc} {'numpy' in sys.modules}", file=sys.stderr)
"""


def fresh(code, *argv, optimize=False):
    """Run `code` in a new interpreter, under `python -O` with `optimize`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    flags = ["-O"] if optimize else []
    return subprocess.run([sys.executable, *flags, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=120, check=False)


def probe(*argv):
    """Exit code, stdout and whether numpy was loaded, for one command."""
    proc = fresh(PROBE, *argv)
    _, rc, loaded = proc.stderr.strip().splitlines()[-1].split()
    return int(rc), proc.stdout, loaded == "True"


# the modules every command shares; bench/tracer.py patches all six after
# importing crossings.cli
CLI_MODULES = ["crossings.arrangement", "crossings.cli", "crossings.estimator",
               "crossings.graphs", "crossings.moments", "crossings.product_types"]

LOADED = """
import sys
import crossings.cli
print(sorted(k for k in sys.modules if k.startswith("crossings.")))
print(sorted(k for k in ("crossings.closed_forms", "crossings.validation",
                         "dataclasses", "numpy") if k in sys.modules))
"""


def test_cli_import_loads_only_shared_modules():
    proc = fresh(LOADED)
    assert proc.returncode == 0, proc.stderr
    loaded, unwanted = proc.stdout.splitlines()
    assert loaded == repr(CLI_MODULES)
    assert unwanted == "[]"


# PROBE, recording the prog of each parser it builds, then which of the
# modules that load on first use were loaded, and those progs
MAP_PROBE = """
import crossings.cli
built = []
init = crossings.cli._Parser.__init__

def spy(self, *args, **kwargs):
    init(self, *args, **kwargs)
    built.append(self.prog)

crossings.cli._Parser.__init__ = spy
""" + PROBE + """
print(sorted(k for k in ("crossings._counters", "crossings.census", "crossings.generators")
             if k in sys.modules), file=sys.stderr)
print(built, file=sys.stderr)
"""
ALL = ["crossings", *(f"crossings {name}" for name in
                      ["analyze", "generate", "estimate", "ztest", "scan", "validate"])]


@pytest.mark.parametrize("argv,modules,parsers", [
    (["analyze", "--input", "GRAPH", "--out", "json"], [], []),
    (["ztest", "--input", "GRAPH", "--observed", "3"], [], []),
    (["ztest", "--input", "GRAPH", "--arrangement", "ARR", "--out", "csv"], [], []),
    (["analyze", "--family", "cycle", "--n", "10"], ["crossings.generators"], []),
    (["analyze", "--graph6", "G6"], ["crossings.generators"], []),
    (["generate", "--input", "GRAPH"], ["crossings.generators"], []),
    (["scan", "--family", "cycle", "--nmax", "6", "--mode", "theory"],
     ["crossings.generators"], []),
    (["estimate", "--input", "GRAPH"], ["crossings._counters"], []),
    (["estimate", "--input", "GRAPH", "--exhaustive-limit", "3", "--samples", "50"],
     ["crossings._counters"], []),
    (["validate", "trees", "--nmax", "5"],
     ["crossings._counters", "crossings.census", "crossings.generators"],
     ALL),
    (["--version"], [], ALL),
], ids=["analyze-input", "ztest-observed", "ztest-arrangement", "analyze-family",
        "analyze-graph6", "generate-input", "scan-theory", "estimate-exhaustive",
        "estimate-mc", "validate", "version"])
def test_module_map(argv, modules, parsers, tmp_path):
    graph, arrangement, g6 = tmp_path / "g.txt", tmp_path / "arr.txt", tmp_path / "c4.g6"
    graph.write_text("7 8\n1 2\n2 3\n3 1\n3 4\n4 5\n5 6\n6 4\n6 7\n")
    arrangement.write_text("5 2 7 1 3 6 4\n")
    g6.write_text("Cr\n")
    files = {"GRAPH": str(graph), "ARR": str(arrangement), "G6": str(g6)}
    proc = fresh(MAP_PROBE, *(files.get(a, a) for a in argv))
    *_, status, loaded, built = proc.stderr.strip().splitlines()
    assert status.startswith("probe 0 "), proc.stderr
    assert proc.stdout
    assert loaded == repr(modules)
    assert built == repr(parsers)


# reports on stderr the thread that imports the counters, then runs PROBE
COUNTERS_THREAD = """
import sys, threading
from importlib.abc import MetaPathFinder

class Spy(MetaPathFinder):
    def find_spec(self, name, path, target=None):
        if name == "crossings._counters":
            print("counters", threading.current_thread().name, file=sys.stderr)

sys.meta_path.insert(0, Spy())
""" + PROBE


def test_monte_carlo_loads_the_counters_before_its_worker():
    # a module the worker thread imports allocates in that thread's malloc
    # arena, which raised an estimate process's peak RSS by 0.1-0.4 MB
    proc = fresh(COUNTERS_THREAD, "estimate", "--family", "cycle", "--n", "12",
                 "--samples", "200")
    *_, imported, status = proc.stderr.strip().splitlines()
    assert status == "probe 0 True", proc.stderr
    assert imported == "counters MainThread"


# the package's public names, those of closed_forms and validation loading
# on first access
PUBLIC = [
    "ALPHA_RLA", "BudgetError", "DELTA_RLA", "EstimateReport", "FAMILIES",
    "FreqVector", "GRAPHETTE_MULTIPLIERS", "GRAPHETTE_SHAPES",
    "Graph", "GraphFormatError", "LayoutConstants", "LinearArrangement",
    "PRODUCT_TYPES", "RLA", "ScanRow", "TYPE_VERTEX_COUNT", "ValidationReport",
    "chebyshev_pbound", "check_graph", "classify", "closed_expectation",
    "closed_freq", "closed_variance", "count_graphette", "crossings",
    "degree_stats", "erdos_renyi", "exact_moments", "exhaustive_moments",
    "expectation_rla", "format_edge_list", "format_rational", "freq_brute",
    "freq_fast", "from_graph6", "from_pruefer", "gen_family", "is_q_zero",
    "monte_carlo_moments", "parse_arrangement", "parse_edge_list", "q_edge",
    "scan_family", "size_q", "validate_er", "validate_families",
    "validate_graph6_corpus", "validate_trees", "variance_from_freq",
    "variance_rla", "z_score",
]


def test_public_names():
    assert crossings.__all__ == PUBLIC
    assert dir(crossings) == PUBLIC
    for name in PUBLIC:
        assert getattr(crossings, name) is not None
    namespace = {}
    exec("from crossings import *", namespace)
    assert set(PUBLIC) <= set(namespace)
    with pytest.raises(AttributeError, match="no_such_name"):
        crossings.no_such_name  # noqa: B018


def test_import_leaves_numpy_unloaded():
    proc = fresh("import sys, crossings; print('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("argv", [
    ["analyze", "--family", "cycle", "--n", "10"],
    ["ztest", "--family", "linear_tree", "--n", "5", "--arrangement", "ARR"],
    ["ztest", "--family", "cycle", "--n", "5", "--observed", "2"],
    ["generate", "--family", "quasi_star", "--n", "12"],
    ["scan", "--family", "cycle", "--nmin", "4", "--nmax", "8", "--mode", "theory"],
    ["--version"],
], ids=["analyze", "ztest-arrangement", "ztest-observed", "generate", "scan-theory",
        "version"])
def test_exact_commands_leave_numpy_unloaded(argv, tmp_path):
    arrangement = tmp_path / "arr.txt"
    arrangement.write_text("2 4 1 3 5\n")
    argv = [str(arrangement) if a == "ARR" else a for a in argv]
    rc, out, loaded = probe(*argv)
    assert rc == 0
    assert out
    assert not loaded


@pytest.mark.parametrize("argv,expected", [
    (["estimate", "--family", "cycle", "--n", "5"], "exhaustive"),
    (["estimate", "--family", "cycle", "--n", "12", "--samples", "200"], "monte_carlo"),
    (["generate", "--family", "erdos_renyi", "--n", "12", "--p", "0.3",
      "--seed", "4"], "12 "),
    (["validate", "er", "--n", "8", "--p", "0.3", "--trials", "2"], '"success": true'),
    (["validate", "families", "--nmax", "5"], '"success": true'),
], ids=["estimate-exhaustive", "estimate-mc", "generate-er", "validate-er",
        "validate-families"])
def test_array_commands_load_numpy_and_work(argv, expected):
    rc, out, loaded = probe(*argv)
    assert rc == 0
    assert expected in out
    assert loaded


# PROBE, then which of the modules that only Monte Carlo needs were loaded
MC_PROBE = PROBE + """
print(sorted(k for k in ("numpy", "queue") if k in sys.modules), file=sys.stderr)
"""


@pytest.mark.parametrize("argv,loaded", [
    (["analyze", "--family", "cycle", "--n", "10"], []),
    (["ztest", "--family", "cycle", "--n", "5", "--observed", "2"], []),
    (["estimate", "--family", "cycle", "--n", "12", "--samples", "200"], ["numpy", "queue"]),
], ids=["analyze", "ztest", "estimate-mc"])
def test_only_monte_carlo_loads_queue(argv, loaded):
    proc = fresh(MC_PROBE, *argv)
    *_, status, modules = proc.stderr.strip().splitlines()
    assert status == f"probe 0 {bool(loaded)}", proc.stderr
    assert modules == repr(loaded)


@pytest.mark.parametrize("argv", [
    ["ztest", "--input", "GRAPH", "--arrangement", "ARR", "--out", "json"],
    ["analyze", "--input", "GRAPH", "--out", "json"],
], ids=["ztest", "analyze"])
def test_optimized_interpreter_prints_the_same_bytes(argv, tmp_path):
    graph, arrangement = tmp_path / "g.txt", tmp_path / "arr.txt"
    graph.write_text("7 8\n1 2\n2 3\n3 1\n3 4\n4 5\n5 6\n6 4\n6 7\n")
    arrangement.write_text("5 2 7 1 3 6 4\n")
    argv = [{"GRAPH": str(graph), "ARR": str(arrangement)}.get(a, a) for a in argv]
    # -O strips assert statements; the program's checks must not rely on them
    plain, optimized = fresh(PROBE, *argv), fresh(PROBE, *argv, optimize=True)
    assert plain.stderr.splitlines()[-1] == "probe 0 False", plain.stderr
    assert optimized.stderr.splitlines()[-1] == "probe 0 False", optimized.stderr
    assert plain.stdout and optimized.stdout == plain.stdout


# degree tables wrong at one vertex: the f12 self-check must catch each
# wherever the loop form of freq_fast catches it, with or without -O
TESTS = str(Path(__file__).parent)
SELF_CHECK = f"""
import sys
sys.path.insert(0, {TESTS!r})
from crossings import freq_fast
from freq_loops import CORRUPTED_DEGREES, corrupted, outcome
for case in CORRUPTED_DEGREES:
    print(*case, outcome(freq_fast, corrupted(*case)))
print("optimized", not __debug__)
"""


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "optimized"])
def test_self_check_raises_under_both_interpreters(optimize):
    proc = fresh(SELF_CHECK, optimize=optimize)
    assert proc.returncode == 0, proc.stderr
    *raised, optimized = proc.stdout.splitlines()
    assert raised == [f"{family} {v} {delta} {required_outcome(family, v, delta)}"
                      for family, v, delta in CORRUPTED_DEGREES]
    assert optimized == f"optimized {optimize}"
