"""Which commands load numpy, each run in a fresh interpreter: the exact
commands need no arrays and must start without it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import crossings

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


def fresh(code, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=120, check=False)


def probe(*argv):
    """Exit code, stdout and whether numpy was loaded, for one command."""
    proc = fresh(PROBE, *argv)
    _, rc, loaded = proc.stderr.strip().splitlines()[-1].split()
    return int(rc), proc.stdout, loaded == "True"


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
], ids=["estimate-exhaustive", "estimate-mc", "generate-er", "validate-er"])
def test_array_commands_load_numpy_and_work(argv, expected):
    rc, out, loaded = probe(*argv)
    assert rc == 0
    assert expected in out
    assert loaded
