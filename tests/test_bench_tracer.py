"""The benchmark's tracer patches library functions by name: every name it
traces must still resolve, and uninstalling must restore the originals, so
that a refactor of the library cannot break `bench/run.py --trace 1`
unnoticed."""

import importlib.util
import sys
from pathlib import Path

import crossings.cli  # noqa: F401  (loads every module the tracer patches)

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(modname, attr):
    owner = sys.modules[f"crossings.{modname}"]
    *path, name = attr.split(".")
    for part in path:  # "Graph.q_pairs" is a method, read from the class dict
        owner = getattr(owner, part)
    return owner.__dict__[name] if path else getattr(owner, name)


def test_install_wraps_every_traced_name_and_uninstall_restores():
    tracer = load_tracer()
    originals = {entry: resolve(*entry) for entry in tracer.TRACED}
    modules = {k: m for k, m in sys.modules.items() if k.startswith("crossings")}
    namespaces = {k: dict(vars(m)) for k, m in modules.items()}
    t = tracer.Tracer()
    t.install()
    try:
        for entry, original in originals.items():
            wrapped = resolve(*entry)
            assert wrapped is not original, entry
            assert wrapped.__wrapped__ is original, entry
    finally:
        t.uninstall()
    for entry, original in originals.items():
        assert resolve(*entry) is original, entry
    # every name other modules imported a traced function under is back too
    for k, m in modules.items():
        assert vars(m) == namespaces[k], k
