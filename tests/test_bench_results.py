"""The committed benchmark results (BENCH_*.json at the repository root):
each holds one run of every workload BENCHMARK.json declares, with every
end-to-end metric in its declared unit, from a run whose checks all
passed and whose commands all succeeded."""

import json
import numbers
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RESULTS = sorted(ROOT.glob("BENCH_*.json"))


def test_results_committed():
    assert RESULTS


@pytest.mark.parametrize("path", RESULTS, ids=lambda p: p.name)
def test_every_workload_and_metric(path):
    data = json.loads(path.read_text(encoding="utf-8"))
    for key in ("seed", "cpu_count", "python", "numpy"):
        assert key in data, key
    for workload in BENCHMARK["workloads"]:
        result = data["workloads"][workload["name"]]
        assert result["correct"] is True, workload["name"]
        assert result["failed"] == 0, workload["name"]
        for metric in BENCHMARK["end_to_end"]:
            entry = result["metrics"][metric["name"]]
            assert entry["unit"] == metric["unit"], (workload["name"], metric["name"])
            assert isinstance(entry["value"], numbers.Real), (workload["name"], metric["name"])
