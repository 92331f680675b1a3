"""The committed ``BENCH_*.json`` files speak the benchmark's vocabulary.

Each file records paired runs of ``perfbench/run.py``. Its workload and
metric names must be ones that ``BENCHMARK.json`` defines, so that a
misspelt or retired name cannot sit in a committed result unnoticed.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
END_TO_END = {m["name"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"] for m in BENCHMARK["per_layer"]}
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def dicts(node):
    """Every dict in a parsed JSON tree, the root included."""
    if isinstance(node, dict):
        yield node
        children = node.values()
    elif isinstance(node, list):
        children = node
    else:
        return
    for child in children:
        yield from dicts(child)


def test_bench_files_exist():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_names_only_defined_workloads_and_metrics(path):
    bench = json.loads(path.read_text())
    assert set(bench["workloads"]) <= WORKLOADS
    for run in bench["workloads"].values():
        assert set(run["metrics"]) <= END_TO_END
    for workload, sides in bench.get("trace", {}).items():
        assert workload in WORKLOADS
        for side in (sides["parent"], sides["change"]):
            assert {key for key in side if "." in key} <= PER_LAYER
    for node in dicts(bench):
        if isinstance(node.get("workload"), str):
            assert node["workload"] in WORKLOADS
        if isinstance(node.get("metrics"), dict):
            assert set(node["metrics"]) <= END_TO_END | PER_LAYER


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_claims_one_defined_metric_on_one_workload(path):
    claim = json.loads(path.read_text())["claim"]
    assert isinstance(claim["metric"], str) and claim["metric"] in END_TO_END
    assert isinstance(claim["workload"], str) and claim["workload"] in WORKLOADS
