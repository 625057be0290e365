"""Smoke test of the benchmark itself: one short run per workload and mode.

    python3 -m pytest -q bench/test_smoke.py

Each workload, gated in BENCHMARK.json or not, runs one round (one op; one
grid pass on layer-sweep) with tracing off and on. Every metric named in
BENCHMARK.json must be present with its unit, no op may fail, the traced
run must leave a Chrome trace file that loads, and the gated workloads
together must measure every ucda module.
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)
GATED = [w["name"] for w in SPEC["workloads"]]
sys.path.insert(0, BENCH_DIR)
from run import WORKLOAD_ORDER as WORKLOADS  # noqa: E402
from tracing import MODULES  # noqa: E402
SEED = 3


def _run(cwd, workload, trace):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(SEED),
                             "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(proc):
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    return result


def _check_metrics(result, declared):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in declared}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result = _result(_run(ROOT, workload, 0))
    _check_metrics(result, SPEC["end_to_end"])
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["value"] > 0, m["name"]


@pytest.fixture(scope="module")
def traced():
    """Results of one traced run per workload, made on first use."""
    results = {}

    def get(workload):
        if workload not in results:
            results[workload] = _result(_run(ROOT, workload, 1))
        return results[workload]
    return get


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_writes_a_loadable_trace(workload, traced):
    result = traced(workload)
    _check_metrics(result, SPEC["per_layer"])
    path = os.path.join(BENCH_DIR, "out", f"trace-{workload}-s{SEED}.json")
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    events = doc["traceEvents"]
    assert events
    ids = {e["args"]["id"] for e in events}
    for e in events:
        assert e["ph"] == "X" and e["dur"] >= 0
        assert {"op", "parent", "id"} <= set(e["args"])
        assert e["args"]["parent"] == -1 or e["args"]["parent"] in ids
    assert any(e["name"] == "bench.simulate" for e in events)
    if workload == "decoder-upsample":
        assert result["metrics"]["patchdeconv.mult_ratio"]["value"] == 4.0


def test_gated_workloads_measure_every_module(traced):
    measured = set()
    for workload in GATED:
        for name, m in traced(workload)["metrics"].items():
            if m["value"] > 0:
                measured.add(name.split(".")[0])
    assert measured >= set(MODULES)


def test_fails_without_the_package(tmp_path):
    """With only BENCHMARK.json and the benchmark files, the run must fail."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, GATED[0], 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
