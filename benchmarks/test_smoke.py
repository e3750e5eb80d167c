"""Smoke test for the benchmark itself: every workload at a tiny size.

Run with ``python3 -m pytest benchmarks/test_smoke.py`` from the repository
root.  It checks that each run reports every metric BENCHMARK.json names, with
no errors and no wrong answers.
"""

import json
import os

import pytest

import run

run.import_program()

TINY = {
    "construct": {"cycles": 2, "slots": ((4, True), (4, False), (6, True))},
    "query": {"constructions": 1, "prefixes": (3, 4), "batch_keys": 400},
    "corpus": {"count": 6},
}

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def test_declared_metrics_match_the_runner():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in SPEC["per_layer"]] == list(run.PER_LAYER)
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert units == {**run.END_TO_END, **run.PER_LAYER}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_end_to_end_run(workload):
    out = run.measure(workload, seed=3, seconds=0.3, trace=False, sizes=TINY[workload])
    result = out["result"]
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert out["reported"]["error_frac"] == 0
    assert out["reported"]["wrong_frac"] == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def test_traced_run():
    out = run.measure("corpus", seed=3, seconds=0.3, trace=True, sizes=TINY["corpus"])
    assert set(out["result"]["metrics"]) == set(run.PER_LAYER)
    assert out["reported"]["error_frac"] == 0
    assert out["reported"]["wrong_frac"] == 0
    assert out["result"]["correct"]
