"""Smoke test of the benchmark itself, at tiny input sizes.

    python3 -m pytest perfbench/test_smoke.py

Every metric named in BENCHMARK.json must be reported, and printed, with its
unit; and an output corrupted on purpose must count as a failed op, which
shows that the per-op checks are live.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import worker  # noqa: E402

SPEC = json.loads((worker.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {
    "certify_file": {"n": 64, "m": 256},
    "solve_inmem": {"dense": (64, 256), "sparse": (128, 144)},
    "oracle_campaign": {"n_range": (3, 6), "m_cap": 8},
    "tight_search": {"n_max": 6, "trials": 50},
}
SECONDS = 0.4


def test_workloads_match_benchmark_json():
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOAD_NAMES)
    assert sorted(run.WORKLOAD_NAMES) == sorted(worker.WORKLOADS) == sorted(TINY)


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_reported_with_unit(workload, trace, tmp_path):
    record = worker.measure(workload, 7, SECONDS, trace, tmp_path, TINY[workload])
    result = record["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in expected)
    text = "\n".join(run.describe(record))
    for m in expected:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert isinstance(metrics[m["name"]]["value"], float)
        assert any(line.split()[:1] == [m["name"]] and line.split()[2] == m["unit"]
                   for line in text.splitlines()), m["name"]
    if not trace:
        assert "fail_rate" in text and record["env"]["llc_size"]


def _corrupt(module, attr, change):
    original = getattr(module, attr)

    def corrupted(*args, **kwargs):
        return change(original(*args, **kwargs))

    setattr(module, attr, corrupted)


CORRUPTIONS = {
    # certificate claims more than the 2-approximation allows
    "certify_file": ("cli", "certify", lambda r: (
        dataclasses.replace(r[0], upper_bound=2 * r[0].leaf_count), r[1])),
    # tree whose leaf set disagrees with its parent links
    "solve_inmem": ("solver", "tree", lambda r: (
        dataclasses.replace(r[0], leaf_set=frozenset()), r[1])),
    # oracle optimum beyond the guarantee
    "oracle_campaign": ("oracle", "max_leaf_exact", lambda r: dataclasses.replace(
        r, opt_leaves=r.opt_leaves + 100)),
    "tight_search": ("tightness", "max_leaf_exact", lambda r: dataclasses.replace(
        r, opt_leaves=r.opt_leaves + 100)),
}


@pytest.mark.parametrize("workload", sorted(CORRUPTIONS))
def test_corrupted_output_counts_as_failed_op(workload, tmp_path):
    ml, wl = worker.Setup(workload, 7, tmp_path, TINY[workload]).rep()
    module, attr, change = CORRUPTIONS[workload]
    _corrupt(getattr(ml, module), attr, change)
    durations, ok, _records, errors = worker.run_loop(wl, ml, SECONDS)
    assert durations and not any(ok)
    assert errors and "check failed" in errors[0]


def test_changed_exact_counter_is_flagged(tmp_path):
    path = tmp_path / "exact.json"
    first = [[{"steps_W2": 3, "touches": 40}, None], [{"steps_W2": 3, "touches": 40}, None]]
    assert worker.determinism_gate(first, path, identical_inputs=True) == []
    assert worker.determinism_gate(first, path, identical_inputs=True) == []
    changed = [[{"steps_W2": 3, "touches": 41}, None]]
    assert worker.determinism_gate(changed, path, identical_inputs=True)
    uneven = [[{"steps_W2": 3}, None], [{"steps_W2": 4}, None]]
    assert worker.determinism_gate(uneven, tmp_path / "other.json", identical_inputs=True)
