"""Tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

from run import tail  # noqa: E402
from spans import Span, SpanLog, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


def _span(index, start, end, parent=None):
    return Span(index, f"s{index}", start, end, parent, 0, 0)


def test_self_time_subtracts_children():
    spans = [_span(0, 0.0, 10.0), _span(1, 1.0, 3.0, 0), _span(2, 5.0, 6.0, 0)]
    assert self_times(spans) == {0: 7.0, 1: 2.0, 2: 1.0}


def test_self_time_counts_overlapping_children_once():
    spans = [_span(0, 0.0, 10.0), _span(1, 1.0, 4.0, 0), _span(2, 3.0, 5.0, 0)]
    assert self_times(spans)[0] == pytest.approx(6.0)


def test_self_time_clips_children_to_parent_and_ignores_grandchildren():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 8.0, 12.0, 0),   # runs past its parent's end
        _span(2, 2.0, 4.0, 0),
        _span(3, 2.5, 3.0, 2),    # grandchild: only its parent subtracts it
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 2.0 - 2.0)
    assert selfs[2] == pytest.approx(1.5)
    assert selfs[3] == pytest.approx(0.5)


def test_span_log_links_parents_and_shares_step_id():
    log = SpanLog(rank=1)
    with log.span("step", 7):
        with log.span("forward"):
            pass
    log.enabled = False
    with log.span("step", 8):
        pass
    step, forward = log.spans
    assert (forward.parent, forward.step, forward.rank) == (step.id, 7, 1)
    assert step.start <= forward.start <= forward.end <= step.end


def test_tail_leaves_ten_samples_beyond():
    value, pct = tail(list(range(100)))
    assert value == 89 and sum(v > value for v in range(100)) == 10
    assert pct == pytest.approx(90.0)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_emits_every_metric_with_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
        if not trace:
            assert emitted["value"] > 0
