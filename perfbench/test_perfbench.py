"""Tests for the benchmark's own statistics, tracing and smoke runs.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import inputs, stats, workloads  # noqa: E402
from perfbench.run import load_metrics, measure  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402


# ---------------------------------------------------------------------------
# percentiles and the sample-count rule

def test_percentile_is_nearest_rank():
    values = list(range(10, 0, -1))
    assert stats.percentile(values, 50) == 5
    assert stats.percentile(values, 90) == 9
    assert stats.percentile(values, 100) == 10
    assert stats.percentile([7.5], 50) == 7.5
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1], 0)


@pytest.mark.parametrize("n, tail", [
    (15, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
    (999, 90.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, tail):
    assert stats.tail_percentile(n) == tail
    if tail is not None:
        assert stats.beyond(n, tail) >= stats.TAIL_MIN_BEYOND


def test_timing_summary_reports_count_median_and_tail():
    values = [float(i) for i in range(1, 101)]
    assert stats.timing_summary(values) == {"n": 100, "p50": 50.0, "p90": 90.0}
    assert stats.timing_summary([1.0] * 12) == {"n": 12, "p50": 1.0}
    assert stats.timing_summary([]) == {"n": 0}


# ---------------------------------------------------------------------------
# span self time

def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert stats.covered([(1, 3), (2, 5), (8, 12)], 0, 10) == 6
    assert stats.covered([(2, 4), (2.5, 3)], 0, 10) == 2
    assert stats.covered([(-5, -1), (11, 20)], 0, 10) == 0
    assert stats.covered([], 0, 10) == 0


def test_self_time_subtracts_children_not_grandchildren():
    spans = [
        (1, None, "root", None, 0.0, 10.0),
        (2, 1, "child", None, 1.0, 4.0),
        (3, 2, "grandchild", None, 1.5, 3.5),
        (4, 1, "late", None, 9.0, 14.0),   # another thread, outlives root
    ]
    selfs = stats.self_times(spans)
    assert selfs[1] == pytest.approx(10 - 3 - 1)
    assert selfs[2] == pytest.approx(3 - 2)
    assert selfs[3] == pytest.approx(2)
    assert selfs[4] == pytest.approx(5)


# ---------------------------------------------------------------------------
# the tracer

class _Thing:
    def work(self, n):
        return n * 2

    def items(self):
        yield from range(3)


def test_tracer_nests_spans_and_restores_originals():
    original = _Thing.__dict__["work"]
    tracer = Tracer()
    tracer.patch(_Thing, "work", "thing.work")
    tracer.patch(_Thing, "items", "thing.items")
    with tracer.span("outer") as outer:
        assert _Thing().work(4) == 8
        assert list(_Thing().items()) == [0, 1, 2]
    tracer.restore()
    assert _Thing.__dict__["work"] is original
    work = tracer.by_name("thing.work")
    assert len(work) == 1 and work[0][1] == outer
    assert tracer.counts["thing.items.calls"] == 1
    assert len(tracer.by_name("thing.items")) == 4      # three items, then the stop
    (span,) = tracer.by_name("outer")
    assert span[1] is None and span[4] <= work[0][4] <= work[0][5] <= span[5]


def test_tracer_records_a_span_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    wrapped = tracer.wrap("boom", boom, leave=lambda *a: pytest.fail("leave on error"))
    with pytest.raises(KeyError):
        wrapped()
    assert len(tracer.by_name("boom")) == 1


# ---------------------------------------------------------------------------
# inputs

def test_inputs_repeat_per_seed_and_keep_their_size():
    assert inputs.scripts_site(3, 12) == inputs.scripts_site(3, 12)
    sizes = []
    for seed in (1, 2):
        doc = inputs.scripts_site(seed, 30)
        sizes.append(sum(len(p["body"]) for p in doc["pages"]))
        assert sum(p["kind"] == "malicious" for p in doc["pages"]) == 10
    assert abs(sizes[0] - sizes[1]) / sizes[0] < 0.02
    doc = inputs.backlog_site(5, 50)
    fixture = inputs.noisy_fixture(doc, 5)
    assert inputs.expected_malicious(doc, fixture) == 20 - 2


def test_hostile_scripts_fail_the_grammar():
    from websift.features import extract_features
    from websift.synthweb import load_site_spec, render_page

    doc = inputs.scripts_site(4, 20, min_kb=2, max_kb=4)
    errors = sum(extract_features(render_page(p, 4), "text/html")["parsingerror"]
                 for p in load_site_spec(doc).values())
    assert errors == 2


# ---------------------------------------------------------------------------
# smoke runs of each workload, in-process on a few pages

def _measure(monkeypatch, workload: str, trace: int, pages: int) -> tuple[dict, dict]:
    monkeypatch.setitem(workloads.WORKLOADS, workload,
                        replace(workloads.WORKLOADS[workload], pages=pages, setups=2))
    args = argparse.Namespace(workload=workload, seed=3, seconds=0, trace=trace)
    result, info, problems = measure(args)
    assert not problems
    return result, info["detail"]


@pytest.mark.parametrize("workload", ["capture", "scripts", "backlog"])
def test_smoke_run_is_correct_and_complete(monkeypatch, workload):
    pages = 12 if workload == "scripts" else 24
    result, detail = _measure(monkeypatch, workload, 0, pages)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > pages
    assert list(result["metrics"]) == list(load_metrics("end_to_end"))
    assert all(m["value"] > 0 for m in result["metrics"].values())
    _, again = _measure(monkeypatch, workload, 0, pages)
    assert detail["digest"] == again["digest"]


def test_smoke_traced_run_reports_every_layer(monkeypatch):
    result, _ = _measure(monkeypatch, "capture", 1, 24)
    assert result["correct"]
    assert list(result["metrics"]) == list(load_metrics("per_layer"))
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["wire.icap_transact.per_fetch"] == 2
    assert metrics["contentprep.decode_body.per_record"] == 2
    assert metrics["agents.proxy_request.calls"] == 24


def test_benchmark_json_workloads_exist():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in doc["workloads"]} <= set(workloads.WORKLOADS)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "capture", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
