"""Tests of the benchmark itself: tiny inputs of each workload run to their
end through ``vekg run``, and each checker rejects corrupted output.

    python3 -m pytest perfbench -q
"""

import copy
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks      # noqa: E402
import run         # noqa: E402
import workloads   # noqa: E402

TINY = {
    "street": lambda d: workloads.street(d, 3, scenario="street"),
    "crowd": lambda d: workloads.crowd(d, 3, duration_ms=4000, walkers=4),
    "clips": lambda d: workloads.clips(d, 3, names=("horse_ride", "traffic")),
}


def _run_tiny(workload, tmp_path, trace=False):
    clips = TINY[workload](str(tmp_path / "inputs"))
    outcomes = []
    for clip in clips:
        prep = run.Prepared(workload, clip)
        outcome = run.invoke(prep, str(tmp_path), trace)
        notes = checks.read_jsonl(str(tmp_path / "notes.jsonl"))
        records = checks.read_jsonl(str(tmp_path / "notes.jsonl.metrics.jsonl"))
        outcomes.append((prep, outcome, notes, records))
    return outcomes


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_workload_runs_to_its_end(workload, tmp_path):
    for prep, outcome, notes, records in _run_tiny(workload, tmp_path):
        assert outcome.errors == []
        assert outcome.failed == 0
        assert outcome.frames == prep.frames
        assert len(outcome.latencies_ms) == len(prep.windows)
        assert all(lat > 0 for lat in outcome.latencies_ms)
        assert outcome.setup_s > 0 and outcome.timed_s > 0
        assert notes or prep.clip.role == "negative"


def _rejects(prep, notes, records):
    return any(prep.check(notes, records))


def _first_positive(outcomes):
    return next(o for o in outcomes if o[2])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_checker_rejects_dropped_notification(workload, tmp_path):
    prep, _, notes, records = _first_positive(_run_tiny(workload, tmp_path))
    assert not _rejects(prep, notes, records)
    assert _rejects(prep, notes[1:], records)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_checker_rejects_wrong_participant(workload, tmp_path):
    prep, _, notes, records = _first_positive(_run_tiny(workload, tmp_path))
    bad = copy.deepcopy(notes)
    bad[0]["participants"][-1] += 1
    assert _rejects(prep, bad, records)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_checker_rejects_wrong_edge_count(workload, tmp_path):
    prep, _, notes, records = _first_positive(_run_tiny(workload, tmp_path))
    bad = copy.deepcopy(records)
    bad[-2 if "accuracy" in bad[-1] else -1]["reduction"]["vekg_edges"] += 2
    assert _rejects(prep, notes, bad)


def test_clip_checker_rejects_disagreeing_accuracy_line(tmp_path):
    prep, _, notes, records = _first_positive(_run_tiny("clips", tmp_path))
    bad = copy.deepcopy(records)
    bad[-1]["accuracy"]["tp"] += 1
    assert _rejects(prep, notes, bad)


def test_greedy_counts_one_to_one():
    truth = [{"kind": "punch", "start_ms": 0, "end_ms": 100},
             {"kind": "punch", "start_ms": 200, "end_ms": 300}]
    notes = [{"kind": "punch", "rule_id": "p", "start_ms": 10, "end_ms": 100},
             {"kind": "punch", "rule_id": "p", "start_ms": 20, "end_ms": 90},
             {"kind": "fall_detection", "rule_id": "f", "start_ms": 200, "end_ms": 300}]
    assert checks.greedy_counts(notes, truth) == (1, 2, 1)


def test_window_closing_frames():
    frames = [(0, []), (5, []), (10, []), (35, [])]
    w = checks.Windows(frames, 10)
    assert w.bounds == [(0, 10), (10, 20), (20, 30), (30, 40)]
    assert w.closing == [2, 3, 3, 4]


def test_traced_run_reports_layers(tmp_path):
    (_, outcome, _, _), = _run_tiny("street", tmp_path, trace=True)
    trace = outcome.trace
    assert trace["counts"]["geometry.inside_region_calls"] > 0
    assert "graph.relation_evals" not in trace["counts"]
    assert trace["calls"]["ingest.parse_frame"] == outcome.frames
    assert trace["calls"]["rules.high_volume_traffic.search"] == len(outcome.latencies_ms)
    assert os.path.getsize(str(tmp_path / "report.json.spans.jsonl")) > 0
