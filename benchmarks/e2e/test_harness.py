"""Pure tests of the benchmark harness (no program runs, seconds to run).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import types

import pytest

import run
import stats
import trace


# ---------------------------------------------------------------------------
# Median, IQR and the tail rule
# ---------------------------------------------------------------------------
def test_median_and_iqr_match_statistics_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 6.0, 8.0, 10.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert stats.median(values) == 5.5
    assert stats.quartiles(values) == (q1, q2, q3)
    assert stats.iqr(values) == q3 - q1
    assert stats.spread(values) == pytest.approx((q3 - q1) / 5.5)
    assert stats.quartiles([4.0]) == (4.0, 4.0, 4.0)
    assert stats.iqr([4.0]) == 0.0


def test_percentile_interpolates_like_numpy():
    values = [10.0, 20.0, 30.0, 40.0]
    assert stats.percentile(values, 0) == 10.0
    assert stats.percentile(values, 100) == 40.0
    assert stats.percentile(values, 50) == 25.0
    assert stats.percentile(values, 90) == pytest.approx(37.0)


@pytest.mark.parametrize("n", [20, 21, 57, 100, 750, 999, 1000, 4000])
def test_tail_keeps_ten_samples_beyond_it(n):
    values = [float(i) for i in range(n)]
    p, value = stats.tail(values)
    assert p <= 99.0
    assert sum(v > value for v in values) >= stats.TAIL_BEYOND
    if n >= 1000:
        assert p == 99.0
    else:
        # No higher percentile keeps ten samples beyond it.
        assert p == pytest.approx(100.0 * (1 - stats.TAIL_BEYOND / n))


@pytest.mark.parametrize("n", [1, 2, 5, 19])
def test_tail_of_a_small_sample_is_its_slowest(n):
    values = [float(i) for i in range(n)]
    assert stats.tail(values) == (100.0, float(n - 1))


# ---------------------------------------------------------------------------
# Open-loop latency from the due time
# ---------------------------------------------------------------------------
def test_latency_counts_a_stall_from_the_due_time():
    due = [0.01 * i for i in range(10)]
    service = 0.002
    stall_at, stall = 3, 0.100
    sent, clock = [], 0.0
    for i, d in enumerate(due):
        clock = max(clock, d) + (stall if i == stall_at else 0.0)
        sent.append(clock)
    received = [s + service for s in sent]
    latency, lateness = stats.due_latencies(due, sent, received)
    assert latency[:stall_at] == pytest.approx([service] * stall_at)
    # Every request queued behind the stall is charged for it.
    for i in range(stall_at, 10):
        assert latency[i] == pytest.approx(received[i] - due[i])
        assert latency[i] > stall - 0.01 * (i - stall_at)
    assert lateness[stall_at] == pytest.approx(stall)
    assert lateness[:stall_at] == [0.0] * stall_at
    # Timing from the send instead would hide the stall entirely.
    assert all(r - s == pytest.approx(service) for s, r in zip(sent, received))


# ---------------------------------------------------------------------------
# Self time
# ---------------------------------------------------------------------------
def span(name, start, end, sid, parent, ids=None, n=None, pid=1):
    return trace.Span(name, start, end, pid, 7, sid, parent, ids, n)


def test_self_time_subtracts_layer_children_through_transparent_spans():
    layers = ("a", "b", "c", "d", "f")
    spans = [
        span("a", 0.0, 10.0, 1, 0),
        span("b", 1.0, 3.0, 2, 1),
        span("c", 4.0, 8.0, 3, 1),
        span("d", 5.0, 6.0, 4, 3),
        span("e", 8.5, 9.0, 5, 1),  # not a layer: its time stays with "a"
        span("f", 8.6, 8.8, 6, 5),
    ]
    self_time = {key[1]: v for key, v in trace.self_times(spans, layers).items()}
    assert self_time[1] == pytest.approx(10.0 - 2.0 - 4.0 - 0.2)
    assert self_time[3] == pytest.approx(3.0)
    assert self_time[4] == pytest.approx(1.0)
    assert self_time[6] == pytest.approx(0.2)
    assert 5 not in self_time
    totals = trace.layer_totals(spans, layers)
    assert sum(totals.values()) == pytest.approx(10.0)
    assert totals["a"] == pytest.approx(3.8)


def test_self_time_of_recursive_calls_sums_to_the_outer_call():
    spans = [
        span("x", 0.0, 4.0, 1, 0),
        span("x", 1.0, 3.0, 2, 1),
        span("x", 1.5, 2.0, 3, 2),
    ]
    assert trace.layer_totals(spans, ("x",))["x"] == pytest.approx(4.0)


def test_covered_merges_overlapping_children_and_clips():
    assert trace.covered([(1, 3), (2, 4), (6, 12)], 0, 10) == pytest.approx(7.0)
    assert trace.covered([], 0, 10) == 0.0


# ---------------------------------------------------------------------------
# Per-request partition
# ---------------------------------------------------------------------------
MARKS = {
    "due": 100.0, "submitted": 100.001, "batch_start": 100.006,
    "payload_start": 100.0065, "extract_start": 100.0066,
    "extract_end": 100.0145, "recommend_end": 100.016,
    "repair_start": 100.0161, "repair_end": 100.0166,
    "payload_end": 100.0167, "received": 100.018,
}


def test_partition_sums_exactly_to_the_latency():
    parts = trace.partition(MARKS)
    assert tuple(parts) == trace.SERVE_LAYERS
    assert math.fsum(parts.values()) == pytest.approx(
        MARKS["received"] - MARKS["due"], rel=1e-9, abs=1e-12
    )
    assert all(v >= 0 for v in parts.values())
    exact = {k: float(i) for i, k in enumerate(MARKS)}  # exactly representable
    assert sum(trace.partition(exact).values()) == exact["received"] - exact["due"]


def test_request_marks_attribute_batched_requests_across_processes():
    m = MARKS
    spans = [
        span("submit", 99.9, m["submitted"], 1, 0, ids=["r1"], pid=10),
        span("submit", 99.9, m["submitted"], 2, 0, ids=["r2"], pid=10),
        span("run_batch", m["batch_start"], 100.017, 3, 0, ids=["r1", "r2"], pid=10),
        span("payload", m["payload_start"], m["payload_end"], 1, 0,
             ids=["r1", "r2"], pid=20),
        span("recommend", 100.0066, m["recommend_end"], 2, 1, pid=20),
        span("extract", m["extract_start"], m["extract_end"], 3, 2, pid=20),
        span("repair", m["repair_start"], m["repair_end"], 4, 1, pid=20),
    ]
    requests = {"r1": (m["due"], m["received"]), "r2": (m["due"], m["received"]),
                "r3": (m["due"], m["received"])}
    marks = trace.request_marks(spans, requests)
    assert marks["r1"] == m and marks["r2"] == m
    assert marks["r3"] is None
    means, n = trace.serve_breakdown(spans, requests)
    assert n == 2
    assert sum(means.values()) == pytest.approx(m["received"] - m["due"])


def test_sums_to_tolerates_five_percent():
    assert trace.sums_to(0.96, 1.0)
    assert trace.sums_to(1.04, 1.0)
    assert not trace.sums_to(0.94, 1.0)
    assert not trace.sums_to(0.0, 0.0)


# ---------------------------------------------------------------------------
# Wrappers and the span buffer
# ---------------------------------------------------------------------------
def test_wrappers_record_nesting_ids_and_flush(tmp_path, monkeypatch):
    module = types.ModuleType("e2e_fake_program")

    class Worker:
        def outer(self, items):
            return self.inner(items) + 1

        def inner(self, items):
            return len(items)

        @classmethod
        def build(cls):
            return cls()

    module.Worker = Worker
    module.helper = lambda x: x * 2
    monkeypatch.setitem(sys.modules, "e2e_fake_program", module)
    recorder = trace.Recorder(tmp_path)
    trace.install(recorder, (
        ("e2e_fake_program", "Worker.outer", "outer",
         lambda args, result: [str(i) for i in args[1]], None),
        ("e2e_fake_program", "Worker.inner", "inner", None, lambda args: len(args[1])),
        ("e2e_fake_program", "Worker.build", "build", None, None),
        ("e2e_fake_program", "helper", "helper", None, None),
    ))
    worker = module.Worker.build()
    assert isinstance(worker, Worker)
    assert worker.outer([1, 2, 3]) == 4
    assert module.helper(5) == 10
    recorder.flush()
    spans = {s.name: s for s in trace.load_spans(tmp_path)}
    assert set(spans) == {"outer", "inner", "build", "helper"}
    assert spans["inner"].parent == spans["outer"].sid
    assert spans["outer"].parent == 0
    assert spans["outer"].ids == ["1", "2", "3"]
    assert spans["inner"].n == 3
    assert spans["outer"].start <= spans["inner"].start <= spans["inner"].end
    assert spans["inner"].end <= spans["outer"].end


def test_chrome_trace_merges_processes(tmp_path):
    spans = [span("a", 1.0, 2.0, 1, 0, pid=1), span("b", 1.5, 1.7, 1, 0, pid=2)]
    path = tmp_path / "t.json"
    trace.write_chrome_trace(path, spans, [("request", 0.5, 2.5, 3, {"ids": ["r"]})])
    events = json.loads(path.read_text())["traceEvents"]
    assert {e["pid"] for e in events} == {1, 2, 3}
    assert min(e["ts"] for e in events) < 0 <= events[0]["ts"]


# ---------------------------------------------------------------------------
# Bounds
# ---------------------------------------------------------------------------
def test_bound_checks_respect_the_direction():
    assert stats.worse_by("lower", 100.0, 110.0) == pytest.approx(0.10)
    assert stats.worse_by("higher", 100.0, 90.0) == pytest.approx(0.10)
    assert stats.worse_by("lower", 100.0, 90.0) == pytest.approx(-0.10)
    assert stats.within_bound("lower", 0.10, 100.0, 109.0)
    assert not stats.within_bound("lower", 0.10, 100.0, 111.0)
    assert stats.within_bound("higher", 0.10, 100.0, 91.0)
    assert not stats.within_bound("higher", 0.10, 100.0, 89.0)
    assert stats.within_bound("higher", 0.02, 0.78, 0.90)
    # From a zero base, only a move in the worse direction is a regression.
    assert stats.worse_by("higher", 0.0, 5.0) == -math.inf
    assert stats.worse_by("higher", 0.0, -5.0) == math.inf
    assert stats.worse_by("lower", 0.0, 5.0) == math.inf
    assert stats.worse_by("lower", 0.0, -5.0) == -math.inf
    assert stats.worse_by("lower", 0.0, 0.0) == 0.0
    assert stats.within_bound("higher", 0.05, 0.0, 5.0)
    assert not stats.within_bound("lower", 0.05, 0.0, 5.0)
    with pytest.raises(ValueError):
        stats.worse_by("sideways", 1.0, 1.0)


def test_benchmark_json_lists_the_runners_workloads():
    import workloads

    names = [w["name"] for w in run.load_config()["workloads"]]
    assert names == list(workloads.WORKLOADS)
