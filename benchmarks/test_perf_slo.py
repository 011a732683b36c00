"""Perf — SLO engine overhead on the monitored serving path.

Acceptance: running :class:`InferenceMonitor` with the stock burn-rate
policies — windowed good/bad counts per policy, per-slice bad counts,
and one burn-rate evaluation per request — must cost **less than 5%**
wall time versus the identical monitored traffic with
``slo_policies=()``.  Both arms record into the same telemetry sink
(sketch views, mix, slice scorecards), so the gate measures the policy
cost on top of the shared sink.  Each arm runs three times and the
minimum is compared (the standard noise-robust estimator for wall-clock
microbenchmarks).

The instrumented arm also asserts the tracker really recorded one SLO
event per served series and that the sketch-backed p99 is populated, so
the overhead number is known to come from a live SLO plane.

Writes the ``slo_serving`` workload into ``BENCH_slo.json`` for the CI
regression gate (``check_regression.py``) and the ``repro bench
trend`` table.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

import numpy as np

from conftest import emit
from repro import ADarts, ModelRaceConfig, TimeSeries
from repro.observability import InferenceMonitor
from repro.pipeline.scoring import ScoreWeights

TINY = os.environ.get("REPRO_BENCH_TINY", "") not in ("", "0")
N_RUNS = 3
MAX_OVERHEAD = 0.05  # 5%
LENGTH = 96 if TINY else 144
N_SERVE = 16 if TINY else 48
BENCH_JSON = pathlib.Path(__file__).resolve().parent.parent / "BENCH_slo.json"

FAST_CONFIG = ModelRaceConfig(
    n_partial_sets=2, n_folds=2, max_elite=2, random_state=0,
    weights=ScoreWeights(alpha=0.5, beta=0.25, gamma=0.0),
)


def _trained_engine():
    rng = np.random.default_rng(17)
    t = np.linspace(0, 4 * np.pi, LENGTH)
    series, labels = [], []
    for i in range(8 if TINY else 16):
        values = np.sin(t * (1 + 0.05 * i)) + 0.05 * rng.normal(size=LENGTH)
        series.append(TimeSeries(values, name=f"sine{i}"))
        labels.append("linear")
    for i in range(8 if TINY else 16):
        series.append(
            TimeSeries(0.5 * np.cumsum(rng.normal(size=LENGTH)), name=f"walk{i}")
        )
        labels.append("mean")
    engine = ADarts(
        config=FAST_CONFIG, classifier_names=["knn", "decision_tree"]
    )
    X = engine.extractor.extract_many(series)
    engine.fit_features(X, np.array(labels))
    return engine


def _faulty_traffic():
    rng = np.random.default_rng(23)
    t = np.linspace(0, 4 * np.pi, LENGTH)
    out = []
    for i in range(N_SERVE):
        values = np.sin(t * (1 + 0.03 * i)) + 0.05 * rng.normal(size=LENGTH)
        lo = 10 + (i % 5)
        values[lo : lo + LENGTH // 6] = np.nan
        out.append(TimeSeries(values, name=f"live{i}"))
    return out


def _serve(monitor, traffic):
    # One monitored request per series — the worst case for per-request
    # SLO evaluation cost.
    for series in traffic:
        monitor.recommend_many([series])


def _min_wall(fn, runs=N_RUNS):
    best = float("inf")
    for _ in range(runs):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_slo_overhead_under_five_percent():
    engine = _trained_engine()
    traffic = _faulty_traffic()
    # Warm caches/imports outside either timed arm.
    _serve(InferenceMonitor(engine, slo_policies=()), traffic)

    def bare():
        _serve(InferenceMonitor(engine, slo_policies=()), traffic)

    bare_s = _min_wall(bare)

    monitors = []

    def instrumented():
        monitor = InferenceMonitor(engine)
        monitors.append(monitor)
        _serve(monitor, traffic)

    slo_s = _min_wall(instrumented)

    overhead = slo_s / bare_s - 1.0
    emit(
        "SLO engine overhead (serving workload)",
        [
            f"bare       : {bare_s:.4f}s (min of {N_RUNS})",
            f"with SLOs  : {slo_s:.4f}s (min of {N_RUNS})",
            f"overhead   : {overhead:+.2%} (budget {MAX_OVERHEAD:.0%})",
            f"series     : {N_SERVE} per pass, 1 per request",
        ],
    )

    doc = {}
    if BENCH_JSON.exists():
        try:
            doc = json.loads(BENCH_JSON.read_text())
        except ValueError:
            doc = {}
    doc["slo_serving"] = {
        "bare_s": round(bare_s, 4),
        "slo_s": round(slo_s, 4),
        "n_series": N_SERVE,
        "length": LENGTH,
        "overhead": round(overhead, 4),
    }
    BENCH_JSON.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")

    # -- the instrumented arm really tracked SLOs ------------------------
    tracker = monitors[-1].slo_tracker
    assert tracker is not None
    status = tracker.status()
    assert status["n_events"] == N_SERVE, "one SLO event per served series"
    assert status["latency_sketch"]["p99"] > 0.0
    assert any(key.startswith("imputer:") for key in status["slices"])

    assert overhead < MAX_OVERHEAD, (
        f"SLO overhead {overhead:.2%} exceeds {MAX_OVERHEAD:.0%} "
        f"(bare {bare_s:.4f}s vs instrumented {slo_s:.4f}s)"
    )
