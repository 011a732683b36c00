"""Perf — repair-provenance ledger overhead on a serving workload.

Acceptance: installing a :class:`RepairLedger` (JSONL file sink) around
the monitored serving path — ``recommend_many`` plus per-series
imputation, every repair producing "repair" and "impute" rows with
cluster assignment, feature hashing, and quality stats — must cost
**less than 5%** wall time versus the same traffic with the ledger
disabled.  The two arms run as :data:`N_PAIRS` interleaved
bare/ledgered pairs and their medians are compared, so a slow spell on
a shared host lands on both arms instead of on one.

The ledgered arm also re-reads its JSONL output and asserts one repair
row per served series, so the overhead number is known to come from a
ledger that was genuinely recording full lineage.

The end-to-end benchmark (``benchmarks/e2e``) runs with the ledger off,
so this is the one gate on its cost.
"""

from __future__ import annotations

import os
import time

import numpy as np

from conftest import emit
from repro import ADarts, ModelRaceConfig, TimeSeries
from repro.clustering.atlas import ClusterAtlas
from repro.observability import RepairLedger, read_ledger, use_ledger
from repro.pipeline.scoring import ScoreWeights

TINY = os.environ.get("REPRO_BENCH_TINY", "") not in ("", "0")
#: Interleaved bare/ledgered pairs behind the median overhead.
N_PAIRS = 15
MAX_OVERHEAD = 0.05  # 5%
LENGTH = 96 if TINY else 144
N_SERVE = 16 if TINY else 48

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
    # Register the two families as atlas representatives so the ledgered
    # arm pays the full per-repair cost (assignment + NCC included).
    atlas = ClusterAtlas()
    atlas.add("bench:c0", "linear", np.sin(t))
    atlas.add(
        "bench:c1",
        "mean",
        np.mean([s.values for s in series[len(series) // 2:]], axis=0),
    )
    engine.cluster_atlas_ = atlas
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


def _serve(engine, traffic):
    recommendations = engine.recommend_many(traffic)
    for rec, series in zip(recommendations, traffic):
        rec.impute(series)
    return recommendations


def _wall(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_ledger_overhead_under_five_percent(tmp_path):
    engine = _trained_engine()
    traffic = _faulty_traffic()
    _serve(engine, traffic)  # warm caches/imports outside either timed arm

    ledger_paths = []

    def ledgered():
        path = tmp_path / f"ledger{len(ledger_paths)}.jsonl"
        ledger_paths.append(path)
        with RepairLedger(path) as ledger, use_ledger(ledger):
            _serve(engine, traffic)

    bare_times, ledgered_times = [], []
    for _ in range(N_PAIRS):
        bare_times.append(_wall(lambda: _serve(engine, traffic)))
        ledgered_times.append(_wall(ledgered))
    bare_s = float(np.median(bare_times))
    ledgered_s = float(np.median(ledgered_times))

    overhead = ledgered_s / bare_s - 1.0
    emit(
        "ledger overhead (serving workload)",
        [
            f"bare       : {bare_s:.4f}s (median of {N_PAIRS})",
            f"ledgered   : {ledgered_s:.4f}s (median of {N_PAIRS})",
            f"overhead   : {overhead:+.2%} (budget {MAX_OVERHEAD:.0%})",
            f"series     : {N_SERVE} per pass",
        ],
    )

    # -- the ledgered arm really recorded full lineage -------------------
    rows = read_ledger(ledger_paths[-1])
    repairs = [r for r in rows if r["kind"] == "repair"]
    imputes = [r for r in rows if r["kind"] == "impute"]
    assert len(repairs) == N_SERVE, "one repair row per served series"
    assert len(imputes) == N_SERVE, "one impute row per repaired series"
    assert all(r["data"]["cluster"] for r in repairs)
    assert all("plausibility_z" in r["data"]["quality"] for r in imputes)

    assert overhead < MAX_OVERHEAD, (
        f"ledger overhead {overhead:.2%} exceeds {MAX_OVERHEAD:.0%} "
        f"(bare {bare_s:.4f}s vs ledgered {ledgered_s:.4f}s)"
    )
