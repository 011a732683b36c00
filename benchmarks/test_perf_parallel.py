"""Perf — serial vs. engine wall time for the training hot paths.

Measures the fixed synthetic workloads below under (a) the plain serial
path and (b) the engine arm — the feature cache, or
``ParallelConfig(n_jobs=4)`` with the score memo — then writes
``BENCH_parallel.json`` at the repo root so future PRs have a perf
trajectory::

    {workload: {serial_s, parallel_s, n_jobs, speedup}}

Workloads:

* ``extract_many`` — a corpus in which every distinct series appears six
  times (realistic for labeling, where faulty variants of one series are
  re-featurized).  The engine arm installs the content-addressed
  :class:`FeatureCache`, so repeated series are extracted once; the
  uncached arm extracts every row.  Extraction has no worker fan-out
  (``n_jobs`` is recorded as 1): both arms run the same block kernels
  in-process, and the speedup is the dedup.
* ``race`` — :data:`RACE_RERUNS` consecutive ModelRaces over the *same*
  synthetic classification snapshot (the steady state of iterative
  labeling, where the race is re-run after every corpus tweak).  The
  engine arm shares one content-addressed :class:`ScoreMemo` across the
  re-races, so every fold evaluation after the first race is a memo hit;
  like ``extract_many``'s cache dedup, that is what produces the speedup
  on a single-core box.
* ``labeling`` — cluster-representative imputer races across a small
  Water corpus.

``race`` and ``labeling`` run the *auto* backend: historically they were
forced onto the process backend and recorded 0.1-0.3x "speedups" (fork +
pickle overhead on sub-second workloads).  The cost-aware auto selection
(first-task probe + per-label EWMA, see ``ParallelConfig.resolve_backend``)
now keeps cheap batches serial and folds tiny tasks into larger chunks,
so those entries must not regress below ~1x; the resolved backends are
recorded alongside the timings ("serial" meaning auto kept the batch
in-process).  The ``extract_many`` and ``race`` arms take the best of
:data:`REPEATS` runs to suppress scheduler noise.  The two ``labeling``
arms run the same few-millisecond serial path, so best-of-N taken one
arm after the other let a slow spell land on one arm only (0.62x on
a 2-vCPU host); they run as :data:`LABEL_PAIRS` interleaved ABAB pairs and
compare medians.

Set ``REPRO_BENCH_TINY=1`` to shrink every workload (CI smoke mode); the
JSON schema and the correctness assertions are identical in both modes.
The acceptance gate asserts that the best observed speedup is >= 1.5x and
that parallel outputs match the serial ones exactly (determinism is
tested exhaustively in ``tests/test_parallel_determinism.py``).
"""

from __future__ import annotations

import json
import os
import pathlib
import time

import numpy as np

from conftest import emit
from repro.clustering.labeling import ClusterLabeler
from repro.core.config import ModelRaceConfig
from repro.core.modelrace import ModelRace
from repro.datasets import load_category
from repro.features import FeatureExtractor
from repro.parallel import (
    FeatureCache,
    ParallelConfig,
    ScoreMemo,
    engine_stats,
)
from repro.pipeline.pipeline import make_seed_pipelines
from repro.pipeline.scoring import ScoreWeights
from repro.timeseries import TimeSeries

TINY = os.environ.get("REPRO_BENCH_TINY", "") not in ("", "0")
N_JOBS = 4
#: Cost-aware auto selection — the recommended config for mixed workloads.
AUTO_PARALLEL = ParallelConfig(n_jobs=N_JOBS, backend="auto")
BENCH_JSON = pathlib.Path(__file__).resolve().parent.parent / "BENCH_parallel.json"
#: Best-of-N timing repeats for the noise-prone sub-second workloads.
REPEATS = 5
#: Interleaved serial/auto pairs behind the labeling arm's median ratio.
LABEL_PAIRS = 30
#: Consecutive races over one snapshot in the ``race`` workload (the
#: amortized re-race pattern the ScoreMemo exists for).
RACE_RERUNS = 3

#: gamma=0 keeps race scores wall-clock free so arms are comparable.
BENCH_WEIGHTS = ScoreWeights(alpha=0.5, beta=0.25, gamma=0.0)


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _timed_best(fn, repeats: int = REPEATS):
    """Best-of-N wall time (and the last result, for assertions)."""
    best, result = float("inf"), None
    for _ in range(repeats):
        result, seconds = _timed(fn)
        best = min(best, seconds)
    return result, best


def _timed_pairs(fn_a, fn_b, pairs: int = LABEL_PAIRS):
    """Median wall times of two arms run as interleaved ABAB pairs.

    Returns ``(result_a, median_a, result_b, median_b)`` with the last
    result of each arm, for assertions.
    """
    times_a, times_b = [], []
    for _ in range(pairs):
        result_a, seconds = _timed(fn_a)
        times_a.append(seconds)
        result_b, seconds = _timed(fn_b)
        times_b.append(seconds)
    return result_a, float(np.median(times_a)), result_b, float(np.median(times_b))


def _backends_used(fn):
    """Run ``fn`` and report which engine backends executed tasks."""
    before = {
        backend: stats.get("tasks", 0)
        for backend, stats in engine_stats().items()
    }
    result = fn()
    used = sorted(
        backend
        for backend, stats in engine_stats().items()
        if stats.get("tasks", 0) > before.get(backend, 0)
    )
    return result, used


def _record(
    results: dict,
    workload: str,
    serial_s: float,
    parallel_s: float,
    backend: str = "process",
    n_jobs: int = N_JOBS,
):
    results[workload] = {
        "serial_s": round(serial_s, 4),
        "parallel_s": round(parallel_s, 4),
        "n_jobs": n_jobs,
        "backend": backend,
        "speedup": round(serial_s / parallel_s, 3) if parallel_s else float("inf"),
    }


def _merge_json(results: dict) -> dict:
    """Merge this run's workloads into BENCH_parallel.json and return it."""
    doc = {}
    if BENCH_JSON.exists():
        try:
            doc = json.loads(BENCH_JSON.read_text())
        except ValueError:
            doc = {}
    doc.update(results)
    BENCH_JSON.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return doc


# ---------------------------------------------------------------------------
# Workload builders (fixed seeds — identical corpus on every run).
# ---------------------------------------------------------------------------

def _feature_corpus() -> list[TimeSeries]:
    n_distinct, repeats, length = (12, 6, 192) if TINY else (40, 6, 256)
    rng = np.random.default_rng(11)
    distinct = [
        TimeSeries(rng.normal(size=length).cumsum(), name=f"series_{i}")
        for i in range(n_distinct)
    ]
    return [s for _ in range(repeats) for s in distinct]


def _race_snapshot():
    n, d = (60, 5) if TINY else (280, 6)
    rng = np.random.default_rng(3)
    X = rng.normal(size=(n, d))
    y = np.array(["cdrec", "knn", "linear"], dtype=object)[
        rng.integers(0, 3, size=n)
    ]
    X[y == "cdrec"] += 1.0
    X[y == "knn"] -= 1.0
    split = n // 4
    return X[split:], y[split:], X[:split], y[:split]


def _race_config(parallel: ParallelConfig | None) -> ModelRaceConfig:
    return ModelRaceConfig(
        n_partial_sets=2 if TINY else 3,
        n_folds=2 if TINY else 3,
        max_elite=4,
        weights=BENCH_WEIGHTS,
        random_state=0,
        parallel=parallel or ParallelConfig(),
    )


def _labeling_corpus():
    n_series, n_datasets = (4, 1) if TINY else (16, 3)
    return load_category("Water", n_series=n_series, n_datasets=n_datasets)


def _labeler(parallel: ParallelConfig | None) -> ClusterLabeler:
    return ClusterLabeler(
        imputer_names=("linear", "knn", "svdimp"),
        missing_ratio=(0.1, 0.2),
        random_state=0,
        parallel=parallel,
    )


# ---------------------------------------------------------------------------
# The benchmark.
# ---------------------------------------------------------------------------

def test_parallel_speedup_and_report():
    results: dict[str, dict] = {}

    # -- extract_many -----------------------------------------------------
    corpus = _feature_corpus()
    serial_X, serial_s = _timed(lambda: FeatureExtractor().extract_many(corpus))
    fast = FeatureExtractor(cache=FeatureCache())
    parallel_X, parallel_s = _timed(lambda: fast.extract_many(corpus))
    assert parallel_X.tobytes() == serial_X.tobytes()
    _record(results, "extract_many", serial_s, parallel_s, "serial", n_jobs=1)

    # -- race (cost-aware auto backend + shared score memo) ---------------
    data = _race_snapshot()
    seed_names = ["knn", "gaussian_nb", "ridge"] if TINY else [
        "knn", "decision_tree", "gaussian_nb", "ridge", "nearest_centroid",
    ]

    def _serial_races():
        result = None
        for _ in range(RACE_RERUNS):
            result = ModelRace(_race_config(None)).run(
                make_seed_pipelines(seed_names), *data
            )
        return result

    def _engine_races():
        # One memo per timed sample: race 1 populates it, races 2..N are
        # served from it (identical work -> identical content keys).
        memo = ScoreMemo()
        result = None
        for _ in range(RACE_RERUNS):
            result = ModelRace(
                _race_config(AUTO_PARALLEL), score_memo=memo
            ).run(make_seed_pipelines(seed_names), *data)
        return result

    serial_race, serial_s = _timed_best(_serial_races)
    (parallel_race, race_backends), parallel_s = _timed_best(
        lambda: _backends_used(_engine_races)
    )
    assert [p.config_key() for p in parallel_race.elite] == [
        p.config_key() for p in serial_race.elite
    ]
    assert parallel_race.scores == serial_race.scores
    _record(results, "race", serial_s, parallel_s, "+".join(race_backends))

    # -- labeling (cost-aware auto backend) -------------------------------
    datasets = _labeling_corpus()
    serial_corpus, serial_s, (parallel_corpus, label_backends), parallel_s = (
        _timed_pairs(
            lambda: _labeler(None).label_corpus(datasets),
            lambda: _backends_used(
                lambda: _labeler(AUTO_PARALLEL).label_corpus(datasets)
            ),
        )
    )
    assert list(parallel_corpus.labels) == list(serial_corpus.labels)
    _record(results, "labeling", serial_s, parallel_s, "+".join(label_backends))

    # -- report -----------------------------------------------------------
    doc = _merge_json(results)
    emit(
        f"Parallel speedup (n_jobs={N_JOBS}"
        f"{', tiny' if TINY else ''})",
        [
            f"{name:<14} serial {row['serial_s']:8.3f}s   "
            f"parallel {row['parallel_s']:8.3f}s   "
            f"speedup {row['speedup']:5.2f}x   [{row['backend']}]"
            for name, row in results.items()
        ]
        + [f"wrote {BENCH_JSON.name} ({len(doc)} workloads)"],
    )

    best = max(row["speedup"] for row in results.values())
    assert best >= 1.5, (
        f"expected >=1.5x speedup on at least one workload, best was {best:.2f}x: "
        f"{ {k: v['speedup'] for k, v in results.items()} }"
    )
    # The PR-2 regression: tiny labeling/race workloads forced onto the
    # process backend recorded 0.1-0.3x.  Cost-aware auto selection must
    # keep them at parity or better (serial auto-selected, or a backend
    # that actually pays off); the memoized re-race workload must show a
    # real amortized win.
    assert results["race"]["speedup"] >= 1.2, (
        f"memoized re-race should amortize well below serial cost: "
        f"{results['race']['speedup']:.2f}x via {results['race']['backend']!r}"
    )
    assert results["labeling"]["speedup"] >= 0.9, (
        f"labeling regressed under auto backend selection: "
        f"{results['labeling']['speedup']:.2f}x via "
        f"{results['labeling']['backend']!r}"
    )
