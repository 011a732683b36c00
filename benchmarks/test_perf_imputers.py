"""Perf — per-problem imputation loops vs. the batched block kernels.

Times ``impute(...)`` looped over a corpus of single-series problems
against one ``impute_many(...)`` call for the block-kernel imputers
(closed-form: mean / linear / knn; SVD family: cdrec / svdimp /
softimpute), plus a per-series ``extract`` loop against one
``extract_many(SeriesBank)`` call, then merges the timings
into ``BENCH_imputers.json`` at the repo root::

    {workload: {scalar_s | serial_s, batched_s | block_s,
                n_series, length, speedup}}

Workloads:

* ``impute_<name>`` — one corpus pass per imputer; the acceptance gate
  is **aggregate** (``impute_aggregate``): >= 5x summed over the six
  imputers on the full 256-series corpus (>= 1.5x in
  ``REPRO_BENCH_TINY=1`` smoke mode, where per-call overhead dominates).
* ``extract_block`` — per-series ``extract`` loop (one one-row block per
  series) vs. one block over a prepared bank: both run the same
  statistical+topological kernels, so this measures batching
  (>= 3x full, >= 1.2x tiny).
* ``shm_transport`` — the shared-memory transport contract (serving
  shards, ``SeriesBank.share``): a pickled handle stays < 256 bytes
  regardless of corpus size (asserted), timed as one pickle per task of
  the row payload vs. the handle.

Every batched result is parity-checked against its reference (<= 1e-9)
before the timings are recorded, so the benchmark cannot "win" by
drifting semantically.
"""

from __future__ import annotations

import json
import os
import pathlib
import pickle
import time

import numpy as np

from conftest import emit
from repro.features import FeatureExtractor
from repro.imputation.base import get_imputer
from repro.parallel import SharedArray, active_segments, shm_available
from repro.timeseries.batch import SeriesBank

TINY = os.environ.get("REPRO_BENCH_TINY", "") not in ("", "0")
BENCH_JSON = pathlib.Path(__file__).resolve().parent.parent / "BENCH_imputers.json"

#: The block-kernel imputers under the aggregate gate (closed-form + SVD
#: family); the remaining registry members keep their per-problem loops.
IMPUTERS = ("mean", "linear", "knn", "cdrec", "svdimp", "softimpute")

#: Corpus shape (the issue's acceptance corpus: 256 single-series
#: problems of length 256 with 20% missing).
N_SERIES, LENGTH = (48, 96) if TINY else (256, 256)
MISSING = 0.2
#: Aggregate speedup floor across the six imputers.
AGG_FLOOR = 1.5 if TINY else 5.0
#: Speedup floor for the blockwise extractor.
EXTRACT_FLOOR = 1.2 if TINY else 3.0
#: Best-of-N repeats for the cheap batched arms.
REPEATS = 3


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _timed_best(fn, repeats: int = REPEATS):
    best, result = float("inf"), None
    for _ in range(repeats):
        result, seconds = _timed(fn)
        best = min(best, seconds)
    return result, best


def _record(results, workload, slow_key, slow_s, fast_key, fast_s, **extra):
    results[workload] = {
        slow_key: round(slow_s, 4),
        fast_key: round(fast_s, 4),
        "speedup": round(slow_s / fast_s, 3) if fast_s else float("inf"),
        **extra,
    }


def _merge_json(results: dict) -> dict:
    doc = {}
    if BENCH_JSON.exists():
        try:
            doc = json.loads(BENCH_JSON.read_text())
        except ValueError:
            doc = {}
    doc.update(results)
    BENCH_JSON.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return doc


def _corpus(seed=37):
    """``N_SERIES`` rows of length ``LENGTH``, scattered 20% gaps each."""
    rng = np.random.default_rng(seed)
    matrix = np.vstack(
        [rng.normal(size=LENGTH).cumsum() for _ in range(N_SERIES)]
    )
    for row in matrix:
        gaps = rng.choice(LENGTH, size=int(LENGTH * MISSING), replace=False)
        row[gaps] = np.nan
    return matrix


def test_imputer_and_extractor_speedups_and_report():
    results: dict[str, dict] = {}
    corpus = _corpus()
    shape = {"n_series": N_SERIES, "length": LENGTH}

    # -- impute_<name> ----------------------------------------------------
    scalar_total = batched_total = 0.0
    for name in IMPUTERS:
        imputer = get_imputer(name)
        scalar, scalar_s = _timed(
            lambda: [imputer.impute(row[None, :].copy()) for row in corpus]
        )
        batched, batched_s = _timed_best(
            lambda: imputer.impute_many(corpus.copy())
        )
        for i, (a, b) in enumerate(zip(scalar, batched)):
            assert np.abs(b - a).max() <= 1e-9, (name, i)
        scalar_total += scalar_s
        batched_total += batched_s
        _record(
            results, f"impute_{name}", "scalar_s", scalar_s,
            "batched_s", batched_s, **shape,
        )
    _record(
        results, "impute_aggregate", "scalar_s", scalar_total,
        "batched_s", batched_total, **shape,
    )

    # -- extract_block ----------------------------------------------------
    clean = np.nan_to_num(corpus, nan=0.0)
    extractor = FeatureExtractor()
    ref, serial_s = _timed(
        lambda: np.vstack([extractor.extract(row) for row in clean])
    )
    block, block_s = _timed_best(
        lambda: extractor.extract_many(SeriesBank(clean))
    )
    np.testing.assert_allclose(block, ref, rtol=1e-9, atol=1e-9)
    _record(
        results, "extract_block", "serial_s", serial_s,
        "block_s", block_s, **shape,
    )

    # -- shm_transport ----------------------------------------------------
    if shm_available():
        segment = SharedArray.create(clean)
        try:
            handle = segment.handle
            handle_bytes = len(pickle.dumps(handle))
            row_bytes = len(pickle.dumps(clean[0]))
            # One pickle per task: the row payload (naive process-backend
            # transport) vs. the constant-size segment handle.
            _, arrays_s = _timed(
                lambda: [pickle.dumps(row) for row in clean]
            )
            _, handles_s = _timed_best(
                lambda: [pickle.dumps(handle) for _ in range(len(clean))]
            )
        finally:
            segment.close()
            segment.unlink()
        assert active_segments() == ()
        assert handle_bytes < 256, handle_bytes
        assert handle_bytes < row_bytes  # handle beats even one row's pickle
        _record(
            results, "shm_transport", "per_task_array_s", arrays_s,
            "per_task_handle_s", handles_s,
            handle_bytes=handle_bytes,
            per_row_pickle_bytes=row_bytes,
            corpus_bytes=int(clean.nbytes),
            **shape,
        )

    # -- report -----------------------------------------------------------
    doc = _merge_json(results)
    emit(
        f"Batched imputation & extraction kernels{' (tiny)' if TINY else ''}",
        [
            f"{name:<18} "
            + "   ".join(
                f"{key} {row[key]:8.3f}s"
                for key in row
                if key.endswith("_s") and isinstance(row[key], float)
            )
            + f"   speedup {row['speedup']:6.2f}x"
            + (
                f"   (handle {row['handle_bytes']}B"
                f" / corpus {row['corpus_bytes']}B)"
                if "handle_bytes" in row
                else ""
            )
            for name, row in results.items()
        ]
        + [f"wrote {BENCH_JSON.name} ({len(doc)} workloads)"],
    )

    agg = results["impute_aggregate"]["speedup"]
    assert agg >= AGG_FLOOR, (
        f"expected >= {AGG_FLOOR}x aggregate over {IMPUTERS} "
        f"({N_SERIES} series x {LENGTH}), got {agg:.2f}x"
    )
    assert results["extract_block"]["speedup"] >= EXTRACT_FLOOR, (
        f"expected >= {EXTRACT_FLOOR}x on extract_block, got "
        f"{results['extract_block']['speedup']:.2f}x"
    )
