#!/usr/bin/env python
"""CI benchmark-regression gate for the ``BENCH_*.json`` documents.

Compares freshly produced benchmark documents (written by
``benchmarks/test_perf_parallel.py`` and
``benchmarks/test_perf_simkernels.py``; pass ``--fresh`` once per
document) against the committed baseline
(``benchmarks/bench_baseline.json``) and **fails** — exit code 1 — when
any workload got more than ``--threshold`` (default 1.5x) slower on any
measured arm (every numeric ``*_s`` seconds key: ``serial_s``,
``parallel_s``, ``per_pair_s``, ``batched_s``, ...), or when a baseline
workload disappeared from the fresh run.

On success, ``--update`` refreshes the baseline artifact with the fresh
numbers (new workloads are adopted, existing ones overwritten), so the
gate tracks the current hardware's trajectory instead of drifting ever
further from it::

    python benchmarks/check_regression.py \
        --baseline benchmarks/bench_baseline.json \
        --fresh BENCH_parallel.json --update

The comparison logic is importable (``load_document`` / ``compare``)
and unit-tested in ``tests/test_bench_regression_gate.py``.  Arm
discovery (``timing_keys``) comes from the ``repro`` package, so run
the gate with the package installed (``pip install -e .``) or with
``PYTHONPATH=src``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro.observability.dashboard import timing_keys

#: Historical benchmark-arm keys (kept for reference / schema checks);
#: :func:`timing_keys` discovers arms dynamically so new documents with
#: e.g. ``per_pair_s`` / ``batched_s`` arms are gated without edits here.
TIMING_KEYS = ("serial_s", "parallel_s")


def load_document(path) -> dict:
    """Load a ``{workload: {serial_s, parallel_s, ...}}`` document."""
    path = pathlib.Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no benchmark document at {path}")
    document = json.loads(path.read_text())
    if not isinstance(document, dict):
        raise ValueError(f"{path} does not contain a benchmark document")
    return document


def compare(
    baseline: dict,
    fresh: dict,
    threshold: float = 1.5,
    *,
    min_seconds: float = 0.01,
) -> list[str]:
    """Regression messages comparing ``fresh`` timings to ``baseline``.

    Empty list means the gate passes.  A workload regresses when a
    timing arm (any numeric ``*_s`` key present on either side) exceeds
    ``threshold`` times its baseline value; arms where both sides are
    under ``min_seconds`` are ignored (pure noise at that scale).
    Workloads present in the baseline but absent from the fresh run are
    reported as regressions; brand-new workloads pass.
    """
    if threshold <= 1.0:
        raise ValueError("threshold must be > 1.0")
    problems: list[str] = []
    for workload in sorted(baseline):
        if workload not in fresh:
            problems.append(f"{workload}: missing from the fresh benchmark run")
            continue
        arms = sorted(
            set(timing_keys(baseline[workload]))
            | set(timing_keys(fresh[workload]))
        )
        for key in arms:
            base = baseline[workload].get(key)
            new = fresh[workload].get(key)
            if base is None or new is None:
                continue
            base = float(base)
            new = float(new)
            if base < min_seconds and new < min_seconds:
                continue
            if base <= 0.0:
                continue
            ratio = new / base
            if ratio > threshold:
                problems.append(
                    f"{workload}.{key}: {new:.4f}s vs baseline {base:.4f}s "
                    f"({ratio:.2f}x > {threshold:.2f}x)"
                )
    return problems


def refresh_baseline(baseline_path, baseline: dict, fresh: dict) -> dict:
    """Merge fresh numbers over the baseline and rewrite the artifact."""
    merged = dict(baseline)
    merged.update(fresh)
    pathlib.Path(baseline_path).write_text(
        json.dumps(merged, indent=2, sort_keys=True) + "\n"
    )
    return merged


def main(argv=None) -> int:
    repo_root = pathlib.Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(
        description="fail CI when a benchmark workload regressed"
    )
    parser.add_argument(
        "--baseline",
        default=str(repo_root / "benchmarks" / "bench_baseline.json"),
        help="committed baseline document",
    )
    parser.add_argument(
        "--fresh",
        action="append",
        help=(
            "freshly produced benchmark document; repeat the flag to gate "
            "several documents at once (default: BENCH_parallel.json)"
        ),
    )
    parser.add_argument(
        "--threshold", type=float, default=1.5,
        help="slowdown factor that fails the gate (default 1.5)",
    )
    parser.add_argument(
        "--min-seconds", type=float, default=0.01,
        help="ignore arms where both sides are faster than this",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="on success, refresh the baseline with the fresh numbers",
    )
    args = parser.parse_args(argv)

    fresh_paths = args.fresh or [str(repo_root / "BENCH_parallel.json")]
    baseline = load_document(args.baseline)
    fresh: dict = {}
    for path in fresh_paths:
        fresh.update(load_document(path))
    problems = compare(
        baseline, fresh, args.threshold, min_seconds=args.min_seconds
    )
    if problems:
        print("benchmark regression gate FAILED:", file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    print(
        f"benchmark regression gate passed "
        f"({len(fresh)} workloads <= {args.threshold}x baseline)"
    )
    if args.update:
        refresh_baseline(args.baseline, baseline, fresh)
        print(f"refreshed baseline at {args.baseline}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
