"""End-to-end benchmark of ``repro train``, ``repro serve`` and ``repro repair``.

One run of one workload::

    python3 benchmarks/e2e/run.py --workload serve_light --seed 0 --seconds 20 --trace 0

prints one JSON object as its last stdout line, with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: every end-to-end
metric with ``--trace 0``, every per-layer metric with ``--trace 1``.
The whole suite::

    python3 benchmarks/e2e/run.py [--seed N] [--seconds S]

runs every workload three times untraced and once traced, round-robin
and each run in a fresh process, prints each metric by name with its
unit, median, IQR and n, and exits 1 if any output check failed.
README.md defines the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
from collections import defaultdict

import stats

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
TIMED_RUNS = 3
RUN_TIMEOUT_S = 600


def load_config() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: float, metrics: list[dict],
             traced: bool) -> dict:
    """One run in this process, as the result object BENCHMARK.json's command prints.

    ``metrics`` is BENCHMARK.json's ``end_to_end`` or ``per_layer`` list.
    """
    import workloads

    outcome = workloads.run_workload(workload, seed, seconds, traced)
    for failure in outcome.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    if outcome.trace_path is not None:
        print(f"wrote {outcome.trace_path}", file=sys.stderr)
    return {
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            m["name"]: {"value": outcome.metrics.get(m["name"], 0), "unit": m["unit"]}
            for m in metrics
        },
    }


def run_fresh(workload: str, seed: int, seconds: float, traced: bool) -> dict | None:
    """One run in a fresh interpreter; ``None`` when it printed no result."""
    argv = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(traced)),
    ]
    done = subprocess.run(
        argv, stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=RUN_TIMEOUT_S
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def suite(config: dict, seed: int, seconds: float) -> int:
    names = [w["name"] for w in config["workloads"]]
    timed = defaultdict(list)
    traced = {}
    for _ in range(TIMED_RUNS):
        for name in names:
            timed[name].append(run_fresh(name, seed, seconds, False))
    for name in names:
        traced[name] = run_fresh(name, seed, seconds, True)

    ok = True
    print(f"\nend-to-end metrics (seed {seed}, {seconds}s runs)")
    print(f"{'workload':<14}{'metric':<18}{'median':>12}{'IQR':>10}  n  unit")
    for name, results in timed.items():
        good = [r for r in results if r is not None]
        ok &= len(good) == len(results) and all(r["correct"] for r in good)
        for m in config["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in good]
            if values:
                print(f"{name:<14}{m['name']:<18}{stats.median(values):>12.4f}"
                      f"{stats.iqr(values):>10.4f}  {len(values)}  {m['unit']}")
        attempted = sum(r["attempted"] for r in good)
        failed = sum(r["failed"] for r in good)
        print(f"{name:<14}{'failed/attempted':<18}{failed:>12}/{attempted}")

    print("\nper-layer metrics (one traced run each)")
    print(f"{'metric':<28}" + "".join(f"{n:>14}" for n in names) + "  unit")
    for m in config["per_layer"]:
        row = [
            traced[n]["metrics"][m["name"]]["value"] if traced[n] else float("nan")
            for n in names
        ]
        print(f"{m['name']:<28}" + "".join(f"{v:>14.4f}" for v in row) + f"  {m['unit']}")
    for name, result in traced.items():
        ok &= result is not None and result["correct"]
    print("\nall output checks passed" if ok else "\nSOME RUNS FAILED OR CHECKS FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    config = load_config()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in config["workloads"]],
                        help="run one workload once and print its result line")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=config["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # One BLAS thread in every process of the run, set before numpy is
    # first imported.  The program's parallelism is its own processes
    # (two serving shards on two CPUs); OpenBLAS threads on top of them
    # oversubscribe the CPUs, spin, and widen the run-to-run spread
    # (README.md has the measurement).
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    if args.workload is None:
        return suite(config, args.seed, args.seconds)
    metrics = config["per_layer" if args.trace else "end_to_end"]
    result = run_once(args.workload, args.seed, args.seconds, metrics, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
