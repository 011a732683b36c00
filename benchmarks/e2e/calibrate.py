"""Noise record: two sets of timed runs, each over ten seeds.

    python3 benchmarks/e2e/calibrate.py

Runs every workload once per seed, round-robin and each run in a fresh
process lasting ``run_seconds`` from BENCHMARK.json, then does it all
again.  For each set it records every end-to-end metric's median,
quartiles and spread (IQR over median), and how far the second median
moved from the first, next to the metric's bound in BENCHMARK.json.
Writes ``noise.json`` beside this file and exits 1 if a spread
(``setup_s`` excepted) or a shift exceeds its bound.
"""

from __future__ import annotations

import datetime
import json
import os
import pathlib
import platform
import sys

import stats
from run import load_config, run_fresh

HERE = pathlib.Path(__file__).resolve().parent
SETS = 2
SEEDS = 10


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "loadavg_at_start": list(os.getloadavg()),
        "machine": platform.machine(),
    }


def summarize(values) -> dict:
    q1, q2, q3 = stats.quartiles(values)
    return {
        "median": q2, "q1": q1, "q3": q3, "iqr": q3 - q1,
        "spread": stats.spread(values), "n": len(values), "values": values,
    }


def main() -> int:
    config = load_config()
    seconds = config["run_seconds"]
    workloads = [w["name"] for w in config["workloads"]]
    metrics = {m["name"]: m for m in config["end_to_end"]}
    record = {
        "recorded": datetime.date.today().isoformat(),
        "environment": environment(),
        "seconds": seconds,
        "seeds": list(range(SEEDS)),
        "sets": [],
        "failed_runs": [],
    }
    for n in range(SETS):
        values = {w: {m: [] for m in metrics} for w in workloads}
        for seed in range(SEEDS):
            for workload in workloads:
                result = run_fresh(workload, seed, seconds, False)
                ok = result is not None and result["correct"] and not result["failed"]
                if not ok:
                    record["failed_runs"].append([n, workload, seed])
                if result is None:
                    continue
                for metric in metrics:
                    values[workload][metric].append(result["metrics"][metric]["value"])
                print(f"set {n} seed {seed} {workload}: "
                      + " ".join(f"{m}={v[-1]:.4g}" for m, v in values[workload].items()),
                      file=sys.stderr, flush=True)
        record["sets"].append({
            w: {m: summarize(v) for m, v in per.items() if v}
            for w, per in values.items()
        })

    ok = not record["failed_runs"]
    print(f"{'workload':<14}{'metric':<17}{'spread1':>9}{'spread2':>9}{'shift':>8}"
          f"{'bound':>7}  verdict")
    first, second = record["sets"][0], record["sets"][-1]
    record["checks"] = []
    for workload in workloads:
        for name, spec in metrics.items():
            a, b = first[workload][name], second[workload][name]
            shift = stats.worse_by(spec["better"], a["median"], b["median"])
            spreads = (a["spread"], b["spread"])
            within = stats.within_bound(
                spec["better"], spec["bound"], a["median"], b["median"]
            ) and (name == "setup_s" or max(spreads) <= spec["bound"])
            steady = max(spreads) < spec["bound"] / 3
            ok &= within
            verdict = "steady" if within and steady else "ok" if within else "OVER BOUND"
            record["checks"].append({
                "workload": workload, "metric": name, "spreads": spreads,
                "shift": shift, "bound": spec["bound"], "verdict": verdict,
            })
            print(f"{workload:<14}{name:<17}{spreads[0]:>9.3f}{spreads[1]:>9.3f}"
                  f"{shift:>8.3f}{spec['bound']:>7.2f}  {verdict}")
    (HERE / "noise.json").write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {HERE / 'noise.json'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
