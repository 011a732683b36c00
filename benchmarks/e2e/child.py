"""The program side of the benchmark: one user operation per process.

``run.py`` starts this script in a fresh interpreter for every
operation it times, so imports, engine loading and memory are measured
the way a user pays them.  The last stdout line is a JSON object of
``perf_counter`` timestamps (comparable with the parent's) and counts.

    child.py train  --engine-out PATH --holdout-out CSV [--setup-only] [--trace-dir DIR]
    child.py repair --engine PATH --data CSV --out CSV [--setup-only] [--trace-dir DIR]
    child.py serve  --engine PATH --snapshot-out PATH [--trace-dir DIR]

With ``--trace-dir`` the wrappers of :mod:`trace` are installed before
the program runs; ``serve`` then hands over to ``repro.cli.main`` so the
forked shard workers inherit them.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time

#: Training inputs: the ``repro train`` corpus (Water + Climate, 16
#: series x 2 datasets per category) and a held-out corpus of the same
#: shape for the F1 score.  Both are fixed; see README.md for why.  The
#: held-out series, labeled by the engine's labeler, are written out so
#: that serve and repair can score the algorithms their own path picks.
CATEGORIES = ("Water", "Climate")
SERIES_PER_DATASET = 16
DATASETS_PER_CATEGORY = 2
TRAIN_BASE_SEED = 7
HOLDOUT_BASE_SEED = 12


def peak_rss_mb(pid="self") -> float:
    """VmHWM of one process in MiB (0 when /proc has no entry)."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def corpus(base_seed: int):
    from repro.datasets import load_category

    datasets = []
    for category in CATEGORIES:
        datasets.extend(load_category(
            category, n_series=SERIES_PER_DATASET,
            n_datasets=DATASETS_PER_CATEGORY, base_seed=base_seed,
        ))
    return datasets


def run_train(args) -> dict:
    from repro.cli import write_series_csv
    from repro.core import serialization
    from repro.core.adarts import ADarts
    from repro.core.config import ModelRaceConfig
    from repro.pipeline.metrics import f1_weighted
    from repro.pipeline.scoring import ScoreWeights

    datasets = corpus(TRAIN_BASE_SEED)
    out = {"ready": time.perf_counter()}
    if args.setup_only:
        return out
    start = time.perf_counter()
    # The CLI's gamma=0.75 puts wall time into the race score, so two
    # identical runs can keep different elites and do different work.
    engine = ADarts(
        config=ModelRaceConfig(
            n_partial_sets=3, random_state=0, weights=ScoreWeights(gamma=0.0)
        ),
        random_state=0,
    )
    engine.fit_datasets(datasets)
    serialization.save_engine(engine, args.engine_out)
    end = time.perf_counter()
    race = engine.race_result
    holdout = engine.labeler.label_corpus(corpus(HOLDOUT_BASE_SEED))
    write_series_csv(args.holdout_out, holdout.series)
    predicted = engine.predict(engine.extractor.extract_many(holdout.series))
    out.update(
        start=start,
        end=end,
        n_series=sum(len(d) for d in datasets),
        elites=sorted(repr(p.config_key()) for p in race.elite),
        evals=race.n_evaluations,
        prune_ratio=race.prune_ratio,
        failures=race.n_failures,
        rss_mb=peak_rss_mb(),
        f1=float(f1_weighted(holdout.labels, predicted)),
        holdout_labels=[str(label) for label in holdout.labels],
    )
    return out


def run_repair(args) -> dict:
    import repro.cli as cli

    out = {"imported": time.perf_counter()}
    load_engine = cli.load_engine

    def timed_load(path):
        engine = load_engine(path)
        out.setdefault("loaded", time.perf_counter())
        return engine

    cli.load_engine = timed_load
    if args.setup_only:
        cli.load_engine(args.engine)
        return out
    out["code"] = cli.main(
        ["repair", "--engine", args.engine, "--data", args.data, "--out", args.out]
    )
    out["end"] = time.perf_counter()
    out["rss_mb"] = peak_rss_mb()
    return out


def run_serve(args) -> dict:
    import repro.cli as cli

    # The harness stops the daemon with SIGINT, which ``repro serve``
    # handles as KeyboardInterrupt.  A benchmark started in the background
    # of a non-interactive shell inherits SIGINT ignored, and Python then
    # installs no handler, so put the default one back.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    code = cli.main([
        "serve", "--engine", args.engine, "--port", "0",
        "--snapshot-out", args.snapshot_out,
    ])
    return {"code": code}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("train", "repair", "serve"))
    parser.add_argument("--engine")
    parser.add_argument("--engine-out")
    parser.add_argument("--holdout-out")
    parser.add_argument("--data")
    parser.add_argument("--out")
    parser.add_argument("--snapshot-out")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-dir")
    args = parser.parse_args()
    if args.trace_dir:
        import trace

        trace.record(args.trace_dir, args.mode)
    runner = {"train": run_train, "repair": run_repair, "serve": run_serve}
    out = runner[args.mode](args)
    print(json.dumps(out), flush=True)
    return int(out.get("code", 0))


if __name__ == "__main__":
    sys.exit(main())
