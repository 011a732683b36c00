"""Command-line interface: train, recommend, and repair from CSV files.

CSV convention: one time series per row, comma-separated floats; empty
fields or the token ``nan`` mark missing values.

Examples
--------
Train on the built-in synthetic corpus and save the engine::

    python -m repro train --categories Water Climate --out engine.json

Recommend algorithms for faulty series::

    python -m repro recommend --engine engine.json --data faulty.csv

Repair them in place::

    python -m repro repair --engine engine.json --data faulty.csv \
        --out repaired.csv

List the available imputation algorithms::

    python -m repro list-imputers

Replay faulty series through an inline serving daemon and render its
serving-health document (latency quantiles, confidence, soft-vote
disagreement, drift scores, per-imputer/per-cluster scorecards)::

    python -m repro monitor --engine engine.json --data faulty.csv \
        --repeat 8 --out health.json --prom-out health.prom

Serve over a socket, and watch the live daemon's health document::

    python -m repro serve --engine engine.json --port 7653
    python -m repro top --connect 127.0.0.1:7653

Every subcommand accepts ``--trace-out trace.json`` (Chrome
``trace_event`` export, open in ``chrome://tracing`` or Perfetto) and
``--metrics-out metrics.prom`` (Prometheus text; a ``.json`` suffix
selects JSON).  Saved traces are rendered into a human-readable run
summary by::

    python -m repro report --trace trace.json --metrics metrics.prom

Every subcommand also accepts ``--ledger-out ledger.jsonl``, appending a
repair-provenance row for every fit and repair of the run.  Audit the
scorecards and replay any single repair's decision path::

    python -m repro repair --engine engine.json --data faulty.csv \
        --out repaired.csv --ledger-out ledger.jsonl
    python -m repro audit --ledger ledger.jsonl --summary
    python -m repro explain rep_3f9a1c0d2e4b --ledger ledger.jsonl \
        --engine engine.json
"""

from __future__ import annotations

import argparse
import logging
import pathlib
import sys

import numpy as np

from repro.core.adarts import ADarts
from repro.core.config import ModelRaceConfig
from repro.core.serialization import load_engine, save_engine
from repro.datasets import CATEGORIES, load_category
from repro.exceptions import ReproError, ServingError, ValidationError
from repro.imputation import available_imputers
from repro.observability import (
    DriftDetector,
    LoggingObserver,
    Tracer,
    enable_console_logging,
    get_metrics,
    use_tracer,
)
from repro.observability.ledger import (
    RepairLedger,
    explain_repair,
    filter_records,
    read_ledger,
    render_explanation,
    render_summary,
    summarize_ledger,
    use_ledger,
)
from repro.observability.report import load_metrics, load_trace, render_report
from repro.parallel import BACKENDS, FeatureCache, ParallelConfig
from repro.resilience import FaultPolicy, use_fault_policy
from repro.resilience.stats import declare_counters
from repro.timeseries.series import TimeSeries


def _parallel_from_args(args) -> ParallelConfig | None:
    """Build a ParallelConfig from train's --jobs/--backend (None = serial)."""
    if args.jobs == 1 and args.backend == "auto":
        return None
    return ParallelConfig(n_jobs=args.jobs, backend=args.backend)


def _fault_policy_from_args(args) -> FaultPolicy | None:
    """Build a FaultPolicy from the resilience flags (None = historical).

    ``None`` keeps the historical behaviour: no retries, no deadlines,
    failures scored as losses with quarantine after repeated failures.
    """
    max_retries = getattr(args, "max_retries", 0)
    eval_timeout = getattr(args, "eval_timeout", None)
    impute_timeout = getattr(args, "impute_timeout", None)
    fail_fast = getattr(args, "fail_fast", False)
    if not max_retries and eval_timeout is None and impute_timeout is None \
            and not fail_fast:
        return None
    return FaultPolicy(
        max_retries=max_retries,
        eval_deadline=eval_timeout,
        impute_deadline=impute_timeout,
        fail_fast=fail_fast,
    )


def read_series_csv(path) -> list[TimeSeries]:
    """Read one series per row; blank/'nan' fields are missing values."""
    path = pathlib.Path(path)
    if not path.exists():
        raise ValidationError(f"no such file: {path}")
    series = []
    with path.open() as fh:
        for line_no, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            try:
                values = [
                    float("nan")
                    if field.strip() in ("", "nan", "NaN")
                    else float(field)
                    for field in line.split(",")
                ]
            except ValueError as exc:
                raise ValidationError(
                    f"{path}, line {line_no + 1}: {exc}"
                ) from None
            series.append(TimeSeries(values, name=f"row_{line_no}"))
    if not series:
        raise ValidationError(f"{path} contains no series")
    return series


def write_series_csv(path, series_list) -> None:
    """Write one series per row (NaN becomes an empty field).

    Each field is ``repr`` of the float, so :func:`read_series_csv` reads
    the values back bit for bit.  The only float repr containing ``nan``
    is NaN's own, so blanking it is one replace over the joined row.  A
    row that would be empty (one missing value) is written as ``nan``,
    since the reader skips blank lines.
    """
    path = pathlib.Path(path)
    with path.open("w") as fh:
        for series in series_list:
            values = np.asarray(series.values, dtype=float).tolist()
            row = ",".join(map(repr, values)).replace("nan", "")
            fh.write((row or "nan") + "\n")


def _cmd_train(args) -> int:
    for category in args.categories:
        if category not in CATEGORIES:
            raise ValidationError(
                f"unknown category {category!r}; choose from {CATEGORIES}"
            )
    datasets = []
    for category in args.categories:
        datasets.extend(
            load_category(
                category, n_series=args.series_per_dataset,
                n_datasets=args.datasets_per_category,
            )
        )
    engine = ADarts(
        config=ModelRaceConfig(
            n_partial_sets=args.partial_sets,
            random_state=args.seed,
            fault_policy=_fault_policy_from_args(args),
        ),
        random_state=args.seed,
        observer=LoggingObserver() if args.verbose else None,
        parallel=_parallel_from_args(args),
    )
    print(
        f"training on {sum(len(d) for d in datasets)} series "
        f"from {len(datasets)} datasets ...",
        file=sys.stderr,
    )
    engine.fit_datasets(datasets)
    save_engine(engine, args.out)
    print(f"saved engine to {args.out}", file=sys.stderr)
    for pipeline in engine.winning_pipelines:
        print(f"winner: {pipeline}", file=sys.stderr)
    return 0


def _cmd_recommend(args) -> int:
    engine = load_engine(args.engine)
    series_list = read_series_csv(args.data)
    for series, rec in zip(series_list, engine.recommend_many(series_list)):
        ranking = ",".join(rec.ranking)
        print(f"{series.name}\t{rec.algorithm}\t{ranking}")
    return 0


def _cmd_repair(args) -> int:
    engine = load_engine(args.engine)
    series_list = read_series_csv(args.data)
    recommendations = engine.recommend_many(series_list)
    repaired = engine.repair_many(series_list, recommendations)
    for series, rec in zip(series_list, recommendations):
        print(f"{series.name}\t{rec.algorithm}", file=sys.stderr)
    write_series_csv(args.out, repaired)
    print(f"wrote {len(repaired)} repaired series to {args.out}", file=sys.stderr)
    return 0


def _cmd_list_imputers(args) -> int:
    for name in available_imputers():
        print(name)
    return 0


def _load_serving_engine(args):
    """Load an engine for a serving subcommand (feature cache wired)."""
    engine = load_engine(args.engine)
    if engine.extractor.cache is None:
        engine.extractor.cache = FeatureCache()
    return engine


def _cmd_monitor(args) -> int:
    import time

    from repro.observability.dashboard import ANSI_CLEAR
    from repro.serving import RepairRequest, ServingDaemon

    engine = _load_serving_engine(args)
    requests = [
        RepairRequest(id=s.name, values=s.values, mode="recommend", name=s.name)
        for s in read_series_csv(args.data)
    ]
    detector = None
    if engine.feature_baseline_ is None:
        print(
            "note: engine has no feature baseline; drift monitoring disabled",
            file=sys.stderr,
        )
    else:
        detector = DriftDetector(
            engine.feature_baseline_,
            window_size=args.drift_window,
            min_samples=min(args.drift_window, args.drift_min_samples),
            psi_threshold=args.psi_threshold,
            ks_threshold=args.ks_threshold,
        )
    batch = max(1, args.batch)

    def replay() -> None:
        # ``batch`` requests at a time through one inline shard.
        for _ in range(max(1, args.repeat)):
            for start in range(0, len(requests), batch):
                for future in daemon.submit_many(requests[start : start + batch]):
                    future.result()

    def render(snapshot) -> str:
        return (
            snapshot.to_prometheus() if args.format == "prometheus"
            else snapshot.to_json()
        )

    with ServingDaemon(
        engine, n_shards=1, shard_backend="inline", max_batch=batch,
        max_pending=batch, drift_detector=detector,
    ) as daemon:
        if args.watch is not None:
            # Periodic refresh: replay, clear the screen, re-render, sleep.
            # Ctrl-C exits cleanly (the sink keeps its accumulated views,
            # so the final frame on screen is the freshest one).
            try:
                while True:
                    replay()
                    print(ANSI_CLEAR + render(daemon.health()), flush=True)
                    time.sleep(max(0.1, args.watch))
            except KeyboardInterrupt:
                print("monitor stopped", file=sys.stderr)
                return 0
        replay()
        snapshot = daemon.health()
    if args.out:
        path = snapshot.export(args.out)
        print(f"wrote health snapshot to {path}", file=sys.stderr)
    if args.prom_out:
        path = pathlib.Path(args.prom_out)
        path.write_text(snapshot.to_prometheus())
        print(f"wrote Prometheus health document to {path}", file=sys.stderr)
    print(render(snapshot))
    return 0


def _connect(address):
    """A socket to ``(host, port)``, to ``"HOST:PORT"`` or to a unix
    socket path."""
    import socket as socket_mod

    if isinstance(address, str):
        host, _, port = address.rpartition(":")
        if host and port.isdigit():
            address = (host, int(port))
    if isinstance(address, tuple):
        return socket_mod.create_connection(address)
    conn = socket_mod.socket(socket_mod.AF_UNIX)
    conn.connect(address)
    return conn


def _ask_health(stream) -> dict:
    """Send a ``health`` line on a JSON-lines stream; return the document."""
    from repro.serving import decode_response

    stream.write(b'{"id":"health","mode":"health"}\n')
    stream.flush()
    response = decode_response(stream.readline())
    if not response.ok or "health" not in response.extra:
        raise ServingError(
            f"health request failed: status {response.status}: {response.error}"
        )
    return response.extra["health"]


def _serve_selfcheck(daemon, server, args) -> int:
    """CI serving lane: seeded load through the real socket, zero tolerance.

    Drives ``--selfcheck N`` requests from the shared
    :class:`LoadGenerator` through the daemon's actual asyncio
    front-end, then asks the same socket for the live
    :class:`HealthSnapshot` with a ``health`` line; prints a one-line
    verdict, optionally exports that document, and fails (exit 1) on
    *any* shed or error response — at idle load the daemon has no excuse.
    """
    import threading

    from repro.observability.serving import HealthSnapshot
    from repro.serving import decode_response, encode_request
    from repro.serving.testing import LoadGenerator

    requests = LoadGenerator(
        args.seed, length=args.length, mode="repair"
    ).requests(args.selfcheck)
    responses = []

    # Closing the stream too ends the connection before the server stops.
    with _connect(server.address) as conn, conn.makefile("rwb") as stream:

        def read_all() -> None:
            for _ in range(len(requests)):
                responses.append(decode_response(stream.readline()))

        reader = threading.Thread(target=read_all, daemon=True)
        reader.start()
        for request in requests:
            stream.write(encode_request(request) + b"\n")
        stream.flush()
        reader.join(timeout=120.0)
        document = _ask_health(stream)

    by_status: dict[int, int] = {}
    for response in responses:
        by_status[response.status] = by_status.get(response.status, 0) + 1
    missing = len(requests) - len(responses)
    n_bad = sum(v for k, v in by_status.items() if k != 200) + missing
    if args.snapshot_out:
        path = HealthSnapshot(**document).export(args.snapshot_out)
        print(f"wrote health snapshot to {path}", file=sys.stderr)
    latency = document["latency"]
    print(
        f"selfcheck: {len(responses)}/{len(requests)} responses, "
        f"statuses {dict(sorted(by_status.items()))}, "
        f"p50 {latency['p50'] * 1000:.2f}ms p99 {latency['p99'] * 1000:.2f}ms"
    )
    if n_bad:
        print(
            f"selfcheck FAILED: {n_bad} shed/error/missing responses "
            "at idle load",
            file=sys.stderr,
        )
        return 1
    print("selfcheck OK")
    return 0


def _cmd_serve(args) -> int:
    from repro.serving import ServingDaemon, SocketServer

    engine = _load_serving_engine(args)
    daemon = ServingDaemon(
        engine,
        n_shards=args.shards,
        shard_backend=args.shard_backend,
        max_batch=args.max_batch,
        max_delay_s=args.max_delay_ms / 1000.0,
        max_pending=args.max_pending,
    )
    server = SocketServer(
        daemon,
        host=args.host,
        # Self-check binds an ephemeral port so CI lanes never collide.
        port=0 if args.selfcheck else args.port,
        path=args.socket,
    )
    with daemon, server:
        address = (
            server.address
            if isinstance(server.address, str)
            else "{}:{}".format(*server.address)
        )
        print(
            f"repro serve: {daemon.pool.n_shards} "
            f"{daemon.pool.backend} shard(s) on {address}",
            file=sys.stderr,
        )
        if args.selfcheck:
            return _serve_selfcheck(daemon, server, args)
        try:
            import time

            while True:
                time.sleep(3600)
        except KeyboardInterrupt:
            print("shutting down", file=sys.stderr)
        if args.snapshot_out:
            path = daemon.health().export(args.snapshot_out)
            print(f"wrote health snapshot to {path}", file=sys.stderr)
    return 0


def _cmd_top(args) -> int:
    import time

    from repro.observability.dashboard import (
        ANSI_CLEAR,
        load_snapshot,
        render_top,
    )

    if (args.snapshot is None) == (args.connect is None):
        raise ValidationError("repro top needs exactly one of --snapshot or --connect")
    color = sys.stdout.isatty() and not args.no_color
    if args.snapshot:
        # Offline mode: render a previously exported health document
        # (re-reading the file every tick, so an external writer can
        # drive the dashboard).
        def frame() -> str:
            return render_top(load_snapshot(args.snapshot), color=color)
    else:
        # Live mode: one connection, one ``health`` line per frame.
        try:
            conn = _connect(args.connect)
        except OSError as exc:
            raise ServingError(f"cannot connect to {args.connect}: {exc}") from None
        stream = conn.makefile("rwb")

        def frame() -> str:
            return render_top(_ask_health(stream), color=color)

    if args.once:
        print(frame())
        return 0
    try:
        while True:
            print(ANSI_CLEAR + frame(), flush=True)
            time.sleep(max(0.1, args.interval))
    except KeyboardInterrupt:
        print("top stopped", file=sys.stderr)
        return 0


def _cmd_report(args) -> int:
    spans = load_trace(args.trace)
    metrics = load_metrics(args.metrics) if args.metrics else None
    print(render_report(spans, metrics=metrics, top=args.top))
    return 0


def _format_ledger_line(rec: dict) -> str:
    data = rec.get("data", {})
    parts = [
        str(rec.get("time") or "-"),
        f"{rec.get('kind', '?'):<7}",
        str(rec.get("id")),
    ]
    if rec.get("kind") == "repair":
        assignment = data.get("cluster") or {}
        flags = "".join(
            flag
            for flag, on in (
                (" DEGRADED", data.get("degraded")),
                (" FALLBACK", data.get("fallback")),
            )
            if on
        )
        parts.append(
            f"{data.get('series')} -> {data.get('algorithm')} "
            f"(conf {data.get('confidence') or 0.0:.3f}, "
            f"cluster {assignment.get('cluster', '-')}){flags}"
        )
    elif rec.get("kind") == "impute":
        quality = data.get("quality") or {}
        parts.append(
            f"{data.get('algorithm')} filled {data.get('n_missing')} "
            f"(plausibility_z {quality.get('plausibility_z', 0.0):.3f})"
        )
    elif rec.get("kind") == "race":
        parts.append(
            f"{len(data.get('elites', []))} elites, "
            f"{data.get('n_evaluations')} evals, "
            f"prune {data.get('prune_ratio', 0.0):.1%}"
        )
    elif rec.get("kind") == "label":
        parts.append(
            f"cluster {data.get('cluster_id')} "
            f"({data.get('pattern')}@{data.get('ratio')}) -> "
            f"{data.get('winner')}"
        )
    elif rec.get("kind") == "fit":
        parts.append(
            f"{data.get('n_samples')} samples, "
            f"{data.get('n_members')} members, "
            f"classes {data.get('classes')}"
        )
    return "  ".join(parts)


def _cmd_audit(args) -> int:
    import json

    records = filter_records(
        read_ledger(args.ledger),
        kind=args.kind,
        algorithm=args.algorithm,
        cluster=args.cluster,
        degraded_only=args.degraded_only,
    )
    if args.tail:
        records = records[-args.tail:]
    if args.summary:
        summary = summarize_ledger(records)
        print(
            json.dumps(summary, indent=2) if args.json
            else render_summary(summary)
        )
        return 0
    for rec in records:
        print(json.dumps(rec) if args.json else _format_ledger_line(rec))
    if not records:
        print("(no matching ledger records)", file=sys.stderr)
    return 0


def _cmd_explain(args) -> int:
    import json

    head = None
    if args.engine:
        head = load_engine(args.engine).ledger_head_
    explanation = explain_repair(
        read_ledger(args.ledger), args.repair_id, head=head
    )
    print(
        json.dumps(explanation, indent=2) if args.json
        else render_explanation(explanation)
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="A-DARTS: automated data repair for time series",
    )
    # Observability flags shared by every subcommand.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write a Chrome trace_event JSON of the run to PATH",
    )
    common.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write run metrics to PATH (.prom/.txt: Prometheus text, "
        "otherwise JSON)",
    )
    common.add_argument(
        "--ledger-out", default=None, metavar="PATH",
        help="append repair-provenance ledger rows (JSONL) to PATH; "
        "inspect them later with 'repro audit' / 'repro explain'",
    )
    common.add_argument(
        "--verbose", "-v", action="store_true",
        help="log progress to stderr via the repro logger",
    )
    common.add_argument(
        "--max-retries", type=int, default=0, metavar="N",
        help="retry transient evaluation failures up to N times "
        "(0 = historical no-retry behaviour)",
    )
    common.add_argument(
        "--eval-timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock deadline per pipeline evaluation "
        "(default: no deadline)",
    )
    common.add_argument(
        "--impute-timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock deadline per imputation call "
        "(default: no deadline)",
    )
    common.add_argument(
        "--fail-fast", action="store_true",
        help="abort on the first evaluation failure instead of scoring "
        "it as a loss",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser(
        "train", help="train an engine on built-in data", parents=[common]
    )
    train.add_argument(
        "--categories", nargs="+", default=["Water", "Climate"],
        help=f"dataset categories to train on (from {', '.join(CATEGORIES)})",
    )
    train.add_argument("--out", required=True, help="output engine JSON path")
    train.add_argument("--series-per-dataset", type=int, default=16)
    train.add_argument("--datasets-per-category", type=int, default=2)
    train.add_argument("--partial-sets", type=int, default=3)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument(
        "--jobs", "-j", type=int, default=1, metavar="N",
        help="worker count for the training stages, labeling and the "
        "race (1=serial, 0=all CPUs)",
    )
    train.add_argument(
        "--backend", choices=BACKENDS, default="auto",
        help="backend for the training stages, labeling and the race "
        "(auto selects by workload size)",
    )
    train.set_defaults(func=_cmd_train)

    recommend = sub.add_parser(
        "recommend",
        help="recommend imputation algorithms for faulty series",
        parents=[common],
    )
    recommend.add_argument("--engine", required=True, help="engine JSON path")
    recommend.add_argument("--data", required=True, help="faulty series CSV")
    recommend.set_defaults(func=_cmd_recommend)

    repair = sub.add_parser(
        "repair", help="recommend and impute in one step", parents=[common]
    )
    repair.add_argument("--engine", required=True, help="engine JSON path")
    repair.add_argument("--data", required=True, help="faulty series CSV")
    repair.add_argument("--out", required=True, help="repaired series CSV path")
    repair.set_defaults(func=_cmd_repair)

    lister = sub.add_parser(
        "list-imputers", help="list available algorithms", parents=[common]
    )
    lister.set_defaults(func=_cmd_list_imputers)

    monitor = sub.add_parser(
        "monitor",
        help="replay a CSV through an inline serving daemon and render "
        "its serving-health document",
        parents=[common],
    )
    monitor.add_argument("--engine", required=True, help="engine JSON path")
    monitor.add_argument("--data", required=True, help="faulty series CSV")
    monitor.add_argument(
        "--repeat", type=int, default=1,
        help="times to replay the CSV through the daemon",
    )
    monitor.add_argument(
        "--batch", type=int, default=1,
        help="series per daemon batch (1 = one batch per series)",
    )
    monitor.add_argument(
        "--drift-window", type=int, default=256,
        help="feature vectors held by the drift detector",
    )
    monitor.add_argument(
        "--drift-min-samples", type=int, default=64,
        help="vectors required before drift scoring starts",
    )
    monitor.add_argument(
        "--psi-threshold", type=float, default=0.25,
        help="PSI alert threshold (population stability index)",
    )
    monitor.add_argument(
        "--ks-threshold", type=float, default=0.5,
        help="KS-statistic alert threshold",
    )
    monitor.add_argument(
        "--format", choices=("json", "prometheus"), default="json",
        help="stdout rendering of the health document",
    )
    monitor.add_argument(
        "--out", default=None, help="also write the health JSON here"
    )
    monitor.add_argument(
        "--prom-out", default=None,
        help="also write the Prometheus text exposition here",
    )
    monitor.add_argument(
        "--watch", type=float, default=None, metavar="SECONDS",
        help="refresh mode: replay and re-render every SECONDS "
        "(clear screen between frames; Ctrl-C exits cleanly)",
    )
    monitor.set_defaults(func=_cmd_monitor)

    serve = sub.add_parser(
        "serve",
        help="run the sharded serving daemon (JSON-lines over a socket)",
        parents=[common],
    )
    serve.add_argument("--engine", required=True, help="engine JSON path")
    serve.add_argument(
        "--shards", type=int, default=2,
        help="worker shard count (each attaches the engine via shm)",
    )
    serve.add_argument(
        "--shard-backend", choices=("auto", "process", "inline"),
        default="auto",
        help="shard execution backend (auto: process when shm works)",
    )
    serve.add_argument(
        "--max-batch", type=int, default=16,
        help="micro-batch size bound",
    )
    serve.add_argument(
        "--max-delay-ms", type=float, default=5.0,
        help="micro-batch coalescing budget in milliseconds",
    )
    serve.add_argument(
        "--max-pending", type=int, default=1024,
        help="admission limit before requests are shed with a 503",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=7653,
        help="TCP port (0 = ephemeral; printed on startup)",
    )
    serve.add_argument(
        "--socket", default=None, metavar="PATH",
        help="serve on a unix socket instead of TCP",
    )
    serve.add_argument(
        "--selfcheck", type=int, default=None, metavar="N",
        help="CI lane: serve N seeded requests through the real socket, "
        "then exit non-zero on any shed/error response",
    )
    serve.add_argument(
        "--seed", type=int, default=0, help="selfcheck load-generator seed"
    )
    serve.add_argument(
        "--length", type=int, default=96,
        help="selfcheck series length",
    )
    serve.add_argument(
        "--snapshot-out", default=None, metavar="PATH",
        help="export the final HealthSnapshot JSON here",
    )
    serve.set_defaults(func=_cmd_serve)

    top = sub.add_parser(
        "top",
        help="live ANSI dashboard: SLOs, burn rates, latency, resources",
        parents=[common],
    )
    top.add_argument(
        "--connect", default=None, metavar="HOST:PORT|PATH",
        help="poll a running 'repro serve' for its health document",
    )
    top.add_argument(
        "--snapshot", default=None, metavar="PATH",
        help="render a health-snapshot JSON exported by 'repro monitor' "
        "or 'repro serve --snapshot-out'",
    )
    top.add_argument(
        "--once", action="store_true",
        help="render a single frame and exit (CI-friendly, no ANSI clear)",
    )
    top.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="refresh period for the live loop",
    )
    top.add_argument(
        "--no-color", action="store_true",
        help="disable ANSI colors even on a TTY",
    )
    top.set_defaults(func=_cmd_top)

    report = sub.add_parser(
        "report",
        help="render a human-readable summary of a saved trace",
        parents=[common],
    )
    report.add_argument(
        "--trace", required=True, help="trace JSON written by --trace-out"
    )
    report.add_argument(
        "--metrics", default=None,
        help="optional metrics dump written by --metrics-out",
    )
    report.add_argument(
        "--top", type=int, default=10, help="rows in the slowest-span table"
    )
    report.set_defaults(func=_cmd_report)

    audit = sub.add_parser(
        "audit",
        help="filter/tail/summarize a repair-provenance ledger file",
        parents=[common],
    )
    audit.add_argument(
        "--ledger", required=True,
        help="ledger JSONL written via --ledger-out",
    )
    audit.add_argument(
        "--kind", default=None,
        choices=("fit", "race", "label", "repair", "impute"),
        help="only records of this kind",
    )
    audit.add_argument(
        "--algorithm", default=None,
        help="only repair/impute records for this imputer",
    )
    audit.add_argument(
        "--cluster", default=None,
        help="only repair records assigned to this cluster id",
    )
    audit.add_argument(
        "--degraded-only", action="store_true",
        help="only degraded/fallback repairs",
    )
    audit.add_argument(
        "--tail", type=int, default=0, metavar="N",
        help="only the last N matching records",
    )
    audit.add_argument(
        "--summary", action="store_true",
        help="render aggregate scorecards instead of individual records",
    )
    audit.add_argument(
        "--json", action="store_true",
        help="emit JSON instead of the text rendering",
    )
    audit.set_defaults(func=_cmd_audit)

    explain = sub.add_parser(
        "explain",
        help="render one repair's full decision path from a ledger",
        parents=[common],
    )
    explain.add_argument(
        "repair_id", help="repair id (rep_...) from a ledger/repair output"
    )
    explain.add_argument(
        "--ledger", required=True,
        help="ledger JSONL written via --ledger-out",
    )
    explain.add_argument(
        "--engine", default=None,
        help="optional engine JSON whose fit-time ledger head extends "
        "the lineage search (for ledgers written only at serving time)",
    )
    explain.add_argument(
        "--json", action="store_true",
        help="emit the structured explanation as JSON",
    )
    explain.set_defaults(func=_cmd_explain)
    return parser


def _run_with_observability(args) -> int:
    """Execute the subcommand, installing a tracer/ledger when requested.

    ``--metrics-out`` exports the process metrics registry, which counts
    every run whether or not it is written out.

    The resilience flags install a process-level
    :class:`~repro.resilience.FaultPolicy` for the duration of the
    subcommand, so deadlines/retries apply to every instrumented site
    (race evaluations, imputation calls) without plumbing arguments
    through each code path.
    """
    if getattr(args, "verbose", False):
        enable_console_logging(logging.INFO)
    policy = _fault_policy_from_args(args)
    trace_out = getattr(args, "trace_out", None)
    metrics_out = getattr(args, "metrics_out", None)
    ledger_out = getattr(args, "ledger_out", None)
    if not trace_out and not metrics_out and not ledger_out:
        if policy is None:
            return args.func(args)
        with use_fault_policy(policy):
            return args.func(args)
    tracer = Tracer() if trace_out else None
    ledger = RepairLedger(ledger_out) if ledger_out else None
    if metrics_out:
        declare_counters()
    try:
        with use_tracer(tracer), use_ledger(ledger), use_fault_policy(policy):
            return args.func(args)
    finally:
        if tracer is not None:
            path = tracer.export_chrome_trace(trace_out)
            print(f"wrote trace to {path}", file=sys.stderr)
        if metrics_out:
            path = get_metrics().export(metrics_out)
            print(f"wrote metrics to {path}", file=sys.stderr)
        if ledger is not None:
            ledger.close()
            print(
                f"wrote {ledger.n_written} ledger records to {ledger.path}",
                file=sys.stderr,
            )


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run_with_observability(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
