"""The four workloads: inputs from the seed, the timed loop, output checks.

Every timed operation runs in a fresh ``child.py`` process; this module
is the harness around it.  The serve client is this process: one TCP
connection, a writer thread sending on the arrival schedule and a
reader thread stamping each response line as it arrives.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import pathlib
import re
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time

import stats
import trace
from child import peak_rss_mb

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
CHILD = HERE / "child.py"
#: Everything a run leaves behind: the engine cache, traces, scratch.
WORK = ROOT / ".bench_build" / "e2e"

#: Set-up samples per run; set-up time is reported as their median.
SETUP_SAMPLES = 3
#: Serve arrivals before this many seconds are sent but not measured.
WARMUP_S = 1.0
#: A served response counts toward goodput only within this latency.
GOOD_LATENCY_S = 0.100
#: Measured serve responses compared with the library, per launch.
PARITY_RESPONSES = 256
SERVE_LENGTH = 96
SERVE_GAP = 0.15
REPAIR_SERIES = 1024
REPAIR_LENGTH = 256
REPAIR_GAP = 0.20
CHILD_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    """A run that could not produce a measurement."""


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------
class Children:
    """Every process a run starts; ``close`` ends and reaps them all."""

    def __init__(self):
        self.procs: list[subprocess.Popen] = []

    def spawn(self, args, stderr_path, *, stdout=subprocess.PIPE):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        with open(stderr_path, "w") as err:
            proc = subprocess.Popen(
                [sys.executable, str(CHILD), *map(str, args)],
                stdout=stdout, stderr=err, env=env, cwd=ROOT, text=True,
                start_new_session=True,
            )
        self.procs.append(proc)
        return proc

    def close(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGINT)
        for proc in self.procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                pass
            # The session holds forked workers that outlive a killed parent.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
            proc.wait()


def run_child(children: Children, args, workdir, tag):
    """Run one child to completion; returns ``(t_spawn, pid, result)``."""
    err = workdir / f"{tag}.err"
    t_spawn = time.perf_counter()
    proc = children.spawn(args, err)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{tag}: child did not finish in {CHILD_TIMEOUT_S}s")
    if proc.returncode != 0:
        tail = err.read_text()[-2000:]
        raise BenchError(f"{tag}: child exited {proc.returncode}\n{tail}")
    return t_spawn, proc.pid, json.loads(stdout.strip().splitlines()[-1])


def process_tree(pid: int) -> list[int]:
    parents = {}
    for entry in pathlib.Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                stat = (entry / "stat").read_text()
            except OSError:
                continue
            parents[int(entry.name)] = int(stat.rsplit(")", 1)[1].split()[1])
    tree, frontier = [pid], [pid]
    while frontier:
        frontier = [c for c, p in parents.items() if p in frontier]
        tree.extend(frontier)
    return tree


# ---------------------------------------------------------------------------
# Engine shared by serve and repair
# ---------------------------------------------------------------------------
def src_digest() -> str:
    """Digest of the program and of this benchmark, which both shape the cache."""
    digest = hashlib.sha1()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def engine_dir() -> pathlib.Path:
    return WORK / f"engine-{src_digest()}"


def cache_engine(result) -> None:
    """Keep the first trained engine, its elites and labeled holdout for later runs."""
    target = engine_dir()
    if (target / "meta.json").exists():
        return
    target.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(result["engine"], target / "engine.json")
    shutil.copyfile(result["holdout"], target / "holdout.csv")
    meta = {"elites": result["elites"], "holdout_labels": result["holdout_labels"]}
    tmp = target / "meta.json.tmp"
    tmp.write_text(json.dumps(meta))
    tmp.replace(target / "meta.json")


def ensure_engine(children, workdir) -> tuple[pathlib.Path, pathlib.Path, list]:
    """The cached engine, trained (untimed) when this checkout has none.

    Returns the engine, the CSV of labeled held-out series and their
    labels (the best imputer for each, as the engine's labeler found).
    """
    target = engine_dir()
    if not (target / "meta.json").exists():
        cache_engine(_fit(children, workdir, "engine-build"))
    meta = json.loads((target / "meta.json").read_text())
    return target / "engine.json", target / "holdout.csv", meta["holdout_labels"]


def holdout_f1(labels, algorithms) -> float:
    """Weighted F1 of the algorithms a path picked for the held-out series."""
    from repro.pipeline.metrics import f1_weighted

    return float(f1_weighted(labels, [a or "" for a in algorithms]))


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------
def end_to_end(setups, latencies_s, goodput, rss_mb, f1) -> dict:
    return {
        "setup_s": stats.median(setups),
        "latency_p50_ms": 1000 * stats.median(latencies_s),
        "goodput_per_s": goodput,
        "peak_rss_mb": rss_mb,
        "quality_f1": f1,
    }


def closed_loop(op, seconds):
    """Run ``op(k)`` back to back while the next one should end in time.

    At least one operation runs; another starts only when, at the pace
    of the last one, it would finish within ``seconds``.
    """
    results = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        results.append(op(len(results)))
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            return results


def closed_loop_run(op, probe, seconds, traced, workdir):
    """The operations of a closed-loop run and its set-up samples.

    Untraced: ``op(k)`` back to back for ``seconds``, with ``probe(k)``
    (a set-up-only process) making up ``SETUP_SAMPLES`` set-up samples.
    Traced: one untraced and one traced operation, the second writing its
    spans to ``workdir / "spans"``.
    """
    if traced:
        trace_dir = workdir / "spans"
        trace_dir.mkdir()
        return [op(0), op(1, trace_dir)], []
    ops = closed_loop(op, seconds)
    setups = [o["setup_s"] for o in ops]
    while len(setups) < SETUP_SAMPLES:
        setups.append(probe(len(setups)))
    return ops, setups


class Outcome:
    """What one run measured and whether its outputs were right."""

    def __init__(self):
        self.metrics: dict[str, float] = {}
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.trace_path = None

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------
def _fit(children, workdir, k, trace_dir=None):
    out = workdir / f"train-{k}.json"
    holdout = workdir / f"holdout-{k}.csv"
    args = ["train", "--engine-out", out, "--holdout-out", holdout]
    if trace_dir is not None:
        args += ["--trace-dir", trace_dir]
    t_spawn, pid, result = run_child(children, args, workdir, f"train-{k}")
    result.update(
        setup_s=result["ready"] - t_spawn,
        train_s=result["end"] - result["start"],
        pid=pid,
        engine=out,
        holdout=holdout,
    )
    return result


def train(seed, seconds, traced, children, workdir) -> Outcome:
    """Closed loop of whole training runs on the fixed corpus.

    ``seed`` is unused on purpose: the corpus is the fixed ``repro
    train`` corpus (see README.md).
    """
    del seed
    outcome = Outcome()
    meta_path = engine_dir() / "meta.json"
    cached = json.loads(meta_path.read_text()) if meta_path.exists() else None

    def probe(k):
        t_spawn, _, result = run_child(
            children, ["train", "--engine-out", "-", "--setup-only"],
            workdir, f"train-probe-{k}",
        )
        return result["ready"] - t_spawn

    fits, setups = closed_loop_run(
        functools.partial(_fit, children, workdir), probe, seconds, traced, workdir
    )
    outcome.attempted = len(fits)
    elites = {tuple(f["elites"]) for f in fits}
    outcome.check(len(elites) == 1, "train: runs kept different elites")
    if cached is not None:
        outcome.check(
            elites == {tuple(cached["elites"])},
            "train: elites differ from the engine cached by an earlier run",
        )
    else:
        cache_engine(fits[0])
    if not traced:
        times = [f["train_s"] for f in fits]
        outcome.metrics = end_to_end(
            setups, times,
            stats.median([f["n_series"] / f["train_s"] for f in fits]),
            stats.median([f["rss_mb"] for f in fits]),
            stats.median([f["f1"] for f in fits]),
        )
        return outcome

    plain, fit = fits
    spans = trace.within(
        trace.load_spans(workdir / "spans"), fit["pid"], fit["start"], fit["end"]
    )
    layers = ("label", "cluster", "extract", "race", "refit", "export")
    totals = trace.layer_totals(spans, layers)
    owner = trace.nearest_layer(spans, layers)
    by_key = {(s.pid, s.sid): s for s in spans}

    def owned_by(span, name):
        key = owner[(span.pid, span.sid)]
        return key is not None and by_key[key].name == name

    covered = sum(totals.values())
    outcome.metrics = {
        "train.label_s": totals["label"],
        "train.label.cluster_s": totals["cluster"],
        "train.extract_s": totals["extract"],
        "train.extract.series": sum(
            s.n for s in spans if s.name == "extract" and not owned_by(s, "extract")
        ),
        "train.race_s": totals["race"],
        "train.race.evals": fit["evals"],
        "train.race.eval_ms": 1000 * totals["race"] / max(1, fit["evals"]),
        "train.race.prune_ratio": fit["prune_ratio"],
        "train.race.failures": fit["failures"],
        "train.race.fit_calls": sum(
            1 for s in spans if s.name == "pipeline_fit" and owned_by(s, "race")
        ),
        "train.refit_s": totals["refit"],
        "train.export_s": totals["export"],
        "trace.coverage": covered / fit["train_s"],
        "trace_overhead": fit["train_s"] / plain["train_s"] - 1.0,
    }
    outcome.check(
        trace.sums_to(covered, fit["train_s"]),
        f"train: layers sum to {covered:.3f}s of {fit['train_s']:.3f}s",
    )
    outcome.trace_path = WORK / "traces" / "train.json"
    trace.write_chrome_trace(outcome.trace_path, spans)
    return outcome


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------
class Daemon:
    """One ``repro serve`` launch, up to its first 200 response."""

    def __init__(self, children, workdir, engine, generator, tag, trace_dir=None):
        from repro.serving import decode_response, encode_request

        self.snapshot = workdir / f"snapshot-{tag}.json"
        err = workdir / f"serve-{tag}.err"
        args = ["serve", "--engine", engine, "--snapshot-out", self.snapshot]
        if trace_dir is not None:
            args += ["--trace-dir", trace_dir]
        t_spawn = time.perf_counter()
        self.proc = children.spawn(args, err, stdout=subprocess.DEVNULL)
        address = None
        deadline = t_spawn + 60.0
        while address is None:
            match = re.search(r" on (\S+):(\d+)\s*$", err.read_text(), re.M)
            if match:
                address = (match.group(1), int(match.group(2)))
            elif self.proc.poll() is not None or time.perf_counter() > deadline:
                raise BenchError(f"serve-{tag}: no address\n{err.read_text()[-2000:]}")
            else:
                time.sleep(0.005)
        self.conn = socket.create_connection(address)
        self.conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.conn.makefile("rb")
        self.conn.sendall(encode_request(generator.request(10**9)) + b"\n")
        first = decode_response(self.reader.readline())
        self.setup_s = time.perf_counter() - t_spawn
        if first.status != 200:
            raise BenchError(f"serve-{tag}: first response {first.status}")

    def stop(self) -> tuple[float, dict]:
        """Close the client, read the tree's peak RSS, stop the daemon."""
        self.conn.shutdown(socket.SHUT_RDWR)
        self.reader.close()
        self.conn.close()
        rss = sum(peak_rss_mb(p) for p in process_tree(self.proc.pid))
        self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            raise BenchError("serve: daemon did not stop on SIGINT")
        snapshot = json.loads(self.snapshot.read_text()) if self.snapshot.exists() else {}
        return rss, snapshot


def drive(daemon: Daemon, lines, offsets, timeout_s: float) -> dict:
    """Send ``lines`` on the schedule; returns sent/received stamps by index."""
    n = len(lines)
    sent = [0.0] * n
    received: list[tuple[float, bytes]] = []

    def read() -> None:
        try:
            for _ in range(n):
                line = daemon.reader.readline()
                if not line:
                    return
                received.append((time.perf_counter(), line))
        except (OSError, ValueError):
            return

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    t0 = time.perf_counter() + 0.01
    for i in range(n):
        delay = t0 + offsets[i] - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        sent[i] = time.perf_counter()
        daemon.conn.sendall(lines[i])
    reader.join(timeout=timeout_s)
    return {"t0": t0, "sent": sent, "received": received, "reader": reader}


def _serve_launch(children, workdir, engine, generator, holdout, rate, seconds, tag,
                  trace_dir=None, probes=0):
    """Set-up probes, then one launch under load; returns its measurements.

    The held-out series go out together once the measured window has
    closed, so they add nothing to the latencies; their answers are the
    algorithms this path picked for quality_f1.
    """
    from repro.serving import RepairRequest, decode_response, encode_request

    setups = []
    for k in range(probes):
        probe = Daemon(children, workdir, engine, generator, f"{tag}-probe{k}")
        setups.append(probe.setup_s)
        probe.stop()
    daemon = Daemon(children, workdir, engine, generator, tag, trace_dir)
    setups.append(daemon.setup_s)
    duration = WARMUP_S + seconds
    offsets = generator.arrival_offsets(
        int(rate * duration * 1.5) + 50, rate_hz=rate, burstiness=1.0
    )
    offsets = [float(o) for o in offsets if o < duration]
    requests = [generator.request(i) for i in range(len(offsets))]
    n_load = len(requests)
    requests += [
        RepairRequest(id=f"holdout-{k}", values=s.values, name=s.name)
        for k, s in enumerate(holdout)
    ]
    offsets += [duration] * len(holdout)
    lines = [encode_request(r) + b"\n" for r in requests]
    stamps = drive(daemon, lines, offsets, timeout_s=60.0)
    rss, snapshot = daemon.stop()
    stamps["reader"].join(timeout=10.0)  # ends at the socket shutdown

    index = {r.id: i for i, r in enumerate(requests)}
    responses = {}
    for at, line in stamps["received"]:
        response = decode_response(line)
        responses[index[response.id]] = (at, response)
    t0 = stamps["t0"]
    measured = [i for i in range(n_load) if offsets[i] >= WARMUP_S]
    ok = [i for i in measured if i in responses and responses[i][1].status == 200]
    due = {i: t0 + offsets[i] for i in measured}
    latency, lateness = stats.due_latencies(
        [due[i] for i in ok],
        [stamps["sent"][i] for i in ok],
        [responses[i][0] for i in ok],
    )
    picked = [
        responses[i][1].algorithm if i in responses else None
        for i in range(n_load, len(requests))
    ]
    return {
        "setups": setups,
        "measured": measured,
        "ok": ok,
        "latency": latency,
        "lateness": lateness,
        "due": due,
        "responses": responses,
        "rss_mb": rss,
        "snapshot": snapshot,
        "requests": requests,
        "holdout_picked": picked,
    }


def _parity(engine_path, launch) -> list[str]:
    """Compare the first measured responses with ``ADarts.repair_many``."""
    import numpy as np

    from repro.core.serialization import load_engine
    from repro.timeseries.series import TimeSeries

    chosen = sorted(launch["ok"])[:PARITY_RESPONSES]
    if len(chosen) < PARITY_RESPONSES:
        return [f"serve: only {len(chosen)} responses to compare"]
    engine = load_engine(engine_path)
    series = [
        TimeSeries(launch["requests"][i].values, name=launch["requests"][i].name)
        for i in chosen
    ]
    recommendations = engine.recommend_many(series)
    repaired = engine.repair_many(series, recommendations)
    bad = []
    for i, rec, fixed in zip(chosen, recommendations, repaired):
        response = launch["responses"][i][1]
        if response.algorithm != rec.algorithm or (
            np.asarray(response.values, dtype=float).tobytes()
            != np.asarray(fixed.values, dtype=float).tobytes()
        ):
            bad.append(i)
    return [f"serve: {len(bad)} responses differ from the library"] if bad else []


def serve(rate):
    def run(seed, seconds, traced, children, workdir) -> Outcome:
        import repro.cli
        from repro.serving.testing import LoadGenerator

        outcome = Outcome()
        engine, holdout_csv, labels = ensure_engine(children, workdir)
        holdout = repro.cli.read_series_csv(holdout_csv)
        generator = LoadGenerator(seed, length=SERVE_LENGTH, missing_fraction=SERVE_GAP)
        launch_args = (children, workdir, engine, generator, holdout, rate)
        if not traced:
            launch = _serve_launch(
                *launch_args, seconds, "load", probes=SETUP_SAMPLES - 1
            )
            launches = [launch]
        else:
            trace_dir = workdir / "spans"
            trace_dir.mkdir()
            half = seconds / 2
            plain = _serve_launch(*launch_args, half, "plain")
            launch = _serve_launch(*launch_args, half, "traced", trace_dir)
            launches = [plain, launch]
        for one in launches:
            outcome.attempted += len(one["measured"])
            outcome.failed += len(one["measured"]) - len(one["ok"])
            outcome.failures += _parity(engine, one)
            unanswered = one["holdout_picked"].count(None)
            outcome.check(not unanswered, f"serve: {unanswered} held-out series unanswered")
        if not traced:
            good = sum(1 for lat in launch["latency"] if lat <= GOOD_LATENCY_S)
            outcome.metrics = end_to_end(
                launch["setups"], launch["latency"], good / seconds,
                launch["rss_mb"], holdout_f1(labels, launch["holdout_picked"]),
            )
            return outcome

        spans = trace.load_spans(trace_dir)
        requests = {
            launch["requests"][i].id: (launch["due"][i], launch["responses"][i][0])
            for i in launch["ok"]
        }
        means, n_attributed = trace.serve_breakdown(spans, requests)
        mean_latency = sum(launch["latency"]) / max(1, len(launch["latency"]))
        measured_ids = {launch["requests"][i].id for i in launch["measured"]}
        batches = [s for s in spans if s.name == "run_batch" and s.ids[0] in measured_ids]

        def mean_span(name, ids=None):
            durations = [
                s.end - s.start for s in spans
                if s.name == name and (ids is None or (s.ids and s.ids[0] in ids))
            ]
            return sum(durations) / len(durations) if durations else 0.0

        resilience = launch["snapshot"].get("resilience", {})
        attributed = n_attributed / max(1, len(requests))
        covered = sum(means.values())
        outcome.metrics = {
            **{f"serve.{k}_ms": 1000 * v for k, v in means.items()},
            "serve.decode_ms": 1000 * mean_span("decode", measured_ids),
            "serve.encode_ms": 1000 * mean_span("encode", measured_ids),
            "serve.batch_size": (
                sum(len(s.ids) for s in batches) / len(batches) if batches else 0.0
            ),
            "serve.batches": len(batches),
            "serve.attributed": attributed,
            "serve.setup.load_engine_s": mean_span("load_engine"),
            "serve.setup.publish_s": mean_span("publish"),
            "serve.setup.attach_s": mean_span("attach"),
            "serve.resubmissions": resilience.get("resubmissions", 0),
            "serve.demotions": resilience.get("demotions", 0),
            "serve.shed": launch["snapshot"].get("alerts", {}).get("shed_requests", 0),
            "serve.gen_late_p99_ms": 1000 * stats.percentile(launch["lateness"], 99),
            # From the untraced launch: the tail is too host-bound for an
            # end-to-end bound (README.md), so it is reported here.
            "serve.latency_tail_ms": 1000 * stats.tail(plain["latency"])[1],
            "trace.coverage": covered / mean_latency if mean_latency else 0.0,
            "trace_overhead": stats.median(launch["latency"])
            / stats.median(plain["latency"]) - 1.0,
        }
        outcome.check(attributed >= 0.99, f"serve: {attributed:.1%} of requests attributed")
        outcome.check(
            trace.sums_to(covered, mean_latency),
            f"serve: layers sum to {1000 * covered:.2f}ms of {1000 * mean_latency:.2f}ms",
        )
        client = [
            ("request", launch["due"][i], launch["responses"][i][0], os.getpid(),
             {"ids": [launch["requests"][i].id]})
            for i in launch["ok"]
        ]
        outcome.trace_path = WORK / "traces" / f"serve-{int(rate)}.json"
        trace.write_chrome_trace(outcome.trace_path, spans, client)
        return outcome

    return run


# ---------------------------------------------------------------------------
# repair
# ---------------------------------------------------------------------------
def _repair(children, workdir, engine, data, n_rows, k, trace_dir=None):
    out = workdir / f"repaired-{k}.csv"
    args = ["repair", "--engine", engine, "--data", data, "--out", out]
    if trace_dir is not None:
        args += ["--trace-dir", trace_dir]
    t_spawn, pid, result = run_child(children, args, workdir, f"repair-{k}")
    text = out.read_text()
    rows = text.splitlines()
    unrepaired = sum(
        1 for row in rows if "nan" in row or "" in row.split(",")
    ) + max(0, n_rows - len(rows))
    picked = {}
    for line in (workdir / f"repair-{k}.err").read_text().splitlines():
        name, sep, algorithm = line.partition("\t")
        if sep and name.startswith("row_"):
            picked[int(name[len("row_"):])] = algorithm
    result.update(
        t_spawn=t_spawn,
        pid=pid,
        setup_s=result["loaded"] - t_spawn,
        op_s=result["end"] - result["loaded"],
        unrepaired=unrepaired,
        sha256=hashlib.sha256(text.encode()).hexdigest(),
        groups=len(set(picked.values())),
        holdout_picked=[picked.get(i) for i in range(REPAIR_SERIES, n_rows)],
    )
    return result


def repair(seed, seconds, traced, children, workdir) -> Outcome:
    """Closed loop of ``repro repair`` runs on one CSV.

    The CSV holds ``REPAIR_SERIES`` seeded series and, after them, the
    labeled held-out series, whose picked algorithms give quality_f1.
    """
    import repro.cli
    from repro.serving.testing import LoadGenerator
    from repro.timeseries.series import TimeSeries

    outcome = Outcome()
    engine, holdout_csv, labels = ensure_engine(children, workdir)
    generator = LoadGenerator(seed, length=REPAIR_LENGTH, missing_fraction=REPAIR_GAP)
    data = workdir / "faulty.csv"
    repro.cli.write_series_csv(
        data, [TimeSeries(generator.series(i)) for i in range(REPAIR_SERIES)]
    )
    with open(data, "a") as fh:
        fh.write(holdout_csv.read_text())
    n_rows = REPAIR_SERIES + len(labels)

    def probe(k):
        t_spawn, _, result = run_child(
            children, ["repair", "--engine", engine, "--setup-only"],
            workdir, f"repair-probe-{k}",
        )
        return result["loaded"] - t_spawn

    ops, setups = closed_loop_run(
        functools.partial(_repair, children, workdir, engine, data, n_rows),
        probe, seconds, traced, workdir,
    )
    outcome.attempted = n_rows * len(ops)
    outcome.failed = sum(op["unrepaired"] for op in ops)
    outcome.check(outcome.failed == 0, f"repair: {outcome.failed} series left unrepaired")
    hashes = {op["sha256"] for op in ops}
    outcome.check(len(hashes) == 1, "repair: output differs between runs")
    record = engine_dir() / f"repair-seed{seed}.sha256"
    if record.exists():
        outcome.check(
            hashes == {record.read_text()},
            "repair: output differs from an earlier run on this seed",
        )
    elif len(hashes) == 1:
        record.write_text(hashes.pop())
    if not traced:
        times = [op["op_s"] for op in ops]
        outcome.metrics = end_to_end(
            setups, times,
            stats.median([(n_rows - op["unrepaired"]) / op["op_s"] for op in ops]),
            stats.median([op["rss_mb"] for op in ops]),
            stats.median([holdout_f1(labels, op["holdout_picked"]) for op in ops]),
        )
        return outcome

    plain, op = ops
    spans = trace.within(
        trace.load_spans(workdir / "spans"), op["pid"], op["t_spawn"], op["end"]
    )
    layers = ("load_engine", "read", "extract", "recommend", "repair", "write")
    totals = trace.layer_totals(spans, layers)
    import_s = op["imported"] - op["t_spawn"]
    wall = op["end"] - op["t_spawn"]
    covered = import_s + sum(totals.values())
    outcome.metrics = {
        "repair.setup.import_s": import_s,
        "repair.setup.load_engine_s": totals["load_engine"],
        "repair.read_s": totals["read"],
        "repair.extract_s": totals["extract"],
        "repair.vote_s": totals["recommend"],
        "repair.impute_s": totals["repair"],
        "repair.impute.groups": op["groups"],
        "repair.write_s": totals["write"],
        "trace.coverage": covered / wall,
        "trace_overhead": op["op_s"] / plain["op_s"] - 1.0,
    }
    outcome.check(
        trace.sums_to(covered, wall),
        f"repair: setup and layers sum to {covered:.3f}s of {wall:.3f}s",
    )
    outcome.trace_path = WORK / "traces" / "repair.json"
    trace.write_chrome_trace(outcome.trace_path, spans)
    return outcome


#: Workload name -> runner; BENCHMARK.json says why each is here.
WORKLOADS = {
    "train": train,
    "serve_light": serve(50.0),
    "serve_heavy": serve(100.0),
    "repair_batch": repair,
}


def run_workload(name, seed, seconds, traced) -> Outcome:
    """One run of one workload, with its children reaped and scratch removed."""
    runner = WORKLOADS[name]
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    children = Children()
    try:
        return runner(seed, seconds, traced, children, workdir)
    finally:
        children.close()
        shutil.rmtree(workdir, ignore_errors=True)
