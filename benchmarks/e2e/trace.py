"""Spans recorded from outside the program, and the breakdowns built on them.

The benchmark times layers by wrapping public callables of ``repro``
before the program runs; nothing under ``src/`` changes.  A wrapper
records one span per call: name, start and end on ``perf_counter`` (one
CLOCK_MONOTONIC shared by every process on Linux), pid, thread, its own
id, the id of the enclosing span on the same thread, and the request ids
the call served.  Spans stay in memory and are written once, at exit:
by ``atexit`` in the process that installed the wrappers and by
``multiprocessing.util.Finalize`` in forked workers, which leave through
``os._exit`` and so skip ``atexit``.  Buffering keeps file writes off
every request's path.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import itertools
import json
import multiprocessing.util
import os
import pathlib
import threading
import time
from collections import defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    pid: int
    tid: int
    sid: int
    parent: int
    ids: list | None
    n: int | None


# ---------------------------------------------------------------------------
# Wrapper set
# ---------------------------------------------------------------------------
def _request_ids(requests):
    return [r.id for r in requests]


# (module, attribute path, span name, ids(args, result), n(args)).
TRAIN_TARGETS = (
    ("repro.clustering.labeling", "ClusterLabeler.label_corpus", "label", None, None),
    ("repro.clustering.incremental", "IncrementalClustering.fit", "cluster", None, None),
    ("repro.features.extractor", "FeatureExtractor.extract_many", "extract", None,
     lambda args: len(args[1])),
    ("repro.core.modelrace", "ModelRace.run", "race", None, None),
    ("repro.pipeline.pipeline", "Pipeline.fit", "pipeline_fit", None, None),
    ("repro.core.adarts", "ADarts.fit_features", "refit", None, None),
    ("repro.core.serialization", "save_engine", "export", None, None),
)

SERVE_TARGETS = (
    ("repro.cli", "load_engine", "load_engine", None, None),
    ("repro.serving.shards", "SharedEngine.publish", "publish", None, None),
    ("repro.serving.shards", "attach_shared_engine", "attach", None, None),
    ("repro.serving.daemon", "ServingDaemon.submit", "submit",
     lambda args, result: [args[1].id], None),
    ("repro.serving.daemon", "decode_request", "decode",
     lambda args, result: None if result is None else [result.id], None),
    ("repro.serving.daemon", "encode_response", "encode",
     lambda args, result: [args[0].id], None),
    ("repro.serving.shards", "ShardPool.run_batch", "run_batch",
     lambda args, result: _request_ids(args[1]), None),
    ("repro.serving.shards", "serve_payload", "payload",
     lambda args, result: [row[0] for row in args[1]], None),
    ("repro.core.adarts", "ADarts.extract_features", "extract", None, None),
    ("repro.core.adarts", "ADarts.recommend_many", "recommend", None, None),
    ("repro.core.adarts", "ADarts.repair_many", "repair", None, None),
)

REPAIR_TARGETS = (
    ("repro.cli", "load_engine", "load_engine", None, None),
    ("repro.cli", "read_series_csv", "read", None, None),
    ("repro.core.adarts", "ADarts.extract_features", "extract", None,
     lambda args: len(args[1])),
    ("repro.core.adarts", "ADarts.recommend_many", "recommend", None, None),
    ("repro.core.adarts", "ADarts.repair_many", "repair", None, None),
    ("repro.cli", "write_series_csv", "write", None, None),
)

TARGETS = {"train": TRAIN_TARGETS, "serve": SERVE_TARGETS, "repair": REPAIR_TARGETS}


class Recorder:
    """In-memory span buffer of one process, flushed to ``out_dir`` at exit."""

    def __init__(self, out_dir):
        self.out_dir = pathlib.Path(out_dir)
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._ids = itertools.count(1)

    def wrap(self, fn, name, ids=None, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local = self._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else 0
            sid = next(self._ids)
            stack.append(sid)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((
                    name, start, end, self.pid, threading.get_ident(), sid,
                    parent,
                    ids(args, result) if ids is not None else None,
                    count(args) if count is not None else None,
                ))

        return wrapper

    def flush(self) -> None:
        path = self.out_dir / f"spans-{self.pid}.json"
        path.write_text(json.dumps(self.spans))

    def _after_fork(self) -> None:
        # Spans recorded before the fork belong to the parent's file.
        self._reset()
        multiprocessing.util.Finalize(self, self.flush, exitpriority=100)


def install(recorder: Recorder, targets) -> None:
    """Replace every target callable with a span-recording wrapper."""
    for module_name, path, name, ids, count in targets:
        owner = importlib.import_module(module_name)
        *owner_path, attr = path.split(".")
        for part in owner_path:
            owner = getattr(owner, part)
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(recorder.wrap(raw.__func__, name, ids, count))
        else:
            wrapped = recorder.wrap(raw, name, ids, count)
        setattr(owner, attr, wrapped)


def record(out_dir, kind: str) -> Recorder:
    """Install the ``kind`` wrapper set and arrange the flushes at exit."""
    recorder = Recorder(out_dir)
    install(recorder, TARGETS[kind])
    atexit.register(recorder.flush)
    multiprocessing.util.register_after_fork(recorder, Recorder._after_fork)
    return recorder


def load_spans(out_dir) -> list[Span]:
    spans = []
    for path in sorted(pathlib.Path(out_dir).glob("spans-*.json")):
        spans.extend(Span(*row) for row in json.loads(path.read_text()))
    return spans


# ---------------------------------------------------------------------------
# Self time
# ---------------------------------------------------------------------------
def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def nearest_layer(spans, layers) -> dict:
    """``(pid, sid)`` of each span -> its nearest enclosing layer span.

    Spans whose name is not in ``layers`` are transparent: their time
    belongs to the layer that encloses them.
    """
    by_key = {(s.pid, s.sid): s for s in spans}
    out = {}
    for s in spans:
        key = (s.pid, s.parent)
        while key[1] and key in by_key and by_key[key].name not in layers:
            key = (s.pid, by_key[key].parent)
        out[(s.pid, s.sid)] = key if key[1] and key in by_key else None
    return out


def self_times(spans, layers) -> dict:
    """Self time of every layer span: its duration minus its layer children."""
    owner = nearest_layer(spans, layers)
    children = defaultdict(list)
    for s in spans:
        parent = owner[(s.pid, s.sid)]
        if s.name in layers and parent is not None:
            children[parent].append((s.start, s.end))
    return {
        (s.pid, s.sid): (s.end - s.start)
        - covered(children[(s.pid, s.sid)], s.start, s.end)
        for s in spans
        if s.name in layers
    }


def layer_totals(spans, layers) -> dict[str, float]:
    """Summed self time per layer name (every name in ``layers`` present)."""
    totals = dict.fromkeys(layers, 0.0)
    by_key = {(s.pid, s.sid): s for s in spans}
    for key, seconds in self_times(spans, layers).items():
        totals[by_key[key].name] += seconds
    return totals


def within(spans, pid: int, lo: float, hi: float) -> list[Span]:
    return [s for s in spans if s.pid == pid and s.start >= lo and s.end <= hi]


# ---------------------------------------------------------------------------
# Per-request partition of a served request
# ---------------------------------------------------------------------------
SERVE_LAYERS = (
    "intake", "queue_wait", "dispatch", "extract", "vote", "impute",
    "payload", "respond",
)


def partition(m: dict) -> dict[str, float]:
    """Split ``received - due`` into consecutive layer intervals.

    The boundaries are span edges, so the parts telescope to the total:
    intake (due -> submit returned), queue_wait (-> batch dispatched),
    dispatch (-> shard starts the payload), extract, vote (rest of
    ``recommend_many``), impute (``repair_many``), payload (the shard's
    remaining work around them) and respond (-> the client has the line).
    """
    return {
        "intake": m["submitted"] - m["due"],
        "queue_wait": m["batch_start"] - m["submitted"],
        "dispatch": m["payload_start"] - m["batch_start"],
        "extract": m["extract_end"] - m["extract_start"],
        "vote": m["recommend_end"] - m["extract_end"],
        "impute": m["repair_end"] - m["repair_start"],
        "payload": (m["extract_start"] - m["payload_start"])
        + (m["repair_start"] - m["recommend_end"])
        + (m["payload_end"] - m["repair_end"]),
        "respond": m["received"] - m["payload_end"],
    }


def request_marks(spans, requests) -> dict[str, dict | None]:
    """Boundary timestamps per request id (``None`` when a span is missing).

    ``requests`` maps request id -> ``(due, received)`` from the client.
    """
    submitted, batch_start, payload_of = {}, {}, defaultdict(list)
    payload_parts = defaultdict(dict)
    by_key = {(s.pid, s.sid): s for s in spans}
    for s in spans:
        if s.name == "submit":
            submitted[s.ids[0]] = s.end
        elif s.name == "run_batch":
            for rid in s.ids:
                batch_start[rid] = s.start
        elif s.name == "payload":
            for rid in s.ids:
                payload_of[rid].append(s)
        elif s.name in ("extract", "recommend", "repair"):
            key = (s.pid, s.parent)
            while key in by_key and by_key[key].name != "payload":
                key = (s.pid, by_key[key].parent)
            if key in by_key:
                payload_parts[key][s.name] = s
    out = {}
    for rid, (due, received) in requests.items():
        done = [p for p in payload_of.get(rid, ()) if p.end <= received]
        marks = None
        if done and rid in submitted and rid in batch_start:
            payload = max(done, key=lambda p: p.end)
            parts = payload_parts.get((payload.pid, payload.sid), {})
            if len(parts) == 3:
                marks = {
                    "due": due,
                    "submitted": submitted[rid],
                    "batch_start": batch_start[rid],
                    "payload_start": payload.start,
                    "extract_start": parts["extract"].start,
                    "extract_end": parts["extract"].end,
                    "recommend_end": parts["recommend"].end,
                    "repair_start": parts["repair"].start,
                    "repair_end": parts["repair"].end,
                    "payload_end": payload.end,
                    "received": received,
                }
        out[rid] = marks
    return out


def serve_breakdown(spans, requests) -> tuple[dict[str, float], int]:
    """Mean seconds per serve layer over attributed requests, and their count."""
    sums = dict.fromkeys(SERVE_LAYERS, 0.0)
    n = 0
    for marks in request_marks(spans, requests).values():
        if marks is None:
            continue
        n += 1
        for layer, seconds in partition(marks).items():
            sums[layer] += seconds
    return {k: v / n if n else 0.0 for k, v in sums.items()}, n


# ---------------------------------------------------------------------------
# Sum check and Chrome trace
# ---------------------------------------------------------------------------
SUM_TOLERANCE = 0.05


def sums_to(parts: float, total: float, tolerance: float = SUM_TOLERANCE) -> bool:
    """Whether the layer ``parts`` account for ``total`` within ``tolerance``."""
    return total > 0 and abs(parts - total) <= tolerance * total


def write_chrome_trace(path, spans, extra_events=()) -> None:
    """One Chrome ``trace_event`` file for spans from every process."""
    starts = [s.start for s in spans]
    t0 = min(starts) if starts else 0.0
    events = [
        {
            "name": s.name,
            "ph": "X",
            "ts": (s.start - t0) * 1e6,
            "dur": (s.end - s.start) * 1e6,
            "pid": s.pid,
            "tid": s.tid,
            "args": {"ids": (s.ids or [])[:16], "n": s.n},
        }
        for s in spans
    ]
    for name, start, end, pid, args in extra_events:
        events.append({
            "name": name, "ph": "X", "ts": (start - t0) * 1e6,
            "dur": (end - start) * 1e6, "pid": pid, "tid": 0, "args": args,
        })
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
