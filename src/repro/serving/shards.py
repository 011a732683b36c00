"""Worker shards: shared-memory engine transport + resilient dispatch.

A :class:`ShardPool` owns N workers that each serve micro-batches
against the *same* fitted engine.  Two backends:

``process``
    Real OS processes.  The engine is **published once** into shared
    memory (:class:`SharedEngine`): the exported JSON document (minus
    the training matrix) lands in one ``uint8`` segment and the training
    feature matrix in one ``float64`` segment, via the existing
    :class:`repro.parallel.shm.SharedArray` transport.  Workers attach
    both segments at startup — the matrix view is zero-copy — and refit
    the (cheap) pipelines locally.  After startup, the only per-batch
    traffic is the tiny request payload and the result rows; the engine
    itself is never pickled per request, which the E2E test asserts via
    the :class:`~repro.observability.resources.AccountingRegistry`
    ``shared_memory`` counters.  Large batches additionally ship their
    values through a per-batch shared segment (the
    :meth:`~repro.timeseries.batch.SeriesBank.share`-style concat
    transport) instead of the queue pickle.

``inline``
    In-process execution against the parent engine — the fallback when
    shared memory is unavailable, the target of crash demotion, and the
    deterministic backend the test harness uses.

Resilience: only a **lost worker** is a crash — a worker that died, a
hang past the timeout, or a fault injected at the ``serving.shard``
site.  Each records a failure on the pool's
:class:`~repro.resilience.breaker.CircuitBreaker` and the batch is
**resubmitted** to the next healthy shard — a request is never silently
dropped.  A crashed process shard is demoted to an inline runner on the
parent engine (the executor's process→thread demotion, one level up),
recorded by :func:`~repro.resilience.stats.record_demotion`.  When every
shard's circuit is open the pool raises
:class:`~repro.exceptions.AllShardsQuarantinedError` and the daemon
sheds the batch with typed 503 responses.  An error the engine raises
for an input is not a crash: :func:`serve_payload` turns it into that
row's 400/500 answer, so one bad request cannot quarantine a shard.

Chaos hooks: workers evaluate a
:class:`~repro.resilience.FaultInjector` at the ``serving.shard`` site
once per batch (target ``shard-<id>``, token ``("batch", seq)``), so
seeded kill/hang plans reproduce crash and timeout handling exactly.
"""

from __future__ import annotations

import json
import threading
import time

import numpy as np

from repro.exceptions import (
    AllShardsQuarantinedError,
    InjectedFault,
    ServingError,
    ShardsExhaustedError,
    ValidationError,
    WorkerCrashError,
)
from repro.observability import get_logger, get_metrics
from repro.observability.resources import count_kernel
from repro.parallel.shm import (
    SharedArray,
    attach_cached,
    clear_attach_cache,
    shm_available,
)
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.stats import count_event, record_demotion
from repro.serving.protocol import (
    STATUS_BAD_REQUEST,
    STATUS_ERROR,
    STATUS_OK,
    RepairRequest,
)
from repro.timeseries.series import TimeSeries

_log = get_logger(__name__)

#: Fault-injection site evaluated once per batch inside each shard.
FAULT_SITE = "serving.shard"

#: Batches whose values total at least this many bytes ride in a
#: per-batch shared-memory segment instead of the queue pickle.
SHM_BATCH_MIN_BYTES = 16384


# ---------------------------------------------------------------------------
# Shared engine transport
# ---------------------------------------------------------------------------
class SharedEngine:
    """A fitted engine published once into shared-memory segments.

    ``publish`` strips the training feature matrix out of the exported
    JSON document and stores the document bytes and the matrix in two
    :class:`SharedArray` segments.  The picklable :attr:`handle` (two
    ``(name, shape, dtype)`` tuples, ~100 bytes) is all a worker needs;
    :func:`attach_shared_engine` rebuilds the engine there with the
    matrix as a zero-copy view into the segment.

    The publisher owns both segments and must call :meth:`release` when
    the shard fleet is gone (the pool does this in ``stop()``).
    """

    def __init__(self, doc_segment: SharedArray, x_segment: SharedArray):
        self._doc = doc_segment
        self._x = x_segment

    @classmethod
    def publish(cls, engine) -> "SharedEngine":
        from repro.core.serialization import _json_default, export_engine

        document = export_engine(engine)
        X = np.ascontiguousarray(
            np.asarray(document.pop("training_features"), dtype=float)
        )
        payload = json.dumps(document, default=_json_default).encode("utf-8")
        doc_segment = SharedArray.create(
            np.frombuffer(payload, dtype=np.uint8)
        )
        x_segment = SharedArray.create(X)
        return cls(doc_segment, x_segment)

    @property
    def handle(self) -> dict:
        return {"document": self._doc.handle, "train_x": self._x.handle}

    @property
    def nbytes(self) -> int:
        return int(
            self._doc.array.nbytes + self._x.array.nbytes
            if self._doc.array is not None and self._x.array is not None
            else 0
        )

    def release(self) -> None:
        """Unlink both segments (idempotent, owner side)."""
        for segment in (self._doc, self._x):
            segment.unlink()
            segment.close()


def attach_shared_engine(handle: dict):
    """Rebuild a servable engine from a :attr:`SharedEngine.handle`.

    The training matrix stays a view into the shared segment
    (``import_engine``'s ``np.asarray`` on a contiguous float64 view is
    a no-copy passthrough); only the pipelines are refitted locally.
    """
    from repro.core.serialization import import_engine

    doc_view = attach_cached(tuple(handle["document"])).array
    document = json.loads(doc_view.tobytes().decode("utf-8"))
    document["training_features"] = attach_cached(
        tuple(handle["train_x"])
    ).array
    return import_engine(document)


# ---------------------------------------------------------------------------
# Batch execution (shared by every backend and the library-parity tests)
# ---------------------------------------------------------------------------
def serve_payload(engine, payload: list[tuple]) -> list[dict]:
    """Serve one batch payload against a fitted engine.

    ``payload`` rows are ``(request_id, values, mode, name)``.  Returns
    one plain result dict per row, aligned with the input:
    ``{"id", "status", "algorithm", "ranking", "confidence",
    "degraded", "values"?, "error"?}``.  A served row also carries the
    daemon's telemetry, which never reaches the wire: ``features`` (the
    row the vote saw), ``disagreement``, the atlas ``cluster`` and
    ``ncc`` (``None`` without an atlas), ``fallback`` (the static
    fallback answered) and ``quarantined`` (the members the engine's
    votes skip after this batch).  Rows that fail validation
    become 400 rows without failing the batch.  When the batched engine
    call raises, the rows are re-served one at a time, so only the rows
    that raise on their own get an error row (400 ``invalid series`` for
    a :class:`ValidationError`, 500 otherwise); engine errors never
    escape, so the pool never mistakes a bad input for a crashed shard.
    """
    results: list[dict | None] = [None] * len(payload)
    series_list: list[TimeSeries] = []
    indices: list[int] = []
    for i, (request_id, values, mode, name) in enumerate(payload):
        try:
            arr = np.asarray(values, dtype=float)
            if not np.isfinite(arr).any():
                raise ValidationError("series has no observed values")
            series = TimeSeries(arr, name=name or "series")
        except (ValidationError, ValueError, TypeError) as exc:
            results[i] = {
                "id": request_id,
                "status": STATUS_BAD_REQUEST,
                "error": f"invalid series: {exc}",
            }
            continue
        series_list.append(series)
        indices.append(i)
    if series_list:
        modes = [payload[i][2] for i in indices]
        try:
            rows = _serve_series(engine, series_list, modes)
        except Exception:
            rows = [
                _serve_alone(engine, series, mode)
                for series, mode in zip(series_list, modes)
            ]
        for i, row in zip(indices, rows):
            results[i] = {"id": payload[i][0], **row}
    return results


def _serve_series(engine, series_list: list, modes: list) -> list[dict]:
    """One engine call for validated series; result rows without ids."""
    recommendations = engine.recommend_many(series_list)
    quarantined = engine.quarantined_members
    atlas = engine.cluster_atlas_
    repair_positions = [j for j, mode in enumerate(modes) if mode == "repair"]
    repaired: dict[int, TimeSeries] = {}
    if repair_positions:
        fixed = engine.repair_many(
            [series_list[j] for j in repair_positions],
            [recommendations[j] for j in repair_positions],
        )
        repaired = dict(zip(repair_positions, fixed))
    # The ledger annotation, when installed, already assigned them.
    assignments = [rec.cluster for rec in recommendations]
    unassigned = [j for j, found in enumerate(assignments) if found is None]
    if unassigned and atlas is not None:
        found = atlas.assign_many([series_list[j].values for j in unassigned])
        for j, assignment in zip(unassigned, found):
            assignments[j] = assignment
    rows = []
    for j, rec in enumerate(recommendations):
        assignment = assignments[j] or {"cluster": None, "ncc": None}
        row = {
            "status": STATUS_OK,
            "algorithm": rec.algorithm,
            "ranking": list(rec.ranking),
            "confidence": float(rec.probabilities.get(rec.algorithm, 0.0)),
            "degraded": bool(rec.degraded),
            "features": rec.features,
            "disagreement": rec.disagreement,
            "cluster": assignment["cluster"],
            "ncc": assignment["ncc"],
            # Only the static fallback answers without a vote.
            "fallback": rec.disagreement is None,
            "quarantined": quarantined,
        }
        if j in repaired:
            row["values"] = np.asarray(repaired[j].values, dtype=float)
        rows.append(row)
    return rows


def _serve_alone(engine, series: TimeSeries, mode: str) -> dict:
    """Serve one series; an engine error becomes this row's answer."""
    try:
        return _serve_series(engine, [series], [mode])[0]
    except ValidationError as exc:
        return {"status": STATUS_BAD_REQUEST, "error": f"invalid series: {exc}"}
    except Exception as exc:
        _log.exception("engine failed on series %r", series.name)
        return {"status": STATUS_ERROR, "error": f"{type(exc).__name__}: {exc}"}


def _pack_payload(payload: list[tuple], *, min_shm_bytes: int):
    """Queue body for a batch: inline rows, or a shared-values segment.

    Large batches concatenate every row's values into one float64
    segment (offsets travel with the metadata) so the queue pickle
    carries only ids — the per-request analogue of
    :meth:`SeriesBank.share`.  Returns ``(body, segment)``; the caller
    unlinks ``segment`` (if any) once the batch resolves.
    """
    total = sum(int(np.asarray(v).size) for _, v, _, _ in payload)
    if total * 8 < min_shm_bytes or not shm_available():
        return ("inline", payload), None
    flat = np.empty(total, dtype=float)
    meta = []
    cursor = 0
    for request_id, values, mode, name in payload:
        arr = np.asarray(values, dtype=float).ravel()
        flat[cursor : cursor + arr.size] = arr
        meta.append((request_id, mode, name, cursor, cursor + arr.size))
        cursor += arr.size
    segment = SharedArray.create(flat)
    return ("shm", segment.handle, meta), segment


def _unpack_payload(body) -> list[tuple]:
    """Worker-side inverse of :func:`_pack_payload` (views, no copies)."""
    kind = body[0]
    if kind == "inline":
        return body[1]
    _, handle, meta = body
    flat = attach_cached(tuple(handle)).array
    return [
        (request_id, flat[start:stop], mode, name)
        for request_id, mode, name, start, stop in meta
    ]


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------
def _shard_worker_main(shard_id, engine_handle, conn, injector):
    """Process-shard entry point: attach the engine, serve batches."""
    engine = attach_shared_engine(engine_handle)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):  # the parent went away
            break
        if message[0] == "stop":
            break
        _, batch_id, body = message
        start = time.perf_counter()
        try:
            if injector is not None:
                injector.check(
                    FAULT_SITE, f"shard-{shard_id}", token=("batch", batch_id)
                )
            reply = (batch_id, "ok", serve_payload(engine, _unpack_payload(body)))
        except BaseException as exc:  # ship the failure, keep serving
            reply = (
                batch_id,
                "fault" if isinstance(exc, InjectedFault) else "error",
                f"{type(exc).__name__}: {exc}",
            )
        try:
            conn.send(reply + (time.perf_counter() - start,))
        except (OSError, ValueError):  # the parent went away
            break
    conn.close()
    clear_attach_cache()


class _ProcessRunner:
    """One worker process fed through one duplex pipe.

    The pipe is made in :meth:`start`, just before the fork, and the
    parent closes its copy of the worker's end right after: the worker
    then holds the only copy, so its death reads as EOF at once (a
    worker forked later never inherits another shard's worker end).
    """

    backend = "process"

    def __init__(self, shard_id: int, engine_handle: dict, injector=None):
        import multiprocessing as mp

        self.shard_id = int(shard_id)
        self._ctx = mp.get_context()
        self._engine_handle = engine_handle
        self._injector = injector
        self._conn = None
        self._proc = None
        self._seq = 0

    def start(self) -> None:
        conn, worker_end = self._ctx.Pipe(duplex=True)
        self._proc = self._ctx.Process(
            target=_shard_worker_main,
            args=(self.shard_id, self._engine_handle, worker_end, self._injector),
            name=f"repro-shard-{self.shard_id}",
            daemon=True,
        )
        self._proc.start()
        worker_end.close()
        self._conn = conn

    def run(self, payload: list[tuple], timeout_s: float):
        """Serve one batch; returns ``(results, elapsed_s)``.

        Raises :class:`WorkerCrashError` when the worker dies or hangs
        past ``timeout_s``, :class:`InjectedFault` when a fault plan
        fired inside it, and :class:`ServingError` when it failed the
        batch outside the engine.  Responses from abandoned (timed-out)
        batches are recognised by id and discarded.
        """
        self._seq += 1
        batch_id = self._seq
        body, segment = _pack_payload(
            payload, min_shm_bytes=SHM_BATCH_MIN_BYTES
        )
        try:
            deadline = time.monotonic() + timeout_s
            try:
                self._conn.send(("batch", batch_id, body))
                while True:
                    remaining = deadline - time.monotonic()
                    # A dead worker reads as EOF at once; the liveness
                    # check is a backstop for a pipe end held elsewhere.
                    if not self._conn.poll(min(1.0, max(0.0, remaining))):
                        if not self._proc.is_alive():
                            raise EOFError
                        if remaining <= 0:
                            raise WorkerCrashError(
                                f"shard {self.shard_id} timed out after "
                                f"{timeout_s:.1f}s"
                            )
                        continue
                    got_id, kind, data, elapsed = self._conn.recv()
                    if got_id == batch_id:
                        break
                    # else: a stale reply from a timed-out batch
            except (EOFError, OSError):
                self._proc.join(timeout=1.0)
                count_event("worker_crashes", labels={"layer": "serving"})
                raise WorkerCrashError(
                    f"shard {self.shard_id} worker died "
                    f"(exit code {self._proc.exitcode})"
                ) from None
            if kind == "fault":
                raise InjectedFault(f"shard {self.shard_id}: {data}")
            if kind == "error":
                raise ServingError(f"shard {self.shard_id} batch failed: {data}")
            return data, float(elapsed)
        finally:
            if segment is not None:
                segment.unlink()
                segment.close()

    def stop(self, force: bool = False) -> None:
        if self._proc is None:
            return
        if self._proc.is_alive() and not force:
            try:
                self._conn.send(("stop", None, None))
                self._proc.join(timeout=2.0)
            except Exception:  # pragma: no cover - broken pipe
                pass
        if self._proc.is_alive():
            self._proc.terminate()
            self._proc.join(timeout=2.0)
        self._conn.close()


class _InlineRunner:
    """In-process shard: the shm-less fallback and the demotion target."""

    backend = "inline"

    def __init__(self, shard_id: int, engine, injector=None):
        self.shard_id = int(shard_id)
        self._engine = engine
        self._injector = injector
        self._seq = 0

    def start(self) -> None:  # symmetry with the process runner
        pass

    def run(self, payload: list[tuple], timeout_s: float):
        self._seq += 1
        start = time.perf_counter()
        if self._injector is not None:
            # ``kill`` degrades to WorkerCrashError in the parent process
            # (see FaultInjector); the pool handles both identically.
            self._injector.check(
                FAULT_SITE, f"shard-{self.shard_id}", token=("batch", self._seq)
            )
        results = serve_payload(self._engine, payload)
        return results, time.perf_counter() - start

    def stop(self, force: bool = False) -> None:
        pass


# ---------------------------------------------------------------------------
# The pool
# ---------------------------------------------------------------------------
class Shard:
    """Parent-side view of one shard: runner + health counters (its
    series count and latency live in the daemon sink's ``shard:<id>``
    slice)."""

    def __init__(self, shard_id: int, runner):
        self.shard_id = int(shard_id)
        self.runner = runner
        self.busy = threading.Lock()
        self.n_batches = 0
        self.n_failures = 0
        self.demoted = False

    @property
    def backend(self) -> str:
        return self.runner.backend

    def card(self, breaker: CircuitBreaker) -> dict:
        return {
            "backend": self.backend,
            "demoted": self.demoted,
            "quarantined": breaker.is_open(self.shard_id),
            "batches": self.n_batches,
            "failures": self.n_failures,
        }


class ShardPool:
    """N engine shards with breaker-gated dispatch and crash demotion.

    Parameters
    ----------
    engine:
        The fitted parent engine (used directly by inline shards and by
        crash-demoted runners; published once to shared memory for the
        process backend).
    n_shards:
        Worker count.
    backend:
        ``"process"`` / ``"inline"`` / ``"auto"`` (process when shared
        memory is available).
    breaker:
        Admission breaker keyed by shard id (default: threshold 2,
        half-open after 30s).
    injector:
        Optional :class:`FaultInjector` evaluated per batch inside each
        shard (chaos tests).
    timeout_s:
        Wall-clock budget per batch on one shard; a hang past this is
        treated as a crash (the batch is resubmitted elsewhere).
    """

    def __init__(
        self,
        engine,
        n_shards: int = 2,
        *,
        backend: str = "auto",
        breaker: CircuitBreaker | None = None,
        injector=None,
        timeout_s: float = 30.0,
    ):
        if n_shards < 1:
            raise ValidationError("n_shards must be >= 1")
        if backend not in ("auto", "process", "inline"):
            raise ValidationError(
                f"backend must be auto/process/inline, got {backend!r}"
            )
        if backend == "auto":
            backend = "process" if shm_available() else "inline"
        elif backend == "process" and not shm_available():
            _log.warning(
                "shared memory unavailable; falling back to inline shards"
            )
            backend = "inline"
        self.engine = engine
        self.n_shards = int(n_shards)
        self.backend = backend
        self.breaker = breaker or CircuitBreaker(
            threshold=2, reset_after=30.0, name="serving-shards"
        )
        self.injector = injector
        self.timeout_s = float(timeout_s)
        self._shards: list[Shard] = []
        self._export: SharedEngine | None = None
        self._lock = threading.Lock()
        self._rr = 0
        self.n_resubmissions = 0
        self.n_demotions = 0
        self.started = False

    # ------------------------------------------------------------------
    def start(self) -> "ShardPool":
        if self.started:
            return self
        if self.backend == "process":
            self._export = SharedEngine.publish(self.engine)
            handle = self._export.handle
            runners = [
                _ProcessRunner(i, handle, self.injector)
                for i in range(self.n_shards)
            ]
        else:
            runners = [
                _InlineRunner(i, self.engine, self.injector)
                for i in range(self.n_shards)
            ]
        self._shards = [Shard(i, r) for i, r in enumerate(runners)]
        for shard in self._shards:
            shard.runner.start()
        self.started = True
        return self

    def stop(self) -> None:
        if not self.started:
            return
        for shard in self._shards:
            shard.runner.stop()
        if self._export is not None:
            self._export.release()
            self._export = None
        self.started = False

    def __enter__(self) -> "ShardPool":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    def _acquire(self) -> Shard | None:
        """Next healthy shard, round-robin, preferring a free one."""
        with self._lock:
            order = self._shards[self._rr:] + self._shards[: self._rr]
            self._rr = (self._rr + 1) % max(1, len(self._shards))
        healthy = [
            s for s in order if not self.breaker.is_open(s.shard_id)
        ]
        if not healthy:
            return None
        for shard in healthy:
            if shard.busy.acquire(blocking=False):
                return shard
        shard = healthy[0]
        shard.busy.acquire()
        return shard

    def _demote(self, shard: Shard, exc: WorkerCrashError) -> None:
        """Replace a crashed process runner with an inline one."""
        old = shard.runner
        shard.runner = _InlineRunner(shard.shard_id, self.engine)
        shard.demoted = True
        self.n_demotions += 1
        record_demotion(
            "serving", f"shard {shard.shard_id}", "process", "inline", exc
        )
        # A fresh in-process runner deserves a clean circuit.
        self.breaker.record_success(shard.shard_id)
        try:
            old.stop(force=True)
        except Exception:  # pragma: no cover - already-dead process
            pass

    def _on_failure(self, shard: Shard, exc: Exception) -> None:
        shard.n_failures += 1
        self.n_resubmissions += 1
        self.breaker.record_failure(
            shard.shard_id, error=f"{type(exc).__name__}: {exc}"
        )
        get_metrics().counter(
            "repro_serving_shard_failures_total",
            "Shard batch failures (crash/hang/injected fault)",
            labels={"shard": str(shard.shard_id)},
        ).inc()
        _log.warning(
            "shard %d failed a batch (%s: %s); resubmitting",
            shard.shard_id,
            type(exc).__name__,
            exc,
        )
        if (
            isinstance(exc, WorkerCrashError)
            and shard.runner.backend == "process"
        ):
            self._demote(shard, exc)

    def run_batch(self, requests: list[RepairRequest]):
        """Serve one batch; returns ``(results, shard_id, elapsed_s)``.

        Resubmits across healthy shards when a worker is lost (crash,
        timeout, injected fault); raises
        :class:`AllShardsQuarantinedError` (shed) when no healthy shard
        remains and :class:`ShardsExhaustedError` (terminal error) when
        the retry budget is spent.  Any other error propagates without
        touching the breaker.
        """
        if not self.started:
            raise ServingError("shard pool is not started")
        payload = [
            (r.id, np.asarray(r.values, dtype=float), r.mode, r.name)
            for r in requests
        ]
        count_kernel(
            "serving_batch",
            bytes_moved=sum(int(v.nbytes) for _, v, _, _ in payload),
            chunks=len(payload),
        )
        last_error = None
        max_attempts = max(2, 2 * len(self._shards))
        for _ in range(max_attempts):
            shard = self._acquire()
            if shard is None:
                raise AllShardsQuarantinedError(
                    f"all {len(self._shards)} shards quarantined"
                    + (f" (last error: {last_error})" if last_error else "")
                )
            try:
                try:
                    results, elapsed = shard.runner.run(
                        payload, self.timeout_s
                    )
                finally:
                    shard.busy.release()
            except (WorkerCrashError, InjectedFault) as exc:
                last_error = f"{type(exc).__name__}: {exc}"
                self._on_failure(shard, exc)
                continue
            self.breaker.record_success(shard.shard_id)
            shard.n_batches += 1
            return results, shard.shard_id, float(elapsed)
        raise ShardsExhaustedError(
            f"batch failed on every shard after {max_attempts} attempts "
            f"(last error: {last_error})"
        )

    # ------------------------------------------------------------------
    def quarantined(self) -> list[int]:
        return [
            s.shard_id
            for s in self._shards
            if self.breaker.is_open(s.shard_id)
        ]

    def stats(self) -> dict:
        return {
            "backend": self.backend,
            "n_shards": self.n_shards,
            "resubmissions": self.n_resubmissions,
            "demotions": self.n_demotions,
            "quarantined": self.quarantined(),
            "per_shard": {
                str(s.shard_id): s.card(self.breaker) for s in self._shards
            },
        }
