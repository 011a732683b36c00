"""The serving daemon: intake → micro-batches → shards → responses.

Concurrency layout (exactly one lock-free hand-off per request):

- :meth:`ServingDaemon.submit` is thread-safe and non-blocking: it
  applies admission control (typed 503 shed past ``max_pending``) and
  appends the request to the intake queue with a
  :class:`concurrent.futures.Future` the caller awaits.
- One **dispatcher thread** drains the intake into the
  :class:`~repro.serving.batching.MicroBatcher` and launches released
  batches onto a small executor (one slot per shard), so shards serve
  concurrently while coalescing stays single-threaded and deterministic.
- Dispatch is work-conserving.  The daemon counts its busy slots: the
  batches launched and not yet finished, under ``_cond``.  A full batch
  launches at once.  A partial batch launches when a slot is free and
  its oldest request has waited ``max_delay_s`` (default 0: at once).
  While every slot is busy, requests collect up to ``max_batch``; a
  finishing batch frees its slot and wakes the dispatcher, so no timer
  runs.  ``stop()`` flushes whatever is held.
- Each batch runs on the :class:`~repro.serving.shards.ShardPool`
  (breaker-gated, resubmitted on crash) and resolves its futures with
  :class:`~repro.serving.protocol.RepairResponse` objects.

The asyncio socket front-end (:class:`SocketServer`) is a thin adapter:
one task per request line, ``await``-ing the submit future — all
batching/backpressure logic lives in the synchronous core, which is what
the deterministic test harness (:mod:`repro.serving.testing`) drives
directly without sockets.

Telemetry: every resolved request makes one call into the daemon's
:class:`~repro.observability.slo.SloTracker` sink — latency, confidence,
vote disagreement, cluster NCC and its ``shard:``/``imputer:``/
``cluster:`` slices; a rejected request carries no latency, so it counts
only toward errors and error-rate policies.  Each batch's feature rows
feed the daemon's :class:`~repro.observability.serving.DriftDetector`
after its futures resolve, and the detector scores once per
``min_samples`` new rows and on every :meth:`ServingDaemon.health` —
:meth:`~repro.observability.serving.HealthSnapshot.collect` over the
daemon.  A ``health`` line on the socket answers that document live.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np

from repro.exceptions import (
    AllShardsQuarantinedError,
    NotFittedError,
    OverloadedError,
    ProtocolError,
    ServingError,
    ValidationError,
)
from repro.observability import get_logger, get_metrics
from repro.observability.serving import (
    DriftDetector,
    HealthSnapshot,
    slice_budget,
)
from repro.observability.slo import SloTracker
from repro.serving.batching import MicroBatcher
from repro.serving.protocol import (
    STATUS_BAD_REQUEST,
    STATUS_ERROR,
    STATUS_OK,
    HealthRequest,
    RepairRequest,
    RepairResponse,
    decode_request,
    encode_response,
)
from repro.serving.shards import ShardPool

_log = get_logger(__name__)

#: Longest request line the socket front-end reads, newline included.  A
#: 10,000-point series encodes to about 174 KB, so this holds series of
#: about 60,000 points; a longer line is answered 400 and skipped.
MAX_LINE_BYTES = 1 << 20


class _Entry:
    """One in-flight request: the request, its future, its arrival time."""

    __slots__ = ("request", "future", "arrived")

    def __init__(self, request: RepairRequest, future: Future, arrived: float):
        self.request = request
        self.future = future
        self.arrived = arrived


class ServingDaemon:
    """Long-lived sharded repair service around one fitted engine.

    Parameters
    ----------
    engine:
        A fitted :class:`~repro.core.adarts.ADarts` engine.
    n_shards:
        Worker shard count (see :class:`ShardPool`).
    shard_backend:
        ``"auto"`` / ``"process"`` / ``"inline"``.
    max_batch / max_delay_s:
        Micro-batching budget: the size bound, and how long a lone
        request is held to coalesce while a shard is idle (0: not at
        all).
    max_pending:
        Admission limit on in-flight requests; beyond it ``submit``
        resolves immediately with a typed 503 shed response.
    breaker / injector / timeout_s:
        Forwarded to the :class:`ShardPool`.
    slo_policies:
        Optional :class:`SloPolicy` list for the daemon-level tracker.
    drift_detector:
        The :class:`DriftDetector` fed with every served feature row;
        by default one with its stock window over the engine's
        ``feature_baseline_`` (none when the engine has no baseline).
    clock:
        Monotonic clock for the batcher (inject a fake in tests).
    """

    def __init__(
        self,
        engine,
        *,
        n_shards: int = 2,
        shard_backend: str = "auto",
        max_batch: int = 16,
        max_delay_s: float = 0.0,
        max_pending: int = 1024,
        breaker=None,
        injector=None,
        timeout_s: float = 30.0,
        slo_policies=None,
        drift_detector: DriftDetector | None = None,
        clock=time.monotonic,
    ):
        if max_pending < 1:
            raise ValidationError("max_pending must be >= 1")
        if not engine.is_fitted:
            raise NotFittedError("ServingDaemon requires a fitted engine")
        train_X = getattr(engine, "_train_X", None)
        if train_X is not None and train_X.shape[1] != engine.extractor.n_features:
            # Every member would fail to vote on the extractor's rows and
            # each request would get the degraded fallback.
            raise ValidationError(
                f"engine extractor makes {engine.extractor.n_features} "
                f"features but its training matrix has {train_X.shape[1]} "
                "columns"
            )
        self.engine = engine
        self.clock = clock
        self.max_pending = int(max_pending)
        self.pool = ShardPool(
            engine,
            n_shards,
            backend=shard_backend,
            breaker=breaker,
            injector=injector,
            timeout_s=timeout_s,
        )
        self.batcher = MicroBatcher(max_batch, max_delay_s, clock=clock)
        #: The telemetry sink every resolved request is recorded into.
        self.slo_tracker = SloTracker(
            slo_policies,
            clock=clock,
            max_slices=slice_budget(engine, self.pool.n_shards),
        )
        if drift_detector is None and engine.feature_baseline_ is not None:
            drift_detector = DriftDetector(engine.feature_baseline_)
        self.drift_detector = drift_detector
        self._intake: deque[_Entry] = deque()
        self._cond = threading.Condition()
        self._in_flight = 0
        #: Batches launched and not yet finished (the busy shard slots).
        self._busy = 0
        self._dispatcher: threading.Thread | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._stopping = False
        self.started = False
        self._started_at = 0.0
        # Lifetime counters (all mutated under ``_cond``'s lock or from
        # batch workers via ``_count``).
        self.n_submitted = 0
        self.n_served = 0
        self.n_shed = 0
        self.n_errors = 0
        #: Requests answered with members dropped, or by the fallback.
        self.n_degraded = 0
        #: Requests answered by the static fallback (no member voted).
        self.n_fallback = 0
        #: Per shard: the ensemble members its last batch's votes skip.
        self._quarantined: dict[int, tuple] = {}
        self._count_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ServingDaemon":
        if self.started:
            return self
        # Shard processes fork before any daemon thread exists.
        self.pool.start()
        self._stopping = False
        self._executor = ThreadPoolExecutor(
            max_workers=self.pool.n_shards,
            thread_name_prefix="repro-serve-batch",
        )
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-serve-dispatch", daemon=True
        )
        self._dispatcher.start()
        self._started_at = time.monotonic()
        self.started = True
        _log.info(
            "serving daemon up: %d %s shard(s), max_batch=%d, "
            "max_delay=%.1fms, max_pending=%d",
            self.pool.n_shards,
            self.pool.backend,
            self.batcher.max_batch,
            self.batcher.max_delay_s * 1000,
            self.max_pending,
        )
        return self

    def stop(self) -> None:
        if not self.started:
            return
        with self._cond:
            self._stopping = True
            self._cond.notify_all()
        self._dispatcher.join(timeout=30.0)
        self._executor.shutdown(wait=True)
        self.pool.stop()
        self.started = False

    def __enter__(self) -> "ServingDaemon":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def uptime(self) -> float:
        return time.monotonic() - self._started_at if self.started else 0.0

    @property
    def pending(self) -> int:
        """Requests admitted but not yet resolved."""
        return self._in_flight

    # ------------------------------------------------------------------
    # Intake
    # ------------------------------------------------------------------
    def submit(self, request: RepairRequest) -> Future:
        """Admit one request; returns a Future of :class:`RepairResponse`.

        Never blocks and never raises for load reasons: past
        ``max_pending`` (or while stopping) the future resolves
        immediately with a typed 503 shed response.
        """
        if not isinstance(request, RepairRequest):
            raise ProtocolError(
                f"submit() takes a RepairRequest, got {type(request).__name__}"
            )
        future: Future = Future()
        with self._cond:
            self.n_submitted += 1
            if not self.started or self._stopping:
                reason = "daemon is not accepting requests"
            elif self._in_flight >= self.max_pending:
                reason = f"daemon overloaded ({self._in_flight} pending)"
                get_metrics().counter(
                    "repro_serving_shed_total",
                    "Requests shed by admission control",
                    labels={"reason": "max_pending"},
                ).inc()
            else:
                self._in_flight += 1
                self._intake.append(
                    _Entry(request, future, float(self.clock()))
                )
                self._cond.notify()
                return future
            self.n_shed += 1
        self._record_rejection()
        future.set_result(RepairResponse.shed_response(request.id, reason))
        return future

    def submit_many(self, requests) -> list[Future]:
        return [self.submit(r) for r in requests]

    # ------------------------------------------------------------------
    # Dispatcher
    # ------------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        n_slots = self.pool.n_shards
        while True:
            with self._cond:
                while not self._intake and not self._stopping:
                    if not len(self.batcher) or self._busy >= n_slots:
                        # Nothing held, or every shard busy: the next
                        # arrival or finished batch wakes the loop.
                        self._cond.wait()
                        continue
                    wait = self.batcher.next_deadline - float(self.clock())
                    if wait <= 0:
                        break
                    self._cond.wait(wait)
                    break  # re-check the batcher's delay budget
                if self._stopping and not self._intake and not len(
                    self.batcher
                ):
                    break
                entries = list(self._intake)
                self._intake.clear()
            now = float(self.clock())
            for entry in entries:
                released = self.batcher.offer(entry, now)
                if released:
                    self._launch(released)
            if self._stopping:
                released = self.batcher.flush()
            elif self._busy < n_slots:
                released = self.batcher.poll(float(self.clock()))
            else:
                released = None
            if released:
                self._launch(released)

    def _launch(self, entries: list[_Entry]) -> None:
        with self._cond:
            self._busy += 1
        self._executor.submit(self._serve_and_release, entries)

    def _serve_and_release(self, entries: list[_Entry]) -> None:
        try:
            self._serve_batch(entries)
        finally:
            with self._cond:
                self._busy -= 1
                self._cond.notify()

    # ------------------------------------------------------------------
    # Batch execution
    # ------------------------------------------------------------------
    def _resolve(self, entry: _Entry, response: RepairResponse) -> None:
        with self._cond:
            self._in_flight -= 1
        if not entry.future.set_running_or_notify_cancel():
            return
        entry.future.set_result(response)

    def _count(self, response: RepairResponse, fallback: bool = False) -> None:
        with self._count_lock:
            if response.ok:
                self.n_served += 1
                self.n_degraded += response.degraded
                self.n_fallback += fallback
            elif response.shed:
                self.n_shed += 1
            else:
                self.n_errors += 1

    def _serve_batch(self, entries: list[_Entry]) -> None:
        requests = [e.request for e in entries]
        try:
            results, shard_id, elapsed = self.pool.run_batch(requests)
        except AllShardsQuarantinedError as exc:
            self._finish_rejected(
                entries,
                RepairResponse.shed_response,
                str(exc),
                reason="quarantine",
            )
            return
        except OverloadedError as exc:  # pragma: no cover - future-proofing
            self._finish_rejected(
                entries, RepairResponse.shed_response, str(exc),
                reason="overload",
            )
            return
        except ServingError as exc:
            self._finish_rejected(
                entries, RepairResponse.error_response, str(exc)
            )
            return
        except Exception as exc:  # defensive: never leave futures hanging
            _log.exception("batch failed unexpectedly")
            self._finish_rejected(
                entries, RepairResponse.error_response,
                f"{type(exc).__name__}: {exc}",
            )
            return

        now = float(self.clock())
        per_series = elapsed / max(1, len(entries))
        for entry, row in zip(entries, results):
            status = int(row.get("status", STATUS_OK))
            if status == STATUS_OK:
                response = RepairResponse(
                    id=str(row["id"]),
                    status=STATUS_OK,
                    algorithm=row.get("algorithm"),
                    ranking=tuple(row.get("ranking", ())),
                    confidence=row.get("confidence"),
                    degraded=bool(row.get("degraded", False)),
                    values=row.get("values"),
                    shard=shard_id,
                    latency_s=now - entry.arrived,
                )
            else:
                response = RepairResponse.error_response(
                    str(row.get("id", entry.request.id)),
                    str(row.get("error", "bad request")),
                    status=status,
                )
            fallback = bool(row.get("fallback"))
            self._count(response, fallback)
            slices = [
                f"shard:{shard_id}",
                f"imputer:{row.get('algorithm') or 'none'}",
            ]
            if row.get("cluster") is not None:
                slices.append(f"cluster:{row['cluster']}")
            event = {
                "seconds": per_series,
                "algorithm": response.algorithm,
                "confidence": response.confidence,
                "disagreement": row.get("disagreement"),
                "ncc": row.get("ncc"),
                "degraded": response.degraded,
                # A fallback answer is served, but it is not a vote.
                "error": status != STATUS_OK or fallback,
                "slices": slices,
            }
            self.slo_tracker.record_request(
                now - entry.arrived, (event,), check=False
            )
            self._resolve(entry, response)
        self.slo_tracker.evaluate()
        served = [row for row in results if "features" in row]
        if served:
            with self._count_lock:
                self._quarantined[shard_id] = served[-1]["quarantined"]
        detector = self.drift_detector
        if detector is not None and served and detector.add(
            np.stack([row["features"] for row in served])
        ):
            detector.check()

    def _record_rejection(self) -> None:
        # No latency: a rejection must not look like a fast answer.
        self.slo_tracker.record_request(
            None, ({"seconds": None, "error": True},), check=False
        )

    def _finish_rejected(
        self, entries, factory, message: str, *, reason: str | None = None
    ) -> None:
        """Resolve a whole batch with one typed failure.  ``reason``
        labels the shed counter and is given only for 503 sheds."""
        if reason is not None:
            get_metrics().counter(
                "repro_serving_shed_total",
                "Requests shed by admission control",
                labels={"reason": reason},
            ).inc(len(entries))
        for entry in entries:
            response = factory(entry.request.id, message)
            self._count(response)
            self._record_rejection()
            self._resolve(entry, response)
        self.slo_tracker.evaluate()

    # ------------------------------------------------------------------
    # Health / introspection
    # ------------------------------------------------------------------
    def health(self) -> HealthSnapshot:
        """The live health document: the sink's views, drift (scored
        now), resilience counters, per-shard cards and batching stats."""
        if self.drift_detector is not None and self.drift_detector.warm:
            self.drift_detector.check()
        return HealthSnapshot.collect(self)

    def quarantined_members(self) -> list[str]:
        """Ensemble members some shard's votes currently skip."""
        with self._count_lock:
            return sorted(set().union(*self._quarantined.values()))

    def stats(self) -> dict:
        """Compact counters for tests and the CLI summary line."""
        with self._count_lock:
            return {
                "submitted": self.n_submitted,
                "served": self.n_served,
                "shed": self.n_shed,
                "errors": self.n_errors,
                "degraded": self.n_degraded,
                "fallback": self.n_fallback,
                "pending": self._in_flight,
                "busy": self._busy,
                "batching": self.batcher.stats(),
                "pool": self.pool.stats(),
            }


# ---------------------------------------------------------------------------
# asyncio socket front-end
# ---------------------------------------------------------------------------
async def _skip_line(reader: asyncio.StreamReader) -> bool:
    """Drop the rest of an over-limit line; False if the stream ends first."""
    while True:
        try:
            await reader.readuntil(b"\n")
            return True
        except asyncio.LimitOverrunError as exc:
            await reader.readexactly(exc.consumed)
        except asyncio.IncompleteReadError:
            return False


class SocketServer:
    """JSON-lines front-end for a :class:`ServingDaemon`.

    Runs its own event loop on a background thread so the synchronous
    daemon (and its tests) never touch asyncio.  One task per request
    line — responses are written as each resolves, so a slow repair
    never head-of-line-blocks a pipelined client; ordering is by ``id``
    correlation, as the protocol specifies.
    """

    def __init__(
        self,
        daemon: ServingDaemon,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        path: str | None = None,
    ):
        self.daemon = daemon
        self.host = host
        self.port = int(port)
        self.path = path
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self.address = None  # (host, port) or unix path once bound

    # -- connection handling -------------------------------------------
    async def _handle_client(self, reader, writer) -> None:
        conn_task = asyncio.current_task()
        self._conn_tasks.add(conn_task)
        write_lock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()

        async def respond(response: RepairResponse) -> None:
            async with write_lock:
                writer.write(encode_response(response) + b"\n")
                await writer.drain()

        async def answer(line: bytes) -> None:
            request_id = ""
            try:
                request = decode_request(line)
                request_id = request.id
                if isinstance(request, HealthRequest):
                    # Off the event loop: scoring the drift window and
                    # sampling resources take milliseconds.
                    document = await asyncio.to_thread(
                        lambda: self.daemon.health().as_dict()
                    )
                    response = RepairResponse.health_response(
                        request_id, document
                    )
                else:
                    response = await asyncio.wrap_future(
                        self.daemon.submit(request)
                    )
            except ProtocolError as exc:
                response = RepairResponse.error_response(
                    request_id, str(exc), status=STATUS_BAD_REQUEST
                )
            except Exception as exc:
                # One bad line must not cost the client its answer.
                _log.exception("request line failed")
                response = RepairResponse.error_response(
                    request_id, f"internal error: {type(exc).__name__}: {exc}",
                    status=STATUS_ERROR,
                )
            await respond(response)

        def spawn(coro) -> None:
            # Answers are written by their own tasks, so reading never waits
            # on a client that is slow to read its responses.
            task = asyncio.ensure_future(coro)
            tasks.add(task)
            task.add_done_callback(tasks.discard)

        try:
            while True:
                try:
                    line = await reader.readuntil(b"\n")
                except asyncio.IncompleteReadError as exc:
                    line = exc.partial  # the last line lacks its newline
                except asyncio.LimitOverrunError:
                    if not await _skip_line(reader):
                        break
                    spawn(respond(RepairResponse.error_response(
                        "", f"request line is longer than {MAX_LINE_BYTES} bytes",
                        status=STATUS_BAD_REQUEST,
                    )))
                    continue
                if not line:
                    break
                if not line.strip():
                    continue
                spawn(answer(line))
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # The server is stopping.  Ending normally matters: asyncio's
            # stream protocol reads this task's exception when it is done,
            # and a cancelled task would make it log a traceback.
            pass
        finally:
            self._conn_tasks.discard(conn_task)
            for task in tasks:
                task.cancel()
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _main(self) -> None:
        self._stop_event = asyncio.Event()
        try:
            if self.path is not None:
                server = await asyncio.start_unix_server(
                    self._handle_client, path=self.path, limit=MAX_LINE_BYTES
                )
                self.address = self.path
            else:
                server = await asyncio.start_server(
                    self._handle_client, self.host, self.port,
                    limit=MAX_LINE_BYTES,
                )
                sock = server.sockets[0]
                self.address = sock.getsockname()[:2]
                self.port = self.address[1]
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            raise
        self._ready.set()
        async with server:
            await self._stop_event.wait()
            # Stop accepting, then cancel connections still reading.
            server.close()
            for task in list(self._conn_tasks):
                task.cancel()
            if self._conn_tasks:
                await asyncio.gather(
                    *self._conn_tasks, return_exceptions=True
                )

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self._main())
        except BaseException:
            if self._startup_error is None:  # pragma: no cover
                _log.exception("socket server crashed")
        finally:
            self._loop.close()

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "SocketServer":
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-socket", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=10.0)
        if self._startup_error is not None:
            raise ServingError(
                f"socket server failed to start: {self._startup_error}"
            )
        _log.info("serving on %s", self.address)
        return self

    def stop(self) -> None:
        if self._loop is None or self._stop_event is None:
            return
        try:
            self._loop.call_soon_threadsafe(self._stop_event.set)
        except RuntimeError:  # loop already closed
            pass
        self._thread.join(timeout=10.0)

    def __enter__(self) -> "SocketServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
