"""Backend-pluggable execution engine for embarrassingly parallel batches.

:class:`ExecutionEngine` exposes one operation — :meth:`ExecutionEngine.map`
— which applies a function to a list of items and returns the results **in
input order**, regardless of backend.  Order preservation is what makes the
engine safe to drop into deterministic code paths: ModelRace's post-fold
pruning barrier, ``extract_many``'s feature-matrix assembly, and the
labeler's cluster-ranking loop all rely on it.

Every batch opens a span (``parallel.map``) on the process tracer tagged
with backend / task count / worker count, and increments per-backend
counters and batch-latency histograms on the process metrics registry, so
``repro report`` shows how work was spread across backends.

Resilience
----------
The engine never lets infrastructure failures escape to the caller:

* **Worker crashes** — a dead process-pool worker surfaces as
  ``BrokenProcessPool``; the engine tears the broken pool down, *demotes*
  the batch to the thread backend, and resubmits every task (map tasks
  must therefore be idempotent, which all repro call sites are).
* **Crash-class task errors** — :class:`~repro.exceptions.WorkerCrashError`
  (raised by fault injection or crash simulation on non-process backends)
  is retried in place a couple of times, then triggers thread→serial
  demotion as the last resort.
* **Fault injection** — pass a
  :class:`~repro.resilience.FaultInjector` and every task execution
  checks the ``executor.task`` site first, letting chaos tests kill
  workers or fail tasks deterministically.  With no injector the per-task
  overhead is a single ``is None`` branch.

Process-backend caveats: the mapped function and every item must be
picklable, and child processes see the *default* (no-op) tracer/metrics —
workers therefore return any timing they measured (e.g.
``PipelineScore.runtime``) so the parent can record it.  If the process
pool cannot be created at all (restricted environments without semaphore
support), the engine logs a warning and degrades to threads.
"""

from __future__ import annotations

import concurrent.futures as _futures
import functools
import threading
import time
from concurrent.futures.process import BrokenProcessPool

from repro.exceptions import WorkerCrashError
from repro.observability import get_logger, get_metrics, get_tracer
from repro.observability.resources import get_accounting
from repro.parallel.config import AUTO_SERIAL_MAX_TASKS, ParallelConfig
from repro.resilience.stats import tick

_log = get_logger(__name__)

#: In-place re-attempts for crash-class (transient) task errors.
TASK_CRASH_RETRIES = 2

#: Smoothing factor of the per-label task-cost EWMA (new observations
#: weigh this much).
COST_EWMA_ALPHA = 0.5

# ---------------------------------------------------------------------------
# Process-wide backend stats.  The engines themselves are ephemeral (the
# extractor builds one per batch), so serving-health documents read the
# per-backend aggregate here instead of holding engine references.
# ---------------------------------------------------------------------------
_STATS_LOCK = threading.Lock()
_BACKEND_STATS: dict[str, dict[str, float]] = {}


def _record_batch(backend: str, n_tasks: int, seconds: float) -> None:
    with _STATS_LOCK:
        stats = _BACKEND_STATS.setdefault(
            backend, {"batches": 0, "tasks": 0, "seconds": 0.0}
        )
        stats["batches"] += 1
        stats["tasks"] += n_tasks
        stats["seconds"] += seconds


def _record_crash(backend: str) -> None:
    with _STATS_LOCK:
        stats = _BACKEND_STATS.setdefault(
            backend, {"batches": 0, "tasks": 0, "seconds": 0.0}
        )
        stats["crashes"] = stats.get("crashes", 0) + 1


def engine_stats() -> dict[str, dict[str, float]]:
    """Per-backend ``{batches, tasks, seconds[, crashes]}`` since process start.

    A copy; mutating the result does not affect the live counters.
    """
    with _STATS_LOCK:
        return {
            backend: dict(stats) for backend, stats in _BACKEND_STATS.items()
        }


def reset_engine_stats() -> None:
    """Zero the process-wide backend stats (tests / fresh monitoring)."""
    with _STATS_LOCK:
        _BACKEND_STATS.clear()


def _apply_chunk(fn, chunk, injector=None, label: str = "task"):
    """Module-level chunk runner (picklable for the process backend).

    With an injector, every task first checks the ``executor.task`` fault
    site; crash-class (transient) failures are retried in place up to
    :data:`TASK_CRASH_RETRIES` times before propagating.
    """
    if injector is None:
        return [fn(item) for item in chunk]
    from repro.exceptions import TransientError

    out = []
    for item in chunk:
        attempt = 0
        while True:
            try:
                injector.check("executor.task", label)
                out.append(fn(item))
                break
            except TransientError:
                attempt += 1
                if attempt > TASK_CRASH_RETRIES:
                    raise
    return out


def _chunked(items: list, size: int) -> list[list]:
    return [items[i : i + size] for i in range(0, len(items), size)]


class ExecutionEngine:
    """Run homogeneous task batches under a :class:`ParallelConfig`.

    Parameters
    ----------
    config:
        The parallelism knobs; ``None`` means serial execution.
    injector:
        Optional :class:`~repro.resilience.FaultInjector` checked at the
        ``executor.task`` site before every task (chaos testing).
    """

    def __init__(self, config: ParallelConfig | None = None, injector=None):
        self.config = config or ParallelConfig()
        self.injector = injector
        #: Lazily created, reused across batches; see :meth:`shutdown`.
        self._pools: dict[str, _futures.Executor] = {}
        self._process_pool_broken = False
        #: Backend demotions performed by this engine instance.
        self.n_demotions = 0
        #: Per-label EWMA of observed per-task wall seconds.  Fed by the
        #: first-task probe on unseen ``auto`` labels and by serial
        #: batches (parallel batches are overhead-polluted and skipped);
        #: consumed by ``ParallelConfig.resolve_backend`` /
        #: ``resolve_chunk_size`` so cheap workloads stay serial and tiny
        #: tasks get folded into larger chunks.
        self._cost_ewma: dict[str, float] = {}

    # ------------------------------------------------------------------
    def _observe_cost(self, label: str, per_task_seconds: float) -> None:
        """Fold one per-task cost observation into the label's EWMA."""
        prev = self._cost_ewma.get(label)
        if prev is None:
            self._cost_ewma[label] = per_task_seconds
        else:
            self._cost_ewma[label] = (
                COST_EWMA_ALPHA * per_task_seconds
                + (1.0 - COST_EWMA_ALPHA) * prev
            )

    def task_cost_estimate(self, label: str) -> float | None:
        """Current per-task cost EWMA for ``label`` (None when unseen)."""
        return self._cost_ewma.get(label)

    # ------------------------------------------------------------------
    def map(
        self, fn, items, *, label: str = "parallel.map", shared: dict | None = None
    ) -> list:
        """Apply ``fn`` to every item; results come back in input order.

        Parameters
        ----------
        fn:
            Callable of one argument.  Must be picklable (a module-level
            function or ``functools.partial`` of one) when the process
            backend may be chosen.  Tasks should be idempotent: after a
            worker crash the engine resubmits the whole batch on a
            demoted backend.
        items:
            Iterable of task inputs (materialized internally).
        label:
            Span name recorded on the process tracer for this batch (and
            the fault-injection target for the ``executor.task`` site).
        shared:
            Optional ``{keyword: ndarray}`` of large read-only arrays
            every task needs; ``fn`` is then called as
            ``fn(item, **arrays)``.  On the process backend each array is
            copied once into a shared-memory segment and only its handle
            rides in the task pickles (see :mod:`repro.parallel.shm`);
            serial/thread backends bind the arrays directly.  Segments
            are unlinked when the batch finishes, including on
            worker-crash demotion.
        """
        items = list(items)
        if not items:
            return []
        if shared:
            return self._map_with_shared(fn, items, label, shared)
        cfg = self.config
        est = self._cost_ewma.get(label)
        # First-task probe: an ``auto`` batch with an unseen label runs
        # its first task serially and times it, so the backend decision
        # below is cost-informed instead of size-guessed.  The probe's
        # result is kept (tasks execute exactly once).
        head: list = []
        if (
            est is None
            and cfg.backend == "auto"
            and cfg.effective_jobs > 1
            and len(items) >= AUTO_SERIAL_MAX_TASKS
        ):
            probe_start = time.perf_counter()
            head = _apply_chunk(fn, items[:1], self.injector, label)
            self._observe_cost(label, time.perf_counter() - probe_start)
            est = self._cost_ewma[label]
        tail = items[len(head):]
        backend = cfg.resolve_backend(len(items), est)
        get_accounting().record_backend_decision(backend)
        jobs = min(cfg.effective_jobs, len(items))
        chunk = cfg.resolve_chunk_size(len(items), est)
        metrics = get_metrics()
        tracer = get_tracer()
        batch_timer = metrics.histogram(
            "repro_parallel_batch_seconds",
            "Wall seconds per ExecutionEngine.map batch",
            labels={"backend": backend},
        )
        batch_start = time.perf_counter()
        with tracer.span(
            label,
            subsystem="parallel",
            backend=backend,
            n_tasks=len(items),
            n_jobs=jobs,
            chunk_size=chunk,
            probed=bool(head),
        ), batch_timer.time():
            if backend == "serial":
                results = self._map_serial(fn, tail, label)
            elif backend == "thread":
                results = self._map_thread(fn, tail, chunk, label)
            elif backend == "process":
                results = self._map_process(fn, tail, chunk, label)
            else:  # pragma: no cover - ParallelConfig validates backends
                raise ValueError(f"unknown backend {backend!r}")
        results = head + results
        if backend == "serial" and tail:
            # Serial batches measure true per-task cost; keep the EWMA
            # fresh so workloads that grow expensive get promoted.
            self._observe_cost(
                label, (time.perf_counter() - batch_start) / len(tail)
            )
        metrics.counter(
            "repro_parallel_tasks_total",
            "Tasks executed through ExecutionEngine.map",
            labels={"backend": backend},
        ).inc(len(items))
        metrics.counter(
            "repro_parallel_batches_total",
            "Batches executed through ExecutionEngine.map",
            labels={"backend": backend},
        ).inc()
        _record_batch(backend, len(items), time.perf_counter() - batch_start)
        return results

    # ------------------------------------------------------------------
    def _map_with_shared(self, fn, items: list, label: str, shared: dict) -> list:
        """Run a batch whose tasks all read the same large arrays.

        Non-process backends bind the arrays to ``fn`` directly and go
        through the ordinary :meth:`map` machinery.  The process backend
        copies each array into a shared-memory segment exactly once and
        ships only handles in the task pickles; the segments are
        unlinked when the batch finishes — including when a worker crash
        demotes the batch to the thread backend, where the resubmitted
        tasks read the parent's arrays directly.  Worker-side segment
        mappings live until the engine (and its pools) shut down.
        """
        from repro.parallel import shm as _shm

        cfg = self.config
        est = self._cost_ewma.get(label)
        backend = cfg.resolve_backend(len(items), est)
        direct = functools.partial(_shm.call_with_arrays, fn, shared)
        if backend != "process" or not _shm.shm_available():
            return self.map(direct, items, label=label)
        pool = self._process_pool()
        if pool is None:
            return self.map(direct, items, label=label)
        # Record only on the shared-memory path: the fallbacks above run
        # through ``map``, which records its own (re-resolved) decision.
        get_accounting().record_backend_decision(backend)
        chunk = cfg.resolve_chunk_size(len(items), est)
        # Disk-backed arrays (memmap-bank matrices) are already files:
        # workers re-map them read-only instead of copying them into a
        # segment, so the batch moves ~bytes of handle either way.
        segments = {}
        handles = {}
        for key, array in shared.items():
            handle = _shm.mmap_handle(array)
            if handle is None:
                seg = _shm.SharedArray.create(array)
                segments[key] = seg
                handle = seg.handle
            handles[key] = handle
        task = functools.partial(_shm.call_with_handles, fn, handles)
        metrics = get_metrics()
        batch_start = time.perf_counter()
        backend_used = "process"
        try:
            with get_tracer().span(
                label,
                subsystem="parallel",
                backend="process",
                n_tasks=len(items),
                n_jobs=min(cfg.effective_jobs, len(items)),
                chunk_size=chunk,
                shared_arrays=len(segments),
            ), metrics.histogram(
                "repro_parallel_batch_seconds",
                "Wall seconds per ExecutionEngine.map batch",
                labels={"backend": "process"},
            ).time():
                try:
                    results = self._drain(pool, task, items, chunk, label)
                except BrokenProcessPool as exc:
                    tick("worker_crashes")
                    metrics.counter(
                        "repro_parallel_worker_crashes_total",
                        "Process-pool workers detected dead mid-batch",
                    ).inc()
                    self._process_pool_broken = True
                    broken = self._pools.pop("process", None)
                    if broken is not None:
                        broken.shutdown(wait=False, cancel_futures=True)
                    self._demote("process", "thread", exc)
                    # Unlink *before* resubmitting: the demoted thread
                    # batch binds the parent's arrays directly, so the
                    # segments must not outlive the crashed pool.
                    for seg in segments.values():
                        seg.close()
                        seg.unlink()
                    segments = {}
                    backend_used = "thread"
                    results = self._map_thread(direct, items, chunk, label)
        finally:
            for seg in segments.values():
                seg.close()
                seg.unlink()
        for metric_name, help_text, amount in (
            (
                "repro_parallel_tasks_total",
                "Tasks executed through ExecutionEngine.map",
                len(items),
            ),
            (
                "repro_parallel_batches_total",
                "Batches executed through ExecutionEngine.map",
                1,
            ),
        ):
            metrics.counter(
                metric_name, help_text, labels={"backend": backend_used}
            ).inc(amount)
        _record_batch(
            backend_used, len(items), time.perf_counter() - batch_start
        )
        return results

    # ------------------------------------------------------------------
    # Pool lifecycle.  Pools are created lazily on first use and *reused*
    # across map() calls — ModelRace issues one batch per fold, and paying
    # process-pool startup per fold would dominate small fold times.  Call
    # :meth:`shutdown` (or use the engine as a context manager) when the
    # batches are done; garbage collection is the best-effort fallback.
    # ------------------------------------------------------------------
    def _thread_pool(self) -> _futures.Executor:
        pool = self._pools.get("thread")
        if pool is None:
            pool = _futures.ThreadPoolExecutor(
                max_workers=self.config.effective_jobs
            )
            self._pools["thread"] = pool
        return pool

    def _process_pool(self) -> _futures.Executor | None:
        """The process pool, or ``None`` when unavailable (use threads)."""
        if self._process_pool_broken:
            return None
        pool = self._pools.get("process")
        if pool is None:
            try:
                pool = _futures.ProcessPoolExecutor(
                    max_workers=self.config.effective_jobs
                )
            except (OSError, ValueError, NotImplementedError) as exc:
                _log.warning(
                    "process pool unavailable (%s: %s); falling back to threads",
                    type(exc).__name__,
                    exc,
                )
                self._process_pool_broken = True
                return None
            self._pools["process"] = pool
        return pool

    def shutdown(self) -> None:
        """Tear down any pools created by previous :meth:`map` calls."""
        pools, self._pools = self._pools, {}
        for pool in pools.values():
            pool.shutdown(wait=True)

    def __enter__(self) -> "ExecutionEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def __del__(self):  # pragma: no cover - GC-order dependent
        try:
            for pool in self._pools.values():
                pool.shutdown(wait=False)
        except Exception:
            pass

    # ------------------------------------------------------------------
    def _map_serial(self, fn, items: list, label: str) -> list:
        return _apply_chunk(fn, items, self.injector, label)

    def _drain(
        self, pool: _futures.Executor, fn, items: list, chunk: int, label: str
    ) -> list:
        chunks = _chunked(items, chunk)
        futures = [
            pool.submit(_apply_chunk, fn, c, self.injector, label)
            for c in chunks
        ]
        try:
            out: list = []
            for future in futures:  # submission order == input order
                out.extend(future.result())
            return out
        except BaseException:
            # A failed chunk abandons the batch; don't leave siblings
            # running (or queued) against a pool we may be tearing down.
            for future in futures:
                future.cancel()
            raise

    def _demote(self, from_backend: str, to_backend: str, exc) -> None:
        """Record one backend demotion (logging + counters)."""
        self.n_demotions += 1
        tick("backend_demotions")
        _record_crash(from_backend)
        get_metrics().counter(
            "repro_parallel_backend_demotions_total",
            "Batches demoted to a weaker backend after worker failure",
            labels={"from": from_backend, "to": to_backend},
        ).inc()
        _log.warning(
            "%s backend failed (%s: %s); demoting batch to %s and resubmitting",
            from_backend,
            type(exc).__name__,
            exc,
            to_backend,
        )

    def _map_thread(self, fn, items: list, chunk: int, label: str) -> list:
        try:
            return self._drain(self._thread_pool(), fn, items, chunk, label)
        except WorkerCrashError as exc:
            # Crash-class error survived the in-place retries: last-resort
            # serial resubmission, where one more failure is terminal.
            self._demote("thread", "serial", exc)
            return self._map_serial(fn, items, label)

    def _map_process(self, fn, items: list, chunk: int, label: str) -> list:
        pool = self._process_pool()
        if pool is None:
            return self._map_thread(fn, items, chunk, label)
        try:
            return self._drain(pool, fn, items, chunk, label)
        except BrokenProcessPool as exc:
            # A worker died (OOM-kill, segfault, os._exit, ...).  The pool
            # is unusable from here on: tear it down, mark it broken, and
            # resubmit the *entire* batch on the thread backend.
            tick("worker_crashes")
            get_metrics().counter(
                "repro_parallel_worker_crashes_total",
                "Process-pool workers detected dead mid-batch",
            ).inc()
            self._process_pool_broken = True
            broken = self._pools.pop("process", None)
            if broken is not None:
                broken.shutdown(wait=False, cancel_futures=True)
            self._demote("process", "thread", exc)
            return self._map_thread(fn, items, chunk, label)
