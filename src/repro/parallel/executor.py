"""Backend-pluggable execution engine for embarrassingly parallel batches.

:class:`ExecutionEngine` exposes one operation — :meth:`ExecutionEngine.map`
— which applies a function to a list of items and returns the results **in
input order**, regardless of backend.  Order preservation is what makes the
engine safe to drop into deterministic code paths: ModelRace's post-fold
pruning barrier and the labeler's cluster-ranking loop rely on it.

Every batch opens a span (``parallel.map``) on the process tracer tagged
with backend / task count / worker count, and increments per-backend
counters and batch-latency histograms on the process metrics registry, so
``repro report`` shows how work was spread across backends.

Resilience
----------
The engine has one crash path: a **lost worker**.  A dead process-pool
worker (OOM-kill, segfault, ``os._exit``) surfaces as
``BrokenProcessPool``; the engine tears the broken pool down, *demotes*
the batch to the thread backend, and resubmits every task (map tasks
must therefore be idempotent, which all repro call sites are).  Any
other exception a task raises is that task's answer and propagates to
the caller unchanged — ModelRace, the main caller, already turns each
failed evaluation into a scored failure inside the task.

Process-backend caveats: the mapped function and every item must be
picklable; child processes see the default (no-op) tracer and start with
an empty metrics registry, so workers return any timing they measured
(e.g. ``PipelineScore.runtime``) for the parent to record.  If the process
pool cannot be created at all (restricted environments without semaphore
support), the engine logs a warning and degrades to threads.
"""

from __future__ import annotations

import concurrent.futures as _futures
import time
from concurrent.futures.process import BrokenProcessPool

from repro.observability import get_logger, get_metrics, get_tracer
from repro.parallel.config import AUTO_SERIAL_MAX_TASKS, ParallelConfig
from repro.resilience.stats import count_event, record_demotion

_log = get_logger(__name__)

#: Smoothing factor of the per-label task-cost EWMA (new observations
#: weigh this much).
COST_EWMA_ALPHA = 0.5

def engine_stats() -> dict[str, dict[str, float]]:
    """Per-backend ``{batches, tasks, seconds}`` of every
    :meth:`ExecutionEngine.map` batch, read from the installed metrics
    registry.  The engines themselves are ephemeral (the race and the
    labeler build one per run), so the health document reads these
    process-wide totals instead of holding engine references."""
    metrics = get_metrics()
    tasks = metrics.by_label("repro_parallel_tasks_total", "backend")
    return {
        backend: {
            "batches": int(batches),
            "tasks": int(tasks.get(backend, 0)),
            "seconds": _batch_seconds(metrics, backend).sketch.sum,
        }
        for backend, batches in metrics.by_label(
            "repro_parallel_batches_total", "backend"
        ).items()
    }


def _batch_seconds(metrics, backend: str):
    return metrics.histogram(
        "repro_parallel_batch_seconds",
        "Wall seconds per ExecutionEngine.map batch",
        labels={"backend": backend},
    )


def _apply_chunk(fn, chunk):
    """Module-level chunk runner (picklable for the process backend)."""
    return [fn(item) for item in chunk]


class ExecutionEngine:
    """Run homogeneous task batches under a :class:`ParallelConfig`.

    Parameters
    ----------
    config:
        The parallelism knobs; ``None`` means serial execution.
    """

    def __init__(self, config: ParallelConfig | None = None):
        self.config = config or ParallelConfig()
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
    def map(self, fn, items, *, label: str = "parallel.map") -> list:
        """Apply ``fn`` to every item; results come back in input order.

        Parameters
        ----------
        fn:
            Callable of one argument.  Must be picklable (a module-level
            function or ``functools.partial`` of one) when the process
            backend may be chosen.  Tasks should be idempotent: after a
            worker crash the engine resubmits the whole batch on the
            thread backend.
        items:
            Iterable of task inputs (materialized internally).
        label:
            Span name recorded on the process tracer for this batch.
        """
        items = list(items)
        if not items:
            return []
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
            head = [fn(items[0])]
            self._observe_cost(label, time.perf_counter() - probe_start)
            est = self._cost_ewma[label]
        tail = items[len(head):]
        backend = cfg.resolve_backend(len(items), est)
        pool = self._process_pool() if backend == "process" else None
        if backend == "process" and pool is None:
            backend = "thread"
        jobs = min(cfg.effective_jobs, len(items))
        chunk = cfg.resolve_chunk_size(len(items), est)
        batch_start = time.perf_counter()
        with get_tracer().span(
            label,
            subsystem="parallel",
            backend=backend,
            n_tasks=len(items),
            n_jobs=jobs,
            chunk_size=chunk,
            probed=bool(head),
        ):
            if backend == "serial":
                results = [fn(item) for item in tail]
            elif backend == "thread":
                results = self._drain(self._thread_pool(), fn, tail, chunk)
            else:
                try:
                    results = self._drain(pool, fn, tail, chunk)
                except BrokenProcessPool as exc:
                    self._demote(label, exc)
                    backend = "thread"
                    results = self._drain(self._thread_pool(), fn, tail, chunk)
        results = head + results
        if backend == "serial" and tail:
            # Serial batches measure true per-task cost; keep the EWMA
            # fresh so workloads that grow expensive get promoted.
            self._observe_cost(
                label, (time.perf_counter() - batch_start) / len(tail)
            )
        metrics = get_metrics()
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
        _batch_seconds(metrics, backend).observe(
            time.perf_counter() - batch_start
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
    def _drain(self, pool: _futures.Executor, fn, items: list, chunk: int) -> list:
        futures = [
            pool.submit(_apply_chunk, fn, items[i : i + chunk])
            for i in range(0, len(items), chunk)
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

    def _demote(self, label: str, exc: BaseException) -> None:
        """A process worker died: retire the pool and record the demotion.

        The pool is unusable from here on, so it is torn down and marked
        broken; this and every later batch runs on threads.
        """
        count_event("worker_crashes", labels={"layer": "parallel"})
        self._process_pool_broken = True
        self._pools.pop("process").shutdown(wait=False, cancel_futures=True)
        self.n_demotions += 1
        record_demotion("parallel", f"batch {label!r}", "process", "thread", exc)
