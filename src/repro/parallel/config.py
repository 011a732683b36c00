"""Parallel execution configuration.

:class:`ParallelConfig` is the single knob bundle threaded through every
parallelizable subsystem (``ModelRaceConfig.parallel``,
``ClusterLabeler(parallel=...)``, ``ADarts(parallel=...)``, and the CLI's
``--jobs/--backend`` flags).

Backend semantics
-----------------
``serial``
    Plain in-process loop — byte-identical to the historical code path
    and the reference the determinism tests compare against.
``thread``
    ``concurrent.futures.ThreadPoolExecutor``.  Cheap to spin up; wins
    when tasks release the GIL (numpy/scipy kernels) or batches are
    small enough that process startup would dominate.
``process``
    ``concurrent.futures.ProcessPoolExecutor``.  True multi-core
    parallelism for CPU-bound pure-Python work; pays fork/pickle
    overhead, so it is only worth it for large batches.
``auto``
    Picks one of the above from the workload size at call time (see
    :meth:`ParallelConfig.resolve_backend`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.exceptions import ValidationError

#: Legal backend names.
BACKENDS = ("auto", "serial", "thread", "process")

#: ``auto`` falls back to ``serial`` below this many tasks — pool setup
#: would cost more than it saves.
AUTO_SERIAL_MAX_TASKS = 2

#: ``auto`` prefers ``thread`` below this many tasks and ``process`` at or
#: above it (fork + pickle overhead amortizes only over large batches).
AUTO_PROCESS_MIN_TASKS = 16

#: ``auto`` with a known per-task cost stays serial when the whole batch
#: is estimated under this many seconds — thread-pool dispatch overhead
#: alone would eat the win (the <1x "speedups" PR 2's benchmark recorded
#: on tiny labeling/race workloads).
AUTO_MIN_BATCH_SECONDS = 0.05

#: ``auto`` with a known per-task cost requires at least this much total
#: work before paying process fork/pickle overhead.
AUTO_PROCESS_MIN_SECONDS = 0.5

#: Target wall seconds per dispatched chunk when the per-task cost is
#: known — tiny tasks get folded into larger chunks so per-dispatch
#: overhead stays a small fraction of chunk runtime.
TARGET_CHUNK_SECONDS = 0.02


def available_cpus() -> int:
    """Best-effort CPU count (always >= 1)."""
    return max(1, os.cpu_count() or 1)


@dataclass(frozen=True)
class ParallelConfig:
    """How a batch of independent tasks should be executed.

    Attributes
    ----------
    n_jobs:
        Worker count.  ``1`` means serial regardless of backend;
        ``0``/negative means "all available CPUs".
    backend:
        One of :data:`BACKENDS`.  ``auto`` selects per-batch by
        workload size.
    chunk_size:
        Tasks per worker dispatch.  ``None`` derives
        ``ceil(n_tasks / (4 * n_jobs))`` so each worker sees ~4 chunks
        (good load balancing without per-task dispatch overhead).
    """

    n_jobs: int = 1
    backend: str = "auto"
    chunk_size: int | None = None

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValidationError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}"
            )
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValidationError(
                f"chunk_size must be >= 1 or None, got {self.chunk_size}"
            )

    # ------------------------------------------------------------------
    @property
    def effective_jobs(self) -> int:
        """Resolved worker count (``n_jobs <= 0`` → all CPUs)."""
        if self.n_jobs <= 0:
            return available_cpus()
        return self.n_jobs

    def resolve_backend(
        self, n_tasks: int, est_task_seconds: float | None = None
    ) -> str:
        """Concrete backend for a batch of ``n_tasks`` tasks.

        Serial whenever only one worker or a trivial batch; otherwise the
        configured backend, with ``auto`` choosing ``thread`` for small
        batches and ``process`` for large ones.

        ``est_task_seconds`` — an estimated per-task cost (the engine
        probes the first task of an unseen label and keeps a per-label
        EWMA) — refines the ``auto`` decision with a min-batch-cost
        threshold: batches estimated under
        :data:`AUTO_MIN_BATCH_SECONDS` of total work stay serial, and the
        process backend is reserved for at least
        :data:`AUTO_PROCESS_MIN_SECONDS` of work.
        """
        if self.effective_jobs <= 1 or n_tasks < AUTO_SERIAL_MAX_TASKS:
            return "serial"
        if self.backend != "auto":
            return self.backend
        if est_task_seconds is not None:
            total = n_tasks * max(0.0, est_task_seconds)
            if total < AUTO_MIN_BATCH_SECONDS:
                return "serial"
            if total < AUTO_PROCESS_MIN_SECONDS:
                return "thread"
            if n_tasks < AUTO_PROCESS_MIN_TASKS:
                return "thread"
            return "process"
        if n_tasks < AUTO_PROCESS_MIN_TASKS:
            return "thread"
        return "process"

    def resolve_chunk_size(
        self, n_tasks: int, est_task_seconds: float | None = None
    ) -> int:
        """Tasks per dispatched chunk for a batch of ``n_tasks``.

        With a known per-task cost, tiny tasks are folded together until
        each chunk is worth about :data:`TARGET_CHUNK_SECONDS` of work
        (per-dispatch overhead then stays a small fraction of chunk
        runtime); the load-balancing floor of ~4 chunks per worker still
        applies to expensive tasks.
        """
        if self.chunk_size is not None:
            return self.chunk_size
        jobs = self.effective_jobs
        base = max(1, -(-n_tasks // (4 * jobs)))
        if est_task_seconds is not None and est_task_seconds > 0.0:
            by_cost = int(TARGET_CHUNK_SECONDS / est_task_seconds) or 1
            return max(base, min(by_cost, n_tasks))
        return base

    # ------------------------------------------------------------------
    def with_jobs(self, n_jobs: int) -> "ParallelConfig":
        """Copy of this config with a different worker count."""
        return ParallelConfig(
            n_jobs=n_jobs, backend=self.backend, chunk_size=self.chunk_size
        )


#: Shared serial default — the zero-surprise configuration.
SERIAL = ParallelConfig(n_jobs=1, backend="serial")
