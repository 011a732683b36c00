"""Micro-batch coalescing: the request-to-batch state machine.

The daemon's dispatcher owns one :class:`MicroBatcher`.  Requests are
``offer``-ed as they arrive; a batch is released either the moment it
reaches ``max_batch`` items (the throughput bound) or, on a
:meth:`~MicroBatcher.poll`, once the *oldest* pending item has waited
``max_delay_s`` (the latency bound).  The dispatcher polls only while a
shard is idle, so batching is work-conserving: with the default
``max_delay_s=0`` a request leaves the moment a shard is free, and
while every shard is busy requests collect up to ``max_batch`` and
leave when the first batch finishes.  Batches grow from load, not from
a timer.  The coalescing invariant tested property-style in
``tests/test_serving_batching.py`` and ``tests/test_serving_daemon.py``:

    no request waits past ``max_delay_s`` while a shard is idle (the
    driver then adds at most one batch service time before the
    response resolves).

The batcher is deliberately a *pure, synchronous* state machine: it
never sleeps, spawns threads, or reads the wall clock on its own — the
caller passes ``now`` (or injects ``clock``).  That is what makes the
coalescing behaviour exactly testable with a fake clock, and it keeps
the concurrency surface of the daemon in exactly one place (the
dispatcher loop, which also owns the idle-shard check).
"""

from __future__ import annotations

import time

from repro.exceptions import ValidationError


class MicroBatcher:
    """Coalesce items into batches under a size/latency budget.

    Parameters
    ----------
    max_batch:
        Release a batch as soon as it holds this many items
        (``1`` disables coalescing — every offer releases immediately).
    max_delay_s:
        Time the oldest pending item waits before :meth:`poll` releases
        the partial batch (``0``, the default, releases on the next
        :meth:`poll`).
    clock:
        Monotonic-seconds callable used when the caller passes no
        ``now``; inject a fake for deterministic tests.

    Not thread-safe by itself: the daemon calls it only from the
    dispatcher thread (arrivals cross over via the intake queue).
    """

    def __init__(
        self,
        max_batch: int = 16,
        max_delay_s: float = 0.0,
        *,
        clock=time.monotonic,
    ):
        if max_batch < 1:
            raise ValidationError("max_batch must be >= 1")
        if max_delay_s < 0:
            raise ValidationError("max_delay_s must be >= 0")
        self.max_batch = int(max_batch)
        self.max_delay_s = float(max_delay_s)
        self.clock = clock
        self._pending: list = []
        self._deadline: float | None = None
        #: Lifetime counters (dispatcher telemetry).
        self.n_items = 0
        self.n_batches = 0
        self.n_full = 0  # released by the size bound
        self.n_partial = 0  # released by poll or flush before filling

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def next_deadline(self) -> float | None:
        """Monotonic time the pending partial batch must ship by."""
        return self._deadline

    def _take(self) -> list:
        batch = self._pending
        self._pending = []
        self._deadline = None
        self.n_batches += 1
        return batch

    def offer(self, item, now: float | None = None) -> list | None:
        """Add one item; returns a full batch when the size bound trips."""
        if now is None:
            now = float(self.clock())
        if not self._pending:
            self._deadline = now + self.max_delay_s
        self._pending.append(item)
        self.n_items += 1
        if len(self._pending) >= self.max_batch:
            self.n_full += 1
            return self._take()
        return None

    def poll(self, now: float | None = None) -> list | None:
        """Release the pending batch if its delay budget has elapsed."""
        if not self._pending:
            return None
        if now is None:
            now = float(self.clock())
        if now + 1e-12 >= self._deadline:
            self.n_partial += 1
            return self._take()
        return None

    def flush(self) -> list | None:
        """Unconditionally release whatever is pending (shutdown path)."""
        if not self._pending:
            return None
        self.n_partial += 1
        return self._take()

    def stats(self) -> dict:
        return {
            "max_batch": self.max_batch,
            "max_delay_s": self.max_delay_s,
            "items": self.n_items,
            "batches": self.n_batches,
            "full_batches": self.n_full,
            "partial_batches": self.n_partial,
            "pending": len(self._pending),
            "mean_batch": (
                self.n_items / self.n_batches if self.n_batches else 0.0
            ),
        }
