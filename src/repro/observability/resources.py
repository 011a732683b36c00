"""Resource accounting: live byte gauges, kernel counters, RSS sampling.

PR 5/7 gave the hot path real memory consumers — the
:class:`~repro.timeseries.batch.SeriesBank` derived-array memo, the
:class:`~repro.parallel.cache.FeatureCache` / ``ScoreMemo`` stores and
the shared-memory segments of serving shards — but nothing
accounted for what they hold.  This module is the ledger of bytes:

* :class:`AccountingRegistry` — a process-wide registry of **accounts**
  (live byte gauges per component: ``series_bank``, ``feature_cache``,
  ``score_memo``, ``shared_memory``), **kernel counters** (bytes moved,
  blockwise chunk counts, scratch allocations per named kernel) and
  **backend decisions** (how often the executor resolved to
  serial/thread/process).
* :func:`sample_rss` — the OS view (``/proc/self/status`` VmRSS/VmHWM
  with a ``resource.getrusage`` fallback), plus a registry-tracked
  high-water mark so snapshots record the worst point, not just now.

Everything is O(1) dict arithmetic under one lock, cheap enough for the
block loops of ``ncc_cross``/``impute_many`` (which accumulate locally
and record once per call).  The registry feeds
:class:`~repro.observability.serving.HealthSnapshot` (JSON and
Prometheus) and stamps ledger "fit"/"repair" rows via
:func:`resource_stamp`, so every repair's provenance includes the memory
state it ran under.

Like the tracer/metrics/ledger singletons, accounting is process-global
(``get_accounting()``); tests call ``reset()`` between cases.
"""

from __future__ import annotations

import os
import threading


class _Account:
    """Live byte gauge of one component (plus lifetime totals)."""

    __slots__ = ("bytes", "items", "peak_bytes", "allocated_bytes", "allocations")

    def __init__(self):
        self.bytes = 0
        self.items = 0
        self.peak_bytes = 0
        self.allocated_bytes = 0
        self.allocations = 0

    def as_dict(self) -> dict:
        return {
            "bytes": int(self.bytes),
            "items": int(self.items),
            "peak_bytes": int(self.peak_bytes),
            "allocated_bytes": int(self.allocated_bytes),
            "allocations": int(self.allocations),
        }


class _Kernel:
    """Lifetime counters of one named kernel."""

    __slots__ = ("calls", "bytes_moved", "chunks", "scratch_allocations")

    def __init__(self):
        self.calls = 0
        self.bytes_moved = 0
        self.chunks = 0
        self.scratch_allocations = 0

    def as_dict(self) -> dict:
        return {
            "calls": int(self.calls),
            "bytes_moved": int(self.bytes_moved),
            "chunks": int(self.chunks),
            "scratch_allocations": int(self.scratch_allocations),
        }


def sample_rss() -> dict:
    """Current resident-set size of this process, in bytes.

    Reads ``/proc/self/status`` (Linux: VmRSS current, VmHWM high-water);
    falls back to ``resource.getrusage`` elsewhere.  Returns zeros when
    neither source is available — accounting must never break serving.
    """
    rss = hwm = 0
    try:
        with open("/proc/self/status", "r") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    rss = int(line.split()[1]) * 1024
                elif line.startswith("VmHWM:"):
                    hwm = int(line.split()[1]) * 1024
    except OSError:
        pass
    if rss == 0:
        try:
            import resource as _resource

            usage = _resource.getrusage(_resource.RUSAGE_SELF)
            # ru_maxrss is KiB on Linux, bytes on macOS.
            scale = 1 if os.uname().sysname == "Darwin" else 1024
            hwm = max(hwm, int(usage.ru_maxrss) * scale)
            rss = hwm
        except Exception:
            pass
    return {"rss_bytes": rss, "hwm_bytes": max(rss, hwm)}


class AccountingRegistry:
    """Process-wide resource ledger: accounts, kernels, backend decisions.

    All mutators are safe to call from worker threads; the per-call cost
    is a lock acquisition and a couple of integer adds.  Hot block loops
    should accumulate locally and call :meth:`record_kernel` once per
    public-API call, not once per chunk.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._accounts: dict[str, _Account] = {}
        self._kernels: dict[str, _Kernel] = {}
        self._backend_decisions: dict[str, int] = {}
        self._rss_hwm = 0

    # -- accounts -------------------------------------------------------
    def _account(self, name: str) -> _Account:
        account = self._accounts.get(name)
        if account is None:
            account = self._accounts.setdefault(name, _Account())
        return account

    def account_add(self, name: str, nbytes: int, *, items: int = 1) -> None:
        """A component took ownership of ``nbytes`` more live bytes."""
        nbytes = int(nbytes)
        with self._lock:
            account = self._account(name)
            account.bytes += nbytes
            account.items += items
            account.allocated_bytes += max(0, nbytes)
            account.allocations += 1
            if account.bytes > account.peak_bytes:
                account.peak_bytes = account.bytes

    def account_sub(self, name: str, nbytes: int, *, items: int = 1) -> None:
        """A component released ``nbytes`` live bytes."""
        with self._lock:
            account = self._account(name)
            account.bytes = max(0, account.bytes - int(nbytes))
            account.items = max(0, account.items - items)

    def account_clear(self, name: str) -> None:
        """A component dropped everything it held (cache ``clear()``)."""
        with self._lock:
            account = self._account(name)
            account.bytes = 0
            account.items = 0

    def account_bytes(self, name: str) -> int:
        """Current live bytes of one account (0 if never touched)."""
        with self._lock:
            account = self._accounts.get(name)
            return int(account.bytes) if account else 0

    # -- kernels --------------------------------------------------------
    def record_kernel(
        self,
        name: str,
        *,
        bytes_moved: int = 0,
        chunks: int = 0,
        scratch_allocations: int = 0,
        calls: int = 1,
    ) -> None:
        """Fold one kernel invocation's counters into the registry.

        ``bytes_moved`` is the kernel's working-set traffic (inputs
        touched + outputs written), ``chunks`` the number of blockwise
        iterations, ``scratch_allocations`` the temporary arrays it
        allocated.
        """
        with self._lock:
            kernel = self._kernels.get(name)
            if kernel is None:
                kernel = self._kernels.setdefault(name, _Kernel())
            kernel.calls += calls
            kernel.bytes_moved += int(bytes_moved)
            kernel.chunks += int(chunks)
            kernel.scratch_allocations += int(scratch_allocations)

    # -- backend decisions ---------------------------------------------
    def record_backend_decision(self, backend: str) -> None:
        """The executor resolved a batch to ``backend``."""
        with self._lock:
            self._backend_decisions[backend] = (
                self._backend_decisions.get(backend, 0) + 1
            )

    # -- process memory -------------------------------------------------
    def sample(self) -> dict:
        """Sample RSS now and fold it into the tracked high-water."""
        rss = sample_rss()
        with self._lock:
            if rss["hwm_bytes"] > self._rss_hwm:
                self._rss_hwm = rss["hwm_bytes"]
            rss["tracked_hwm_bytes"] = self._rss_hwm
        return rss

    # -- views ----------------------------------------------------------
    def snapshot(self) -> dict:
        """Health-document payload: RSS + accounts + kernels + backends."""
        rss = self.sample()
        with self._lock:
            return {
                "process": rss,
                "accounts": {
                    name: account.as_dict()
                    for name, account in sorted(self._accounts.items())
                },
                "kernels": {
                    name: kernel.as_dict()
                    for name, kernel in sorted(self._kernels.items())
                },
                "backend_decisions": dict(
                    sorted(self._backend_decisions.items())
                ),
            }

    def reset(self) -> None:
        """Forget everything (tests; a fresh process view)."""
        with self._lock:
            self._accounts.clear()
            self._kernels.clear()
            self._backend_decisions.clear()
            self._rss_hwm = 0


#: Process-global registry, mirroring the tracer/metrics/ledger pattern.
_ACCOUNTING = AccountingRegistry()


def get_accounting() -> AccountingRegistry:
    """The process-wide :class:`AccountingRegistry`."""
    return _ACCOUNTING


def resource_stamp() -> dict:
    """Compact resource context for ledger "fit"/"repair" rows.

    Deliberately small — a handful of integers, not the full snapshot —
    because it is attached to every repair row.
    """
    registry = get_accounting()
    rss = registry.sample()
    return {
        "rss_bytes": rss["rss_bytes"],
        "rss_hwm_bytes": rss["tracked_hwm_bytes"],
        "series_bank_bytes": registry.account_bytes("series_bank"),
        "series_bank_disk_bytes": registry.account_bytes("series_bank_disk"),
        "feature_cache_bytes": registry.account_bytes("feature_cache"),
        "score_memo_bytes": registry.account_bytes("score_memo"),
        "shared_memory_bytes": registry.account_bytes("shared_memory"),
    }
