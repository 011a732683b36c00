"""Resource accounting: live byte gauges, RSS sampling, kernel counters.

The hot path has real memory consumers — the
:class:`~repro.timeseries.batch.SeriesBank` derived-array memo, the
:class:`~repro.parallel.cache.FeatureCache` / ``ScoreMemo`` stores and
the shared-memory segments of serving shards.  This module is the
ledger of bytes:

* :class:`AccountingRegistry` — a process-wide registry of **accounts**
  (live byte gauges per component: ``series_bank``, ``feature_cache``,
  ``score_memo``, ``shared_memory``) plus a tracked RSS high-water;
* :func:`sample_rss` — the OS view (``/proc/self/status`` VmRSS/VmHWM
  with a ``resource.getrusage`` fallback);
* :func:`count_kernel` / :func:`kernel_stats` — per-kernel counters
  (calls, bytes moved, blockwise chunks, scratch allocations), kept in
  the process metrics registry as ``repro_kernel_*_total{kernel}``.

Accounts are O(1) dict arithmetic under one lock; kernels accumulate
locally and count once per public call, so the block loops of
``ncc_cross``/``impute_many`` pay nothing per chunk.  Both feed
:class:`~repro.observability.serving.HealthSnapshot` (JSON and
Prometheus), and :func:`resource_stamp` stamps ledger "fit"/"repair"
rows, so every repair's provenance includes the memory state it ran
under.

Accounting is process-global (``get_accounting()``); tests call
``reset()`` between cases.
"""

from __future__ import annotations

import os
import threading

from repro.observability.metrics import get_metrics

#: Kernel counter field -> its registry family (labelled ``kernel``)
#: and help text.
KERNEL_FAMILIES = {
    "calls": ("repro_kernel_calls_total", "Instrumented kernel invocations"),
    "bytes_moved": ("repro_kernel_bytes_moved_total",
                    "Working-set bytes moved per kernel"),
    "chunks": ("repro_kernel_chunks_total",
               "Blockwise chunks executed per kernel"),
    "scratch_allocations": ("repro_kernel_scratch_allocations_total",
                            "Scratch allocations per kernel"),
}


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
    """Process-wide resource ledger: live byte accounts and RSS.

    All mutators are safe to call from worker threads; the per-call cost
    is a lock acquisition and a couple of integer adds.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._accounts: dict[str, _Account] = {}
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
        """Health-document payload: RSS + accounts."""
        rss = self.sample()
        with self._lock:
            return {
                "process": rss,
                "accounts": {
                    name: account.as_dict()
                    for name, account in sorted(self._accounts.items())
                },
            }

    def reset(self) -> None:
        """Forget everything (tests; a fresh process view)."""
        with self._lock:
            self._accounts.clear()
            self._rss_hwm = 0


#: Process-global registry.
_ACCOUNTING = AccountingRegistry()


def get_accounting() -> AccountingRegistry:
    """The process-wide :class:`AccountingRegistry`."""
    return _ACCOUNTING


def count_kernel(
    name: str, *, bytes_moved: int = 0, chunks: int = 0,
    scratch_allocations: int = 0,
) -> None:
    """Count one invocation of kernel ``name`` in the metrics registry.

    ``bytes_moved`` is the kernel's working-set traffic (inputs touched
    + outputs written), ``chunks`` the number of blockwise iterations,
    ``scratch_allocations`` the temporary arrays it allocated.
    """
    metrics = get_metrics()
    labels = {"kernel": name}
    amounts = (1, bytes_moved, chunks, scratch_allocations)
    for (family, help_text), amount in zip(KERNEL_FAMILIES.values(), amounts):
        metrics.counter(family, help_text, labels=labels).inc(int(amount))


def kernel_stats() -> dict[str, dict[str, int]]:
    """``{kernel: {calls, bytes_moved, chunks, scratch_allocations}}``
    read from the installed metrics registry, sorted by kernel."""
    metrics = get_metrics()
    out: dict[str, dict[str, int]] = {}
    for field, (family, _) in KERNEL_FAMILIES.items():
        for kernel, value in metrics.by_label(family, "kernel").items():
            row = out.setdefault(kernel, dict.fromkeys(KERNEL_FAMILIES, 0))
            row[field] = int(value)
    return dict(sorted(out.items()))


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
