"""Process-wide resilience counters.

Mirrors :func:`repro.parallel.executor.engine_stats`: policies, breakers,
and injectors are short-lived objects, so serving-health documents read
the process aggregate here instead of holding object references.  All
counters are free (a dict increment under a lock) and only tick on the
*failure* paths, so the fault-free hot path never touches them.
"""

from __future__ import annotations

import threading

from repro.observability import get_logger, get_metrics

_log = get_logger(__name__)
_LOCK = threading.Lock()
_STATS: dict[str, int] = {}

#: Counter keys with stable meaning (other keys may appear over time).
KNOWN_KEYS = (
    "retries",            # FaultPolicy retry sleeps performed
    "deadline_hits",      # calls abandoned for overrunning their deadline
    "faults_injected",    # FaultInjector rules fired (all kinds)
    "worker_crashes",     # process workers detected dead mid-batch
    "backend_demotions",  # lost workers demoted (see record_demotion)
    "quarantines",        # circuit breakers tripped open
    "degraded_requests",  # inference requests served in degraded mode
    "fallback_requests",  # inference requests served by the static fallback
    "member_failures",    # ensemble members dropped from a vote
)


def tick(key: str, n: int = 1) -> None:
    """Increment the process-wide resilience counter ``key`` by ``n``."""
    with _LOCK:
        _STATS[key] = _STATS.get(key, 0) + int(n)


def record_demotion(
    layer: str, subject: str, from_backend: str, to_backend: str, exc
) -> None:
    """Record one demotion after a lost worker, for both execution
    layers (``ExecutionEngine`` process→thread, ``ShardPool``
    process→inline): a warning line, one ``backend_demotions`` tick and
    one counter labelled by ``layer`` (``"parallel"``/``"serving"``).
    ``subject`` names what was demoted (a batch, a shard)."""
    tick("backend_demotions")
    get_metrics().counter(
        "repro_resilience_backend_demotions_total",
        "Work demoted to a weaker backend after a lost worker",
        labels={"layer": layer, "from": from_backend, "to": to_backend},
    ).inc()
    _log.warning(
        "%s demoted to %s (was %s) after %s: %s; resubmitting",
        subject,
        to_backend,
        from_backend,
        type(exc).__name__,
        exc,
    )


def resilience_stats() -> dict[str, int]:
    """Copy of all resilience counters accumulated since process start.

    Keys listed in :data:`KNOWN_KEYS` are always present (zero-filled);
    mutating the returned dict does not affect the live counters.
    """
    with _LOCK:
        out = {key: 0 for key in KNOWN_KEYS}
        out.update(_STATS)
        return out


def reset_resilience_stats() -> None:
    """Zero every counter (tests / fresh monitoring windows)."""
    with _LOCK:
        _STATS.clear()
