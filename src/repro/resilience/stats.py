"""Process-wide resilience counters, read from the metrics registry.

Policies, breakers and injectors are short-lived objects, so each of
their events is counted once, where it happens, in the process metrics
registry (:func:`~repro.observability.get_metrics`); the serving health
document reads the per-event totals through :func:`resilience_stats`
instead of holding object references.  The counters only move on the
*failure* paths, so the fault-free hot path never touches them.
"""

from __future__ import annotations

from repro.observability import get_logger, get_metrics

_log = get_logger(__name__)

#: Health-document key -> ``(registry family, help)`` of the counter
#: holding that event (summed over its labels).
FAMILIES = {
    "retries": ("repro_resilience_retries_total",
                "Retry sleeps performed by FaultPolicy.run"),
    "deadline_hits": ("repro_resilience_deadline_hits_total",
                      "Calls abandoned for exceeding their wall-clock deadline"),
    "faults_injected": ("repro_resilience_faults_injected_total",
                        "Fault-plan rules fired"),
    "worker_crashes": ("repro_resilience_worker_crashes_total",
                       "Worker processes found dead mid-batch"),
    "backend_demotions": ("repro_resilience_backend_demotions_total",
                          "Work demoted to a weaker backend after a lost worker"),
    "quarantines": ("repro_resilience_quarantines_total",
                    "Circuit breakers tripped open"),
    "degraded_requests": ("repro_inference_degraded_total",
                          "Requests served in degraded mode"),
    "fallback_requests": ("repro_inference_fallback_total",
                          "Requests answered by the static fallback"),
    "member_failures": ("repro_ensemble_member_failures_total",
                        "Ensemble members dropped from a vote after failing"),
}


def count_event(key: str, labels: dict | None = None) -> None:
    """Count one ``key`` event (a :data:`FAMILIES` key)."""
    family, help_text = FAMILIES[key]
    get_metrics().counter(family, help_text, labels=labels).inc()


def declare_counters() -> None:
    """Register the unlabelled event counters at zero in the installed
    registry, so an export lists them before their first event."""
    metrics = get_metrics()
    for key in ("retries", "deadline_hits", "degraded_requests",
                "fallback_requests"):
        metrics.counter(*FAMILIES[key])


def record_demotion(
    layer: str, subject: str, from_backend: str, to_backend: str, exc
) -> None:
    """Record one demotion after a lost worker, for both execution
    layers (``ExecutionEngine`` process→thread, ``ShardPool``
    process→inline): a warning line and one counter labelled by
    ``layer`` (``"parallel"``/``"serving"``).  ``subject`` names what
    was demoted (a batch, a shard)."""
    count_event(
        "backend_demotions",
        labels={"layer": layer, "from": from_backend, "to": to_backend},
    )
    _log.warning(
        "%s demoted to %s (was %s) after %s: %s; resubmitting",
        subject,
        to_backend,
        from_backend,
        type(exc).__name__,
        exc,
    )


def resilience_stats() -> dict[str, int]:
    """Every :data:`FAMILIES` event's count in the installed registry
    (zero for an event that never happened)."""
    registry = get_metrics()
    return {
        key: int(registry.total(family))
        for key, (family, _) in FAMILIES.items()
    }
