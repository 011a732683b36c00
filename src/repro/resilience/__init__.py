"""repro.resilience — fault policies, quarantine, and chaos injection.

The survival layer of the reproduction.  A-DARTS's value proposition is
*stable* model selection, so a single diverging solver, crashed worker,
or degenerate input must cost one pipeline — never a whole race or a
serving request.  Four cooperating pieces:

* :class:`FaultPolicy` — bounded retry with exponential backoff and
  deterministic jitter, per-evaluation / per-imputation wall-clock
  deadlines, and retryable-vs-fatal exception classification;
* :class:`CircuitBreaker` — consecutive-failure quarantine so repeat
  offenders (pipelines, imputers, ensemble members) are pruned instead
  of re-failing forever;
* :class:`FaultInjector` / :class:`FaultPlan` / :class:`FaultRule` —
  seeded, deterministic chaos: raise / hang / NaN-poison / worker-kill
  faults targeted at the :data:`KNOWN_SITES` in ModelRace, the
  imputer registry, the voting ensemble, and the serving shards;
* process-level context (:func:`use_fault_policy`,
  :func:`use_fault_injector`) and counters
  (:func:`resilience_stats`) surfaced by the serving health document.

Both execution layers follow one crash rule: a crash is a *lost
worker* (a dead process, a timeout, an injected ``serving.shard``
fault), handled once per layer — the ``ExecutionEngine`` demotes
process→thread, the ``ShardPool`` process→inline, each recorded by
:func:`~repro.resilience.stats.record_demotion`.  An error raised for
an input is that input's answer, never a crash.

Everything is zero-dependency and zero-cost when disabled: with no
policy or injector installed every instrumented call site pays a single
``is None`` check.
"""

from repro.resilience.breaker import CircuitBreaker
from repro.resilience.context import (
    get_fault_injector,
    get_fault_policy,
    set_fault_injector,
    set_fault_policy,
    use_fault_injector,
    use_fault_policy,
)
from repro.resilience.injector import (
    FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    FaultRule,
    KNOWN_SITES,
)
from repro.resilience.policy import (
    ALWAYS_FATAL,
    DEFAULT_RETRYABLE,
    FaultPolicy,
    call_with_deadline,
)
from repro.resilience.stats import (
    resilience_stats,
    reset_resilience_stats,
)

__all__ = [
    "ALWAYS_FATAL",
    "CircuitBreaker",
    "DEFAULT_RETRYABLE",
    "FAULT_KINDS",
    "FaultInjector",
    "FaultPlan",
    "FaultPolicy",
    "FaultRule",
    "KNOWN_SITES",
    "call_with_deadline",
    "get_fault_injector",
    "get_fault_policy",
    "resilience_stats",
    "reset_resilience_stats",
    "set_fault_injector",
    "set_fault_policy",
    "use_fault_injector",
    "use_fault_policy",
]
