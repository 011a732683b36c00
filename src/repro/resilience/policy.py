"""Fault policy: bounded retries, deadlines, and exception classification.

:class:`FaultPolicy` is the single knob bundle for "what happens when a
call fails":

* **Classification** — every exception is either *retryable* (transient
  infrastructure trouble: :class:`~repro.exceptions.TransientError`,
  :class:`~repro.exceptions.ConvergenceError`, connection resets) or
  *fatal* (bad input, bugs, blown deadlines).  Only retryable failures
  are retried; fatal ones propagate immediately.
* **Bounded retry** — up to ``max_retries`` re-attempts with exponential
  backoff and deterministic jitter (hash-of-label, so two processes
  retrying different labels desynchronize without shared RNG state).
* **Deadlines** — :func:`call_with_deadline` runs the callable on a
  daemon watchdog thread and abandons it past the wall-clock budget,
  raising :class:`~repro.exceptions.DeadlineExceededError`.  The
  abandoned thread finishes (or sleeps) in the background; Python cannot
  kill threads, but the *caller* regains control — which is what keeps a
  hung SVT iteration from freezing a whole race.

The policy is a frozen picklable dataclass so it can ride into process
workers alongside the task (ModelRace sends one with every fold batch).
Everything is zero-cost when unused: ``max_retries=0`` and no deadline
make :meth:`FaultPolicy.run` a plain try-free call.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass

from repro.exceptions import (
    ConvergenceError,
    DeadlineExceededError,
    TransientError,
    ValidationError,
)
from repro.observability import get_logger
from repro.resilience.stats import count_event

_log = get_logger(__name__)

#: Exceptions retried by default — transient by construction or by nature.
DEFAULT_RETRYABLE: tuple[type[BaseException], ...] = (
    TransientError,
    ConvergenceError,
    ConnectionError,
    BrokenPipeError,
)

#: Exceptions never retried even if a caller widens ``retryable``.
ALWAYS_FATAL: tuple[type[BaseException], ...] = (
    DeadlineExceededError,
    MemoryError,
    KeyboardInterrupt,
    SystemExit,
)


def _uniform_hash(*parts) -> float:
    """Deterministic uniform draw in [0, 1) from arbitrary parts."""
    digest = hashlib.sha256("|".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def call_with_deadline(fn, seconds: float | None, *, label: str = "call"):
    """Run ``fn()`` with a wall-clock budget of ``seconds``.

    ``None`` or a non-positive budget calls ``fn`` directly (zero cost).
    Otherwise ``fn`` runs on a daemon thread; if it has not finished
    within the budget, a :class:`DeadlineExceededError` is raised and the
    thread is abandoned (it cannot be killed, only orphaned).
    """
    if seconds is None or seconds <= 0:
        return fn()
    box: dict = {}

    def _runner():
        try:
            box["value"] = fn()
        except BaseException as exc:  # re-raised in the caller below
            box["error"] = exc

    thread = threading.Thread(
        target=_runner, daemon=True, name=f"deadline-{label}"
    )
    thread.start()
    thread.join(seconds)
    if thread.is_alive():
        count_event("deadline_hits")
        _log.warning("%s exceeded its %.3fs deadline; abandoning", label, seconds)
        raise DeadlineExceededError(
            f"{label} exceeded its {seconds:g}s deadline"
        )
    if "error" in box:
        raise box["error"]
    return box["value"]


@dataclass(frozen=True)
class FaultPolicy:
    """How failures are classified, retried, and time-bounded.

    Attributes
    ----------
    max_retries:
        Re-attempts after the first failure (``0`` disables retry).
    backoff_base:
        First backoff sleep in seconds; attempt ``k`` waits
        ``backoff_base * 2**k`` (plus jitter), capped at ``backoff_max``.
    backoff_max:
        Ceiling on a single backoff sleep.
    jitter:
        Fractional jitter added to each sleep (``0.25`` = up to +25%),
        derived deterministically from the call label and attempt.
    eval_deadline:
        Wall-clock seconds allowed per pipeline evaluation (``None`` =
        unbounded).  Enforced by :meth:`run` around the whole attempt.
    impute_deadline:
        Wall-clock seconds allowed per imputation ``_impute`` call
        (``None`` = unbounded); consumed by
        :meth:`repro.imputation.base.BaseImputer.impute`.
    fail_fast:
        Escalate the first *recorded* failure instead of degrading
        (ModelRace raises :class:`~repro.exceptions.EvaluationError`).
    quarantine_threshold:
        Consecutive failures before a :class:`~repro.resilience.CircuitBreaker`
        opens for the failing pipeline / imputer / member.
    retryable:
        Exception types classified as retryable
        (default :data:`DEFAULT_RETRYABLE`).
    """

    max_retries: int = 0
    backoff_base: float = 0.01
    backoff_max: float = 1.0
    jitter: float = 0.25
    eval_deadline: float | None = None
    impute_deadline: float | None = None
    fail_fast: bool = False
    quarantine_threshold: int = 3
    retryable: tuple[type[BaseException], ...] = DEFAULT_RETRYABLE

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValidationError("max_retries must be >= 0")
        if self.backoff_base < 0 or self.backoff_max < 0 or self.jitter < 0:
            raise ValidationError("backoff/jitter values must be >= 0")
        if self.quarantine_threshold < 1:
            raise ValidationError("quarantine_threshold must be >= 1")
        for budget in (self.eval_deadline, self.impute_deadline):
            if budget is not None and budget <= 0:
                raise ValidationError("deadlines must be positive or None")

    # ------------------------------------------------------------------
    def classify(self, exc: BaseException) -> str:
        """``"retryable"`` or ``"fatal"`` for the given exception."""
        if isinstance(exc, ALWAYS_FATAL):
            return "fatal"
        if isinstance(exc, tuple(self.retryable)):
            return "retryable"
        return "fatal"

    def backoff(self, attempt: int, label: str = "call") -> float:
        """Sleep before re-attempt ``attempt`` (0-based), with jitter."""
        base = min(self.backoff_max, self.backoff_base * (2.0 ** attempt))
        return base * (1.0 + self.jitter * _uniform_hash(label, attempt))

    # ------------------------------------------------------------------
    def run(self, fn, *, label: str = "call", deadline: float | None = None):
        """Execute ``fn()`` under this policy.

        Applies the deadline (``deadline`` overrides ``eval_deadline``)
        to every attempt and retries retryable failures up to
        ``max_retries`` times.  The last exception propagates unchanged
        when the budget is exhausted or the failure is fatal.
        """
        budget = deadline if deadline is not None else self.eval_deadline
        attempt = 0
        while True:
            try:
                return call_with_deadline(fn, budget, label=label)
            except Exception as exc:
                if self.classify(exc) == "fatal" or attempt >= self.max_retries:
                    raise
                delay = self.backoff(attempt, label)
                count_event("retries")
                _log.info(
                    "%s failed (%s: %s); retry %d/%d in %.3fs",
                    label,
                    type(exc).__name__,
                    exc,
                    attempt + 1,
                    self.max_retries,
                    delay,
                )
                if delay > 0:
                    time.sleep(delay)
                attempt += 1
