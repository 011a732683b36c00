"""Circuit breaker: quarantine repeatedly failing components.

A :class:`CircuitBreaker` tracks *consecutive* failures per key (a
pipeline ``config_key()``, an imputer name, an ensemble member index —
any hashable).  Once a key fails ``threshold`` times in a row its
circuit **opens**: callers should skip the component (ModelRace prunes
the pipeline; the voting ensemble drops the member) instead of paying
for — or crashing on — the next failure.

By default an open circuit stays open for the breaker's lifetime, which
is the deterministic choice inside a race (a quarantined pipeline never
silently rejoins and perturbs the surviving set).  Long-lived serving
breakers may pass ``reset_after`` seconds to re-arm ("half-open"): the
next call after the cooldown is allowed through, and its outcome closes
or re-opens the circuit.
"""

from __future__ import annotations

import threading
import time

from repro.exceptions import ValidationError
from repro.observability import get_logger
from repro.resilience.stats import count_event

_log = get_logger(__name__)


class CircuitBreaker:
    """Consecutive-failure quarantine with optional timed re-arm.

    Parameters
    ----------
    threshold:
        Consecutive failures that open a key's circuit.
    reset_after:
        Seconds after which an open circuit lets one probe call through
        (``None`` — the default — keeps it open forever).
    name:
        Label used in logs/metrics (``scope`` label on the counters).
    """

    def __init__(
        self,
        threshold: int = 3,
        *,
        reset_after: float | None = None,
        name: str = "breaker",
    ):
        if threshold < 1:
            raise ValidationError("threshold must be >= 1")
        if reset_after is not None and reset_after <= 0:
            raise ValidationError("reset_after must be positive or None")
        self.threshold = int(threshold)
        self.reset_after = reset_after
        self.name = str(name)
        self._failures: dict = {}  # key -> consecutive failure count
        self._opened_at: dict = {}  # key -> monotonic open time
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def record_failure(self, key, error: str | None = None) -> bool:
        """Record one failure for ``key``; returns True if it just opened."""
        with self._lock:
            count = self._failures.get(key, 0) + 1
            self._failures[key] = count
            already_open = key in self._opened_at
            opened = count >= self.threshold and not already_open
            if opened:
                self._opened_at[key] = time.monotonic()
        if opened:
            count_event("quarantines", labels={"scope": self.name})
            _log.warning(
                "%s: quarantined %r after %d consecutive failures%s",
                self.name,
                key,
                self.threshold,
                f" ({error})" if error else "",
            )
        return opened

    def record_success(self, key) -> None:
        """A clean call: reset the key's failure streak and close it."""
        with self._lock:
            self._failures.pop(key, None)
            self._opened_at.pop(key, None)

    def is_open(self, key) -> bool:
        """Whether calls for ``key`` should currently be skipped."""
        with self._lock:
            opened_at = self._opened_at.get(key)
            if opened_at is None:
                return False
            if (
                self.reset_after is not None
                and time.monotonic() - opened_at >= self.reset_after
            ):
                # Half-open: allow one probe; keep the streak so a single
                # failure re-opens immediately.
                self._opened_at.pop(key, None)
                self._failures[key] = self.threshold - 1
                return False
            return True

    # ------------------------------------------------------------------
    def failures(self, key) -> int:
        """Current consecutive-failure streak for ``key``."""
        with self._lock:
            return self._failures.get(key, 0)

    def open_keys(self) -> list:
        """Keys whose circuits are currently open (sorted by repr)."""
        with self._lock:
            keys = list(self._opened_at)
        return sorted((k for k in keys if self.is_open(k)), key=repr)

    @property
    def n_open(self) -> int:
        """Number of currently open circuits."""
        return len(self.open_keys())

    def reset(self) -> None:
        """Close every circuit and forget all streaks."""
        with self._lock:
            self._failures.clear()
            self._opened_at.clear()

    # -- picklability (locks don't pickle) ------------------------------
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_lock", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker({self.name!r}, threshold={self.threshold}, "
            f"open={self.n_open})"
        )
