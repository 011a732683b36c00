"""Deterministic fault injection for chaos testing.

A :class:`FaultPlan` is a seeded list of :class:`FaultRule` s, each
targeting a **call site** (one of :data:`KNOWN_SITES`:
``race.evaluate``, ``classifier.fit``, ``imputer.impute``,
``ensemble.member``, ``serving.shard``) and optionally a specific
**target** at that site (a classifier family, an imputer name, a
shard).  The :class:`FaultInjector` evaluates the plan at every
instrumented call site and fires one of four fault kinds:

``raise``
    Raise :class:`~repro.exceptions.InjectedFault` (retryable).
``hang``
    Sleep ``duration`` seconds before proceeding — what a non-converging
    solver or a stuck I/O call looks like from the outside.  Pair with a
    :class:`~repro.resilience.FaultPolicy` deadline to test abandonment.
``nan``
    Return the poison marker so the call site corrupts its own output
    (imputers fill the gap with NaN, ensemble members emit NaN probas);
    exercises the downstream validators instead of the exception path.
``kill``
    Inside a process-pool worker: hard-exit the worker (``os._exit``),
    reproducing a real worker crash.  In the parent process (serial or
    thread backends) it degrades to raising
    :class:`~repro.exceptions.WorkerCrashError` — killing the interpreter
    the tests run in would be a little too chaotic.

Determinism
-----------
Firing decisions are **pure hashes** of ``(seed, rule, site, target,
token)`` — no shared RNG stream — so a plan replays identically across
runs, and across serial/thread/process backends whenever the call site
supplies a stable ``token`` (ModelRace passes ``(iteration, fold)``).
Sites that pass no token fall back to a per-``(rule, site, target)``
invocation counter, which is deterministic for serial execution and
order-dependent (but still seed-stable in aggregate) under threads.

Injectors are picklable (locks are rebuilt on unpickle) so they ride
into process workers; note that each worker then counts firings
independently — ``times``-bounded rules should either use tokens or be
exercised on the serial/thread backends.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from dataclasses import dataclass, field

from repro.exceptions import InjectedFault, ValidationError, WorkerCrashError
from repro.observability import get_logger
from repro.resilience.policy import _uniform_hash
from repro.resilience.stats import count_event

_log = get_logger(__name__)

#: Legal fault kinds.
FAULT_KINDS = ("raise", "hang", "nan", "kill")

#: Instrumented call sites; a rule naming any other site is rejected.
KNOWN_SITES = (
    "race.evaluate",
    "classifier.fit",
    "imputer.impute",
    "ensemble.member",
    "serving.shard",
)


@dataclass(frozen=True)
class FaultRule:
    """One line of a fault plan.

    Attributes
    ----------
    site:
        Call site the rule applies to (see :data:`KNOWN_SITES`).
    kind:
        One of :data:`FAULT_KINDS`.
    probability:
        Firing probability per eligible invocation (1.0 = always).
    match:
        Substring that must appear in ``str(target)`` (``None`` matches
        every target at the site).
    times:
        Maximum number of firings for this rule (``None`` = unlimited).
    after:
        Skip the first ``after`` eligible invocations before firing
        (``after=1, times=1`` = "fail exactly the second call").
    duration:
        Sleep seconds for ``hang`` rules.
    message:
        Custom exception text for ``raise`` rules.
    """

    site: str
    kind: str = "raise"
    probability: float = 1.0
    match: str | None = None
    times: int | None = None
    after: int = 0
    duration: float = 30.0
    message: str = ""

    def __post_init__(self) -> None:
        if self.site not in KNOWN_SITES:
            raise ValidationError(
                f"site must be one of {KNOWN_SITES}, got {self.site!r}"
            )
        if self.kind not in FAULT_KINDS:
            raise ValidationError(
                f"kind must be one of {FAULT_KINDS}, got {self.kind!r}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValidationError("probability must be in [0, 1]")
        if self.times is not None and self.times < 1:
            raise ValidationError("times must be >= 1 or None")
        if self.after < 0:
            raise ValidationError("after must be >= 0")
        if self.duration < 0:
            raise ValidationError("duration must be >= 0")

    def applies_to(self, site: str, target) -> bool:
        """Site/target eligibility (ignores counters and probability)."""
        if site != self.site:
            return False
        return self.match is None or self.match in str(target)


@dataclass
class FaultPlan:
    """A named, seeded collection of fault rules."""

    rules: list[FaultRule] = field(default_factory=list)
    seed: int = 0
    name: str = "plan"

    def injector(self) -> "FaultInjector":
        """Build a fresh injector executing this plan."""
        return FaultInjector(self.rules, seed=self.seed, name=self.name)


class FaultInjector:
    """Evaluates a fault plan at instrumented call sites.

    Call sites invoke :meth:`check`; the injector either returns ``None``
    (no fault — the overwhelmingly common case), returns ``"nan"``
    (the caller poisons its own output), raises, hangs, or kills the
    worker, per the first matching rule.
    """

    def __init__(self, rules, seed: int = 0, name: str = "injector"):
        self.rules = [self._coerce(rule) for rule in rules]
        self.seed = int(seed)
        self.name = str(name)
        self._fired: dict[int, int] = {}  # rule index -> firings
        self._seen: dict[tuple, int] = {}  # (rule, site, target) -> calls
        self._lock = threading.Lock()

    @staticmethod
    def _coerce(rule) -> FaultRule:
        if isinstance(rule, FaultRule):
            return rule
        if isinstance(rule, dict):
            return FaultRule(**rule)
        raise ValidationError(f"cannot build a FaultRule from {rule!r}")

    # -- pickling (locks do not pickle) --------------------------------
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    @property
    def fired(self) -> dict[int, int]:
        """Firing counts per rule index (copy)."""
        with self._lock:
            return dict(self._fired)

    @property
    def n_fired(self) -> int:
        """Total rule firings recorded by this injector instance."""
        with self._lock:
            return sum(self._fired.values())

    # ------------------------------------------------------------------
    def _select(self, site: str, target, token) -> FaultRule | None:
        """First rule that fires for this invocation, updating counters."""
        for index, rule in enumerate(self.rules):
            if not rule.applies_to(site, target):
                continue
            with self._lock:
                if rule.times is not None and self._fired.get(index, 0) >= rule.times:
                    continue
                seen_key = (index, site, str(target))
                seen = self._seen.get(seen_key, 0)
                self._seen[seen_key] = seen + 1
                if seen < rule.after:
                    continue
                if rule.probability < 1.0:
                    draw_token = token if token is not None else seen
                    draw = _uniform_hash(
                        self.seed, index, site, target, draw_token
                    )
                    if draw >= rule.probability:
                        continue
                self._fired[index] = self._fired.get(index, 0) + 1
            return rule
        return None

    def check(self, site: str, target, token=None) -> str | None:
        """Evaluate the plan for one invocation of ``site`` on ``target``.

        Returns ``None`` (proceed normally) or ``"nan"`` (caller must
        poison its output); raises / hangs / kills for the other kinds.
        ``token`` is optional stable invocation context (e.g.
        ``(iteration, fold)``) that makes probability draws independent
        of execution order.
        """
        rule = self._select(site, target, token)
        if rule is None:
            return None
        count_event("faults_injected", labels={"site": site, "kind": rule.kind})
        _log.info(
            "%s: injecting %s at %s:%s (token=%r)",
            self.name, rule.kind, site, target, token,
        )
        if rule.kind == "hang":
            time.sleep(rule.duration)
            return None
        if rule.kind == "nan":
            return "nan"
        if rule.kind == "kill":
            if multiprocessing.parent_process() is not None:
                # Real crash: hard-exit the pool worker without cleanup.
                os._exit(23)
            raise WorkerCrashError(
                rule.message or f"injected worker crash at {site}:{target}"
            )
        raise InjectedFault(
            rule.message or f"injected fault at {site}:{target}"
        )

    def __repr__(self) -> str:
        return (
            f"FaultInjector({self.name!r}, seed={self.seed}, "
            f"rules={len(self.rules)}, fired={self.n_fired})"
        )
