"""The serving telemetry sink: streaming sketches, scorecards, SLOs.

Every served request lands in :class:`SloTracker`; the health document,
Prometheus export, ``repro top`` and the burn-rate alerts all read it.

* :class:`~repro.observability.metrics.QuantileSketch` (the one
  quantile implementation, shared with the metrics histograms) backs
  every lifetime view: O(k) memory, p50/p99 within a fraction of a
  percent of the exact batch percentile.
* :class:`Scorecard` — one slice's running fold, shared with
  :func:`~repro.observability.ledger.summarize_ledger`.
* :class:`SloPolicy` — one objective ("p99 latency <= 50ms", "error
  rate <= 0.1%") expressed as an *error budget*: the fraction of events
  allowed to be bad.  A latency event is bad when it exceeds the
  threshold; an error event is bad when the request failed.
* :class:`SloTracker` — the sink: lifetime sketch views of request
  latency, series latency, confidence and disagreement, the
  recommendation mix, per-slice scorecards, and policies evaluated
  over multi-window burn rates (fast 5m / slow 1h by default).  The
  burn rate is
  ``bad_fraction / budget``; 1.0 means the budget is being consumed
  exactly at the sustainable rate, 14.4 means the monthly budget burns
  in two days.  An alert fires when **both** windows burn above their
  thresholds (the standard multi-window guard against one-spike pages)
  and re-arms once the fast window recovers, exactly like
  :class:`~repro.observability.serving.DriftDetector` alerts.  Fired
  alerts are returned by :meth:`SloTracker.evaluate`, logged, and
  counted in ``repro_slo_alerts_total``.

**Lifetime views, recent windows.**  The health views (latency,
confidence, disagreement, slice quantiles) are lifetime sketches, exact
below ``k`` observations; the recent view is the SLO burn windows (the
events of the last 5 minutes / 1 hour per policy).  Slices are keyed
``imputer:<algorithm>``, ``cluster:<id>`` and ``shard:<id>``.

Time is injectable (``clock=...``) so burn-rate behaviour is exactly
testable with a fake clock; production uses ``time.monotonic``.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass

from repro.observability.log import get_logger
from repro.observability.metrics import QuantileSketch, get_metrics

_log = get_logger(__name__)


# ---------------------------------------------------------------------------
# SLO policies
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SloPolicy:
    """One service-level objective expressed as an error budget.

    Every event is classified good or bad; the objective holds while the
    bad fraction stays at or under ``budget``.  For ``kind="latency"``
    an event is bad when its latency exceeds ``threshold`` seconds —
    "p99 <= 50ms" is therefore ``threshold=0.05, budget=0.01``.  For
    ``kind="error_rate"`` an event is bad when the request errored.

    Burn-rate alerting follows the multi-window recipe: the alert
    condition is ``burn(fast_window) >= fast_burn`` AND
    ``burn(slow_window) >= slow_burn``, where ``burn = bad_fraction /
    budget``.  Defaults (14.4 / 6.0 over 5m / 1h) are the conventional
    fast-page thresholds.
    """

    name: str
    kind: str  # "latency" | "error_rate"
    budget: float
    threshold: float = 0.0  # seconds; latency policies only
    fast_window_s: float = 300.0
    slow_window_s: float = 3600.0
    fast_burn: float = 14.4
    slow_burn: float = 6.0
    min_events: int = 10

    def __post_init__(self):
        if self.kind not in ("latency", "error_rate"):
            raise ValueError(f"unknown SLO kind {self.kind!r}")
        if not 0.0 < self.budget < 1.0:
            raise ValueError("budget must be in (0, 1)")
        if self.kind == "latency" and self.threshold <= 0.0:
            raise ValueError("latency policies need a positive threshold")
        if self.fast_window_s <= 0 or self.slow_window_s < self.fast_window_s:
            raise ValueError("need 0 < fast_window_s <= slow_window_s")

    @classmethod
    def latency(
        cls,
        name: str,
        *,
        quantile: float = 0.99,
        threshold_s: float = 0.05,
        **kwargs,
    ) -> "SloPolicy":
        """Quantile-style spelling: "p{quantile} latency <= threshold".

        ``quantile=0.99`` allows 1% of events over the threshold, i.e.
        ``budget = 1 - quantile``.
        """
        if not 0.0 < quantile < 1.0:
            raise ValueError("quantile must be in (0, 1)")
        return cls(
            name=name,
            kind="latency",
            budget=1.0 - quantile,
            threshold=float(threshold_s),
            **kwargs,
        )

    @classmethod
    def error_rate(cls, name: str, *, budget: float = 0.001, **kwargs) -> "SloPolicy":
        """Error-rate spelling: "error rate <= budget"."""
        return cls(name=name, kind="error_rate", budget=float(budget), **kwargs)

    def describe(self) -> str:
        """Human rendering for the dashboard / alert messages."""
        if self.kind == "latency":
            quantile = 1.0 - self.budget
            return (
                f"p{quantile * 100:g} latency <= {self.threshold * 1000:g}ms "
                f"over {self.fast_window_s / 60:g}m/{self.slow_window_s / 60:g}m"
            )
        return (
            f"error rate <= {self.budget:.3%} "
            f"over {self.fast_window_s / 60:g}m/{self.slow_window_s / 60:g}m"
        )


def default_policies() -> list[SloPolicy]:
    """The stock serving policies installed by :class:`SloTracker`.

    Deliberately loose (p99 <= 1s, errors <= 1%) so an uncalibrated
    deployment monitors without paging; production callers pass their
    own measured objectives.
    """
    return [
        SloPolicy.latency("latency_p50", quantile=0.5, threshold_s=0.25),
        SloPolicy.latency("latency_p99", quantile=0.99, threshold_s=1.0),
        SloPolicy.error_rate("error_rate", budget=0.01),
    ]


@dataclass
class SloAlert:
    """One burn-rate excursion (fired once per excursion, like drift)."""

    policy: str
    kind: str
    budget: float
    fast_burn: float
    slow_burn: float
    fast_threshold: float
    slow_threshold: float
    n_events: int
    message: str = ""

    def as_dict(self) -> dict:
        return {
            "policy": self.policy,
            "kind": self.kind,
            "budget": self.budget,
            "fast_burn": self.fast_burn,
            "slow_burn": self.slow_burn,
            "fast_threshold": self.fast_threshold,
            "slow_threshold": self.slow_threshold,
            "n_events": self.n_events,
            "message": self.message,
        }


class _PolicyState:
    """Mutable tracking state of one policy: bucketed good/bad counts."""

    __slots__ = ("policy", "buckets", "alert_active", "n_alerts", "last_status")

    def __init__(self, policy: SloPolicy):
        self.policy = policy
        #: deque of ``[bucket_start_s, good, bad]`` (monotonic-clock
        #: buckets), oldest first, pruned past the slow window.
        self.buckets: deque[list] = deque()
        self.alert_active = False
        self.n_alerts = 0
        self.last_status: dict | None = None

    def record(self, now: float, bucket_s: float, bad: bool) -> None:
        start = now - (now % bucket_s)
        if not self.buckets or self.buckets[-1][0] != start:
            self.buckets.append([start, 0, 0])
            horizon = now - self.policy.slow_window_s - bucket_s
            while self.buckets and self.buckets[0][0] < horizon:
                self.buckets.popleft()
        slot = self.buckets[-1]
        if bad:
            slot[2] += 1
        else:
            slot[1] += 1

    def window_counts(self, now: float, window_s: float) -> tuple[int, int]:
        """(good, bad) within the trailing ``window_s`` seconds."""
        horizon = now - window_s
        good = bad = 0
        for start, g, b in reversed(self.buckets):
            if start + 1e-9 < horizon - 1e-9 and start < horizon:
                break
            good += g
            bad += b
        return good, bad


class Scorecard:
    """Running fold of one slice: series, degraded and error counts,
    confidence and NCC sums (each when known), plus — inside
    :class:`SloTracker` — a latency sketch and per-policy bad counts."""

    __slots__ = (
        "n", "degraded", "errors", "confidence_sum", "confidence_n",
        "ncc_sum", "ncc_n", "sketch", "bad",
    )

    def __init__(self, sketch: QuantileSketch | None = None, policies=()):
        self.n = self.degraded = self.errors = 0
        self.confidence_sum = self.ncc_sum = 0.0
        self.confidence_n = self.ncc_n = 0
        self.sketch = sketch
        self.bad = dict.fromkeys(policies, 0)

    def fold(
        self, *, degraded=False, error=False, confidence=None, ncc=None
    ) -> None:
        self.n += 1
        if degraded:
            self.degraded += 1
        if error:
            self.errors += 1
        if confidence is not None:
            self.confidence_sum += float(confidence)
            self.confidence_n += 1
        if ncc is not None:
            self.ncc_sum += float(ncc)
            self.ncc_n += 1


def _mean(total: float, n: int) -> float:
    return total / n if n else 0.0


def scorecard_views(cards: dict) -> dict:
    """Name-sorted ``per_imputer`` / ``per_cluster`` views of the
    ``imputer:``/``cluster:`` keyed cards (other keys are ignored)."""
    views = {"per_imputer": {}, "per_cluster": {}}
    for key in sorted(cards):
        kind, _, name = key.partition(":")
        card = cards[key]
        if kind == "imputer":
            views["per_imputer"][name] = {
                "n": card.n,
                "degraded": card.degraded,
                "mean_confidence": _mean(card.confidence_sum, card.confidence_n),
            }
        elif kind == "cluster":
            views["per_cluster"][name] = {
                "n": card.n,
                "degraded": card.degraded,
                "mean_ncc": _mean(card.ncc_sum, card.ncc_n),
            }
    return views


class SloTracker:
    """The serving telemetry sink: health views, scorecards, burn rates.

    Feed it one :meth:`record_request` per served request (or
    :meth:`record_series` per series event).

    Parameters
    ----------
    policies:
        The :class:`SloPolicy` set to evaluate (default
        :func:`default_policies`; ``()`` tracks traffic without
        objectives).
    clock:
        Monotonic-seconds callable; inject a fake for deterministic
        tests.
    bucket_s:
        Width of the windowed-count buckets (trades memory for window
        resolution; 10s keeps a 1h window in 360 buckets).
    sketch_k:
        Memory/accuracy knob of the sketches.
    max_slices:
        Cardinality cap on tracked slices; further keys fold into an
        ``"overflow"`` slice (mirroring the metrics registry's cap).
        Serving callers size it with
        :func:`~repro.observability.serving.slice_budget` so every
        imputer, cluster and shard keeps an exact card.
    """

    def __init__(
        self,
        policies=None,
        *,
        clock=time.monotonic,
        bucket_s: float = 10.0,
        sketch_k: int = 1024,
        max_slices: int = 64,
    ):
        self.policies = list(policies) if policies is not None else default_policies()
        names = [p.name for p in self.policies]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate policy names: {names}")
        self.clock = clock
        self.bucket_s = float(bucket_s)
        self.sketch_k = int(sketch_k)
        self.max_slices = int(max_slices)
        #: Per-series latency view (the unit error budgets count in).
        self.sketch = QuantileSketch(self.sketch_k)
        #: Whole-request latency view.
        self.request_latency = QuantileSketch(self.sketch_k)
        self.confidence = QuantileSketch(self.sketch_k)
        self.disagreement = QuantileSketch(self.sketch_k)
        #: Recommendations served per algorithm.
        self.mix: dict[str, int] = {}
        self._states = {p.name: _PolicyState(p) for p in self.policies}
        self._slices: dict[str, Scorecard] = {}
        self._lock = threading.Lock()
        self.n_requests = 0
        #: Series served (events with a latency).
        self.n_series = 0
        #: Every series event, rejected ones included.
        self.n_events = 0

    # ------------------------------------------------------------------
    def _slice_locked(self, key: str) -> Scorecard:
        card = self._slices.get(key)
        if card is None:
            if len(self._slices) >= self.max_slices and key != "overflow":
                return self._slice_locked("overflow")
            card = Scorecard(
                QuantileSketch(max(32, self.sketch_k // 4)), self._states
            )
            self._slices[key] = card
        return card

    def _fold_locked(
        self, now: float, seconds, *, algorithm=None, confidence=None,
        disagreement=None, ncc=None, degraded=False, error=False, slices=(),
    ) -> None:
        self.n_events += 1
        if seconds is not None:
            seconds = float(seconds)
            self.n_series += 1
            self.sketch.update(seconds)
        if algorithm is not None:
            self.mix[algorithm] = self.mix.get(algorithm, 0) + 1
        if confidence is not None and not error:
            self.confidence.update(confidence)
        if disagreement is not None:
            self.disagreement.update(disagreement)
        bad_by_policy = {}
        for name, state in self._states.items():
            policy = state.policy
            if policy.kind == "error_rate":
                bad = bool(error)
            elif seconds is None:
                continue  # a rejection has no latency to judge
            else:
                bad = seconds > policy.threshold
            bad_by_policy[name] = bad
            state.record(now, self.bucket_s, bad)
        for key in slices:
            card = self._slice_locked(str(key))
            card.fold(
                degraded=degraded, error=error, confidence=confidence, ncc=ncc
            )
            if seconds is not None:
                card.sketch.update(seconds)
            for name, bad in bad_by_policy.items():
                if bad:
                    card.bad[name] += 1

    def record_series(
        self, seconds, *, check: bool = True, **event
    ) -> list[SloAlert]:
        """Record one series event and re-evaluate every policy.

        ``seconds`` is the service latency, or ``None`` for a rejected
        series: it then counts toward errors and error-rate policies
        only.  ``event`` fields: ``algorithm``, ``confidence`` (kept out
        of the confidence view on ``error`` events such as a static
        fallback), ``disagreement``, ``ncc``, ``degraded``, ``error``
        and ``slices`` (the scorecard keys it folds into).  Returns the
        newly fired alerts; pass ``check=False`` to defer
        :meth:`evaluate`.
        """
        now = float(self.clock())
        with self._lock:
            self._fold_locked(now, seconds, **event)
        return self.evaluate(now=now) if check else []

    def record_request(
        self, seconds, series=(), *, check: bool = True
    ) -> list[SloAlert]:
        """Record one request (latency, ``None`` when rejected) and its
        series events — one :meth:`record_series` keyword dict each —
        under one lock, then evaluate once unless ``check=False``."""
        now = float(self.clock())
        with self._lock:
            self.n_requests += 1
            if seconds is not None:
                self.request_latency.update(seconds)
            for event in series:
                self._fold_locked(now, **event)
        return self.evaluate(now=now) if check else []

    # ------------------------------------------------------------------
    def _policy_status(self, state: _PolicyState, now: float) -> dict:
        policy = state.policy
        fast_good, fast_bad = state.window_counts(now, policy.fast_window_s)
        slow_good, slow_bad = state.window_counts(now, policy.slow_window_s)
        fast_total = fast_good + fast_bad
        slow_total = slow_good + slow_bad
        fast_fraction = fast_bad / fast_total if fast_total else 0.0
        slow_fraction = slow_bad / slow_total if slow_total else 0.0
        fast_burn = fast_fraction / policy.budget
        slow_burn = slow_fraction / policy.budget
        return {
            "policy": policy.name,
            "kind": policy.kind,
            "objective": policy.describe(),
            "threshold_s": policy.threshold if policy.kind == "latency" else None,
            "budget": policy.budget,
            "fast_window_s": policy.fast_window_s,
            "slow_window_s": policy.slow_window_s,
            "fast_events": fast_total,
            "slow_events": slow_total,
            "fast_bad_fraction": fast_fraction,
            "slow_bad_fraction": slow_fraction,
            "fast_burn": fast_burn,
            "slow_burn": slow_burn,
            "budget_remaining": max(0.0, 1.0 - slow_fraction / policy.budget),
            "alerting": state.alert_active,
            "n_alerts": state.n_alerts,
        }

    def evaluate(self, *, now: float | None = None) -> list[SloAlert]:
        """Evaluate every policy; fire / re-arm burn-rate alerts.

        An alert fires when the fast AND slow windows both burn above
        their thresholds (with at least ``min_events`` in the fast
        window); it stays active until the fast window drops back under
        its threshold, after which the policy is re-armed and can fire
        again — the DriftDetector excursion semantics.
        """
        if now is None:
            now = float(self.clock())
        fired: list[SloAlert] = []
        metrics = get_metrics()
        with self._lock:
            for state in self._states.values():
                policy = state.policy
                status = self._policy_status(state, now)
                condition = (
                    status["fast_events"] >= policy.min_events
                    and status["fast_burn"] >= policy.fast_burn
                    and status["slow_burn"] >= policy.slow_burn
                )
                if condition and not state.alert_active:
                    state.alert_active = True
                    state.n_alerts += 1
                    alert = SloAlert(
                        policy=policy.name,
                        kind=policy.kind,
                        budget=policy.budget,
                        fast_burn=status["fast_burn"],
                        slow_burn=status["slow_burn"],
                        fast_threshold=policy.fast_burn,
                        slow_threshold=policy.slow_burn,
                        n_events=status["fast_events"],
                        message=(
                            f"SLO {policy.name} burning "
                            f"{status['fast_burn']:.1f}x budget over "
                            f"{policy.fast_window_s / 60:g}m "
                            f"({status['slow_burn']:.1f}x over "
                            f"{policy.slow_window_s / 60:g}m): "
                            f"{policy.describe()}"
                        ),
                    )
                    fired.append(alert)
                elif state.alert_active and (
                    status["fast_burn"] < policy.fast_burn
                ):
                    state.alert_active = False  # re-arm
                status["alerting"] = state.alert_active
                status["n_alerts"] = state.n_alerts
                state.last_status = status
        for alert in fired:
            metrics.counter(
                "repro_slo_alerts_total",
                "Burn-rate SLO alerts announced",
                labels={"policy": alert.policy},
            ).inc()
            _log.warning("%s", alert.message)
        return fired

    # ------------------------------------------------------------------
    @property
    def n_alerts(self) -> int:
        """Total alerts fired across every policy."""
        with self._lock:
            return sum(state.n_alerts for state in self._states.values())

    def status(self) -> dict:
        """Health-document payload: sketch summary + per-policy statuses
        + per-slice scorecards."""
        now = float(self.clock())
        with self._lock:
            policies = [
                self._policy_status(state, now)
                for state in self._states.values()
            ]
            slices = {}
            for key in sorted(self._slices):
                card = self._slices[key]
                slices[key] = {
                    "n": card.n,
                    "errors": card.errors,
                    "p50": card.sketch.quantile(0.5),
                    "p99": card.sketch.quantile(0.99),
                    "bad": dict(card.bad),
                }
            return {
                "n_events": self.n_events,
                "n_alerts": sum(s.n_alerts for s in self._states.values()),
                "latency_sketch": self.sketch.summary(),
                "policies": policies,
                "slices": slices,
            }

    def views(self) -> dict:
        """The traffic sections of a health document."""
        with self._lock:
            counts = dict(sorted(self.mix.items()))
            total = sum(counts.values())
            return {
                "n_requests": self.n_requests,
                "n_series": self.n_series,
                "latency": self.request_latency.summary(),
                "series_latency": self.sketch.summary(),
                "confidence": self.confidence.summary(),
                "disagreement": self.disagreement.summary(),
                "recommendation_mix": {
                    "counts": counts,
                    "fractions": {
                        name: count / total for name, count in counts.items()
                    },
                },
                "scorecards": scorecard_views(self._slices),
            }
