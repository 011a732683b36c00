"""The serving telemetry sink: streaming sketches, scorecards, SLOs.

Every served request lands in :class:`SloTracker`; the health document,
Prometheus export, ``repro top`` and the burn-rate alerts all read it.

* :class:`QuantileSketch` — a mergeable, picklable, fixed-memory
  KLL-style streaming quantile estimator.  Feeding every observation of
  a process lifetime costs O(k) memory and gives p50/p99 estimates
  within a fraction of a percent of the exact batch percentile (the
  parity contract is tested at n=10k over several distributions).
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
  :class:`~repro.observability.serving.DriftDetector` alerts.  Alerts
  are announced through the
  :class:`~repro.observability.observer.ServingObserver` bus
  (``on_slo_alert``) and a ``repro_slo_alerts_total`` counter.

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

import numpy as np

from repro.observability.log import get_logger
from repro.observability.metrics import get_metrics

_log = get_logger(__name__)


# ---------------------------------------------------------------------------
# Streaming quantile sketch
# ---------------------------------------------------------------------------
class QuantileSketch:
    """Mergeable KLL-style streaming quantile sketch with fixed memory.

    Observations land in a hierarchy of level buffers; level ``l`` items
    each represent ``2**l`` original observations.  When the sketch
    exceeds its memory budget the fullest low level is sorted and every
    other item (deterministic alternating offset) is promoted one level
    up — the classic KLL compaction, with REQ-style tail protection (the
    extreme items of each level never compact) so the upper quantiles an
    SLO pages on stay near-exact.  Memory stays O(k); rank error shrinks
    as ``k`` grows (the default ``k=1024`` keeps p50/p95/p99 within 1%
    relative error at n=10k across normal/lognormal/uniform/exponential
    streams, which the test suite pins).

    The sketch is:

    * **picklable** — plain lists and ints, no locks in the state
      (the lock is rebuilt on unpickle);
    * **mergeable** — :meth:`merge` concatenates level buffers and
      re-compacts, so merge-of-halves ≈ whole-stream;
    * **exact below capacity** — until the first compaction the sketch
      holds the raw sample and :meth:`quantile` equals
      ``np.percentile`` bit-for-bit.
    """

    __slots__ = (
        "k", "_levels", "_count", "_sum", "_min", "_max", "_coin", "_lock",
    )

    def __init__(self, k: int = 1024):
        if k < 8:
            raise ValueError("sketch k must be >= 8")
        self.k = int(k)
        self._levels: list[list[float]] = [[]]
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")
        # Deterministic compaction coin (xorshift state).  Seeding from k
        # keeps behaviour reproducible run-to-run without any global RNG.
        self._coin = (self.k * 2654435761) & 0xFFFFFFFF or 1
        self._lock = threading.Lock()

    # -- pickling (drop the lock) ---------------------------------------
    def __getstate__(self) -> dict:
        with self._lock:
            return {
                "k": self.k,
                "levels": [list(level) for level in self._levels],
                "count": self._count,
                "sum": self._sum,
                "min": self._min,
                "max": self._max,
                "coin": self._coin,
            }

    def __setstate__(self, state: dict) -> None:
        self.k = state["k"]
        self._levels = [list(level) for level in state["levels"]]
        self._count = state["count"]
        self._sum = state["sum"]
        self._min = state["min"]
        self._max = state["max"]
        self._coin = state["coin"]
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._count

    @property
    def count(self) -> int:
        """Lifetime number of observations folded into the sketch."""
        return self._count

    @property
    def mean(self) -> float:
        """Exact running mean of every observation."""
        return self._sum / self._count if self._count else 0.0

    def _capacity(self, level: int, n_levels: int) -> int:
        """Target capacity of ``level`` given ``n_levels`` total levels."""
        # Higher levels hold more items (they are cheaper per represented
        # observation); the 2/3 geometric decay is the KLL schedule.
        cap = int(self.k * (2.0 / 3.0) ** (n_levels - 1 - level))
        return max(8, cap)

    def _flip(self) -> int:
        """Deterministic coin: one xorshift32 step, returns 0 or 1."""
        x = self._coin
        x ^= (x << 13) & 0xFFFFFFFF
        x ^= x >> 17
        x ^= (x << 5) & 0xFFFFFFFF
        self._coin = x
        return x & 1

    def _compact_locked(self) -> None:
        """Compact the fullest over-capacity level (caller holds the lock)."""
        n_levels = len(self._levels)
        total_cap = sum(self._capacity(lv, n_levels) for lv in range(n_levels))
        if sum(len(level) for level in self._levels) <= total_cap:
            return
        for lv in range(n_levels):
            level = self._levels[lv]
            cap = self._capacity(lv, n_levels)
            if len(level) > cap:
                level.sort()
                # Tail protection (REQ-style): the lowest/highest few
                # items stay at this level with their exact weight, so
                # extreme quantiles — the ones SLOs page on — keep
                # near-exact resolution while the bulk compacts.
                tail = max(2, cap // 6)
                promoted = level[tail:-tail][self._flip()::2]
                if lv + 1 == n_levels:
                    self._levels.append([])
                self._levels[lv + 1].extend(promoted)
                self._levels[lv] = level[:tail] + level[-tail:]
                return

    def update(self, value: float) -> None:
        """Fold one observation into the sketch (non-finite are dropped)."""
        value = float(value)
        if not np.isfinite(value):
            return
        with self._lock:
            self._levels[0].append(value)
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            self._compact_locked()

    def extend(self, values) -> None:
        """Fold many observations (any array-like)."""
        for value in np.asarray(values, dtype=float).ravel():
            self.update(value)

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Fold ``other`` into ``self`` (returns ``self``).

        Level buffers concatenate weight-for-weight, then the combined
        sketch re-compacts down to its own memory budget, so merging N
        shard sketches costs the same memory as one.
        """
        if not isinstance(other, QuantileSketch):
            raise TypeError("can only merge another QuantileSketch")
        # Snapshot the other side first: merging a sketch into itself or
        # concurrent updates must not corrupt the level lists.
        state = other.__getstate__()
        with self._lock:
            for lv, level in enumerate(state["levels"]):
                while lv >= len(self._levels):
                    self._levels.append([])
                self._levels[lv].extend(level)
            self._count += state["count"]
            self._sum += state["sum"]
            self._min = min(self._min, state["min"])
            self._max = max(self._max, state["max"])
            for _ in range(len(self._levels) + 8):
                before = sum(len(level) for level in self._levels)
                self._compact_locked()
                if sum(len(level) for level in self._levels) == before:
                    break
        return self

    # ------------------------------------------------------------------
    def _weighted_items(self) -> tuple[np.ndarray, np.ndarray]:
        """(values, weights) of every stored item, unsorted."""
        with self._lock:
            values: list[float] = []
            weights: list[float] = []
            for lv, level in enumerate(self._levels):
                values.extend(level)
                weights.extend([float(1 << lv)] * len(level))
        return np.asarray(values, dtype=float), np.asarray(weights, dtype=float)

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (0 <= q <= 1).

        Uses the weighted analogue of ``np.percentile``'s linear
        interpolation: stored item ``i`` (value-sorted) sits at rank
        position ``cumw_{i-1} + (w_i - 1) / 2`` and the target rank
        ``q * (count - 1)`` interpolates between its bracketing items.
        With no compactions (all weights 1) this is exactly
        ``np.percentile``.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        values, weights = self._weighted_items()
        if values.size == 0:
            return 0.0
        order = np.argsort(values, kind="stable")
        values = values[order]
        weights = weights[order]
        positions = np.cumsum(weights) - (weights + 1.0) / 2.0
        target = q * (weights.sum() - 1.0)
        if target <= positions[0]:
            return float(self._min)
        if target >= positions[-1]:
            return float(self._max)
        idx = int(np.searchsorted(positions, target, side="right"))
        lo, hi = positions[idx - 1], positions[idx]
        frac = 0.0 if hi == lo else (target - lo) / (hi - lo)
        return float(values[idx - 1] + frac * (values[idx] - values[idx - 1]))

    def quantiles(self, qs) -> list[float]:
        """Estimate several quantiles in one pass."""
        return [self.quantile(q) for q in qs]

    def summary(self) -> dict:
        """Health-document payload: count/mean/min/max/p50/p95/p99."""
        if self._count == 0:
            return {
                "count": 0, "mean": 0.0, "min": 0.0, "max": 0.0,
                "p50": 0.0, "p95": 0.0, "p99": 0.0,
            }
        p50, p95, p99 = self.quantiles((0.5, 0.95, 0.99))
        return {
            "count": int(self._count),
            "mean": float(self.mean),
            "min": float(self._min),
            "max": float(self._max),
            "p50": p50,
            "p95": p95,
            "p99": p99,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        stored = sum(len(level) for level in self._levels)
        return (
            f"QuantileSketch(k={self.k}, count={self._count}, "
            f"stored={stored}, levels={len(self._levels)})"
        )


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
        self._observers: list = []
        self._lock = threading.Lock()
        self.n_requests = 0
        #: Series served (events with a latency).
        self.n_series = 0
        #: Every series event, rejected ones included.
        self.n_events = 0

    def add_observer(self, observer) -> None:
        """Register a ServingObserver for ``on_slo_alert`` callbacks."""
        self._observers.append(observer)

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
            for observer in self._observers:
                observer.on_slo_alert(alert)
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
