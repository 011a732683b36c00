"""Metrics registry: counters, gauges, and sketch-backed histograms.

Zero-dependency (numpy is already a core dependency) and thread-safe.
:func:`get_metrics` returns the process registry, a real
:class:`MetricsRegistry` from import time: every instrumented event of
the library is counted there once, and the serving health document,
``repro top`` and ``--metrics-out`` all read it.  :func:`set_metrics` /
:class:`use_metrics` install another registry (tests scope a fresh one);
``None`` restores the process registry.  A forked worker starts with an
empty process registry, so counts made in workers stay in the worker.

Looking up a registered instrument is one dict read (a legal name is
never re-sanitized) and an update one lock acquisition, so library code
instruments hot paths unconditionally.  Histograms keep a
:class:`QuantileSketch`: O(k) memory for a whole process lifetime, and
exact (equal to ``np.percentile``) below ``k`` observations.

Export formats:

* :meth:`MetricsRegistry.to_json` — nested JSON document;
* :meth:`MetricsRegistry.to_prometheus` — Prometheus text exposition
  format (counters/gauges as-is, histograms as ``summary`` quantiles by
  default, or native ``histogram`` ``_bucket``/``_sum``/``_count``
  series when ``native_histograms`` is enabled).

Long-running serving safety: each metric name may hold at most
``max_label_sets`` distinct label combinations (default 64).  Once the
cap is hit, further label sets are folded into a single
``{overflow="true"}`` instrument and a warning is logged once per
metric — a per-series or per-request label can therefore never grow the
registry without bound.
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import threading
import time

import numpy as np

_LabelKey = tuple[tuple[str, str], ...]

#: Label set absorbing new label combinations once a metric hits its
#: cardinality cap (see ``MetricsRegistry(max_label_sets=...)``).
OVERFLOW_LABELS: _LabelKey = (("overflow", "true"),)


def _label_key(labels: dict | None) -> _LabelKey:
    if not labels:
        return ()
    if len(labels) == 1:  # the common case: skip the sort
        ((key, value),) = labels.items()
        return ((str(key), str(value)),)
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format.

    The spec requires ``\\`` -> ``\\\\``, ``"`` -> ``\\"`` and newline ->
    ``\\n`` inside quoted label values; anything else is passed through.
    Backslash must be escaped first or it would re-escape the others.
    """
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _render_labels(key: _LabelKey) -> str:
    if not key:
        return ""
    inner = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in key)
    return "{" + inner + "}"


def _get_module_logger():
    """Lazy logger lookup (avoids an import cycle at package init)."""
    from repro.observability.log import get_logger

    return get_logger(__name__)


_BUILD_INFO: dict | None = None


def build_info(*, refresh: bool = False) -> dict:
    """Build identity of this process: package version + git sha.

    Values fall back to ``"unknown"`` rather than raising — build
    identity must never break an export path.  Resolution order: the
    package's ``__version__`` (then installed distribution metadata) for
    the version; the ``REPRO_BUILD_SHA`` environment variable (CI sets
    it from the checkout) then ``git rev-parse`` for the sha.  Cached
    after the first call; ``refresh=True`` re-resolves.
    """
    global _BUILD_INFO
    if _BUILD_INFO is not None and not refresh:
        return dict(_BUILD_INFO)
    version = "unknown"
    try:
        import repro as _repro

        version = str(getattr(_repro, "__version__", "unknown"))
    except Exception:
        pass
    if version == "unknown":
        try:
            import importlib.metadata as _md

            version = _md.version("repro")
        except Exception:
            pass
    sha = os.environ.get("REPRO_BUILD_SHA", "").strip() or "unknown"
    if sha == "unknown":
        try:
            import subprocess as _subprocess

            here = pathlib.Path(__file__).resolve().parent
            out = _subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                cwd=here,
                capture_output=True,
                text=True,
                timeout=5,
            )
            if out.returncode == 0 and out.stdout.strip():
                sha = out.stdout.strip()
        except Exception:
            pass
    _BUILD_INFO = {"version": version, "git_sha": sha}
    return dict(_BUILD_INFO)


def render_build_info_lines(seen_names=()) -> list[str]:
    """The ``repro_build_info`` exposition lines (empty if already emitted).

    Shared by every Prometheus export path so scrape targets can always
    join series on the build identity.  ``seen_names`` suppresses the
    block when the caller's registry already carries the metric.
    """
    if "repro_build_info" in seen_names:
        return []
    info = build_info()
    labels = _render_labels(_label_key(info))
    return [
        "# HELP repro_build_info Build identity of the exporting process",
        "# TYPE repro_build_info gauge",
        f"repro_build_info{labels} 1",
    ]


def sanitize_metric_name(name: str) -> str:
    """Coerce ``name`` into a legal Prometheus metric name."""
    out = [c if (c.isalnum() or c in "_:") else "_" for c in str(name)]
    if not out or out[0].isdigit():
        out.insert(0, "_")
    return "".join(out)


class Counter:
    """Monotonically increasing counter."""

    kind = "counter"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError("counters can only increase")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def as_dict(self) -> dict:
        return {"type": self.kind, "value": self._value}


class Gauge:
    """Instantaneous value that can go up and down."""

    kind = "gauge"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value

    def as_dict(self) -> dict:
        return {"type": self.kind, "value": self._value}


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
    def sum(self) -> float:
        """Running sum of every observation (in arrival order)."""
        return self._sum

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
        if n_levels == 1 and len(self._levels[0]) <= self.k:
            return  # one level holds up to k items (the common case)
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
        ``q * (count - 1)`` interpolates between its bracketing items,
        with numpy's own lerp (from the upper item when the fraction is
        at least 1/2).  With no compactions (all weights 1) this equals
        ``np.percentile`` bit for bit.
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
        below, above = values[idx - 1], values[idx]
        if frac >= 0.5:
            return float(above - (above - below) * (1.0 - frac))
        return float(below + (above - below) * frac)

    def quantiles(self, qs) -> list[float]:
        """Estimate several quantiles in one pass."""
        return [self.quantile(q) for q in qs]

    def counts_at_or_below(self, edges) -> list[int]:
        """Estimated number of observations ``<= edge`` for each edge
        (exact, like ``np.searchsorted(side="right")``, below ``k``)."""
        values, weights = self._weighted_items()
        order = np.argsort(values, kind="stable")
        cumulative = np.concatenate(([0.0], np.cumsum(weights[order])))
        idx = np.searchsorted(values[order], list(edges), side="right")
        return [min(int(c), self._count) for c in cumulative[idx]]

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


class Histogram:
    """Observation store summarised by a :class:`QuantileSketch`.

    Memory stays O(k) however long the process runs; below ``k``
    observations the quantiles and bucket counts are exact (they equal
    ``np.percentile`` / ``np.searchsorted`` over the raw values).
    """

    kind = "histogram"

    #: Quantiles exported by :meth:`summary` / Prometheus text format.
    QUANTILES = (0.5, 0.95, 0.99)

    #: Default ``le`` bucket ladder for native Prometheus exposition
    #: (latency-oriented: 1 ms .. 30 s).
    DEFAULT_BUCKETS = (
        0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
        0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
    )

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.sketch = QuantileSketch()

    def observe(self, value: float) -> None:
        """Record one observation (non-finite values are dropped)."""
        self.sketch.update(value)

    @contextlib.contextmanager
    def time(self):
        """Context manager observing the elapsed wall seconds of a block."""
        start = time.perf_counter()
        try:
            yield self
        finally:
            self.observe(time.perf_counter() - start)

    @property
    def count(self) -> int:
        return self.sketch.count

    def summary(self) -> dict:
        """count / sum / mean / min / max / p50 / p95 / p99."""
        out = self.sketch.summary()
        return {"count": out.pop("count"), "sum": self.sketch.sum, **out}

    def bucket_counts(self, buckets=None) -> list[tuple[float, int]]:
        """Cumulative ``(le, count)`` pairs for native Prometheus buckets.

        Monotonically non-decreasing and always ending with
        ``(inf, count)``; exact below ``k`` observations.
        """
        edges = tuple(buckets) if buckets is not None else self.DEFAULT_BUCKETS
        counts = self.sketch.counts_at_or_below(edges)
        out = [(float(le), count) for le, count in zip(edges, counts)]
        out.append((float("inf"), self.count))
        return out

    def as_dict(self) -> dict:
        return {"type": self.kind, **self.summary()}


class MetricsRegistry:
    """Get-or-create registry of named (and optionally labeled) instruments.

    Instruments are keyed by ``(name, sorted(labels))``; requesting an
    existing name with a different instrument type raises ``ValueError``.

    Parameters
    ----------
    max_label_sets:
        Cardinality cap: maximum distinct label combinations per metric
        name.  New combinations beyond the cap share one
        ``{overflow="true"}`` instrument (warned once per metric), so an
        unbounded label (series name, request id) cannot blow up a
        long-running registry.
    native_histograms:
        When true, :meth:`to_prometheus` exports histograms in the
        native ``histogram`` exposition (``_bucket``/``_sum``/``_count``
        with ``le`` labels) instead of the default ``summary``
        quantiles.
    """

    _KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}

    def __init__(
        self,
        *,
        max_label_sets: int = 64,
        native_histograms: bool = False,
    ):
        if max_label_sets < 1:
            raise ValueError("max_label_sets must be >= 1")
        self.max_label_sets = int(max_label_sets)
        self.native_histograms = bool(native_histograms)
        self._lock = threading.Lock()
        self._instruments: dict[tuple[str, _LabelKey], object] = {}
        self._kinds: dict[str, str] = {}
        self._helps: dict[str, str] = {}
        self._label_counts: dict[str, int] = {}
        self._overflowed: set[str] = set()

    def _get_or_create(
        self, kind: str, name: str, help: str, labels: dict | None
    ):
        label_key = _label_key(labels)
        # Fast path: library names are already legal, so the raw key
        # finds every registered instrument without the sanitizing loop
        # or the lock (a dict read is atomic).
        instrument = self._instruments.get((name, label_key))
        if instrument is not None and instrument.kind == kind:
            return instrument
        name = sanitize_metric_name(name)
        key = (name, label_key)
        with self._lock:
            existing_kind = self._kinds.get(name)
            if existing_kind is not None and existing_kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {existing_kind}, "
                    f"requested {kind}"
                )
            instrument = self._instruments.get(key)
            if instrument is None:
                if (
                    label_key
                    and label_key != OVERFLOW_LABELS
                    and self._label_counts.get(name, 0) >= self.max_label_sets
                ):
                    # Cardinality cap: fold this new combination into the
                    # shared overflow instrument instead of registering it.
                    if name not in self._overflowed:
                        self._overflowed.add(name)
                        _get_module_logger().warning(
                            "metric %s exceeded %d label sets; folding new "
                            "label combinations into %s",
                            name,
                            self.max_label_sets,
                            _render_labels(OVERFLOW_LABELS),
                        )
                    key = (name, OVERFLOW_LABELS)
                    instrument = self._instruments.get(key)
                    if instrument is not None:
                        return instrument
                instrument = self._KINDS[kind](name, help)
                self._instruments[key] = instrument
                self._kinds[name] = kind
                if key[1] and key[1] != OVERFLOW_LABELS:
                    self._label_counts[name] = (
                        self._label_counts.get(name, 0) + 1
                    )
                if help:
                    self._helps[name] = help
            return instrument

    def overflowed_metrics(self) -> set[str]:
        """Names whose label cardinality hit the cap at least once."""
        with self._lock:
            return set(self._overflowed)

    def counter(
        self, name: str, help: str = "", labels: dict | None = None
    ) -> Counter:
        """Get or create a counter."""
        return self._get_or_create("counter", name, help, labels)

    def gauge(
        self, name: str, help: str = "", labels: dict | None = None
    ) -> Gauge:
        """Get or create a gauge."""
        return self._get_or_create("gauge", name, help, labels)

    def histogram(
        self, name: str, help: str = "", labels: dict | None = None
    ) -> Histogram:
        """Get or create a histogram."""
        return self._get_or_create("histogram", name, help, labels)

    # -- reads ------------------------------------------------------------
    def by_label(self, name: str, label: str) -> dict[str, float]:
        """Values of counter/gauge ``name`` summed per value of ``label``,
        sorted (the overflow set reports as ``"overflow"``)."""
        out: dict[str, float] = {}
        for labels, inst in self._family(name):
            key = dict(labels).get(label, "overflow")
            out[key] = out.get(key, 0.0) + inst.value
        return dict(sorted(out.items()))

    def total(self, name: str) -> float:
        """Value of counter/gauge ``name`` summed over its label sets
        (0 when it was never registered)."""
        return sum(inst.value for _, inst in self._family(name))

    def _family(self, name: str) -> list[tuple[_LabelKey, object]]:
        with self._lock:
            return [
                (labels, inst)
                for (n, labels), inst in self._instruments.items()
                if n == name
            ]

    def clear(self) -> None:
        """Drop every registered instrument."""
        with self._lock:
            self._instruments.clear()
            self._kinds.clear()
            self._helps.clear()
            self._label_counts.clear()
            self._overflowed.clear()

    # -- export ----------------------------------------------------------
    def _snapshot(self) -> list[tuple[str, _LabelKey, object]]:
        with self._lock:
            return [
                (name, labels, inst)
                for (name, labels), inst in sorted(self._instruments.items())
            ]

    def as_dict(self) -> dict:
        """Nested JSON-friendly dump: ``{name: {labels_repr: payload}}``."""
        out: dict = {}
        for name, labels, inst in self._snapshot():
            out.setdefault(name, {})[_render_labels(labels) or "_"] = (
                inst.as_dict()
            )
        return out

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent)

    def to_prometheus(self, native_histograms: bool | None = None) -> str:
        """Render the Prometheus text exposition format.

        ``native_histograms`` overrides the registry-level flag for this
        render only: ``True`` exports histograms as native ``histogram``
        series (cumulative ``_bucket{le=...}`` plus ``_sum``/``_count``),
        ``False``/default keeps the historical ``summary`` quantiles.
        """
        if native_histograms is None:
            native_histograms = self.native_histograms
        lines: list[str] = []
        seen_header: set[str] = set()
        for name, labels, inst in self._snapshot():
            if name not in seen_header:
                seen_header.add(name)
                help_text = self._helps.get(name, "")
                if help_text:
                    lines.append(f"# HELP {name} {help_text}")
                if inst.kind == "histogram":
                    prom_type = (
                        "histogram" if native_histograms else "summary"
                    )
                else:
                    prom_type = inst.kind
                lines.append(f"# TYPE {name} {prom_type}")
            rendered = _render_labels(labels)
            if inst.kind == "histogram":
                summary = inst.summary()
                if native_histograms:
                    for le, count in inst.bucket_counts():
                        le_text = "+Inf" if le == float("inf") else repr(le)
                        b_labels = _render_labels(
                            labels + (("le", le_text),)
                        )
                        lines.append(f"{name}_bucket{b_labels} {count}")
                else:
                    for quantile in Histogram.QUANTILES:
                        q_labels = _render_labels(
                            labels + (("quantile", str(quantile)),)
                        )
                        pct = int(round(quantile * 100))
                        lines.append(f"{name}{q_labels} {summary[f'p{pct}']}")
                lines.append(f"{name}_sum{rendered} {summary['sum']}")
                lines.append(f"{name}_count{rendered} {summary['count']}")
            else:
                lines.append(f"{name}{rendered} {inst.value}")
        lines.extend(render_build_info_lines(seen_header))
        return "\n".join(lines) + ("\n" if lines else "")

    def export(self, path) -> pathlib.Path:
        """Write metrics to ``path``; ``.prom``/``.txt`` selects text format."""
        return export_document(self, path)


def export_document(document, path) -> pathlib.Path:
    """Write ``document`` (a registry or a health snapshot) to ``path``:
    Prometheus text for a ``.prom``/``.txt`` suffix, JSON otherwise."""
    path = pathlib.Path(path)
    if path.suffix in (".prom", ".txt"):
        path.write_text(document.to_prometheus())
    else:
        path.write_text(document.to_json())
    return path


# ---------------------------------------------------------------------------
# The process registry (always on; reset in a forked child).
# ---------------------------------------------------------------------------
_process_metrics = MetricsRegistry()
_default_metrics = _process_metrics
_default_lock = threading.Lock()


def _reset_after_fork() -> None:
    """A forked child starts with an empty process registry, so a lock
    inherited mid-update cannot deadlock it and its counts stay its own."""
    global _process_metrics, _default_metrics, _default_lock
    _default_lock = threading.Lock()
    _process_metrics = _default_metrics = MetricsRegistry()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_after_fork)


def get_metrics() -> MetricsRegistry:
    """The installed registry (the process registry by default)."""
    return _default_metrics


def set_metrics(registry: MetricsRegistry | None) -> MetricsRegistry:
    """Install ``registry`` as the default; ``None`` restores the
    process registry."""
    global _default_metrics
    with _default_lock:
        _default_metrics = (
            registry if registry is not None else _process_metrics
        )
    return _default_metrics


class use_metrics:
    """Context manager installing a registry for the duration of a block."""

    def __init__(self, registry: MetricsRegistry | None):
        self.registry = registry
        self._previous: MetricsRegistry | None = None

    def __enter__(self) -> MetricsRegistry:
        self._previous = get_metrics()
        return set_metrics(self.registry)

    def __exit__(self, exc_type, exc, tb) -> bool:
        set_metrics(self._previous)
        return False
