"""Repair provenance ledger: append-only lineage for every fit and repair.

Latency histograms and drift scores (PR 3) say *how well* the system is
doing; this module answers *why a specific repair happened the way it
did*.  Every training run and every served repair is assigned a stable
id and appended to a schema-versioned JSONL ledger:

* ``fit`` rows — one per ``ADarts.fit_features``: training-matrix
  content hash, class set, the race/label rows it references;
* ``race`` rows — one per :class:`~repro.core.modelrace.ModelRace` run:
  elite pipelines with their accumulated fold scores, the structured
  per-iteration pruning records, evaluation counts, prune ratio;
* ``label`` rows — one per (cluster, ratio, pattern) labeling race:
  winning imputer, full ranking, and each member's NCC against the
  cluster representative (:func:`~repro.timeseries.batch.ncc_rowwise`);
* ``repair`` rows — one per recommended series at serving time: feature
  content hash (the :class:`~repro.parallel.FeatureCache` key), cluster
  assignment (nearest atlas representative + NCC), per-class soft-vote
  confidences, the :class:`~repro.core.voting.VoteDetail` member
  accounting, degraded/fallback flags, and the fit/race rows that
  produced the ensemble;
* ``impute`` rows — one per imputation executed under a repair context:
  the algorithm, its hyperparameters, and post-repair residual/quality
  statistics on the observed region.

All rows carry the thread's active trace id
(:meth:`~repro.observability.tracing.Tracer.current_trace_id`), the same
key stamped into log records, so ledger rows, spans, and log lines join
on one correlation key.

Following the substrate's rules, the module-level default is a
:data:`NULL_LEDGER` no-op: library code emits unconditionally and pays
nothing until a real :class:`RepairLedger` is installed via
:func:`set_ledger` / :class:`use_ledger` (the CLI's ``--ledger-out``
flag does exactly this).  The ``repro audit`` and ``repro explain``
subcommands are thin renderers over :func:`read_ledger`,
:func:`summarize_ledger`, and :func:`explain_repair`.
"""

from __future__ import annotations

import datetime as _dt
import json
import pathlib
import threading
import uuid
from collections import deque

import numpy as np

from repro.exceptions import ValidationError
from repro.observability.log import get_logger
from repro.observability.slo import Scorecard, scorecard_views
from repro.observability.tracing import get_tracer

_log = get_logger(__name__)

#: Current ledger record schema.  v1 was the flat prototype layout
#: (payload keys at the top level, epoch-seconds ``ts``, no trace id);
#: v2 nests the payload under ``data`` and adds ``time``/``trace_id``.
SCHEMA_VERSION = 2

#: Envelope keys of a v2 record; everything else belongs in ``data``.
RESERVED_KEYS = ("schema", "kind", "id", "run_id", "time", "trace_id", "data")

_EPS = 1e-12


def new_id(prefix: str) -> str:
    """A short, collision-resistant id (``rep_3f9a1c...``)."""
    return f"{prefix}_{uuid.uuid4().hex[:12]}"


def _utcnow() -> str:
    return _dt.datetime.now(_dt.timezone.utc).isoformat()


def upgrade_record(record: dict) -> dict:
    """Normalize a ledger record of any known schema version to v2.

    * v2 records pass through (missing envelope fields get defaults);
    * v1 records — no ``schema`` field or ``schema: 1`` — carried their
      payload at the top level and an epoch-seconds ``ts``: the payload
      moves under ``data``, ``ts`` becomes an ISO ``time``, and
      ``trace_id`` defaults to ``None``.

    Raises :class:`~repro.exceptions.ValidationError` for records that
    are not dicts or claim a future schema.
    """
    if not isinstance(record, dict):
        raise ValidationError(f"ledger record must be an object, got {type(record).__name__}")
    version = record.get("schema", 1)
    if not isinstance(version, int) or version < 1 or version > SCHEMA_VERSION:
        raise ValidationError(f"unsupported ledger schema version {version!r}")
    if version == SCHEMA_VERSION:
        out = dict(record)
        out.setdefault("trace_id", None)
        out.setdefault("run_id", None)
        out.setdefault("time", None)
        out.setdefault("data", {})
        return out
    # v1 -> v2: lift the flat payload into the envelope.
    data = {
        key: value
        for key, value in record.items()
        if key not in RESERVED_KEYS and key != "ts"
    }
    ts = record.get("ts")
    if isinstance(ts, (int, float)):
        time_str = _dt.datetime.fromtimestamp(
            float(ts), tz=_dt.timezone.utc
        ).isoformat()
    else:
        time_str = record.get("time")
    return {
        "schema": SCHEMA_VERSION,
        "kind": record.get("kind", "event"),
        "id": record.get("id", new_id("rec")),
        "run_id": record.get("run_id"),
        "time": time_str,
        "trace_id": record.get("trace_id"),
        "data": data,
    }


# ---------------------------------------------------------------------------
# Ledger objects
# ---------------------------------------------------------------------------
class NullLedger:
    """Default no-op ledger: emission sites check ``enabled`` and skip."""

    enabled = False
    run_id = None

    def record(self, kind: str, data: dict, *, record_id: str | None = None) -> str | None:
        """Discard the row; returns ``None`` so callers skip correlation."""
        return None

    def record_many(
        self, kind: str, datas, *, record_ids=None
    ) -> list[str | None]:
        """Discard all rows; one ``None`` per payload."""
        return [None] * len(datas)

    def records(self) -> list[dict]:
        return []

    def flush(self) -> None:
        """Nothing buffered."""

    def close(self) -> None:
        """Nothing open."""


#: Shared no-op ledger singleton; the default until :func:`set_ledger`.
NULL_LEDGER = NullLedger()


class RepairLedger:
    """Append-only, schema-versioned JSONL provenance ledger.

    Parameters
    ----------
    path:
        JSONL file to append rows to.  ``None`` keeps the ledger
        memory-only (tests, snapshot aggregation).
    run_id:
        Stable id stamped into every row; generated when omitted.  A
        serving process replaying against a trained engine may reuse the
        engine's fit-time run id to keep one lineage namespace.
    keep_in_memory:
        Ring-buffer capacity of the in-memory record view (the file is
        never truncated).  ``None`` keeps everything.
    """

    enabled = True

    def __init__(
        self,
        path=None,
        *,
        run_id: str | None = None,
        keep_in_memory: int | None = 100_000,
    ):
        self.path = pathlib.Path(path) if path is not None else None
        self.run_id = run_id or new_id("run")
        self._records: deque = deque(maxlen=keep_in_memory)
        self._lock = threading.Lock()
        self._fh = None
        self.n_written = 0
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = self.path.open("a", encoding="utf-8")

    # -- emission --------------------------------------------------------
    def record(self, kind: str, data: dict, *, record_id: str | None = None) -> str:
        """Append one row; returns the row id for caller-side correlation."""
        row = {
            "schema": SCHEMA_VERSION,
            "kind": str(kind),
            "id": record_id or new_id(kind[:3] if kind else "rec"),
            "run_id": self.run_id,
            "time": _utcnow(),
            "trace_id": get_tracer().current_trace_id(),
            "data": data,
        }
        line = json.dumps(row, default=_jsonable)
        with self._lock:
            self._records.append(row)
            self.n_written += 1
            if self._fh is not None:
                self._fh.write(line + "\n")
        return row["id"]

    def record_many(
        self, kind: str, datas, *, record_ids=None
    ) -> list[str]:
        """Append one row per payload under a single lock acquisition.

        The envelope fields that are identical across a batch — kind,
        run id, timestamp, trace id — are computed once, so emitting a
        corpus-sized batch of ``impute`` rows costs one ``_utcnow`` and
        one tracer lookup instead of one per row.  Row ids remain
        per-row (generated unless ``record_ids`` supplies them).
        """
        kind = str(kind)
        prefix = kind[:3] if kind else "rec"
        time_str = _utcnow()
        trace_id = get_tracer().current_trace_id()
        rows = []
        for i, data in enumerate(datas):
            rid = record_ids[i] if record_ids is not None else None
            rows.append(
                {
                    "schema": SCHEMA_VERSION,
                    "kind": kind,
                    "id": rid or new_id(prefix),
                    "run_id": self.run_id,
                    "time": time_str,
                    "trace_id": trace_id,
                    "data": data,
                }
            )
        lines = [json.dumps(row, default=_jsonable) for row in rows]
        with self._lock:
            self._records.extend(rows)
            self.n_written += len(rows)
            if self._fh is not None and lines:
                self._fh.write("\n".join(lines) + "\n")
        return [row["id"] for row in rows]

    # -- access ----------------------------------------------------------
    def records(self) -> list[dict]:
        """Snapshot of the in-memory record view, oldest first."""
        with self._lock:
            return list(self._records)

    def tail(self, n: int) -> list[dict]:
        """The most recent ``n`` in-memory records."""
        with self._lock:
            items = list(self._records)
        return items[-max(0, int(n)):]

    def flush(self) -> None:
        """Flush buffered file writes to disk."""
        with self._lock:
            if self._fh is not None:
                self._fh.flush()

    def close(self) -> None:
        """Flush and close the backing file (idempotent)."""
        with self._lock:
            if self._fh is not None:
                self._fh.flush()
                self._fh.close()
                self._fh = None

    def __enter__(self) -> "RepairLedger":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)


def _jsonable(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    return str(value)


# ---------------------------------------------------------------------------
# Process-wide default ledger (a no-op unless explicitly installed).
# ---------------------------------------------------------------------------
_default_ledger: RepairLedger | NullLedger = NULL_LEDGER
_default_lock = threading.Lock()


def get_ledger() -> RepairLedger | NullLedger:
    """The currently installed ledger (a shared no-op by default)."""
    return _default_ledger


def set_ledger(ledger: RepairLedger | None) -> RepairLedger | NullLedger:
    """Install ``ledger`` as the process-wide default; ``None`` resets."""
    global _default_ledger
    with _default_lock:
        _default_ledger = ledger if ledger is not None else NULL_LEDGER
    return _default_ledger


class use_ledger:
    """Context manager installing a ledger for the duration of a block."""

    def __init__(self, ledger: RepairLedger | None):
        self.ledger = ledger
        self._previous: RepairLedger | NullLedger | None = None

    def __enter__(self) -> RepairLedger | NullLedger:
        self._previous = get_ledger()
        return set_ledger(self.ledger)

    def __exit__(self, exc_type, exc, tb) -> bool:
        set_ledger(
            self._previous if isinstance(self._previous, RepairLedger) else None
        )
        return False


# ---------------------------------------------------------------------------
# Repair context: correlates imputer-level rows with their repair row.
# ---------------------------------------------------------------------------
_repair_local = threading.local()


def current_repair_id() -> str | None:
    """The repair id bound to the calling thread, if any."""
    stack = getattr(_repair_local, "stack", None)
    return stack[-1] if stack else None


class repair_context:
    """Bind a repair id to the calling thread for the duration of a block.

    :meth:`Recommendation.impute <repro.core.adarts.Recommendation.impute>`
    wraps the imputation call in this context, so the ``impute`` ledger
    row emitted inside :meth:`BaseImputer.impute
    <repro.imputation.base.BaseImputer.impute>` carries the repair id of
    the recommendation that triggered it.
    """

    def __init__(self, repair_id: str | None):
        self.repair_id = repair_id

    def __enter__(self):
        stack = getattr(_repair_local, "stack", None)
        if stack is None:
            stack = _repair_local.stack = []
        stack.append(self.repair_id)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        stack = getattr(_repair_local, "stack", None)
        if stack:
            stack.pop()
        return False


# ---------------------------------------------------------------------------
# Post-repair quality statistics
# ---------------------------------------------------------------------------
def repair_quality_stats_block(
    completed3: np.ndarray, mask3: np.ndarray
) -> list[dict]:
    """Residual/quality proxies of each completed matrix in a stack.

    ``completed3``/``mask3`` are a ``(B, n, L)`` stack (or one ``(n, L)``
    matrix); one stats dict is returned per problem.  Ground truth at
    the missing positions is unknown at serving time, so quality is
    scored against the *observed region*:

    * ``plausibility_z`` — distance of the imputed-value mean from the
      observed mean, in observed standard deviations (large values mean
      the fill is distributionally implausible);
    * ``scale_ratio`` — imputed std over observed std (≈1 is healthy;
      ≈0 flags flat fills into a variable series);
    * ``roughness_ratio`` — mean absolute first difference at the
      repair-block boundaries over the series' own mean absolute first
      difference (large values flag visible seams).
    """
    completed3 = np.asarray(completed3, dtype=float)
    mask3 = np.asarray(mask3, dtype=bool)
    if completed3.ndim == 2:
        completed3 = completed3[None]
        mask3 = mask3[None]
    B = completed3.shape[0]
    values = completed3.reshape(B, -1)
    miss = mask3.reshape(B, -1)
    cells = values.shape[1]
    n_missing = miss.sum(axis=1)
    obs_mean, obs_std = _masked_moments(values, ~miss, cells - n_missing)
    imp_mean, imp_std = _masked_moments(values, miss, n_missing)
    plausibility = np.abs(imp_mean - obs_mean) / np.maximum(obs_std, _EPS)
    scale_ratio = imp_std / np.maximum(obs_std, _EPS)
    # Boundary seams: |x[t] - x[t-1]| wherever the mask flips.
    diffs = np.abs(np.diff(completed3, axis=2)).reshape(B, -1)
    flips = (mask3[:, :, 1:] != mask3[:, :, :-1]).reshape(B, -1)
    overall = diffs.mean(axis=1) if diffs.size else np.zeros(B)
    boundary = np.where(flips, diffs, 0.0).sum(axis=1) / np.maximum(
        flips.sum(axis=1), 1
    )
    rough = np.where(boundary != 0.0, boundary / np.maximum(overall, _EPS), 0.0)
    return [
        {
            "n_missing": n,
            "missing_fraction": n / cells if cells else 0.0,
            "observed_mean": om,
            "observed_std": os_,
            "imputed_mean": im,
            "imputed_std": is_,
            "plausibility_z": pz,
            "scale_ratio": sr,
            "roughness_ratio": rr,
        }
        for n, om, os_, im, is_, pz, sr, rr in zip(
            n_missing.tolist(),
            obs_mean.tolist(),
            obs_std.tolist(),
            imp_mean.tolist(),
            imp_std.tolist(),
            plausibility.tolist(),
            scale_ratio.tolist(),
            rough.tolist(),
        )
    ]


def _masked_moments(values, selected, count):
    """Mean and std of each row's selected entries (0.0 for none)."""
    denom = np.maximum(count, 1)
    mean = np.where(selected, values, 0.0).sum(axis=1) / denom
    var = np.where(selected, (values - mean[:, None]) ** 2, 0.0).sum(axis=1) / denom
    return mean, np.sqrt(var)


# ---------------------------------------------------------------------------
# Reading, filtering, summarizing
# ---------------------------------------------------------------------------
class LedgerRecords(list):
    """The records :func:`read_ledger` returns, in file order.

    ``truncated_line`` is the 1-based number of a final row that a crash
    cut short and the reader skipped, else ``None``.
    """

    truncated_line: int | None = None


def read_ledger(path) -> LedgerRecords:
    """Load and schema-upgrade every record of a JSONL ledger file.

    A final line that is not valid JSON and has no trailing newline is a
    row whose write a crash cut short: it is skipped with a warning and
    its number kept in ``truncated_line``.  An unparsable line anywhere
    else raises :class:`ValidationError`.
    """
    path = pathlib.Path(path)
    if not path.exists():
        raise ValidationError(f"no such ledger file: {path}")
    records = LedgerRecords()
    with path.open(encoding="utf-8") as fh:
        for line_no, raw_line in enumerate(fh, start=1):
            line = raw_line.strip()
            if not line:
                continue
            try:
                raw = json.loads(line)
            except json.JSONDecodeError as exc:
                if raw_line.endswith("\n"):
                    raise ValidationError(
                        f"{path}:{line_no} is not valid JSON: {exc}"
                    ) from None
                # Only the last line can lack its newline.
                _log.warning(
                    "%s:%d: skipped a final row cut short (%s)",
                    path,
                    line_no,
                    exc,
                )
                records.truncated_line = line_no
                break
            records.append(upgrade_record(raw))
    return records


def filter_records(
    records,
    *,
    kind: str | None = None,
    algorithm: str | None = None,
    cluster: str | None = None,
    degraded_only: bool = False,
    run_id: str | None = None,
) -> list[dict]:
    """Subset of ``records`` matching every given criterion."""
    out = []
    for rec in records:
        data = rec.get("data", {})
        if kind is not None and rec.get("kind") != kind:
            continue
        if run_id is not None and rec.get("run_id") != run_id:
            continue
        if algorithm is not None and data.get("algorithm") != algorithm:
            continue
        if cluster is not None:
            rec_cluster = (data.get("cluster") or {}).get("cluster") \
                if isinstance(data.get("cluster"), dict) else data.get("cluster")
            if rec_cluster != cluster:
                continue
        if degraded_only and not (data.get("degraded") or data.get("fallback")):
            continue
        out.append(rec)
    return out


def _mean(values: list[float]) -> float:
    return float(np.mean(values)) if values else 0.0


def summarize_ledger(records) -> dict:
    """Aggregate a record list into the ``repro audit --summary`` document.

    Per-imputer and per-cluster scorecards over the repair rows, quality
    aggregates over the impute rows, counts of everything else.
    """
    kinds: dict[str, int] = {}
    run_ids: set[str] = set()
    times: list[str] = []
    cards: dict[str, Scorecard] = {}
    quality: dict[str, dict] = {}
    n_degraded = n_fallback = 0
    for rec in records:
        kinds[rec.get("kind", "?")] = kinds.get(rec.get("kind", "?"), 0) + 1
        if rec.get("run_id"):
            run_ids.add(rec["run_id"])
        if rec.get("time"):
            times.append(rec["time"])
        data = rec.get("data", {})
        if rec.get("kind") == "repair":
            # The serving sink's fold (SloTracker slices), so the audited
            # cards and the live health-document cards agree.
            degraded = bool(data.get("degraded") or data.get("fallback"))
            n_degraded += degraded
            n_fallback += bool(data.get("fallback"))
            cards.setdefault(
                f"imputer:{data.get('algorithm')}", Scorecard()
            ).fold(degraded=degraded, confidence=data.get("confidence"))
            assignment = data.get("cluster")
            if isinstance(assignment, dict) and assignment.get("cluster"):
                cards.setdefault(
                    f"cluster:{assignment['cluster']}", Scorecard()
                ).fold(degraded=degraded, ncc=assignment.get("ncc"))
        elif rec.get("kind") == "impute":
            algo = str(data.get("algorithm"))
            stats = data.get("quality") or {}
            card = quality.setdefault(
                algo, {"n": 0, "plausibility": [], "roughness": [], "elapsed": []}
            )
            card["n"] += 1
            if stats.get("plausibility_z") is not None:
                card["plausibility"].append(float(stats["plausibility_z"]))
            if stats.get("roughness_ratio") is not None:
                card["roughness"].append(float(stats["roughness_ratio"]))
            if data.get("elapsed_s") is not None:
                card["elapsed"].append(float(data["elapsed_s"]))
    views = scorecard_views(cards)
    return {
        "n_records": len(records),
        "kinds": dict(sorted(kinds.items())),
        "run_ids": sorted(run_ids),
        "first_time": min(times) if times else None,
        "last_time": max(times) if times else None,
        "repairs": {
            "n": kinds.get("repair", 0),
            "degraded": n_degraded,
            "fallback": n_fallback,
            "per_algorithm": views["per_imputer"],
            "per_cluster": views["per_cluster"],
        },
        "imputations": {
            name: {
                "n": card["n"],
                "mean_plausibility_z": _mean(card["plausibility"]),
                "mean_roughness_ratio": _mean(card["roughness"]),
                "mean_elapsed_s": _mean(card["elapsed"]),
            }
            for name, card in sorted(quality.items())
        },
    }


def render_summary(summary: dict) -> str:
    """Fixed-width text rendering of :func:`summarize_ledger`'s output."""
    lines = [
        "repair ledger summary",
        "=" * 60,
        f"records      : {summary['n_records']}",
        f"kinds        : "
        + ", ".join(f"{k}={v}" for k, v in summary["kinds"].items()),
        f"runs         : {len(summary['run_ids'])}",
        f"span         : {summary['first_time']} .. {summary['last_time']}",
    ]
    if summary.get("truncated_line") is not None:
        lines.append(
            f"truncated    : line {summary['truncated_line']} "
            "(a final row cut short, skipped)"
        )
    repairs = summary["repairs"]
    lines.append(
        f"repairs      : {repairs['n']} "
        f"(degraded {repairs['degraded']}, fallback {repairs['fallback']})"
    )
    if repairs["per_algorithm"]:
        lines.append("per-imputer scorecard:")
        lines.append(f"  {'algorithm':<14} {'n':>6} {'degraded':>9} {'conf':>7}")
        for name, card in repairs["per_algorithm"].items():
            lines.append(
                f"  {name:<14} {card['n']:>6} {card['degraded']:>9} "
                f"{card['mean_confidence']:>7.3f}"
            )
    if repairs["per_cluster"]:
        lines.append("per-cluster scorecard:")
        lines.append(f"  {'cluster':<22} {'n':>6} {'degraded':>9} {'ncc':>7}")
        for name, card in repairs["per_cluster"].items():
            lines.append(
                f"  {name:<22} {card['n']:>6} {card['degraded']:>9} "
                f"{card['mean_ncc']:>7.3f}"
            )
    if summary["imputations"]:
        lines.append("imputation quality (observed-region proxies):")
        lines.append(
            f"  {'algorithm':<14} {'n':>6} {'plaus_z':>8} {'rough':>7} {'sec':>8}"
        )
        for name, card in summary["imputations"].items():
            lines.append(
                f"  {name:<14} {card['n']:>6} "
                f"{card['mean_plausibility_z']:>8.3f} "
                f"{card['mean_roughness_ratio']:>7.2f} "
                f"{card['mean_elapsed_s']:>8.4f}"
            )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Explain: reconstruct one repair's decision path
# ---------------------------------------------------------------------------
def explain_repair(records, repair_id: str, *, head: dict | None = None) -> dict:
    """Assemble the full decision path of one repair row.

    ``records`` is a (possibly filtered) record list from
    :func:`read_ledger`; ``head`` is an optional engine
    ``ledger_head_`` whose fit-time rows extend the search space when
    training and serving wrote to different files.

    Raises :class:`~repro.exceptions.ValidationError` when ``repair_id``
    is unknown.
    """
    pool = list(records)
    if head and head.get("records"):
        known = {rec.get("id") for rec in pool}
        pool.extend(
            upgrade_record(rec)
            for rec in head["records"]
            if rec.get("id") not in known
        )
    by_id = {rec.get("id"): rec for rec in pool}
    repair = by_id.get(repair_id)
    if repair is None or repair.get("kind") != "repair":
        raise ValidationError(f"no repair record with id {repair_id!r}")
    data = repair.get("data", {})
    race = by_id.get(data.get("race_id"))
    fit = by_id.get(data.get("fit_id"))
    if fit is None and data.get("fit_run_id"):
        fits = [
            rec for rec in pool
            if rec.get("kind") == "fit" and rec.get("run_id") == data["fit_run_id"]
        ]
        fit = fits[-1] if fits else None
    if race is None and fit is not None:
        race = by_id.get(fit.get("data", {}).get("race_id"))
    assignment = data.get("cluster") or {}
    cluster_id = assignment.get("cluster") if isinstance(assignment, dict) else None
    labels = [
        rec for rec in pool
        if rec.get("kind") == "label"
        and (cluster_id is None or rec.get("data", {}).get("cluster_id") == cluster_id)
    ]
    imputes = [
        rec for rec in pool
        if rec.get("kind") == "impute"
        and rec.get("data", {}).get("repair_id") == repair_id
    ]
    return {
        "repair": repair,
        "cluster": assignment or None,
        "labeling": labels if cluster_id is not None else [],
        "race": race,
        "fit": fit,
        "imputations": imputes,
        "resilience": {
            "degraded": bool(data.get("degraded")),
            "fallback": bool(data.get("fallback")),
            "vote": data.get("vote"),
            "quarantined_members": data.get("quarantined_members", []),
        },
    }


def render_explanation(explanation: dict) -> str:
    """Human-readable decision path of one repair."""
    repair = explanation["repair"]
    data = repair.get("data", {})
    lines = [
        f"repair {repair.get('id')}",
        "=" * 60,
        f"time         : {repair.get('time')}",
        f"trace id     : {repair.get('trace_id')}",
        f"run id       : {repair.get('run_id')}",
        f"series       : {data.get('series')} "
        f"(len {data.get('series_len')}, {data.get('n_missing')} missing)",
        f"feature hash : {data.get('feature_hash')}",
    ]
    assignment = explanation.get("cluster")
    if assignment:
        lines.append(
            f"cluster      : {assignment.get('cluster')} "
            f"(NCC {assignment.get('ncc', 0.0):.3f} to representative, "
            f"fit-time winner {assignment.get('label')})"
        )
    else:
        lines.append("cluster      : unassigned (no atlas)")
    lines.append(
        f"decision     : {data.get('algorithm')} "
        f"(confidence {data.get('confidence', 0.0):.3f}"
        + (", DEGRADED" if data.get("degraded") else "")
        + (", STATIC FALLBACK" if data.get("fallback") else "")
        + ")"
    )
    probabilities = data.get("probabilities") or {}
    if probabilities:
        top = sorted(probabilities.items(), key=lambda kv: -kv[1])[:5]
        lines.append("confidences  : " + ", ".join(f"{k}={v:.3f}" for k, v in top))
    vote = data.get("vote") or {}
    if vote:
        lines.append(
            f"vote         : {len(vote.get('used', []))}/{vote.get('n_members')} "
            f"members voted"
            + (f"; failed {vote['failed']}" if vote.get("failed") else "")
            + (f"; quarantined {vote['skipped']}" if vote.get("skipped") else "")
        )
    race = explanation.get("race")
    if race is not None:
        rdata = race.get("data", {})
        lines.append(
            f"race         : {race.get('id')} — "
            f"{rdata.get('n_evaluations')} evaluations, "
            f"prune ratio {rdata.get('prune_ratio', 0.0):.1%}, "
            f"{len(rdata.get('elites', []))} elites"
        )
        for elite in rdata.get("elites", [])[:8]:
            scores = elite.get("fold_scores", [])
            lines.append(
                f"  elite      : {elite.get('classifier')} "
                f"(mean score {elite.get('mean_score', 0.0):.4f} "
                f"over {len(scores)} folds)"
            )
        iterations = rdata.get("iterations", [])
        for rec in iterations:
            lines.append(
                f"  iteration {rec.get('iteration')}: "
                f"{rec.get('n_evaluations')} evals, "
                f"{rec.get('n_early_terminated')} early-terminated, "
                f"{rec.get('n_ttest_pruned')} t-test pruned, "
                f"{rec.get('n_elite')} elite"
            )
    for label in explanation.get("labeling", [])[:3]:
        ldata = label.get("data", {})
        lines.append(
            f"labeling     : cluster {ldata.get('cluster_id')} "
            f"({ldata.get('n_members')} members, pattern "
            f"{ldata.get('pattern')}@{ldata.get('ratio')}) -> "
            f"winner {ldata.get('winner')}; ranking "
            + ">".join(ldata.get("ranking", [])[:4])
        )
    for impute in explanation.get("imputations", []):
        idata = impute.get("data", {})
        stats = idata.get("quality") or {}
        lines.append(
            f"imputation   : {idata.get('algorithm')} "
            f"({idata.get('n_missing')} values in {idata.get('elapsed_s', 0.0):.4f}s; "
            f"plausibility_z {stats.get('plausibility_z', 0.0):.3f}, "
            f"scale {stats.get('scale_ratio', 0.0):.2f}, "
            f"roughness {stats.get('roughness_ratio', 0.0):.2f})"
        )
    resilience = explanation.get("resilience", {})
    if resilience.get("degraded") or resilience.get("fallback") \
            or resilience.get("quarantined_members"):
        lines.append(
            "resilience   : degraded="
            f"{resilience.get('degraded')} fallback={resilience.get('fallback')} "
            f"quarantined={resilience.get('quarantined_members')}"
        )
    else:
        lines.append("resilience   : clean (no degradation events)")
    return "\n".join(lines)
