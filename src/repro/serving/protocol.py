"""Wire protocol of the serving daemon: JSON-lines repair requests.

One request or response per line, UTF-8 JSON, newline-delimited — the
simplest protocol that pipelines over a raw socket and diffs cleanly in
test fixtures.  Missing observations travel as ``null`` (strict JSON has
no NaN literal); floats round-trip exactly because Python's ``repr`` is
the shortest-exact form and ``json`` emits it verbatim, which is what
makes the daemon's responses byte-comparable to the library path.

Status codes follow the HTTP convention the rest of the stack speaks:

========  ==========================================================
``200``   served — ``algorithm``/``ranking`` (+ ``values`` for
          ``mode="repair"``) are populated
``400``   malformed request line (:class:`~repro.exceptions.ProtocolError`),
          or a line over the socket front-end's ``MAX_LINE_BYTES``
``500``   the batch failed on every shard, or answering the line failed
          unexpectedly (terminal server error)
``503``   shed — admission control or every shard quarantined; the
          typed backpressure signal, retry after ``retry_after_ms``
========  ==========================================================

A ``{"id": ..., "mode": "health"}`` line asks for the daemon's live
:class:`~repro.observability.serving.HealthSnapshot`; it is answered 200
with the document under the ``health`` key and never enters the batcher.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ProtocolError

STATUS_OK = 200
STATUS_BAD_REQUEST = 400
STATUS_ERROR = 500
STATUS_SHED = 503

#: Request modes: ``recommend`` returns only the ranking, ``repair``
#: also imputes and returns the completed values.
MODES = ("recommend", "repair")

#: The mode of a line that asks for the health document instead of a repair.
HEALTH_MODE = "health"


def _encode_values(values) -> list:
    """Float list with NaN encoded as ``null`` (strict JSON)."""
    out = []
    for v in np.asarray(values, dtype=float).ravel():
        out.append(None if math.isnan(v) else float(v))
    return out


def _decode_values(payload) -> np.ndarray:
    if not isinstance(payload, (list, tuple)):
        raise ProtocolError(
            f"'values' must be a list, got {type(payload).__name__}"
        )
    try:
        return np.asarray(
            [math.nan if v is None else float(v) for v in payload],
            dtype=float,
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise ProtocolError(f"non-numeric value in 'values': {exc}") from None


@dataclass(frozen=True)
class RepairRequest:
    """One repair request: a faulty series plus what to do with it."""

    id: str
    values: np.ndarray
    mode: str = "repair"
    name: str = "series"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ProtocolError(
                f"mode must be one of {MODES}, got {self.mode!r}"
            )
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ProtocolError("'values' must be a non-empty 1-D sequence")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def as_dict(self) -> dict:
        return {
            "id": str(self.id),
            "mode": self.mode,
            "name": self.name,
            "values": _encode_values(self.values),
        }


@dataclass(frozen=True)
class HealthRequest:
    """A request for the daemon's live health document."""

    id: str


@dataclass(frozen=True)
class RepairResponse:
    """One response line, correlated to its request by ``id``."""

    id: str
    status: int
    algorithm: str | None = None
    ranking: tuple[str, ...] = ()
    confidence: float | None = None
    degraded: bool = False
    values: np.ndarray | None = None
    error: str | None = None
    shard: int | None = None
    latency_s: float | None = None
    retry_after_ms: int | None = None
    extra: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    @property
    def shed(self) -> bool:
        return self.status == STATUS_SHED

    # -- typed constructors ---------------------------------------------
    @classmethod
    def shed_response(
        cls, request_id: str, reason: str, *, retry_after_ms: int = 100
    ) -> "RepairResponse":
        """The typed 503: backpressure, not failure — retry later."""
        return cls(
            id=str(request_id),
            status=STATUS_SHED,
            error=reason,
            retry_after_ms=int(retry_after_ms),
        )

    @classmethod
    def error_response(
        cls, request_id: str, message: str, *, status: int = STATUS_ERROR
    ) -> "RepairResponse":
        return cls(id=str(request_id), status=int(status), error=message)

    @classmethod
    def health_response(cls, request_id: str, document: dict) -> "RepairResponse":
        """The 200 answer to a health line: the document under ``health``."""
        return cls(id=str(request_id), status=STATUS_OK, extra={"health": document})

    def as_dict(self) -> dict:
        doc: dict = {"id": str(self.id), "status": int(self.status)}
        if self.status != STATUS_OK:
            doc["error"] = self.error
            if self.retry_after_ms is not None:
                doc["retry_after_ms"] = int(self.retry_after_ms)
        elif "health" not in self.extra:
            doc["algorithm"] = self.algorithm
            doc["ranking"] = list(self.ranking)
            doc["confidence"] = self.confidence
            doc["degraded"] = bool(self.degraded)
            if self.values is not None:
                doc["values"] = _encode_values(self.values)
        if self.shard is not None:
            doc["shard"] = int(self.shard)
        if self.latency_s is not None:
            doc["latency_s"] = float(self.latency_s)
        if self.extra:
            doc.update(self.extra)
        return doc


# ---------------------------------------------------------------------------
# Codec
# ---------------------------------------------------------------------------
def encode_request(request: RepairRequest) -> bytes:
    """One request as a JSON line (no trailing newline)."""
    return json.dumps(request.as_dict(), separators=(",", ":")).encode("utf-8")


def decode_request(line: bytes | str) -> RepairRequest | HealthRequest:
    """Parse one request line; raises :class:`ProtocolError` on garbage."""
    try:
        return _decode_request(line)
    except RecursionError:
        # JSON nested deeper than the interpreter's stack, in the parser or
        # when a field is turned into a string.
        raise ProtocolError("request is nested too deeply") from None


def _load_object(line: bytes | str, what: str) -> dict:
    """One JSON object from a wire line, or :class:`ProtocolError`."""
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    line = line.strip()
    if not line:
        raise ProtocolError(f"empty {what} line")
    try:
        doc = json.loads(line)
    except ValueError as exc:
        raise ProtocolError(f"{what} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ProtocolError(f"{what} must be a JSON object")
    return doc


def _decode_request(line: bytes | str) -> RepairRequest | HealthRequest:
    doc = _load_object(line, "request")
    if "id" not in doc:
        raise ProtocolError("request is missing 'id'")
    if doc.get("mode") == HEALTH_MODE:
        return HealthRequest(id=str(doc["id"]))
    if "values" not in doc:
        raise ProtocolError("request is missing 'values'")
    return RepairRequest(
        id=str(doc["id"]),
        values=_decode_values(doc["values"]),
        mode=str(doc.get("mode", "repair")),
        name=str(doc.get("name", "series")),
    )


def encode_response(response: RepairResponse) -> bytes:
    """One response as a JSON line (no trailing newline)."""
    return json.dumps(
        response.as_dict(), separators=(",", ":")
    ).encode("utf-8")


def decode_response(line: bytes | str) -> RepairResponse:
    """Parse one response line (client side of the codec); raises
    :class:`ProtocolError` on garbage, like :func:`decode_request`."""
    try:
        return _decode_response(line)
    except RecursionError:
        raise ProtocolError("response is nested too deeply") from None


def _decode_response(line: bytes | str) -> RepairResponse:
    doc = _load_object(line, "response")
    if "id" not in doc or "status" not in doc:
        raise ProtocolError("response must be a JSON object with id/status")
    status, ranking = doc["status"], doc.get("ranking", ())
    if not isinstance(status, int) or isinstance(status, bool):
        raise ProtocolError(f"'status' must be an integer, got {status!r}")
    if not isinstance(ranking, (list, tuple)):
        raise ProtocolError(f"'ranking' must be a list, got {ranking!r}")
    values = doc.get("values")
    known = {
        "id", "status", "algorithm", "ranking", "confidence", "degraded",
        "values", "error", "shard", "latency_s", "retry_after_ms",
    }
    return RepairResponse(
        id=str(doc["id"]),
        status=status,
        algorithm=doc.get("algorithm"),
        ranking=tuple(ranking),
        confidence=doc.get("confidence"),
        degraded=bool(doc.get("degraded", False)),
        values=None if values is None else _decode_values(values),
        error=doc.get("error"),
        shard=doc.get("shard"),
        latency_s=doc.get("latency_s"),
        retry_after_ms=doc.get("retry_after_ms"),
        extra={k: v for k, v in doc.items() if k not in known},
    )
