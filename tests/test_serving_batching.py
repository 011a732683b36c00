"""Property-based tests of micro-batch coalescing and the wire codec.

The load-bearing invariants, checked over random arrival patterns,
seeds, and batch budgets:

- every offered item is released exactly once, in arrival order;
- no item waits in the batcher longer than the coalescing budget
  (``max_delay_s``) — the daemon then adds at most one batch service
  time before the response future resolves;
- responses come back in request order with matching ids, and repair
  payloads are byte-identical to the direct ``ADarts.repair_many``
  library path regardless of how the stream was chopped into batches.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.exceptions import ProtocolError, ValidationError
from repro.serving import (
    LoadGenerator,
    RepairRequest,
    ServingDaemon,
    ServingTestClient,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
)
from repro.serving.batching import MicroBatcher
from repro.serving.protocol import HealthRequest, RepairResponse
from repro.timeseries import TimeSeries

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=20,
)

#: Wire lines: raw bytes, any JSON document, and JSON objects shaped like
#: a request whose fields hold any JSON value.
request_lines = st.one_of(
    st.binary(max_size=256),
    json_values.map(lambda doc: json.dumps(doc).encode()),
    st.fixed_dictionaries(
        {"id": json_values, "values": json_values},
        optional={"mode": json_values, "name": json_values},
    ).map(lambda doc: json.dumps(doc).encode()),
)

#: Response lines: raw bytes, any JSON document, and JSON objects shaped
#: like a response whose fields hold any JSON value.
response_lines = st.one_of(
    st.binary(max_size=256),
    json_values.map(lambda doc: json.dumps(doc).encode()),
    st.fixed_dictionaries(
        {"id": json_values, "status": json_values},
        optional={
            key: json_values
            for key in ("algorithm", "ranking", "confidence", "degraded",
                        "values", "error", "shard", "latency_s", "health")
        },
    ).map(lambda doc: json.dumps(doc).encode()),
)

arrival_gaps = st.lists(
    st.floats(min_value=0.0, max_value=0.02, allow_nan=False),
    min_size=1,
    max_size=60,
)


class TestMicroBatcherProperties:
    @given(
        gaps=arrival_gaps,
        max_batch=st.integers(min_value=1, max_value=8),
        max_delay_ms=st.floats(min_value=0.0, max_value=10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_coalescing_invariants(self, gaps, max_batch, max_delay_ms):
        """Exact-once release, arrival order, bounded wait — fake clock."""
        max_delay_s = max_delay_ms / 1000.0
        batcher = MicroBatcher(max_batch, max_delay_s, clock=lambda: 0.0)
        arrivals = np.cumsum(gaps)
        released: list[tuple[int, float]] = []  # (item, release time)

        def take(batch, now):
            released.extend((item, now) for item in batch)

        i = 0
        now = 0.0
        while i < len(arrivals) or len(batcher):
            deadline = batcher.next_deadline
            next_arrival = arrivals[i] if i < len(arrivals) else math.inf
            if deadline is not None and deadline <= next_arrival:
                now = deadline
                batch = batcher.poll(now)
                assert batch is not None, "deadline passed but poll empty"
                take(batch, now)
            else:
                now = next_arrival
                batch = batcher.offer(i, now)
                i += 1
                if batch is not None:
                    take(batch, now)

        # Exactly once, in arrival order.
        assert [item for item, _ in released] == list(range(len(arrivals)))
        # Wait bound: release time <= arrival + budget (+ float slack).
        for item, out_time in released:
            wait = out_time - arrivals[item]
            assert wait <= max_delay_s + 1e-9
        # Size bound + counter bookkeeping.
        stats = batcher.stats()
        assert stats["items"] == len(arrivals)
        assert stats["batches"] == stats["full_batches"] + stats["partial_batches"]
        assert stats["pending"] == 0

    def test_full_batch_released_synchronously(self):
        batcher = MicroBatcher(3, 1.0, clock=lambda: 0.0)
        assert batcher.offer("a") is None
        assert batcher.offer("b") is None
        assert batcher.offer("c") == ["a", "b", "c"]
        assert len(batcher) == 0 and batcher.next_deadline is None

    def test_flush_and_validation(self):
        batcher = MicroBatcher(8, 0.5, clock=lambda: 0.0)
        batcher.offer(1)
        assert batcher.poll(now=0.1) is None
        assert batcher.flush() == [1]
        assert batcher.flush() is None
        with pytest.raises(ValidationError):
            MicroBatcher(0, 0.1)
        with pytest.raises(ValidationError):
            MicroBatcher(4, -0.1)

    def test_zero_delay_releases_on_next_poll(self):
        batcher = MicroBatcher(100, 0.0, clock=lambda: 5.0)
        batcher.offer("x")
        assert batcher.poll() == ["x"]


class TestProtocolProperties:
    @given(
        values=st.lists(
            st.one_of(
                st.floats(
                    min_value=-1e12, max_value=1e12,
                    allow_nan=False, allow_infinity=False,
                ),
                st.just(math.nan),
            ),
            min_size=1,
            max_size=64,
        ),
        mode=st.sampled_from(("repair", "recommend")),
    )
    @settings(max_examples=200, deadline=None)
    def test_request_roundtrip_is_exact(self, values, mode):
        """NaN <-> null and repr-exact floats survive the wire."""
        request = RepairRequest(
            id="rq", values=np.asarray(values), mode=mode, name="n"
        )
        decoded = decode_request(encode_request(request))
        assert decoded.id == request.id
        assert decoded.mode == mode
        assert np.array_equal(decoded.values, request.values, equal_nan=True)
        # Idempotent: a second hop produces the same bytes.
        assert encode_request(decoded) == encode_request(request)

    @given(
        values=st.lists(
            st.one_of(
                st.floats(
                    min_value=-1e12, max_value=1e12,
                    allow_nan=False, allow_infinity=False,
                ),
                st.just(math.nan),
            ),
            min_size=1,
            max_size=64,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_response_roundtrip_is_exact(self, values):
        response = RepairResponse(
            id="rs", status=200, algorithm="linear",
            ranking=("linear", "mean"), confidence=0.75,
            values=np.asarray(values), shard=3, latency_s=0.01,
        )
        decoded = decode_response(encode_response(response))
        assert decoded.id == response.id
        assert decoded.shard == 3
        assert np.array_equal(decoded.values, response.values, equal_nan=True)
        assert encode_response(decoded) == encode_response(response)

    def test_malformed_lines_raise_protocol_error(self):
        for line in (b"", b"not json", b"[1,2]", b'{"values": [1]}',
                     b'{"id": "x"}', b'{"id": "x", "values": "nope"}'):
            with pytest.raises(ProtocolError):
                decode_request(line)
        with pytest.raises(ProtocolError):
            RepairRequest(id="x", values=np.ones(3), mode="destroy")
        with pytest.raises(ProtocolError):
            RepairRequest(id="x", values=np.ones((2, 2)))

    @given(line=request_lines)
    @example(line=b'{"id":' + b"[" * 20000 + b"]" * 20000 + b',"values":[1]}')
    @example(line=b'{"id":"x","values":[1' + b"0" * 400 + b"]}")
    @settings(max_examples=300, deadline=None)
    def test_any_line_decodes_or_raises_protocol_error(self, line):
        """Malformed wire input: a request or a ProtocolError, nothing else."""
        try:
            request = decode_request(line)
        except ProtocolError:
            return
        assert isinstance(request, (RepairRequest, HealthRequest))

    @given(line=response_lines)
    @example(line=b'{"id":"a","status":null}')
    @example(line=b'{"id":"a","status":"x"}')
    @example(line=b'{"id":"a","status":200,"ranking":7}')
    @example(line=b'{"id":"a","status":' + b"[" * 20000 + b"]" * 20000 + b"}")
    @settings(max_examples=300, deadline=None)
    def test_any_response_line_decodes_or_raises_protocol_error(self, line):
        """The client side of the wire: a response or a ProtocolError."""
        try:
            response = decode_response(line)
        except ProtocolError:
            return
        assert isinstance(response, RepairResponse)

    def test_health_lines(self):
        request = decode_request(b'{"id":"h","mode":"health"}')
        assert isinstance(request, HealthRequest) and request.id == "h"
        with pytest.raises(ProtocolError):
            decode_request(b'{"mode":"health"}')
        document = {"n_requests": 3, "drift": None}
        line = encode_response(RepairResponse.health_response("h", document))
        assert json.loads(line) == {"id": "h", "status": 200, "health": document}
        assert decode_response(line).extra == {"health": document}

    def test_unknown_response_keys_preserved(self):
        line = (b'{"id":"a","status":200,"algorithm":"m","ranking":[],'
                b'"x_custom":7}')
        decoded = decode_response(line)
        assert decoded.extra == {"x_custom": 7}


class TestBatchCompositionInvariance:
    """Responses must not depend on how the stream was batched."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "max_batch,max_delay_s",
        [(1, 0.0), (4, 0.001), (16, 0.0), (32, 0.01)],
    )
    def test_ids_ordered_and_repairs_byte_identical(
        self, serving_engine, seed, max_batch, max_delay_s
    ):
        generator = LoadGenerator(seed=seed, length=96)
        requests = generator.requests(24)
        with ServingDaemon(
            serving_engine,
            n_shards=2,
            shard_backend="inline",
            max_batch=max_batch,
            max_delay_s=max_delay_s,
        ) as daemon:
            client = ServingTestClient(daemon, via_wire=True)
            responses = client.send_many(requests)

        assert [r.id for r in responses] == [r.id for r in requests]
        assert all(r.status == 200 for r in responses)

        series = [TimeSeries(r.values, name=r.name) for r in requests]
        recommendations = serving_engine.recommend_many(series)
        repaired = serving_engine.repair_many(series, recommendations)
        for response, rec, fixed in zip(
            responses, recommendations, repaired
        ):
            assert response.algorithm == rec.algorithm
            assert np.array_equal(
                response.values, fixed.values, equal_nan=True
            )

    def test_load_generator_is_deterministic(self):
        a = LoadGenerator(seed=13, length=64).requests(10)
        b = LoadGenerator(seed=13, length=64).requests(10)
        for x, y in zip(a, b):
            assert x.id == y.id
            assert np.array_equal(x.values, y.values, equal_nan=True)
        c = LoadGenerator(seed=14, length=64).request(0)
        assert not np.array_equal(
            a[0].values, c.values, equal_nan=True
        )
        offsets = LoadGenerator(seed=13).arrival_offsets(50, burstiness=0.5)
        assert np.array_equal(
            offsets, LoadGenerator(seed=13).arrival_offsets(50, burstiness=0.5)
        )
        assert offsets[0] == 0.0 and np.all(np.diff(offsets) >= 0)
