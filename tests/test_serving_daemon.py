"""End-to-end tests of the sharded serving daemon.

The acceptance scenario: four process shards serve a seeded 500-request
load whose responses must be identical to the library path
(``ADarts.repair_many``), with zero per-request engine pickling —
asserted through the :class:`AccountingRegistry` shared-memory counters
(the engine's two segments are published once at startup and never
again).  Around it: admission-control shedding, the JSON-lines socket
front-end, and the HealthSnapshot/Prometheus surface.
"""

from __future__ import annotations

import json
import socket as socket_mod
import threading
import time

import numpy as np
import pytest

from repro.exceptions import ProtocolError, ValidationError
from repro.observability.resources import get_accounting, kernel_stats
from repro.observability.slo import QuantileSketch
from repro.parallel.shm import active_segments, shm_available
from repro.serving.daemon import MAX_LINE_BYTES
from repro.serving import (
    LoadGenerator,
    RepairRequest,
    ServingDaemon,
    ServingTestClient,
    SocketServer,
    decode_response,
    encode_request,
)
from repro.timeseries import TimeSeries


def library_repairs(engine, requests):
    """The non-daemon reference path for the same inputs."""
    series = [TimeSeries(r.values, name=r.name) for r in requests]
    recommendations = engine.recommend_many(series)
    return (
        recommendations,
        engine.repair_many(series, recommendations),
    )


class SlowEngine:
    """Engine stub with a controllable per-batch service time."""

    is_fitted = True
    feature_baseline_ = None
    cluster_atlas_ = None
    quarantined_members = ()

    def __init__(self, delay_s: float = 0.0):
        self.delay_s = delay_s

    def recommend_many(self, series_list):
        class Rec:
            algorithm = "stub"
            ranking = ("stub",)
            probabilities = {"stub": 1.0}
            degraded = False
            disagreement = 0.0
            features = None
            cluster = None

        if self.delay_s:
            time.sleep(self.delay_s)
        return [Rec() for _ in series_list]

    def repair_many(self, series_list, recommendations=None):
        return [
            s.with_values(np.nan_to_num(s.values)) for s in series_list
        ]


# ---------------------------------------------------------------------------
# The acceptance E2E
# ---------------------------------------------------------------------------
@pytest.mark.slow
@pytest.mark.skipif(not shm_available(), reason="POSIX shm unavailable")
class TestFourShardAcceptance:
    N_REQUESTS = 500

    def test_500_requests_parity_and_zero_pickling(self, serving_engine):
        generator = LoadGenerator(seed=9, length=96)
        requests = generator.requests(self.N_REQUESTS)

        def shm_counters():
            account = get_accounting().snapshot()["accounts"].get(
                "shared_memory", {}
            )
            kernel = kernel_stats().get("shm_create", {})
            return (
                account.get("allocations", 0),
                kernel.get("calls", 0),
            )

        before_start = shm_counters()
        with ServingDaemon(
            serving_engine,
            n_shards=4,
            shard_backend="process",
            max_batch=16,
            max_delay_s=0.002,
        ) as daemon:
            after_start = shm_counters()
            client = ServingTestClient(daemon)
            responses = client.send_many(requests, timeout=600.0)
            after_load = shm_counters()
            stats = daemon.stats()

        # Startup publishes exactly two segments (engine doc + matrix)...
        start_allocs, start_creates = (
            np.subtract(after_start, before_start)
        )
        assert start_allocs == 2
        assert start_creates == 2
        # ...and 500 requests publish nothing further: the engine is
        # never pickled or re-exported per request.
        load_allocs, load_creates = (
            np.subtract(after_load, after_start)
        )
        assert load_allocs == 0
        assert load_creates == 0

        # Nothing dropped, nothing shed, responses in request order.
        assert len(responses) == self.N_REQUESTS
        assert [r.id for r in responses] == [r.id for r in requests]
        assert all(r.status == 200 for r in responses)
        assert stats["shed"] == 0 and stats["errors"] == 0
        assert {r.shard for r in responses} == {0, 1, 2, 3}

        # Byte-identical to the library path.
        recommendations, repaired = library_repairs(serving_engine, requests)
        for response, rec, fixed in zip(responses, recommendations, repaired):
            assert response.algorithm == rec.algorithm
            assert list(response.ranking) == list(rec.ranking)
            assert np.array_equal(
                response.values, fixed.values, equal_nan=True
            )

        # Engine segments are gone once the daemon stops.
        assert active_segments() == ()


# ---------------------------------------------------------------------------
# Daemon behaviour on the stub engine (fast)
# ---------------------------------------------------------------------------
class TestDaemonCore:
    def make_daemon(self, **kwargs):
        kwargs.setdefault("n_shards", 1)
        kwargs.setdefault("shard_backend", "inline")
        kwargs.setdefault("max_batch", 4)
        kwargs.setdefault("max_delay_s", 0.001)
        return ServingDaemon(SlowEngine(), **kwargs)

    def test_submit_type_checked(self):
        with self.make_daemon() as daemon:
            with pytest.raises(ProtocolError):
                daemon.submit({"id": "x", "values": [1.0]})

    def test_submit_before_start_sheds(self):
        daemon = self.make_daemon()
        response = daemon.submit(
            RepairRequest(id="r", values=np.ones(8))
        ).result(timeout=5)
        assert response.status == 503
        assert response.retry_after_ms is not None

    def test_max_pending_sheds_with_typed_503(self):
        with self.make_daemon(
            max_pending=4, shard_backend="inline",
            max_batch=64, max_delay_s=0.2,
        ) as daemon:
            daemon.engine.delay_s = 0.2
            futures = [
                daemon.submit(
                    RepairRequest(id=f"r{i}", values=np.ones(8))
                )
                for i in range(32)
            ]
            responses = [f.result(timeout=30) for f in futures]
        statuses = {r.status for r in responses}
        shed = [r for r in responses if r.status == 503]
        assert statuses <= {200, 503}
        assert shed, "admission control never engaged"
        assert all(r.retry_after_ms is not None for r in shed)
        assert all(
            "overloaded" in r.error or "not accepting" in r.error
            for r in shed
        )
        # Every admitted request was served: nothing dropped.
        assert len(responses) == 32
        # The sink sees every shed as an error with no latency sample.
        tracker = daemon.slo_tracker
        served = len(responses) - len(shed)
        assert tracker.n_requests == 32
        assert tracker.request_latency.count == served
        assert tracker.n_series == served
        error_rate = next(
            p for p in tracker.status()["policies"] if p["kind"] == "error_rate"
        )
        assert error_rate["fast_events"] == 32
        assert error_rate["fast_bad_fraction"] == pytest.approx(len(shed) / 32)

    def test_bad_series_gets_400_without_failing_batch(self, serving_engine):
        with ServingDaemon(
            serving_engine, n_shards=1, shard_backend="inline",
            max_batch=4, max_delay_s=0.001,
        ) as daemon:
            client = ServingTestClient(daemon)
            good = LoadGenerator(seed=1, length=96).request(0)
            bad = RepairRequest(id="bad", values=np.full(4, np.nan))
            responses = client.send_many([good, bad, good])
        assert [r.status for r in responses] == [200, 400, 200]
        assert "invalid series" in responses[1].error

    def test_validation(self):
        with pytest.raises(ValidationError):
            ServingDaemon(SlowEngine(), max_pending=0)
        with pytest.raises(ValidationError):
            ServingDaemon(SlowEngine(), n_shards=0)
        with pytest.raises(ValidationError):
            ServingDaemon(SlowEngine(), shard_backend="quantum")

    def test_health_snapshot_renders(self, serving_engine):
        with ServingDaemon(
            serving_engine, n_shards=2, shard_backend="inline",
            max_batch=8, max_delay_s=0.001,
        ) as daemon:
            client = ServingTestClient(daemon)
            client.send_many(LoadGenerator(seed=2, length=96).requests(12))
            snapshot = daemon.health()
        document = json.loads(snapshot.to_json())
        assert document["n_requests"] == 12
        assert set(document["scorecards"]["per_shard"]) == {"0", "1"}
        assert document["scorecards"]["batching"]["items"] == 12
        assert document["slo"]["n_events"] == 12
        assert document["alerts"]["shed_requests"] == 0
        prom = snapshot.to_prometheus()
        assert "repro_serving_requests_total 12" in prom
        assert "repro_slo_burn_rate_fast" in prom

    def test_health_snapshot_feeds_dashboard(self, serving_engine):
        from repro.observability.dashboard import render_top

        with ServingDaemon(
            serving_engine, n_shards=1, shard_backend="inline",
            max_batch=4, max_delay_s=0.001,
        ) as daemon:
            client = ServingTestClient(daemon)
            client.send_many(LoadGenerator(seed=3, length=96).requests(4))
            frame = render_top(daemon.health().as_dict(), color=False)
        assert "SLO" in frame or "latency" in frame.lower()

    def test_merged_shard_sketch_matches_fleet_view(self, serving_engine):
        with ServingDaemon(
            serving_engine, n_shards=2, shard_backend="inline",
            max_batch=4, max_delay_s=0.001,
        ) as daemon:
            client = ServingTestClient(daemon)
            client.send_many(LoadGenerator(seed=4, length=96).requests(16))
            tracker = daemon.slo_tracker
            fleet = tracker.views()["series_latency"]
            per_shard = [
                card.sketch for key, card in tracker._slices.items()
                if key.startswith("shard:")
            ]
        merged = QuantileSketch()
        for sketch in per_shard:
            merged.merge(sketch)
        assert merged.count == sum(s.count for s in per_shard)
        assert merged.count == fleet["count"] == 16
        # Below k every view is exact, so the fold equals the fleet view.
        assert merged.quantile(0.5) == fleet["p50"]
        assert merged.quantile(0.99) == fleet["p99"]

    def test_health_is_the_monitor_document(self, serving_engine):
        """One builder: the daemon's document has the ``repro monitor``
        document's sections, and per-shard cards read their quantiles
        from the sink's slices."""
        generator = LoadGenerator(seed=6, length=96)
        with ServingDaemon(
            serving_engine, n_shards=2, shard_backend="inline",
            max_batch=4, max_delay_s=0.001,
        ) as daemon:
            client = ServingTestClient(daemon)
            client.send_many(generator.requests(12))
            document = daemon.health().as_dict()
        assert set(document) == {
            "generated_at", "uptime_s", "n_requests", "n_series", "latency",
            "series_latency", "confidence", "disagreement",
            "recommendation_mix", "drift", "caches", "backends", "alerts",
            "resilience", "scorecards", "slo", "resources", "build",
        }
        assert document["disagreement"]["count"] == 12
        slices = document["slo"]["slices"]
        cards = document["scorecards"]["per_shard"]
        assert set(cards) == {"0", "1"}
        for shard_id, card in cards.items():
            row = slices.get(f"shard:{shard_id}", {"p50": 0.0, "p99": 0.0})
            assert (card["p50_s"], card["p99_s"]) == (row["p50"], row["p99"])
        assert sum(
            slices[f"shard:{i}"]["n"] for i in cards if f"shard:{i}" in slices
        ) == 12

    def test_rejections_feed_errors_not_latency(self, serving_engine):
        """A quarantine-shed batch counts toward error counters and the
        error-rate policy only — never as a fast latency observation."""
        with ServingDaemon(
            serving_engine, n_shards=1, shard_backend="inline",
            max_batch=4, max_delay_s=0.001,
        ) as daemon:
            client = ServingTestClient(daemon)
            generator = LoadGenerator(seed=8, length=96)
            served = client.send_many(generator.requests(4))
            assert all(r.status == 200 for r in served)
            breaker = daemon.pool.breaker
            while not breaker.is_open(0):
                breaker.record_failure(0)
            shed = client.send_many(generator.requests(4))
            assert {r.status for r in shed} == {503}
            document = daemon.health().as_dict()
        assert document["series_latency"]["count"] == 4
        assert document["slo"]["latency_sketch"]["count"] == 4
        assert document["latency"]["count"] == 4
        policies = {p["policy"]: p for p in document["slo"]["policies"]}
        assert policies["latency_p99"]["fast_events"] == 4
        assert policies["latency_p50"]["fast_events"] == 4
        assert policies["error_rate"]["fast_events"] == 8
        assert policies["error_rate"]["fast_bad_fraction"] == 0.5
        assert document["alerts"]["shed_requests"] == 4


# ---------------------------------------------------------------------------
# Socket front-end
# ---------------------------------------------------------------------------
class TestSocketServer:
    def test_roundtrip_and_malformed_lines(self, serving_engine):
        generator = LoadGenerator(seed=5, length=96)
        requests = generator.requests(6)
        with ServingDaemon(
            serving_engine, n_shards=1, shard_backend="inline",
            max_batch=4, max_delay_s=0.001,
        ) as daemon:
            with SocketServer(daemon, port=0) as server:
                with socket_mod.create_connection(server.address) as conn:
                    stream = conn.makefile("rwb")
                    for request in requests:
                        stream.write(encode_request(request) + b"\n")
                    stream.write(b"this is not json\n")
                    stream.flush()
                    responses = [
                        decode_response(stream.readline())
                        for _ in range(len(requests) + 1)
                    ]
        by_id = {r.id: r for r in responses}
        for request in requests:
            assert by_id[request.id].status == 200
        garbage = by_id[""]
        assert garbage.status == 400
        assert "JSON" in garbage.error

    def test_bad_lines_are_answered_and_the_connection_serves_on(
        self, serving_engine
    ):
        """Deep nesting gets 400, an internal failure 500, the rest 200."""
        generator = LoadGenerator(seed=8, length=96)
        before, after, boom = generator.requests(3)
        deep = b'{"id":' + b"[" * 20000 + b"]" * 20000 + b',"values":[1]}'
        with ServingDaemon(
            serving_engine, n_shards=1, shard_backend="inline",
            max_batch=4, max_delay_s=0.001,
        ) as daemon:
            submit = daemon.submit

            def failing_submit(request):
                if request.id == boom.id:
                    raise RuntimeError("shard exploded")
                return submit(request)

            daemon.submit = failing_submit
            with SocketServer(daemon, port=0) as server:
                with socket_mod.create_connection(server.address) as conn:
                    conn.settimeout(60)
                    stream = conn.makefile("rwb")
                    for line in (encode_request(before), deep,
                                 encode_request(boom), encode_request(after)):
                        stream.write(line + b"\n")
                    stream.flush()
                    responses = [decode_response(stream.readline()) for _ in range(4)]
        by_id = {r.id: r for r in responses}
        assert by_id[before.id].status == by_id[after.id].status == 200
        assert by_id[""].status == 400
        assert "nested" in by_id[""].error
        assert by_id[boom.id].status == 500
        assert "shard exploded" in by_id[boom.id].error

    def test_long_lines(self, serving_engine):
        """A 10,000-point series is served; an over-limit line gets 400.

        Requests pipelined before and after the over-limit line are
        answered normally on the same connection.
        """
        long_values = LoadGenerator(seed=9, length=10_000).requests(1)[0].values
        long_request = RepairRequest(id="long", values=long_values)
        before, after = LoadGenerator(seed=10, length=96).requests(2)
        too_long = (
            b'{"id":"huge","values":['
            + b"1.0," * (MAX_LINE_BYTES // 4) + b"1.0]}"
        )
        assert len(encode_request(long_request)) > 64 * 1024
        with ServingDaemon(
            serving_engine, n_shards=1, shard_backend="inline",
            max_batch=4, max_delay_s=0.001,
        ) as daemon:
            with SocketServer(daemon, port=0) as server:
                with socket_mod.create_connection(server.address) as conn:
                    conn.settimeout(120)
                    stream = conn.makefile("rwb")
                    for line in (encode_request(before), encode_request(long_request),
                                 too_long, encode_request(after)):
                        stream.write(line + b"\n")
                    stream.flush()
                    responses = [decode_response(stream.readline()) for _ in range(4)]
        by_id = {r.id: r for r in responses}
        assert set(by_id) == {before.id, "long", "", after.id}
        assert by_id["long"].status == 200
        assert len(by_id["long"].values) == 10_000
        assert by_id[""].status == 400
        assert str(MAX_LINE_BYTES) in by_id[""].error
        assert by_id[before.id].status == by_id[after.id].status == 200

    def test_concurrent_clients(self, serving_engine):
        generator = LoadGenerator(seed=6, length=96)
        with ServingDaemon(
            serving_engine, n_shards=2, shard_backend="inline",
            max_batch=8, max_delay_s=0.001,
        ) as daemon:
            with SocketServer(daemon, port=0) as server:
                results = {}

                def client(offset):
                    requests = generator.requests(8, start=offset)
                    with socket_mod.create_connection(
                        server.address
                    ) as conn:
                        stream = conn.makefile("rwb")
                        for request in requests:
                            stream.write(encode_request(request) + b"\n")
                        stream.flush()
                        got = [
                            decode_response(stream.readline())
                            for _ in requests
                        ]
                    results[offset] = (requests, got)

                threads = [
                    threading.Thread(target=client, args=(k,))
                    for k in (0, 100, 200)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
        assert set(results) == {0, 100, 200}
        for requests, got in results.values():
            assert {r.id for r in got} == {r.id for r in requests}
            assert all(r.status == 200 for r in got)


# ---------------------------------------------------------------------------
# Live health: the ``health`` line, ``repro top --connect``, replay parity
# ---------------------------------------------------------------------------
def _health_line(stream, line: bytes):
    stream.write(line + b"\n")
    stream.flush()
    return decode_response(stream.readline())


class TestLiveHealth:
    def test_health_line_is_answered_outside_the_batcher(self, serving_engine):
        requests = LoadGenerator(seed=11, length=96).requests(4)
        with ServingDaemon(
            serving_engine, n_shards=1, shard_backend="inline",
            max_batch=4, max_delay_s=0.001,
        ) as daemon:
            with SocketServer(daemon, port=0) as server:
                with socket_mod.create_connection(server.address) as conn:
                    conn.settimeout(60)
                    stream = conn.makefile("rwb")
                    for request in requests:
                        stream.write(encode_request(request) + b"\n")
                    stream.flush()
                    served = [decode_response(stream.readline()) for _ in requests]
                    first = _health_line(stream, b'{"id":"h1","mode":"health"}')
                    second = _health_line(stream, b'{"id":"h2","mode":"health"}')
                    malformed = _health_line(stream, b'{"mode":"health"}')
            stats = daemon.stats()
        assert all(r.status == 200 for r in served)
        for response, request_id in ((first, "h1"), (second, "h2")):
            assert (response.id, response.status) == (request_id, 200)
            assert response.algorithm is None and response.values is None
            document = response.extra["health"]
            assert document["n_requests"] == 4
            assert document["slo"]["n_events"] == 4
            assert document["scorecards"]["batching"]["items"] == 4
        assert stats["submitted"] == 4
        assert malformed.status == 400
        assert "id" in malformed.error

    def test_top_connect_renders_a_frame(self, serving_engine, capsys):
        from repro.cli import main

        with ServingDaemon(
            serving_engine, n_shards=1, shard_backend="inline",
            max_batch=4, max_delay_s=0.001,
        ) as daemon:
            ServingTestClient(daemon).send_many(
                LoadGenerator(seed=12, length=96).requests(3)
            )
            with SocketServer(daemon, port=0) as server:
                host, port = server.address
                code = main(
                    ["top", "--connect", f"{host}:{port}", "--once", "--no-color"]
                )
        frame = capsys.readouterr().out
        assert code == 0
        assert frame.startswith("repro top")
        assert "requests      3" in frame
        assert "SLO" in frame

    @pytest.mark.skipif(not shm_available(), reason="POSIX shm unavailable")
    def test_live_drift_report_equals_the_replay(
        self, serving_engine, tmp_path, capsys
    ):
        """The same 72 series through ``repro monitor`` (one inline shard)
        and through two process shards score the same drift: the
        256-row window holds every row, and PSI and KS are order-free."""
        from repro.cli import main, write_series_csv
        from repro.core.serialization import save_engine

        requests = LoadGenerator(seed=13, length=96, mode="recommend").requests(72)
        engine_path = save_engine(serving_engine, tmp_path / "engine.json")
        csv_path = tmp_path / "traffic.csv"
        write_series_csv(csv_path, [TimeSeries(r.values) for r in requests])
        assert main([
            "monitor", "--engine", str(engine_path), "--data", str(csv_path),
            "--batch", "8", "--out", str(tmp_path / "replay.json"),
        ]) == 0
        capsys.readouterr()
        replay = json.loads((tmp_path / "replay.json").read_text())

        with ServingDaemon(
            serving_engine, n_shards=2, shard_backend="process",
            max_batch=8, max_delay_s=0.002,
        ) as daemon:
            with SocketServer(daemon, port=0) as server:
                with socket_mod.create_connection(server.address) as conn:
                    conn.settimeout(120)
                    stream = conn.makefile("rwb")
                    for request in requests:
                        stream.write(encode_request(request) + b"\n")
                    stream.flush()
                    served = [decode_response(stream.readline()) for _ in requests]
                    live = _health_line(stream, b'{"id":"h","mode":"health"}')
        assert all(r.status == 200 for r in served)
        live_report = live.extra["health"]["drift"]["report"]
        replay_report = replay["drift"]["report"]
        assert live_report["n_samples"] == replay_report["n_samples"] == 72
        assert live_report["psi"] == replay_report["psi"]
        assert live_report["ks"] == replay_report["ks"]
        assert live.extra["health"]["n_series"] == replay["n_series"] == 72

    def test_stop_with_a_client_connected_logs_no_error(
        self, serving_engine, caplog
    ):
        """A client still attached when the server stops (a ``repro top
        --connect`` left running) ends without an asyncio error."""
        import logging

        with ServingDaemon(
            serving_engine, n_shards=1, shard_backend="inline"
        ) as daemon:
            server = SocketServer(daemon, port=0).start()
            with socket_mod.create_connection(server.address) as conn:
                conn.settimeout(60)
                stream = conn.makefile("rwb")
                assert _health_line(stream, b'{"id":"h","mode":"health"}').ok
                with caplog.at_level(logging.ERROR, logger="asyncio"):
                    server.stop()
                assert stream.readline() == b""  # the server closed it
        assert not [r for r in caplog.records if r.name == "asyncio"]
