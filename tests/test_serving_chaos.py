"""Chaos tests: fault plans against the serving daemon's worker shards.

Every scenario asserts the same contract from the ISSUE: a request is
**resubmitted or shed, never silently dropped** — each submitted request
gets exactly one response; crashes demote the shard (logged + counted);
and the shared-memory segments are unlinked even when a worker died
mid-batch.
"""

from __future__ import annotations

import logging

import numpy as np
import pytest

from repro.exceptions import (
    AllShardsQuarantinedError,
    ShardsExhaustedError,
    WorkerCrashError,
)
from repro.observability import MetricsRegistry, use_metrics
from repro.parallel.shm import active_segments, shm_available
from repro.resilience import FaultInjector
from repro.resilience.breaker import CircuitBreaker
from repro.serving import (
    LoadGenerator,
    RepairRequest,
    ServingDaemon,
    ServingTestClient,
    ShardPool,
)

pytestmark = pytest.mark.chaos

needs_shm = pytest.mark.skipif(
    not shm_available(), reason="POSIX shm unavailable"
)


def poison_request(request_id: str = "poison") -> RepairRequest:
    """Passes the protocol and TimeSeries checks, then overflows inside
    the engine (interpolating between +-1e308), which raises
    ValidationError from ``recommend_many``."""
    return RepairRequest(
        id=request_id, values=np.array([1e308, -1e308, np.nan] * 10)
    )


def kill_plan(target: str, times: int = 1) -> FaultInjector:
    return FaultInjector(
        [{"site": "serving.shard", "kind": "kill",
          "match": target, "times": times}],
        seed=0,
        name="chaos-kill",
    )


@needs_shm
class TestWorkerCrash:
    def test_killed_shard_resubmits_and_demotes(
        self, serving_engine, caplog
    ):
        """A kill plan on shard-0: no request lost, shard demoted inline."""
        generator = LoadGenerator(seed=21, length=96)
        requests = generator.requests(40)
        with caplog.at_level(logging.WARNING, logger="repro.serving.shards"):
            with ServingDaemon(
                serving_engine,
                n_shards=2,
                shard_backend="process",
                max_batch=8,
                max_delay_s=0.001,
                injector=kill_plan("shard-0"),
            ) as daemon:
                client = ServingTestClient(daemon)
                responses = client.send_many(requests, timeout=300.0)
                pool_stats = daemon.pool.stats()

        # Exactly one response per request, all served (resubmitted).
        assert len(responses) == len(requests)
        assert [r.id for r in responses] == [r.id for r in requests]
        assert all(r.status == 200 for r in responses)

        # The crash demoted shard 0 from process to inline, visibly.
        assert pool_stats["demotions"] == 1
        assert pool_stats["resubmissions"] >= 1
        assert pool_stats["per_shard"]["0"]["backend"] == "inline"
        assert pool_stats["per_shard"]["0"]["demoted"] is True
        assert pool_stats["per_shard"]["1"]["backend"] == "process"
        messages = [r.message for r in caplog.records]
        assert any("resubmitting" in m for m in messages)
        assert any("demoted to inline" in m for m in messages)

        # Segments unlinked even though a worker died mid-batch.
        assert active_segments() == ()

    def test_hung_shard_times_out_and_batch_survives(self, serving_engine):
        """A hang past ``timeout_s`` is treated exactly like a crash."""
        injector = FaultInjector(
            [{"site": "serving.shard", "kind": "hang",
              "match": "shard-1", "times": 1, "duration": 15.0}],
            seed=0,
            name="chaos-hang",
        )
        generator = LoadGenerator(seed=22, length=96)
        requests = generator.requests(24)
        with ServingDaemon(
            serving_engine,
            n_shards=2,
            shard_backend="process",
            max_batch=8,
            max_delay_s=0.001,
            injector=injector,
            timeout_s=2.0,
        ) as daemon:
            client = ServingTestClient(daemon)
            responses = client.send_many(requests, timeout=300.0)
            pool_stats = daemon.pool.stats()
        assert all(r.status == 200 for r in responses)
        assert len(responses) == len(requests)
        assert pool_stats["resubmissions"] >= 1
        assert pool_stats["demotions"] == 1  # timeouts demote too
        assert active_segments() == ()


    def test_sigkill_mid_batch_is_served_by_the_other_shard(
        self, serving_engine, caplog
    ):
        """A worker SIGKILLed while it holds a batch reads as EOF at once:
        the pool sees a WorkerCrashError well inside the batch timeout,
        the other shard serves the batch, and ``stop()`` leaves no child
        process behind."""
        import multiprocessing as mp
        import os
        import signal
        import threading
        import time

        hang = FaultInjector(
            [{"site": "serving.shard", "kind": "hang", "match": "shard-0",
              "times": 1, "duration": 120.0}],
            seed=0,
            name="chaos-hang-then-kill",
        )
        requests = LoadGenerator(seed=23, length=96).requests(4)
        pool = ShardPool(
            serving_engine, 2, backend="process", injector=hang,
            timeout_s=120.0,
        )
        outcome = {}

        def serve():
            start = time.monotonic()
            outcome["result"] = pool.run_batch(requests)
            outcome["elapsed"] = time.monotonic() - start

        with caplog.at_level(logging.WARNING, logger="repro.serving.shards"):
            pool.start()
            try:
                workers = [shard.runner._proc for shard in pool._shards]
                thread = threading.Thread(target=serve)
                thread.start()
                deadline = time.monotonic() + 60.0
                while not pool._shards[0].busy.locked():
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                time.sleep(2.0)  # attached and hanging inside the batch
                assert workers[0].is_alive()
                os.kill(workers[0].pid, signal.SIGKILL)
                thread.join(timeout=90.0)
                assert not thread.is_alive()
                stats = pool.stats()
            finally:
                pool.stop()

        results, shard_id, _ = outcome["result"]
        assert shard_id == 1
        assert [r["id"] for r in results] == [r.id for r in requests]
        assert all(r["status"] == 200 for r in results)
        assert outcome["elapsed"] < 60.0  # EOF, not the 120 s timeout
        assert any(
            "WorkerCrashError" in r.message and "died" in r.message
            for r in caplog.records
        )
        assert stats["demotions"] == 1
        assert stats["resubmissions"] == 1
        assert stats["per_shard"]["1"]["batches"] == 1
        assert not any(worker.is_alive() for worker in workers)
        live = {child.pid for child in mp.active_children()}
        assert live.isdisjoint(worker.pid for worker in workers)
        assert active_segments() == ()


class TestQuarantineShedding:
    def test_all_shards_down_sheds_typed_503(self, serving_engine):
        """Permanent crashes: requests get 500/503, never hang or drop."""
        injector = FaultInjector(
            [{"site": "serving.shard", "kind": "kill"}],  # every batch
            seed=0,
            name="chaos-kill-all",
        )
        generator = LoadGenerator(seed=23, length=96)
        requests = generator.requests(12)
        with ServingDaemon(
            serving_engine,
            n_shards=1,
            shard_backend="inline",
            max_batch=4,
            max_delay_s=0.001,
            injector=injector,
            breaker=CircuitBreaker(threshold=2, name="chaos"),
        ) as daemon:
            client = ServingTestClient(daemon)
            responses = client.send_many(requests, timeout=120.0)
            stats = daemon.stats()

        # One response per request; every one a typed failure.
        assert len(responses) == len(requests)
        statuses = {r.status for r in responses}
        assert statuses <= {500, 503}
        # Once the breaker opens, later batches shed with 503 + retry.
        assert 503 in statuses
        shed = [r for r in responses if r.status == 503]
        assert all(r.retry_after_ms is not None for r in shed)
        assert all("quarantined" in r.error for r in shed)
        assert stats["shed"] + stats["errors"] == len(requests)
        assert stats["served"] == 0

    def test_pool_raises_typed_errors_directly(self, serving_engine):
        """ShardPool surfaces the taxonomy without the daemon on top."""
        injector = FaultInjector(
            [{"site": "serving.shard", "kind": "kill"}],
            seed=0,
            name="chaos-pool",
        )
        pool = ShardPool(
            serving_engine,
            1,
            backend="inline",
            injector=injector,
            breaker=CircuitBreaker(threshold=1, name="chaos-pool"),
        )
        request = LoadGenerator(seed=24, length=96).request(0)
        with pool:
            with pytest.raises(AllShardsQuarantinedError):
                # First attempt fails (threshold=1 -> open), and with
                # every shard quarantined the retry loop must shed.
                pool.run_batch([request])
            with pytest.raises(AllShardsQuarantinedError):
                pool.run_batch([request])

    def test_engine_error_is_an_answer_not_a_crash(self, serving_engine):
        """A request the engine rejects gets its own 400; the healthy
        row in its batch is served and no shard is blamed."""
        good = LoadGenerator(seed=26, length=96).requests(2)
        pool = ShardPool(serving_engine, 2, backend="inline")
        with pool:
            results, _, _ = pool.run_batch([good[0], poison_request()])
            assert [row["status"] for row in results] == [200, 400]
            assert results[1]["id"] == "poison"
            assert results[1]["error"].startswith("invalid series: ")
            assert pool.stats()["resubmissions"] == 0
            assert pool.quarantined() == []
            follow_up, _, _ = pool.run_batch([good[1]])
        assert [row["status"] for row in follow_up] == [200]

    @needs_shm
    def test_engine_error_through_process_shards(self, serving_engine):
        """The same poison request through the daemon on process shards:
        one 400, no demotion, and the requests after it are served."""
        requests = LoadGenerator(seed=27, length=96).requests(20)
        with ServingDaemon(
            serving_engine,
            n_shards=2,
            shard_backend="process",
            max_batch=8,
            max_delay_s=0.001,
        ) as daemon:
            client = ServingTestClient(daemon)
            poisoned = client.send_many([poison_request()], timeout=300.0)
            responses = client.send_many(requests, timeout=300.0)
            pool_stats = daemon.pool.stats()
        assert poisoned[0].status == 400
        assert "invalid series" in poisoned[0].error
        assert [r.status for r in responses] == [200] * len(requests)
        assert pool_stats["demotions"] == 0
        assert pool_stats["resubmissions"] == 0
        assert pool_stats["quarantined"] == []

    def test_exhausted_batch_is_not_counted_as_shed(self, serving_engine):
        """``repro_serving_shed_total`` counts 503 sheds only: a batch
        that fails on every shard answers 500 and leaves it alone."""
        registry = MetricsRegistry()
        requests = LoadGenerator(seed=28, length=96).requests(3)
        with use_metrics(registry):
            with ServingDaemon(
                serving_engine,
                n_shards=1,
                shard_backend="inline",
                max_batch=8,
                max_delay_s=0.001,
                injector=FaultInjector(
                    [{"site": "serving.shard", "kind": "kill"}], seed=0
                ),
                breaker=CircuitBreaker(threshold=100, name="chaos"),
            ) as daemon:
                pool = daemon.pool
                with pytest.raises(ShardsExhaustedError):
                    pool.run_batch(requests[:1])
                responses = ServingTestClient(daemon).send_many(
                    requests, timeout=120.0
                )
        assert [r.status for r in responses] == [500] * len(requests)
        assert all("failed on every shard" in r.error for r in responses)
        counters = registry.as_dict()
        assert "repro_serving_shard_failures_total" in counters
        assert "repro_serving_shed_total" not in counters

    def test_inline_kill_degrades_to_worker_crash_error(self):
        """In the parent process a kill plan raises WorkerCrashError."""
        injector = FaultInjector(
            [{"site": "serving.shard", "kind": "kill"}], seed=0
        )
        with pytest.raises(WorkerCrashError):
            injector.check("serving.shard", "shard-0", token=("batch", 1))


@needs_shm
class TestCrashRecoveryEndToEnd:
    def test_post_demotion_results_stay_correct(self, serving_engine):
        """Responses served by the demoted inline runner match the
        library path — demotion changes the backend, not the answer."""
        from repro.timeseries import TimeSeries

        generator = LoadGenerator(seed=25, length=96)
        requests = generator.requests(30)
        with ServingDaemon(
            serving_engine,
            n_shards=1,
            shard_backend="process",
            max_batch=8,
            max_delay_s=0.001,
            injector=kill_plan("shard-0"),
        ) as daemon:
            client = ServingTestClient(daemon)
            responses = client.send_many(requests, timeout=300.0)
            assert daemon.pool.stats()["demotions"] == 1
        assert all(r.status == 200 for r in responses)
        series = [TimeSeries(r.values, name=r.name) for r in requests]
        recommendations = serving_engine.recommend_many(series)
        repaired = serving_engine.repair_many(series, recommendations)
        for response, fixed in zip(responses, repaired):
            assert np.array_equal(
                response.values, fixed.values, equal_nan=True
            )
        assert active_segments() == ()
