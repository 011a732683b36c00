"""Unit tests for repro.observability.metrics."""

import json
import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observability import (
    MetricsRegistry,
    get_metrics,
    set_metrics,
    use_metrics,
)
from repro.observability.metrics import sanitize_metric_name


@pytest.fixture(autouse=True)
def _reset_default_metrics():
    yield
    set_metrics(None)


class TestCounter:
    def test_inc(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_events_total")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("repro_x_total")
        b = registry.counter("repro_x_total")
        assert a is b

    def test_negative_increment_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("repro_x_total").inc(-1)

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("repro_x")
        with pytest.raises(ValueError):
            registry.gauge("repro_x")

    def test_labels_partition_values(self):
        registry = MetricsRegistry()
        registry.counter("repro_runs_total", labels={"algo": "knn"}).inc()
        registry.counter("repro_runs_total", labels={"algo": "cdrec"}).inc(4)
        text = registry.to_prometheus()
        assert 'repro_runs_total{algo="knn"} 1.0' in text
        assert 'repro_runs_total{algo="cdrec"} 4.0' in text


class TestGauge:
    def test_set_inc_dec(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("repro_active")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(3)
        assert gauge.value == 12


class TestHistogram:
    def test_percentiles_exact(self):
        registry = MetricsRegistry()
        hist = registry.histogram("repro_lat_seconds")
        for v in np.linspace(0.0, 1.0, 101):  # 0.00, 0.01, ..., 1.00
            hist.observe(v)
        summary = hist.summary()
        assert summary["count"] == 101
        assert summary["p50"] == pytest.approx(0.5, abs=1e-9)
        assert summary["p95"] == pytest.approx(0.95, abs=1e-9)
        assert summary["p99"] == pytest.approx(0.99, abs=1e-9)
        assert summary["min"] == 0.0
        assert summary["max"] == 1.0
        assert summary["mean"] == pytest.approx(0.5)
        assert summary["sum"] == pytest.approx(50.5)

    def test_empty_summary_is_zeroed(self):
        registry = MetricsRegistry()
        summary = registry.histogram("repro_empty").summary()
        assert summary["count"] == 0
        assert summary["p99"] == 0.0

    def test_nonfinite_observations_dropped(self):
        registry = MetricsRegistry()
        hist = registry.histogram("repro_h")
        hist.observe(float("nan"))
        hist.observe(float("inf"))
        hist.observe(1.0)
        assert hist.count == 1

    def test_buffer_growth(self):
        registry = MetricsRegistry()
        hist = registry.histogram("repro_big")
        for i in range(1000):  # just below the sketch's k
            hist.observe(float(i))
        assert hist.count == 1000
        assert hist.summary()["max"] == 999.0

    def test_time_context_manager(self):
        registry = MetricsRegistry()
        hist = registry.histogram("repro_timed_seconds")
        with hist.time():
            pass
        assert hist.count == 1
        assert hist.summary()["min"] >= 0.0

    def test_thread_safe_observe(self):
        registry = MetricsRegistry()
        hist = registry.histogram("repro_mt")
        counter = registry.counter("repro_mt_total")

        def worker():
            for i in range(500):
                hist.observe(float(i))
                counter.inc()

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert hist.count == 8 * 500
        assert counter.value == 8 * 500


class TestExport:
    def _populated(self):
        registry = MetricsRegistry()
        registry.counter("repro_evals_total", "Evaluations").inc(42)
        registry.gauge("repro_ratio", "A ratio").set(0.85)
        hist = registry.histogram("repro_lat_seconds", "Latency")
        for v in (0.1, 0.2, 0.3):
            hist.observe(v)
        return registry

    def test_prometheus_text_format(self):
        text = self._populated().to_prometheus()
        assert "# HELP repro_evals_total Evaluations" in text
        assert "# TYPE repro_evals_total counter" in text
        assert "repro_evals_total 42.0" in text
        assert "# TYPE repro_lat_seconds summary" in text
        assert 'repro_lat_seconds{quantile="0.5"} 0.2' in text
        assert "repro_lat_seconds_count 3" in text
        assert "repro_lat_seconds_sum" in text
        assert text.endswith("\n")

    def test_json_round_trip(self):
        document = json.loads(self._populated().to_json())
        assert document["repro_evals_total"]["_"]["value"] == 42
        assert document["repro_lat_seconds"]["_"]["count"] == 3

    def test_export_by_extension(self, tmp_path):
        registry = self._populated()
        prom = registry.export(tmp_path / "metrics.prom")
        assert "# TYPE" in prom.read_text()
        js = registry.export(tmp_path / "metrics.json")
        json.loads(js.read_text())

    def test_sanitize_metric_name(self):
        assert sanitize_metric_name("a b-c.d") == "a_b_c_d"
        assert sanitize_metric_name("9lives")[0] == "_"


class TestNullRegistry:
    def test_default_is_null(self):
        # The default is the always-on process registry, not a no-op.
        process = get_metrics()
        assert isinstance(process, MetricsRegistry)
        set_metrics(MetricsRegistry())
        assert get_metrics() is not process
        assert set_metrics(None) is process

    def test_null_instruments_are_shared_noops(self):
        # Instruments are real from import time: counts land in the
        # process registry and are read back from it.
        process = get_metrics()
        before = process.total("repro_test_default_total")
        process.counter("repro_test_default_total").inc()
        assert process.total("repro_test_default_total") == before + 1

    def test_use_metrics_scopes_installation(self):
        process = get_metrics()
        registry = MetricsRegistry()
        with use_metrics(registry):
            assert get_metrics() is registry
            get_metrics().counter("repro_in_scope_total").inc()
            with use_metrics(None):
                assert get_metrics() is process
            assert get_metrics() is registry
        assert get_metrics() is process
        assert registry.counter("repro_in_scope_total").value == 1
        assert process.total("repro_in_scope_total") == 0

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_starts_with_empty_registry(self):
        get_metrics().counter("repro_parent_only_total").inc()
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:  # child: report what it inherited, then exit
            child = get_metrics()
            child.counter("repro_child_only_total").inc()
            os.write(write, json.dumps(sorted(child.as_dict())).encode())
            os._exit(0)
        os.close(write)
        with os.fdopen(read) as fh:
            inherited = json.loads(fh.read())
        os.waitpid(pid, 0)
        assert inherited == ["repro_child_only_total"]
        assert get_metrics().total("repro_child_only_total") == 0
        assert get_metrics().total("repro_parent_only_total") >= 1


class TestRegistryReads:
    def test_total_and_by_label(self):
        registry = MetricsRegistry(max_label_sets=2)
        for backend, n in (("serial", 2), ("thread", 3), ("process", 4)):
            registry.counter(
                "repro_b_total", labels={"backend": backend}
            ).inc(n)
        assert registry.total("repro_b_total") == 9
        assert registry.by_label("repro_b_total", "backend") == {
            "overflow": 4.0, "serial": 2.0, "thread": 3.0,
        }
        assert registry.total("repro_missing_total") == 0
        assert registry.by_label("repro_missing_total", "backend") == {}

    def test_unsanitized_names_still_resolve(self):
        registry = MetricsRegistry()
        a = registry.counter("repro.dotted total")
        assert registry.counter("repro_dotted_total") is a
        assert registry.counter("repro.dotted total") is a


_FLOATS = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestSketchBackedHistogram:
    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(_FLOATS, min_size=1, max_size=1024))
    def test_exact_below_k(self, values):
        hist = MetricsRegistry().histogram("repro_h")
        for value in values:
            hist.observe(value)
        data = np.asarray(values)
        summary = hist.summary()
        p50, p95, p99 = np.percentile(data, [50, 95, 99])
        assert (summary["p50"], summary["p95"], summary["p99"]) == (
            p50, p95, p99,
        )
        assert summary["count"] == len(values)
        assert summary["min"] == data.min()
        assert summary["max"] == data.max()
        assert summary["sum"] == sum(values)
        edges = (-1e5, -1.0, 0.0, 0.5, 1.0, 1e3, 1e5)
        ordered = np.sort(data)
        assert hist.bucket_counts(edges) == [
            (le, int(np.searchsorted(ordered, le, side="right")))
            for le in edges
        ] + [(float("inf"), len(values))]

    def test_memory_stays_o_of_k(self):
        hist = MetricsRegistry().histogram("repro_big_seconds")
        rng = np.random.default_rng(11)
        data = rng.lognormal(0.0, 1.0, size=100_000)
        for value in data:
            hist.observe(value)
        stored = sum(len(level) for level in hist.sketch._levels)
        assert hist.count == 100_000
        assert stored <= 4 * hist.sketch.k
        summary = hist.summary()
        for key, q in (("p50", 50), ("p99", 99)):
            exact = float(np.percentile(data, q))
            assert abs(summary[key] - exact) / exact < 0.01, key
        buckets = hist.bucket_counts()
        counts = [count for _, count in buckets]
        assert counts == sorted(counts)
        assert buckets[-1] == (float("inf"), 100_000)


class TestLabelCardinalityCap:
    def test_cap_folds_into_overflow_instrument(self, caplog):
        registry = MetricsRegistry(max_label_sets=3)
        for i in range(3):
            registry.counter("repro_req_total", labels={"id": str(i)}).inc()
        with caplog.at_level("WARNING", logger="repro"):
            over_a = registry.counter(
                "repro_req_total", labels={"id": "overflow-a"}
            )
            over_b = registry.counter(
                "repro_req_total", labels={"id": "overflow-b"}
            )
        # Both excess combinations share one instrument.
        assert over_a is over_b
        over_a.inc(2)
        assert registry.overflowed_metrics() == {"repro_req_total"}
        text = registry.to_prometheus()
        assert 'repro_req_total{overflow="true"} 2' in text
        # Warned exactly once despite two overflowing label sets.
        warnings = [
            record for record in caplog.records
            if "exceeded 3 label sets" in record.getMessage()
        ]
        assert len(warnings) == 1

    def test_existing_label_sets_unaffected_by_cap(self):
        registry = MetricsRegistry(max_label_sets=2)
        a = registry.counter("repro_x_total", labels={"k": "a"})
        b = registry.counter("repro_x_total", labels={"k": "b"})
        registry.counter("repro_x_total", labels={"k": "c"}).inc()  # folded
        # Pre-cap instruments keep their identity on re-request.
        assert registry.counter("repro_x_total", labels={"k": "a"}) is a
        assert registry.counter("repro_x_total", labels={"k": "b"}) is b

    def test_unlabeled_metrics_never_fold(self):
        registry = MetricsRegistry(max_label_sets=1)
        registry.counter("repro_a_total", labels={"k": "a"})
        registry.counter("repro_plain_total").inc()
        assert registry.overflowed_metrics() == set()

    def test_cap_validation(self):
        with pytest.raises(ValueError):
            MetricsRegistry(max_label_sets=0)

    def test_clear_resets_overflow_state(self):
        registry = MetricsRegistry(max_label_sets=1)
        registry.counter("repro_y_total", labels={"k": "a"})
        registry.counter("repro_y_total", labels={"k": "b"})
        assert registry.overflowed_metrics()
        registry.clear()
        assert registry.overflowed_metrics() == set()
        # Cap counting starts over after clear.
        registry.counter("repro_y_total", labels={"k": "c"})
        assert registry.overflowed_metrics() == set()


class TestNativeHistograms:
    def _registry_with_observations(self, **kwargs):
        registry = MetricsRegistry(**kwargs)
        hist = registry.histogram(
            "repro_latency_seconds", "latency", labels={"op": "map"}
        )
        for value in (0.002, 0.004, 0.02, 0.2, 2.0):
            hist.observe(value)
        return registry

    def test_bucket_counts_cumulative_and_end_with_inf(self):
        registry = self._registry_with_observations()
        hist = registry.histogram(
            "repro_latency_seconds", labels={"op": "map"}
        )
        pairs = hist.bucket_counts(buckets=(0.001, 0.01, 0.1, 1.0))
        assert pairs == [
            (0.001, 0),
            (0.01, 2),
            (0.1, 3),
            (1.0, 4),
            (float("inf"), 5),
        ]
        counts = [count for _, count in pairs]
        assert counts == sorted(counts)

    def test_summary_exposition_is_default(self):
        text = self._registry_with_observations().to_prometheus()
        assert "# TYPE repro_latency_seconds summary" in text
        assert 'quantile="0.5"' in text
        assert "_bucket" not in text

    def test_native_exposition_via_flag(self):
        text = self._registry_with_observations(
            native_histograms=True
        ).to_prometheus()
        assert "# TYPE repro_latency_seconds histogram" in text
        assert 'le="+Inf"' in text
        assert "repro_latency_seconds_bucket{" in text
        assert "repro_latency_seconds_sum" in text
        assert "repro_latency_seconds_count" in text
        assert "quantile=" not in text

    def test_per_render_override_beats_registry_flag(self):
        registry = self._registry_with_observations(native_histograms=True)
        summary_text = registry.to_prometheus(native_histograms=False)
        assert "# TYPE repro_latency_seconds summary" in summary_text
        native_text = registry.to_prometheus(native_histograms=True)
        assert "# TYPE repro_latency_seconds histogram" in native_text

    def test_native_buckets_preserve_original_labels(self):
        text = self._registry_with_observations(
            native_histograms=True
        ).to_prometheus()
        inf_lines = [
            line for line in text.splitlines() if 'le="+Inf"' in line
        ]
        assert inf_lines and all('op="map"' in line for line in inf_lines)
        assert inf_lines[-1].endswith(" 5")
