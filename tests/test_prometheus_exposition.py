"""Exposition-validity tests for every Prometheus text export path.

A hand-rolled parser (regex-free tokenizer for the Prometheus text
format: ``name{label="value",...} float``) validates that every line of
``MetricsRegistry.to_prometheus`` and ``HealthSnapshot.to_prometheus``
parses, that no series is emitted twice, that label escaping
round-trips through the parser, and that counters are monotone across
two successive snapshots.
"""

import math

import numpy as np
import pytest

from repro.observability.metrics import (
    MetricsRegistry,
    _escape_label_value,
    build_info,
)


def _unescape(value: str) -> str:
    out = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\":
            nxt = value[i + 1]
            out.append({"\\": "\\", '"': '"', "n": "\n"}[nxt])
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def parse_exposition(text: str) -> dict:
    """Parse Prometheus text format into ``{(name, labels): value}``.

    Raises ``ValueError`` on any malformed line, duplicated series, or
    ``# TYPE``/``# HELP`` header for a name that never appears.
    """
    series: dict = {}
    headers: dict = {}
    for line_no, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                raise ValueError(f"line {line_no}: malformed comment {line!r}")
            if parts[1] == "TYPE" and parts[3] not in (
                "counter", "gauge", "histogram", "summary", "untyped",
            ):
                raise ValueError(f"line {line_no}: bad type {parts[3]!r}")
            headers.setdefault(parts[2], set()).add(parts[1])
            continue
        # sample line: name[{labels}] value
        brace = line.find("{")
        labels: tuple = ()
        if brace != -1:
            close = line.rfind("}")
            if close == -1:
                raise ValueError(f"line {line_no}: unclosed label braces")
            name = line[:brace]
            body, rest = line[brace + 1: close], line[close + 1:]
            labels = tuple(sorted(_parse_labels(body, line_no)))
        else:
            name, _, rest = line.partition(" ")
        name = name.strip()
        if not name or not all(
            c.isalnum() or c in "_:" for c in name
        ) or name[0].isdigit():
            raise ValueError(f"line {line_no}: bad metric name {name!r}")
        fields = rest.strip().split()
        if not fields:
            raise ValueError(f"line {line_no}: sample without a value")
        value = fields[0]
        parsed = float(value)  # raises on malformed numbers
        if math.isnan(parsed) and value not in ("NaN", "nan"):
            raise ValueError(f"line {line_no}: bad value {value!r}")
        key = (name, labels)
        if key in series:
            raise ValueError(f"line {line_no}: duplicate series {key}")
        series[key] = parsed
    return series


def _parse_labels(body: str, line_no: int) -> list:
    pairs = []
    i = 0
    while i < len(body):
        eq = body.find("=", i)
        if eq == -1 or body[eq + 1] != '"':
            raise ValueError(f"line {line_no}: malformed labels {body!r}")
        label_name = body[i:eq].strip().lstrip(",").strip()
        j = eq + 2
        raw = []
        while j < len(body):
            ch = body[j]
            if ch == "\\":
                raw.append(body[j: j + 2])
                j += 2
                continue
            if ch == '"':
                break
            raw.append(ch)
            j += 1
        else:
            raise ValueError(f"line {line_no}: unterminated label value")
        pairs.append((label_name, _unescape("".join(raw))))
        i = j + 1
    return pairs


def _snapshot(daemon):
    return daemon.health()


@pytest.fixture()
def daemon(idle_daemon):
    return idle_daemon()


class TestEscaping:
    @pytest.mark.parametrize(
        "value",
        [
            "plain",
            'quo"ted',
            "back\\slash",
            "new\nline",
            'all\\of"them\ntogether',
            "",
        ],
    )
    def test_label_escaping_round_trips(self, value):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", "x", labels={"key": value}).inc()
        series = parse_exposition(registry.to_prometheus())
        labelled = {
            labels: v
            for (name, labels), v in series.items()
            if name == "repro_x_total"
        }
        assert labelled == {(("key", value),): 1.0}

    def test_escape_order_backslash_first(self):
        # Escaping the backslash last would corrupt pre-escaped quotes.
        assert _escape_label_value('a\\"b') == 'a\\\\\\"b'
        assert _unescape(_escape_label_value('a\\"b')) == 'a\\"b'

    def test_registry_exposition_is_valid(self):
        registry = MetricsRegistry()
        registry.counter("repro_events_total", "events").inc(3)
        registry.gauge("repro_depth", "depth").set(2.5)
        registry.histogram("repro_wait_seconds", "wait").observe(0.1)
        series = parse_exposition(registry.to_prometheus())
        assert ("repro_events_total", ()) in series

    def test_build_info_present_in_registry_export(self):
        registry = MetricsRegistry()
        registry.counter("repro_events_total", "events").inc()
        series = parse_exposition(registry.to_prometheus())
        rows = [key for key in series if key[0] == "repro_build_info"]
        assert len(rows) == 1
        labels = dict(rows[0][1])
        assert set(labels) == {"version", "git_sha"}
        assert labels["version"] == build_info()["version"]
        assert series[rows[0]] == 1.0


class TestHealthSnapshotExposition:
    def test_every_line_parses_no_duplicates(self, daemon):
        daemon.slo_tracker.record_request(0.01, check=False)
        daemon.slo_tracker.record_series(
            0.01, slices=("imputer:cdrec",), check=False
        )
        daemon.slo_tracker.evaluate()
        text = _snapshot(daemon).to_prometheus()
        series = parse_exposition(text)  # raises on any violation
        names = {name for name, _ in series}
        for expected in (
            "repro_build_info",
            "repro_slo_events_total",
            "repro_slo_alerts_total",
            "repro_slo_burn_rate_fast",
            "repro_slo_burn_rate_slow",
            "repro_slo_budget_remaining",
            "repro_slo_alerting",
            "repro_process_rss_bytes",
            "repro_process_rss_hwm_bytes",
            "repro_serving_latency_seconds",
        ):
            assert expected in names, f"missing series {expected}"

    def test_counters_monotone_across_snapshots(self, daemon):
        counter_names = (
            "repro_serving_requests_total",
            "repro_slo_events_total",
            "repro_slo_alerts_total",
            "repro_kernel_calls_total",
            "repro_kernel_bytes_moved_total",
            "repro_backend_decisions_total",
        )

        def counters(text):
            return {
                key: value
                for key, value in parse_exposition(text).items()
                if key[0] in counter_names
            }

        daemon.slo_tracker.record_series(0.01, check=False)
        first = counters(_snapshot(daemon).to_prometheus())
        # More traffic plus a kernel call in between.
        from repro.timeseries.batch import SeriesBank

        bank = SeriesBank(np.random.default_rng(0).normal(size=(4, 32)))
        bank.corr_matrix()
        for _ in range(5):
            daemon.slo_tracker.record_series(0.01, check=False)
        second = counters(_snapshot(daemon).to_prometheus())
        assert second[("repro_slo_events_total", ())] > \
            first[("repro_slo_events_total", ())]
        for key, value in first.items():
            assert second.get(key, 0.0) >= value, f"counter {key} regressed"

    def test_sketch_quantiles_exported(self, daemon):
        for value in (0.01, 0.02, 0.03):
            daemon.slo_tracker.record_request(value, check=False)
        series = parse_exposition(_snapshot(daemon).to_prometheus())
        stats = {
            dict(labels)["stat"]: value
            for (name, labels), value in series.items()
            if name == "repro_serving_latency_seconds"
        }
        assert {"p50", "p95", "p99", "mean"} <= set(stats)
        sketch = daemon.slo_tracker.request_latency
        assert stats["p50"] == pytest.approx(sketch.quantile(0.5)) == 0.02
        assert stats["p99"] == pytest.approx(sketch.quantile(0.99))

    def test_build_info_emitted_once(self, daemon):
        text = _snapshot(daemon).to_prometheus()
        rows = [
            line for line in text.splitlines()
            if line.startswith("repro_build_info{")
        ]
        assert len(rows) == 1

    def test_parser_rejects_garbage(self):
        for bad in (
            "no_value_metric",
            'unclosed{key="x" 1.0',
            "repro_x{} not_a_number",
            "# BADCOMMENT x y",
            "repro_x 1\nrepro_x 2",
        ):
            with pytest.raises(ValueError):
                parse_exposition(bad)


class TestHealthSnapshotGolden:
    def test_fixed_document_renders_golden_text(self, monkeypatch):
        """A fixed health document (every section, a ``None`` cache, a
        list-valued section, an active SLO alert) renders byte for byte
        the text committed next to it."""
        import json
        import pathlib

        from repro.observability import metrics
        from repro.observability.serving import HealthSnapshot

        data = pathlib.Path(__file__).parent / "data"
        monkeypatch.setattr(
            metrics, "_BUILD_INFO", {"version": "1.0.0", "git_sha": "0000000"}
        )
        doc = json.loads((data / "health_snapshot.json").read_text())
        golden = (data / "health_snapshot.prom").read_text()
        assert HealthSnapshot(**doc).to_prometheus() == golden
