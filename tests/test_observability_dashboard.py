"""Tests for the ``repro top`` renderer."""

import json

import numpy as np
import pytest

from repro.observability import DriftDetector, FeatureBaseline
from repro.observability.dashboard import (
    human_bytes,
    load_snapshot,
    render_top,
)
from repro.serving import ServingDaemon
from tests.conftest import StubEngine


def _fired_drift_section():
    """The drift section of a real snapshot whose detector fired."""
    rng = np.random.default_rng(0)
    baseline = FeatureBaseline.from_matrix(rng.normal(size=(200, 3)))
    detector = DriftDetector(baseline, window_size=32, min_samples=8)
    detector.update(50.0 + rng.normal(size=(32, 3)))
    daemon = ServingDaemon(
        StubEngine(), shard_backend="inline", drift_detector=detector
    )
    return daemon.health().as_dict()["drift"]


def _snapshot_dict():
    return {
        "generated_at": "2026-01-01T00:00:00+00:00",
        "uptime_s": 10.0,
        "n_requests": 20,
        "n_series": 40,
        "latency": {
            "count": 20, "p50": 0.004, "p95": 0.006, "p99": 0.0065,
            "max": 0.007,
        },
        "slo": {
            "n_events": 40,
            "n_alerts": 1,
            "latency_sketch": {"p50": 0.002, "p99": 0.003},
            "policies": [
                {
                    "policy": "latency_p99",
                    "objective": "p99 latency <= 1000ms over 5m/60m",
                    "fast_burn": 20.0,
                    "slow_burn": 8.0,
                    "budget_remaining": 0.25,
                    "alerting": True,
                },
                {
                    "policy": "error_rate",
                    "objective": "error rate <= 1.000% over 5m/60m",
                    "fast_burn": 0.0,
                    "slow_burn": 0.0,
                    "budget_remaining": 1.0,
                    "alerting": False,
                },
            ],
            "slices": {
                "imputer:cdrec": {
                    "n": 30, "errors": 2, "p99": 0.004,
                    "bad": {"latency_p99": 5},
                },
            },
        },
        "resources": {
            "process": {
                "rss_bytes": 100 * 1024 * 1024,
                "hwm_bytes": 120 * 1024 * 1024,
            },
            "accounts": {
                "series_bank": {
                    "bytes": 2048, "peak_bytes": 4096, "items": 3,
                },
            },
            "kernels": {
                "ncc_cross": {
                    "calls": 4, "bytes_moved": 1 << 20,
                    "chunks": 8, "scratch_allocations": 8,
                },
            },
        },
        "backends": {
            "serial": {"batches": 9, "tasks": 40, "seconds": 0.2},
            "process": {"batches": 1, "tasks": 8, "seconds": 0.1},
        },
        "caches": {
            "feature_cache": {
                "hits": 30, "misses": 10, "hit_rate": 0.75, "bytes": 512,
            },
            "score_memo": None,
        },
        "recommendation_mix": {"fractions": {"cdrec": 0.8, "linear": 0.2}},
        "alerts": {"slo_alerts": 1, "drift_alerts": 0},
        "drift": _fired_drift_section(),
        "build": {"version": "1.0.0", "git_sha": "abc1234"},
    }


class TestRenderTop:
    def test_full_snapshot_renders_all_sections(self):
        frame = render_top(_snapshot_dict())
        assert "repro top — v1.0.0 @ abc1234" in frame
        assert "latency_p99" in frame and "ALERT" in frame
        assert "error_rate" in frame and "ok" in frame
        assert "slice imputer:cdrec" in frame
        assert "100.0 MiB" in frame  # rss
        assert "ncc_cross" in frame and "1.0 MiB" in frame
        assert "backend decisions: process=1  serial=9" in frame
        assert "hit rate" in frame and "75.0%" in frame
        assert "mix: cdrec 80%" in frame
        assert "slo_alerts=1" in frame
        # default rendering is color-free (CI artifacts stay clean)
        assert "\x1b[" not in frame

    def test_drift_line_reads_the_report(self):
        snapshot = _snapshot_dict()
        report = snapshot["drift"]["report"]
        assert report["triggered"] is True
        frame = render_top(snapshot)
        assert (
            f"drift: psi {report['max_psi']:.3f}  "
            f"ks {report['max_ks']:.3f}  alerting True"
        ) in frame

    def test_older_sketch_keys_still_render(self):
        # Exports before the single sink kept lifetime quantiles in
        # ``sketch_p50``/``sketch_p99`` beside rolling-window values.
        frame = render_top(
            {"latency": {"p50": 0.004, "p99": 0.0065,
                         "sketch_p50": 0.0041, "sketch_p99": 0.0066}}
        )
        assert "4.1ms" in frame and "6.6ms" in frame
        assert "4.0ms" not in frame

    def test_color_mode_emits_ansi(self):
        frame = render_top(_snapshot_dict(), color=True)
        assert "\x1b[31m" in frame  # the alerting policy is red

    def test_degrades_on_minimal_snapshot(self):
        frame = render_top({})
        assert "slo tracking disabled" in frame
        assert "alerts: none" in frame

    def test_pre_slo_schema_snapshot_renders(self):
        # Old exports (before the SLO plane) must still render.
        frame = render_top(
            {
                "generated_at": "x",
                "uptime_s": 1.0,
                "n_requests": 1,
                "n_series": 1,
                "latency": {"p50": 0.001, "p95": 0.002, "p99": 0.003},
            }
        )
        assert "1.0ms" in frame

    def test_human_bytes(self):
        assert human_bytes(0) == "0 B"
        assert human_bytes(512) == "512 B"
        assert human_bytes(1536) == "1.5 KiB"
        assert human_bytes(3 * 1024 * 1024) == "3.0 MiB"
        assert human_bytes(None) == "0 B"

    def test_load_snapshot_round_trip(self, tmp_path):
        path = tmp_path / "health.json"
        path.write_text(json.dumps(_snapshot_dict()))
        assert load_snapshot(path)["n_requests"] == 20

    def test_load_snapshot_rejects_non_document(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValueError):
            load_snapshot(path)
