"""Unit tests for the per-row statistical feature oracle.

The block kernels are held to these functions by ``test_features_block``,
so what they assert about the features holds for the extractor too.
"""

import numpy as np
import pytest

from repro.features import STATISTICAL_FEATURE_NAMES
from repro.timeseries import TimeSeries
from tests.feature_oracles import (
    canonical_features,
    dependency_features,
    statistical_features,
    trend_features,
)


@pytest.fixture
def sine():
    return np.sin(np.linspace(0, 8 * np.pi, 256))


@pytest.fixture
def noise():
    return np.random.default_rng(0).normal(size=256)


class TestCanonical:
    def test_keys_and_finiteness(self, sine):
        feats = canonical_features(sine)
        assert all(k.startswith("canon_") for k in feats)
        assert all(np.isfinite(v) for v in feats.values())

    def test_mean_and_std(self):
        feats = canonical_features(np.array([1.0, 2.0, 3.0, 4.0]))
        assert feats["canon_mean"] == pytest.approx(2.5)
        assert feats["canon_std"] == pytest.approx(np.std([1, 2, 3, 4]))

    def test_constant_series_degenerates_gracefully(self):
        feats = canonical_features(np.full(50, 3.0))
        assert feats["canon_std"] == 0.0
        assert feats["canon_skew"] == 0.0
        assert all(np.isfinite(v) for v in feats.values())

    def test_symmetric_above_mean_ratio(self, sine):
        assert canonical_features(sine)["canon_above_mean_ratio"] == pytest.approx(
            0.5, abs=0.05
        )


class TestDependencies:
    def test_sine_has_high_lag1_acf(self, sine):
        assert dependency_features(sine)["dep_acf_lag1"] > 0.95

    def test_noise_has_low_acf(self, noise):
        feats = dependency_features(noise)
        assert abs(feats["dep_acf_lag1"]) < 0.2

    def test_acf_first_zero_tracks_period(self):
        fast = np.sin(np.linspace(0, 32 * np.pi, 512))
        slow = np.sin(np.linspace(0, 4 * np.pi, 512))
        f_fast = dependency_features(fast)["dep_acf_first_zero"]
        f_slow = dependency_features(slow)["dep_acf_first_zero"]
        assert 0 < f_fast < f_slow

    def test_finiteness_on_constant(self):
        feats = dependency_features(np.full(64, 1.0))
        assert all(np.isfinite(v) for v in feats.values())


class TestTrends:
    def test_linear_trend_detected(self):
        feats = trend_features(np.arange(100, dtype=float))
        assert feats["trend_slope"] == pytest.approx(1.0)
        assert feats["trend_r2"] == pytest.approx(1.0)

    def test_no_trend_low_r2(self, noise):
        assert trend_features(noise)["trend_r2"] < 0.1

    def test_spectral_entropy_separates_pure_tone_from_noise(self, sine, noise):
        tone = trend_features(sine)["trend_spectral_entropy"]
        broadband = trend_features(noise)["trend_spectral_entropy"]
        assert tone < 0.5 < broadband

    def test_seasonality_strength_on_weekly(self):
        t = np.arange(210)
        weekly = np.sin(2 * np.pi * t / 7.0)
        assert trend_features(weekly)["trend_seasonality_strength"] > 0.9

    def test_level_shift_detection(self):
        stepped = np.concatenate([np.zeros(100), np.full(100, 5.0)])
        flat = np.zeros(200)
        assert (
            trend_features(stepped)["trend_level_shift"]
            > trend_features(flat)["trend_level_shift"]
        )


class TestCombined:
    def test_statistical_features_count_matches_names(self, sine):
        feats = statistical_features(sine)
        assert tuple(feats.keys()) == STATISTICAL_FEATURE_NAMES
        assert len(feats) == 40

    def test_accepts_timeseries_with_missing(self, sine):
        vals = sine.copy()
        vals[20:40] = np.nan
        feats = statistical_features(TimeSeries(vals))
        assert all(np.isfinite(v) for v in feats.values())

    def test_deterministic(self, sine):
        assert statistical_features(sine) == statistical_features(sine)
