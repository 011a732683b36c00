"""Shared fixtures: small deterministic datasets and feature matrices."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import load_category
from repro.features import FeatureExtractor
from repro.timeseries import TimeSeries, TimeSeriesDataset


class StubEngine:
    """What a ServingDaemon reads of its engine, without a model."""

    is_fitted = True
    feature_baseline_ = None
    cluster_atlas_ = None

    def __init__(self):
        from types import SimpleNamespace

        self.extractor = SimpleNamespace(cache=None)


@pytest.fixture
def idle_daemon():
    """Factory of unstarted inline daemons around a :class:`StubEngine`:
    their health document holds only what a test records into the sink
    and the drift detector it passes."""
    from repro.serving import ServingDaemon

    def make(drift_detector=None):
        return ServingDaemon(
            StubEngine(), n_shards=1, shard_backend="inline",
            drift_detector=drift_detector,
        )

    return make


@pytest.fixture
def fresh_metrics():
    """A fresh metrics registry installed for one test: the resilience,
    kernel, backend and series-bank stats all read the installed one."""
    from repro.observability import MetricsRegistry, use_metrics

    with use_metrics(MetricsRegistry()) as registry:
        yield registry


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def sine_series():
    t = np.linspace(0, 4 * np.pi, 200)
    return TimeSeries(np.sin(t), name="sine")


@pytest.fixture
def faulty_series(sine_series):
    values = sine_series.values.copy()
    values[60:80] = np.nan
    return sine_series.with_values(values)


@pytest.fixture(scope="session")
def small_climate_dataset():
    return load_category("Climate", n_series=8, n_datasets=1)[0]


@pytest.fixture(scope="session")
def small_motion_dataset():
    return load_category("Motion", n_series=8, n_datasets=1)[0]


@pytest.fixture(scope="session")
def correlated_matrix(rng):
    """A rank-2 matrix plus noise: ideal for matrix-completion imputers."""
    n, m = 12, 150
    t = np.linspace(0, 4 * np.pi, m)
    basis = np.vstack([np.sin(t), np.cos(0.5 * t)])
    weights = rng.normal(size=(n, 2))
    return weights @ basis + 0.01 * rng.normal(size=(n, m))


@pytest.fixture(scope="session")
def block_mask(correlated_matrix):
    mask = np.zeros_like(correlated_matrix, dtype=bool)
    mask[0, 40:70] = True
    mask[3, 100:120] = True
    return mask


@pytest.fixture(scope="session")
def labeled_features(rng):
    """Synthetic feature/label pairs with learnable class structure."""
    n_per_class = 40
    labels = ["cdrec", "linear", "tkcm"]
    X_parts, y_parts = [], []
    for k, label in enumerate(labels):
        center = np.zeros(12)
        center[k * 3 : k * 3 + 3] = 3.0
        X_parts.append(center + rng.normal(size=(n_per_class, 12)))
        y_parts.extend([label] * n_per_class)
    return np.vstack(X_parts), np.array(y_parts)


@pytest.fixture(scope="session")
def extractor():
    return FeatureExtractor()


@pytest.fixture(scope="session")
def serving_engine():
    """A small fitted A-DARTS engine shared by the serving test suite.

    Two well-separated families (sines -> linear, walks -> mean) with a
    fast race config, so shard workers can refit the pipelines from the
    exported document in well under a second.
    """
    from repro import ADarts, ModelRaceConfig
    from repro.pipeline.scoring import ScoreWeights

    rng = np.random.default_rng(42)
    length = 96
    t = np.linspace(0, 4 * np.pi, length)
    series, labels = [], []
    for i in range(10):
        values = np.sin(t * (1 + 0.05 * i)) + 0.05 * rng.normal(size=length)
        series.append(TimeSeries(values, name=f"sine{i}"))
        labels.append("linear")
    for i in range(10):
        values = 0.5 * np.cumsum(rng.normal(size=length))
        series.append(TimeSeries(values, name=f"walk{i}"))
        labels.append("mean")
    engine = ADarts(
        config=ModelRaceConfig(
            n_partial_sets=2, n_folds=2, max_elite=2, random_state=0,
            weights=ScoreWeights(alpha=0.5, beta=0.25, gamma=0.0),
        ),
        classifier_names=["knn", "decision_tree"],
    )
    X = engine.extractor.extract_many(series)
    engine.fit_features(X, np.array(labels))
    return engine


@pytest.fixture
def tiny_dataset():
    rows = np.vstack(
        [
            np.sin(np.linspace(0, 6.28, 64)) + i * 0.1
            for i in range(5)
        ]
    )
    return TimeSeriesDataset.from_matrix(rows, name="tiny", category="Test")
