"""Unit tests for the per-row topological (persistence) feature oracle."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.features import TOPOLOGICAL_FEATURE_NAMES
from tests.feature_oracles import (
    delay_embedding,
    persistence_diagram,
    topological_features,
)


@pytest.fixture
def sine():
    return np.sin(np.linspace(0, 8 * np.pi, 256))


class TestDelayEmbedding:
    def test_shape(self, sine):
        cloud = delay_embedding(sine, dimension=3, delay=2)
        assert cloud.shape == (256 - 4, 3)

    def test_content(self):
        x = np.arange(10, dtype=float)
        cloud = delay_embedding(x, dimension=2, delay=3)
        assert cloud[0].tolist() == [0.0, 3.0]
        assert cloud[-1].tolist() == [6.0, 9.0]

    def test_too_short_raises(self):
        with pytest.raises(ValidationError):
            delay_embedding(np.arange(4, dtype=float), dimension=3, delay=2)

    def test_invalid_params_raise(self, sine):
        with pytest.raises(ValidationError):
            delay_embedding(sine, dimension=0)
        with pytest.raises(ValidationError):
            delay_embedding(sine, delay=0)


class TestSublevelPersistence:
    def test_single_minimum_no_pairs(self):
        # A V-shape has one minimum: only the essential component (excluded).
        x = np.abs(np.linspace(-1, 1, 51))
        diagram = persistence_diagram(x, kind="sublevel")
        assert diagram.shape[0] == 0

    def test_two_minima_one_pair(self):
        # W-shape: two valleys; the shallower dies when they merge.
        t = np.linspace(0, 2 * np.pi, 101)
        x = np.cos(2 * t) + 0.3 * np.cos(t)
        diagram = persistence_diagram(x, kind="sublevel")
        assert diagram.shape[0] == 1
        birth, death = diagram[0]
        assert death > birth

    def test_n_periods_give_n_minus_1_pairs(self):
        # k full periods of a cosine have k interior minima (the endpoints
        # are maxima, so no boundary minimum) -> k-1 finite pairs.
        x = np.cos(np.linspace(0, 6 * 2 * np.pi, 600))
        diagram = persistence_diagram(x, kind="sublevel")
        assert diagram.shape[0] == 5

    def test_births_below_deaths(self, sine):
        diagram = persistence_diagram(sine, kind="sublevel")
        assert (diagram[:, 1] >= diagram[:, 0]).all()

    def test_order_sensitivity(self):
        # Permuting values changes the sublevel diagram — the property that
        # makes topological features complement time-agnostic statistics.
        rng = np.random.default_rng(0)
        x = np.sin(np.linspace(0, 8 * np.pi, 128))
        shuffled = rng.permutation(x)
        d1 = persistence_diagram(x, kind="sublevel")
        d2 = persistence_diagram(shuffled, kind="sublevel")
        assert d1.shape != d2.shape or not np.allclose(d1, d2)


class TestRipsPersistence:
    def test_births_are_zero(self, sine):
        diagram = persistence_diagram(sine, kind="rips")
        assert (diagram[:, 0] == 0).all()
        assert (diagram[:, 1] >= 0).all()

    def test_pair_count_is_points_minus_one(self):
        x = np.sin(np.linspace(0, 4 * np.pi, 60))
        diagram = persistence_diagram(x, kind="rips", dimension=2, delay=1)
        n_points = 60 - 1
        assert diagram.shape[0] == n_points - 1

    def test_subsampling_cap(self, sine):
        diagram = persistence_diagram(sine, kind="rips", max_points=32)
        assert diagram.shape[0] == 31

    def test_unknown_kind_raises(self, sine):
        with pytest.raises(ValidationError):
            persistence_diagram(sine, kind="nope")


class TestTopologicalFeatures:
    def test_names_and_count(self, sine):
        feats = topological_features(sine)
        assert tuple(feats.keys()) == TOPOLOGICAL_FEATURE_NAMES
        assert len(feats) == 16

    def test_finiteness_on_degenerate_input(self):
        feats = topological_features(np.full(8, 2.0))
        assert all(np.isfinite(v) for v in feats.values())

    def test_periodic_vs_noise_differ(self, sine):
        noise = np.random.default_rng(0).normal(size=256)
        f_sine = topological_features(sine)
        f_noise = topological_features(noise)
        assert f_sine["topo_sub_count"] < f_noise["topo_sub_count"]

    def test_scale_invariance(self, sine):
        # Features are computed on the z-normalized series.
        f1 = topological_features(sine)
        f2 = topological_features(100.0 + 50.0 * sine)
        for key in f1:
            assert f1[key] == pytest.approx(f2[key], abs=1e-9)
