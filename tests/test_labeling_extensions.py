"""Tests for labeler extensions: varying ratios, tip patterns, tie handling,
clustering templates."""

import numpy as np
import pytest

from repro.clustering.incremental import IncrementalClustering
from repro.clustering.labeling import ClusterLabeler
from repro.exceptions import ValidationError
from repro.timeseries.patterns import detect_missing_pattern


class TestVaryingRatios:
    def test_multiple_ratios_multiply_samples(self, small_climate_dataset):
        labeler = ClusterLabeler(
            imputer_names=("linear", "mean"),
            missing_ratio=(0.1, 0.25),
            random_state=0,
        )
        corpus = labeler.label_dataset(small_climate_dataset)
        assert len(corpus) == 2 * len(small_climate_dataset)

    def test_ratio_values_respected(self, small_climate_dataset):
        labeler = ClusterLabeler(
            imputer_names=("linear",), missing_ratio=(0.1, 0.3), random_state=0
        )
        corpus = labeler.label_dataset(small_climate_dataset)
        ratios = sorted({round(s.missing_ratio, 1) for s in corpus.series})
        assert ratios == [0.1, 0.3]

    def test_scalar_ratio_still_works(self, small_climate_dataset):
        labeler = ClusterLabeler(
            imputer_names=("linear",), missing_ratio=0.2, random_state=0
        )
        corpus = labeler.label_dataset(small_climate_dataset)
        assert len(corpus) == len(small_climate_dataset)
        assert labeler.missing_ratio == 0.2

    def test_invalid_ratio_in_sequence_raises(self):
        with pytest.raises(ValidationError):
            ClusterLabeler(missing_ratio=(0.1, 1.5))


class TestPatterns:
    def test_tip_pattern_produces_tip_blocks(self, small_climate_dataset):
        labeler = ClusterLabeler(
            imputer_names=("linear", "mean"),
            patterns=("tip",),
            random_state=0,
        )
        corpus = labeler.label_dataset(small_climate_dataset)
        kinds = {detect_missing_pattern(s).kind for s in corpus.series}
        assert kinds == {"tip_block"}

    def test_mixed_patterns_double_samples(self, small_climate_dataset):
        labeler = ClusterLabeler(
            imputer_names=("linear", "mean"),
            patterns=("block", "tip"),
            random_state=0,
        )
        corpus = labeler.label_dataset(small_climate_dataset)
        assert len(corpus) == 2 * len(small_climate_dataset)
        kinds = {detect_missing_pattern(s).kind for s in corpus.series}
        assert "tip_block" in kinds
        assert kinds - {"tip_block"}  # interior blocks present too

    def test_invalid_pattern_raises(self):
        with pytest.raises(ValidationError):
            ClusterLabeler(patterns=("diagonal",))

    def test_empty_patterns_raise(self):
        with pytest.raises(ValidationError):
            ClusterLabeler(patterns=())


class TestTieHandling:
    def test_negative_epsilon_raises(self):
        with pytest.raises(ValidationError):
            ClusterLabeler(tie_epsilon=-0.1)

    def test_tie_collapses_to_preference_order(self):
        labeler = ClusterLabeler(
            imputer_names=("linear", "knn", "mean"), tie_epsilon=0.5
        )
        ranked = [("knn", 1.00), ("linear", 1.01), ("mean", 9.0)]
        resolved = labeler._resolve_ties(ranked)
        # linear precedes knn in the preference order and is within 50%.
        assert resolved[0] == "linear"
        assert resolved[-1] == "mean"

    def test_no_tie_keeps_ranking(self):
        labeler = ClusterLabeler(
            imputer_names=("linear", "knn"), tie_epsilon=0.05
        )
        ranked = [("knn", 1.0), ("linear", 2.0)]
        assert labeler._resolve_ties(ranked) == ["knn", "linear"]

    def test_zero_epsilon_disables(self):
        labeler = ClusterLabeler(imputer_names=("linear", "knn"), tie_epsilon=0.0)
        ranked = [("knn", 1.0), ("linear", 1.0)]
        assert labeler._resolve_ties(ranked) == ["knn", "linear"]

    def test_infinite_best_score_untouched(self):
        labeler = ClusterLabeler(
            imputer_names=("linear", "knn"), tie_epsilon=0.1
        )
        ranked = [("knn", float("inf")), ("linear", float("inf"))]
        assert labeler._resolve_ties(ranked) == ["knn", "linear"]

    def test_tie_epsilon_reduces_label_entropy(self, small_motion_dataset):
        noisy = ClusterLabeler(
            imputer_names=("linear", "knn", "stmvl"),
            missing_ratio=(0.1, 0.2),
            tie_epsilon=0.0,
            random_state=0,
        ).label_dataset(small_motion_dataset)
        clean = ClusterLabeler(
            imputer_names=("linear", "knn", "stmvl"),
            missing_ratio=(0.1, 0.2),
            tie_epsilon=0.2,
            random_state=0,
        ).label_dataset(small_motion_dataset)

        def entropy(labels):
            _, counts = np.unique(labels, return_counts=True)
            p = counts / counts.sum()
            return float(-(p * np.log(p)).sum())

        assert entropy(clean.labels) <= entropy(noisy.labels) + 1e-9


class TestClusteringTemplate:
    def test_template_parameters_forwarded(self):
        template = IncrementalClustering(
            delta=0.6, split_ratio=0.3, min_cluster_size=2, random_state=7
        )
        clustering = ClusterLabeler(clustering=template)._make_clustering()
        assert type(clustering) is IncrementalClustering
        assert clustering is not template
        assert clustering.delta == 0.6
        assert clustering.split_ratio == 0.3
        assert clustering.min_cluster_size == 2
        assert clustering.random_state == 7
