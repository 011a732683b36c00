"""Clustering and label propagation for cheap dataset labeling (Section VI)."""

from repro.clustering.atlas import ClusterAtlas
from repro.clustering.incremental import (
    IncrementalClustering,
    correlation_gain,
)
from repro.clustering.kshape import KShape, kshape_grid_search, kshape_iterative
from repro.clustering.labeling import ClusterLabeler, LabeledCorpus

__all__ = [
    "ClusterAtlas",
    "IncrementalClustering",
    "correlation_gain",
    "KShape",
    "kshape_grid_search",
    "kshape_iterative",
    "ClusterLabeler",
    "LabeledCorpus",
]
