"""Shared fixtures for the experiment benchmarks.

Every bench reproduces one table/figure of the paper (see DESIGN.md's
per-experiment index).  Expensive artifacts — labeled corpora, extracted
features, per-system evaluations — are session-scoped so the suite builds
them once.  Results print to stdout (run with ``-s`` to see them live) and
are appended to ``.bench_build/bench/results.txt`` at the repository root,
which git ignores.  The committed ``benchmarks/results.txt`` is a frozen
record of earlier runs and is no longer written.
"""

from __future__ import annotations

import pathlib

import numpy as np
import pytest

from repro import ADarts, ModelRaceConfig
from repro.baselines import (
    AutoFolioSelector,
    FLAMLSelector,
    RAHASelector,
    TuneSelector,
)
from repro.clustering.labeling import ClusterLabeler
from repro.datasets import CATEGORIES, holdout_split, load_category
from repro.features import FeatureExtractor
from repro.pipeline.metrics import classification_report

RESULTS_PATH = (
    pathlib.Path(__file__).resolve().parent.parent / ".bench_build" / "bench" / "results.txt"
)

#: Imputation slate raced during labeling (one per family, fast members).
BENCH_SLATE = ("linear", "knn", "svdimp", "stmvl", "tkcm")

#: Classifier families seeded into every race (fast-training members).
BENCH_CLASSIFIERS = (
    "knn", "decision_tree", "extra_trees", "random_forest", "gaussian_nb",
    "ridge", "softmax", "nearest_centroid", "linear_svm",
)

BENCH_CONFIG = ModelRaceConfig(
    n_partial_sets=3, n_folds=3, max_elite=5, n_children_per_parent=3,
    random_state=0,
)


def emit(title: str, lines: list[str]) -> None:
    """Print a result block and append it to :data:`RESULTS_PATH`."""
    block = "\n".join([f"== {title} ==", *lines, ""])
    print("\n" + block)
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    with RESULTS_PATH.open("a") as fh:
        fh.write(block + "\n")


#: Varying block sizes per the paper's protocol — diversifies labels.
BENCH_RATIOS = (0.05, 0.15, 0.3)


@pytest.fixture(scope="session")
def category_corpora():
    """LabeledCorpus per category (the miniature 107-dataset archive)."""
    labeler = ClusterLabeler(
        imputer_names=BENCH_SLATE, missing_ratio=BENCH_RATIOS,
        tie_epsilon=0.05, random_state=0,
    )
    corpora = {}
    for category in CATEGORIES:
        datasets = load_category(category, n_series=16, n_datasets=3)
        corpora[category] = labeler.label_corpus(datasets)
    return corpora


@pytest.fixture(scope="session")
def category_features(category_corpora):
    """(X, y) per category under the default (stat+topo) extractor."""
    extractor = FeatureExtractor()
    features = {}
    for category, corpus in category_corpora.items():
        X = extractor.extract_many(corpus.series)
        features[category] = (X, np.asarray(corpus.labels))
    return features


def make_system(name: str):
    """Factory for the five compared systems, bench-scaled."""
    if name == "A-DARTS":
        return ADarts(
            config=BENCH_CONFIG, classifier_names=list(BENCH_CLASSIFIERS),
            random_state=0,
        )
    if name == "FLAML":
        return FLAMLSelector(
            n_rounds=16,
            families=("knn", "decision_tree", "extra_trees", "softmax"),
            random_state=0,
        )
    if name == "Tune":
        return TuneSelector(family="decision_tree", n_configs=12, random_state=0)
    if name == "AutoFolio":
        return AutoFolioSelector(
            family="knn", n_seeds=3, n_perturbations=4, random_state=0
        )
    if name == "RAHA":
        return RAHASelector(n_clusters=4, random_state=0)
    raise ValueError(f"unknown system {name!r}")


SYSTEMS = ("RAHA", "AutoFolio", "Tune", "FLAML", "A-DARTS")


def evaluate_system(name: str, X, y, seed: int = 0) -> dict[str, float]:
    """65/35 holdout evaluation of one system on one category."""
    X_tr, X_te, y_tr, y_te = holdout_split(
        X, y, test_ratio=0.35, random_state=seed
    )
    system = make_system(name)
    if name == "A-DARTS":
        system.fit_features(X_tr, y_tr)
        y_pred = system.predict(X_te)
        rankings = system.predict_rankings(X_te)
    else:
        system.fit(X_tr, y_tr)
        y_pred = system.predict(X_te)
        rankings = system.predict_rankings(X_te) if system.supports_ranking else None
    return classification_report(y_te, y_pred, rankings)


def evaluate_system_repeated(
    name: str, X, y, n_repeats: int = 3
) -> dict[str, float]:
    """Average metrics over several holdout seeds (reduces split noise)."""
    import numpy as _np

    reports = [evaluate_system(name, X, y, seed=s) for s in range(n_repeats)]
    keys = set().union(*(r.keys() for r in reports))
    return {
        k: float(_np.mean([r[k] for r in reports if k in r])) for k in keys
    }


@pytest.fixture(scope="session")
def system_results(category_features):
    """Metrics per (category, system) — shared by Fig. 7 and Table III."""
    results: dict[str, dict[str, dict[str, float]]] = {}
    for category, (X, y) in category_features.items():
        results[category] = {}
        for system in SYSTEMS:
            results[category][system] = evaluate_system_repeated(system, X, y)
    return results
