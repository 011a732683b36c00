"""Unit tests for ModelRace (Algorithm 1)."""

import pytest

from repro.core import ModelRace, ModelRaceConfig
from repro.datasets.splits import holdout_split
from repro.exceptions import ValidationError
from repro.pipeline import Pipeline, ScoreWeights, make_seed_pipelines


@pytest.fixture(scope="module")
def race_data(labeled_features):
    X, y = labeled_features
    return holdout_split(X, y, test_ratio=0.3, random_state=0)


FAST_CONFIG = ModelRaceConfig(
    n_partial_sets=2, n_folds=2, max_elite=3, n_children_per_parent=2,
    random_state=0,
)


class TestConfigValidation:
    def test_invalid_partial_sets(self):
        with pytest.raises(ValidationError):
            ModelRaceConfig(n_partial_sets=0)

    def test_invalid_folds(self):
        with pytest.raises(ValidationError):
            ModelRaceConfig(n_folds=1)

    def test_invalid_fraction(self):
        with pytest.raises(ValidationError):
            ModelRaceConfig(initial_fraction=0.0)

    def test_invalid_pvalue(self):
        with pytest.raises(ValidationError):
            ModelRaceConfig(ttest_pvalue=2.0)


class TestRace:
    def test_returns_fitted_elite(self, race_data):
        X_tr, X_te, y_tr, y_te = race_data
        seeds = make_seed_pipelines(["knn", "decision_tree", "gaussian_nb"])
        result = ModelRace(FAST_CONFIG).run(seeds, X_tr, y_tr, X_te, y_te)
        assert 1 <= len(result.elite) <= FAST_CONFIG.max_elite
        for pipeline in result.elite:
            preds = pipeline.predict(X_te)
            assert preds.shape == y_te.shape

    def test_history_records_every_iteration(self, race_data):
        X_tr, X_te, y_tr, y_te = race_data
        seeds = make_seed_pipelines(["knn", "ridge"])
        result = ModelRace(FAST_CONFIG).run(seeds, X_tr, y_tr, X_te, y_te)
        assert len(result.iterations) == FAST_CONFIG.n_partial_sets
        assert result.n_evaluations > 0
        assert result.runtime > 0
        for record in result.iterations:
            assert record.n_elite <= FAST_CONFIG.max_elite

    def test_partial_sets_grow(self, race_data):
        X_tr, X_te, y_tr, y_te = race_data
        seeds = make_seed_pipelines(["knn"])
        result = ModelRace(
            ModelRaceConfig(n_partial_sets=3, n_folds=2, random_state=0)
        ).run(seeds, X_tr, y_tr, X_te, y_te)
        sizes = [r.subset_size for r in result.iterations]
        assert sizes == sorted(sizes)
        assert sizes[-1] == X_tr.shape[0]

    def test_empty_seeds_raise(self, race_data):
        X_tr, X_te, y_tr, y_te = race_data
        with pytest.raises(ValidationError):
            ModelRace(FAST_CONFIG).run([], X_tr, y_tr, X_te, y_te)

    def test_mismatched_xy_raise(self, race_data):
        X_tr, X_te, y_tr, y_te = race_data
        with pytest.raises(ValidationError):
            ModelRace(FAST_CONFIG).run(
                make_seed_pipelines(["knn"]), X_tr, y_tr[:-1], X_te, y_te
            )

    def test_duplicate_family_can_survive(self, race_data):
        """Duplicates are the point (Section VII-D): variations of the same
        classifier may co-exist in the elite."""
        X_tr, X_te, y_tr, y_te = race_data
        seeds = [
            Pipeline("knn", {"k": 1, "weights": "uniform", "p": 2}),
            Pipeline("knn", {"k": 9, "weights": "distance", "p": 2}),
            Pipeline("knn", {"k": 21, "weights": "distance", "p": 1}),
        ]
        config = ModelRaceConfig(
            n_partial_sets=2, n_folds=2, max_elite=3,
            ttest_pvalue=0.999,  # prune only near-identical distributions
            random_state=0,
        )
        result = ModelRace(config).run(seeds, X_tr, y_tr, X_te, y_te)
        families = [p.classifier_name for p in result.elite]
        assert families.count("knn") == len(families)  # all knn variants

    def test_scores_tracked_per_survivor(self, race_data):
        X_tr, X_te, y_tr, y_te = race_data
        seeds = make_seed_pipelines(["knn", "gaussian_nb"])
        result = ModelRace(FAST_CONFIG).run(seeds, X_tr, y_tr, X_te, y_te)
        for pipeline in result.elite:
            assert result.scores[pipeline.config_key()], "survivor has scores"

    def test_deterministic_given_seed(self, race_data):
        # gamma=0 removes the wall-clock term; everything else is seeded.
        X_tr, X_te, y_tr, y_te = race_data
        config = ModelRaceConfig(
            n_partial_sets=2, n_folds=2, max_elite=3,
            weights=ScoreWeights(alpha=0.5, beta=0.25, gamma=0.0),
            random_state=0,
        )
        seeds = make_seed_pipelines(["knn", "ridge"])
        r1 = ModelRace(config).run(seeds, X_tr, y_tr, X_te, y_te)
        r2 = ModelRace(config).run(seeds, X_tr, y_tr, X_te, y_te)
        assert [p.config_key() for p in r1.elite] == [
            p.config_key() for p in r2.elite
        ]

    def test_aggressive_early_termination_still_returns(self, race_data):
        X_tr, X_te, y_tr, y_te = race_data
        config = ModelRaceConfig(
            n_partial_sets=2, n_folds=2, early_termination_margin=0.0,
            random_state=0,
        )
        seeds = make_seed_pipelines(["knn", "decision_tree", "ridge"])
        result = ModelRace(config).run(seeds, X_tr, y_tr, X_te, y_te)
        assert result.elite  # never loses everything

    def test_time_weighted_scoring_runs(self, race_data):
        X_tr, X_te, y_tr, y_te = race_data
        config = ModelRaceConfig(
            n_partial_sets=2, n_folds=2,
            weights=ScoreWeights(alpha=0.5, beta=0.25, gamma=1.5),
            random_state=0,
        )
        result = ModelRace(config).run(
            make_seed_pipelines(["knn", "gaussian_nb"]), X_tr, y_tr, X_te, y_te
        )
        assert result.elite
