"""Tests for the classifier zoo: shared contract + per-family behaviours."""

import numpy as np
import pytest

from repro.classifiers import (
    available_classifiers,
    default_params,
    get_classifier,
    param_space,
    sample_params,
)
from repro.classifiers.spaces import CLASSIFIER_PARAM_SPACES, total_parameterizations
from repro.classifiers.tree import best_split
from repro.exceptions import NotFittedError, RegistryError, ValidationError

ALL_CLASSIFIERS = sorted(available_classifiers())


@pytest.fixture(scope="module")
def blobs():
    """Three well-separated gaussian blobs: every classifier should ace this."""
    rng = np.random.default_rng(0)
    centers = np.array([[0.0, 0.0], [6.0, 0.0], [0.0, 6.0]])
    X = np.vstack([c + rng.normal(size=(30, 2)) for c in centers])
    y = np.repeat(["alpha", "beta", "gamma"], 30)
    return X, y


class TestRegistryAndSpaces:
    def test_twelve_families(self):
        assert len(ALL_CLASSIFIERS) == 12

    def test_unknown_classifier_raises(self):
        with pytest.raises(RegistryError):
            get_classifier("nope")

    def test_every_family_has_a_space(self):
        assert set(CLASSIFIER_PARAM_SPACES) == set(ALL_CLASSIFIERS)

    def test_default_params_valid(self):
        for name in ALL_CLASSIFIERS:
            clf = get_classifier(name, **default_params(name))
            assert clf.name == name

    def test_sample_params_in_grid(self):
        for name in ALL_CLASSIFIERS:
            params = sample_params(name, random_state=3)
            space = param_space(name)
            for key, value in params.items():
                assert value in space[key]

    def test_unknown_space_raises(self):
        with pytest.raises(ValidationError):
            param_space("nope")

    def test_search_space_is_large(self):
        # The paper quotes 1650 parameterizations; ours is the same order.
        assert total_parameterizations() > 500


class TestSharedContract:
    @pytest.mark.parametrize("name", ALL_CLASSIFIERS)
    def test_fit_predict_separable(self, name, blobs):
        X, y = blobs
        clf = get_classifier(name, **default_params(name))
        clf.fit(X, y)
        acc = (clf.predict(X) == y).mean()
        assert acc > 0.9, f"{name} scored {acc}"

    @pytest.mark.parametrize("name", ALL_CLASSIFIERS)
    def test_proba_rows_sum_to_one(self, name, blobs):
        X, y = blobs
        clf = get_classifier(name).fit(X, y)
        proba = clf.predict_proba(X)
        assert proba.shape == (X.shape[0], 3)
        assert np.allclose(proba.sum(axis=1), 1.0)
        assert (proba >= 0).all()

    @pytest.mark.parametrize("name", ALL_CLASSIFIERS)
    def test_predict_before_fit_raises(self, name, blobs):
        X, _ = blobs
        with pytest.raises(NotFittedError):
            get_classifier(name).predict(X)

    @pytest.mark.parametrize("name", ALL_CLASSIFIERS)
    def test_labels_stay_in_class_set(self, name, blobs, rng):
        X, y = blobs
        clf = get_classifier(name).fit(X, y)
        noise = rng.normal(scale=20.0, size=(50, 2))
        preds = clf.predict(noise)
        assert set(preds.tolist()).issubset(set(y.tolist()))

    @pytest.mark.parametrize("name", ALL_CLASSIFIERS)
    def test_single_class_training(self, name):
        X = np.random.default_rng(0).normal(size=(10, 3))
        y = np.array(["only"] * 10)
        clf = get_classifier(name).fit(X, y)
        assert (clf.predict(X) == "only").all()

    @pytest.mark.parametrize("name", ALL_CLASSIFIERS)
    def test_clone_is_unfitted_same_params(self, name):
        clf = get_classifier(name, **default_params(name))
        clone = clf.clone()
        assert clone.get_params() == clf.get_params()
        assert clone.classes_ is None

    @pytest.mark.parametrize("name", ALL_CLASSIFIERS)
    def test_mismatched_shapes_raise(self, name):
        with pytest.raises(ValidationError):
            get_classifier(name).fit(np.zeros((5, 2)), np.zeros(4))

    @pytest.mark.parametrize("name", ALL_CLASSIFIERS)
    def test_nan_features_rejected(self, name):
        X = np.array([[1.0, np.nan], [2.0, 3.0]])
        with pytest.raises(ValidationError):
            get_classifier(name).fit(X, np.array([0, 1]))


class TestFamilySpecifics:
    def test_knn_k1_memorizes(self, blobs):
        X, y = blobs
        clf = get_classifier("knn", k=1)
        clf.fit(X, y)
        assert (clf.predict(X) == y).all()

    def test_knn_invalid_weights_raise(self):
        with pytest.raises(ValidationError):
            get_classifier("knn", weights="bogus")

    def test_tree_depth_limits_complexity(self, blobs):
        X, y = blobs
        shallow = get_classifier("decision_tree", max_depth=1).fit(X, y)
        deep = get_classifier("decision_tree", max_depth=10).fit(X, y)
        acc_shallow = (shallow.predict(X) == y).mean()
        acc_deep = (deep.predict(X) == y).mean()
        assert acc_deep >= acc_shallow

    def test_tree_invalid_criterion_raises(self):
        with pytest.raises(ValidationError):
            get_classifier("decision_tree", criterion="mse")

    @pytest.mark.parametrize(
        "name,params",
        [
            (family, {"max_depth": depth})
            for family in (
                "decision_tree", "random_forest", "extra_trees",
                "gradient_boosting", "adaboost",
            )
            for depth in (0, -2)
        ]
        + [
            ("adaboost", {"learning_rate": -1.0}),
            ("adaboost", {"learning_rate": 0.0}),
            ("random_forest", {"max_features": "bogus"}),
            ("extra_trees", {"max_features": "bogus"}),
            ("random_forest", {"max_features": 0}),
            ("extra_trees", {"max_features": 2.5}),
        ],
    )
    def test_tree_ensembles_reject_invalid_params_at_init(self, name, params):
        with pytest.raises(ValidationError):
            get_classifier(name, **params)

    @pytest.mark.parametrize(
        "name",
        ["decision_tree", "random_forest", "extra_trees", "gradient_boosting", "adaboost"],
    )
    def test_tree_families_fit_wide_range_features(self, name):
        # hi - lo overflows a double; Extra-Trees used to raise OverflowError
        # from the threshold draw.
        rng = np.random.default_rng(0)
        X = rng.normal(size=(20, 4))
        X[0, 0], X[1, 0] = 1e308, -1e308
        y = np.arange(20) % 2
        clf = get_classifier(name).fit(X, y)
        assert np.isfinite(clf.predict_proba(X)).all()

    def test_extra_trees_wide_range_threshold_inside_column_range(self):
        X = np.array([[1e308], [-1e308], [0.0], [1.0]])
        rng = np.random.default_rng(3)
        for _ in range(20):
            split = best_split(
                X, np.array([0, 1, 0, 1]), 2, "gini", np.array([0]), 1,
                rng=rng, extra_random=True,
            )
            if split is not None:
                assert -1e308 <= split[1] <= 1e308

    def test_forest_more_trees_more_stable(self, blobs):
        X, y = blobs
        probas = []
        for seed in (0, 1):
            clf = get_classifier("random_forest", n_estimators=40, random_state=seed)
            clf.fit(X, y)
            probas.append(clf.predict_proba(X))
        # Two forests with different seeds agree closely when large enough.
        assert np.abs(probas[0] - probas[1]).mean() < 0.1

    def test_forest_max_features_options(self, blobs):
        X, y = blobs
        for mf in ("sqrt", "log2", "all", 1):
            clf = get_classifier("random_forest", n_estimators=5, max_features=mf)
            clf.fit(X, y)

    def test_gradient_boosting_improves_with_rounds(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(150, 5))
        y = (X[:, 0] * X[:, 1] > 0).astype(int)  # XOR-ish, needs depth
        weak = get_classifier("gradient_boosting", n_estimators=2).fit(X, y)
        strong = get_classifier("gradient_boosting", n_estimators=40).fit(X, y)
        acc_weak = (weak.predict(X) == y).mean()
        acc_strong = (strong.predict(X) == y).mean()
        assert acc_strong > acc_weak

    def test_adaboost_handles_degenerate(self):
        X = np.ones((6, 2))
        y = np.array([0, 1, 0, 1, 0, 1])
        clf = get_classifier("adaboost").fit(X, y)
        assert clf.predict(X).shape == (6,)

    def test_mlp_invalid_hidden_raises(self):
        with pytest.raises(ValidationError):
            get_classifier("mlp", hidden=())
        with pytest.raises(ValidationError):
            get_classifier("mlp", hidden=(4, 4, 4))

    def test_nb_var_smoothing_regularizes(self, blobs):
        X, y = blobs
        clf = get_classifier("gaussian_nb", var_smoothing=1e-1).fit(X, y)
        assert (clf.predict(X) == y).mean() > 0.9

    def test_centroid_shrink_bounds(self):
        with pytest.raises(ValidationError):
            get_classifier("nearest_centroid", shrink=1.0)

    def test_ridge_alpha_effect(self, blobs):
        X, y = blobs
        low = get_classifier("ridge", alpha=0.01).fit(X, y)
        high = get_classifier("ridge", alpha=1000.0).fit(X, y)
        # Heavy regularization flattens scores but predictions stay valid.
        assert set(high.predict(X)).issubset(set(y))
        assert (low.predict(X) == y).mean() > 0.9
