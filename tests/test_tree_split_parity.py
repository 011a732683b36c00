"""Exact parity of the vectorised tree code with the scalar oracles.

``best_split`` and the gradient-boosting stumps scan every candidate
feature at once, :func:`grow_forest` grows a forest's trees together
level by level, and :class:`NodeTable` predicts all trees and rows in one
walk.  :mod:`tests.split_oracles` keeps the per-feature loops and the
per-row walks they replaced, and the batched forest must equal
depth-first :func:`build_tree` tree by tree.  Trees, race scores and
elites depend on these bit for bit, so equality here is exact: same
feature, same threshold, same gain, same leaves, same generator state
afterwards.
"""

import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.classifiers import forest as forest_module
from repro.classifiers import tree as tree_module
from repro.classifiers import (
    AdaBoostClassifier,
    DecisionTreeClassifier,
    ExtraTreesClassifier,
    RandomForestClassifier,
)
from repro.classifiers.boosting import regression_stumps
from repro.classifiers.tree import best_split, build_tree
from repro.utils.rng import spawn_rng
from tests.split_oracles import (
    best_split_reference,
    grow_stump_reference,
    node_key,
    stump_predict_reference,
    table_to_nodes,
    table_to_stump_dict,
    tree_predict_proba,
)

# Hypothesis draws the shapes and the structure of each case; numpy fills
# in the values from a drawn seed, which keeps 300 examples fast.
seeds = st.integers(min_value=0, max_value=2**32 - 1)


@st.composite
def feature_matrices(draw):
    """(n, d) matrices with tied values, constant and duplicated columns."""
    n = draw(st.integers(min_value=2, max_value=60))
    d = draw(st.integers(min_value=1, max_value=12))
    rng = np.random.default_rng(draw(seeds))
    if draw(st.booleans()):
        X = rng.integers(-3, 4, size=(n, d)).astype(float)
    else:
        X = rng.normal(size=(n, d)) * draw(st.sampled_from([1e-300, 1.0, 1e6]))
    for j in draw(st.sets(st.integers(min_value=0, max_value=d - 1), max_size=2)):
        X[:, j] = X[0, j]
    if draw(st.booleans()):
        # Copies tie every cut of their source column; negated copies tie
        # it at the mirrored row.
        X = X[:, rng.integers(0, d, size=d)] * rng.choice([1.0, -1.0], size=d)
    return X


@st.composite
def split_cases(draw):
    X = draw(feature_matrices())
    n, d = X.shape
    n_classes = draw(st.integers(min_value=2, max_value=6))
    order = draw(st.permutations(range(d)))
    return dict(
        X=X,
        y=np.random.default_rng(draw(seeds)).integers(0, n_classes, size=n),
        n_classes=n_classes,
        criterion=draw(st.sampled_from(["gini", "entropy"])),
        feature_indices=np.array(order[: draw(st.integers(min_value=1, max_value=d))]),
        min_leaf=draw(st.integers(min_value=1, max_value=5)),
    )


@settings(max_examples=300, deadline=None)
@given(case=split_cases())
def test_best_split_matches_scalar_oracle(case):
    assert best_split(**case) == best_split_reference(**case)


@settings(max_examples=300, deadline=None)
@given(case=split_cases(), seed=seeds)
def test_extra_random_split_matches_oracle_and_rng_state(case, seed):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = best_split(**case, rng=rng, extra_random=True)
    want = best_split_reference(**case, rng=ref_rng, extra_random=True)
    assert got == want
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@settings(max_examples=300, deadline=None)
@given(
    X=feature_matrices(),
    seed=seeds,
    max_depth=st.integers(min_value=1, max_value=4),
    min_leaf=st.integers(min_value=1, max_value=5),
)
def test_regression_stump_matches_scalar_oracle(X, seed, max_depth, min_leaf):
    residual = np.random.default_rng(seed).uniform(-1, 1, size=X.shape[0])
    stump = regression_stumps(X, residual[:, None], max_depth, min_leaf)
    reference = grow_stump_reference(X, residual, max_depth, min_leaf)
    assert table_to_stump_dict(stump, stump.roots[0]) == reference
    assert np.array_equal(
        stump.predict(X)[0, :, 0], stump_predict_reference(reference, X)
    )


# Two adjacent doubles whose midpoint rounds up to the larger one: the
# threshold then sends every row left and the right child is empty.
_TIGHT = np.array([[1.0 + 2**-52], [1.0 + 2**-51]] * 3)


@st.composite
def forest_cases(draw):
    X = draw(feature_matrices())
    n_classes = draw(st.integers(min_value=2, max_value=6))
    return dict(
        X=X,
        y=np.random.default_rng(draw(seeds)).integers(0, n_classes, size=X.shape[0]),
        n_estimators=draw(st.integers(min_value=1, max_value=50)),
        max_depth=draw(st.integers(min_value=1, max_value=12)),
        min_samples_leaf=draw(st.integers(min_value=1, max_value=5)),
        criterion=draw(st.sampled_from(["gini", "entropy"])),
    )


@settings(max_examples=150, deadline=None)
@given(case=forest_cases(), seed=seeds, level_bytes=st.sampled_from([1, 4 << 20]))
@example(
    case=dict(X=_TIGHT, y=np.array([0, 1] * 3), n_estimators=3, max_depth=4,
              min_samples_leaf=1, criterion="gini"),
    seed=0, level_bytes=4 << 20,
)
def test_batched_forest_matches_per_tree_build(case, seed, level_bytes):
    """Every batched tree equals build_tree on its bootstrap, generators included.

    ``level_bytes=1`` grows each tree alone and scans one (node, feature)
    run per block, so the chunk and block seams are covered too.
    """
    X, y = case["X"], case["y"]
    n, d = X.shape
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    spawned = []

    def spy(parent, count):
        spawned.extend(spawn_rng(parent, count))
        return spawned

    params = {k: v for k, v in case.items() if k not in ("X", "y")}
    with mock.patch.object(forest_module, "spawn_rng", spy), \
            mock.patch.object(tree_module, "_LEVEL_BYTES", level_bytes):
        forest = RandomForestClassifier(
            max_features="all", random_state=rng, **params
        ).fit(X, y)
    y_enc = np.unique(y, return_inverse=True)[1]
    k = int(y_enc.max()) + 1
    trees = forest._trees
    for t, child in enumerate(spawn_rng(ref_rng, case["n_estimators"])):
        idx = child.integers(0, n, size=n)
        reference = build_tree(
            X[idx], y_enc[idx], k, case["max_depth"], 2,
            case["min_samples_leaf"], case["criterion"], max_features=d, rng=child,
        )
        assert node_key(table_to_nodes(trees, trees.roots[t])) == node_key(
            table_to_nodes(reference, reference.roots[0])
        )
        assert spawned[t].bit_generator.state == child.bit_generator.state
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@settings(max_examples=100, deadline=None)
@given(X=feature_matrices(), seed=seeds)
def test_table_predict_matches_linked_node_walk(X, seed):
    """The level-wise walk equals the per-row walk of every tree it holds."""
    n = X.shape[0]
    y = np.random.default_rng(seed).integers(0, 3, size=n)
    # Training rows hit thresholds' neighbours; reversed, halved rows
    # fall in between.
    X_test = np.vstack([X, X[::-1] * 0.5])
    models = [
        RandomForestClassifier(n_estimators=5, max_features="all", random_state=seed),
        RandomForestClassifier(n_estimators=5, max_features="log2", random_state=seed),
        ExtraTreesClassifier(n_estimators=5, random_state=seed),
        DecisionTreeClassifier(max_depth=6),
        AdaBoostClassifier(n_estimators=5, random_state=seed),
    ]
    for model in models:
        model.fit(X, y)
        table = model._trees if hasattr(model, "_trees") else model._tree
        k = model.n_classes_
        walks = [
            tree_predict_proba(table_to_nodes(table, root), X_test, k)
            for root in table.roots
        ]
        assert np.array_equal(table.predict(X_test), np.array(walks).reshape(-1, len(X_test), k))
        if isinstance(model, RandomForestClassifier | ExtraTreesClassifier):
            acc = np.zeros((len(X_test), k))
            for walk in walks:
                acc += walk
            assert np.array_equal(model._predict_proba(X_test), acc / len(walks))


def test_level_scratch_stays_under_cap():
    """50 trees on 2,000 rows x 56 features grow in chunks under the cap.

    Grown together, the root level alone would hold 50 x 56 x ~1,260
    distinct bootstrap rows = 3.5M items; one tree's level fits.
    """
    rng = np.random.default_rng(0)
    X = rng.normal(size=(2000, 56))
    y = rng.integers(0, 5, size=2000)
    grow = tree_module._grow_level_wise
    peaks = []

    def measured(*args):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        table = grow(*args)
        peaks.append(tracemalloc.get_traced_memory()[1] - before)
        return table

    tracemalloc.start()
    try:
        with mock.patch.object(tree_module, "_grow_level_wise", measured):
            RandomForestClassifier(
                n_estimators=50, max_depth=1, max_features="all", random_state=0
            ).fit(X, y)
    finally:
        tracemalloc.stop()
    assert len(peaks) > 1
    assert max(peaks) < tree_module._LEVEL_BYTES
