"""Exact parity of the vectorised split searches with the scalar oracles.

``best_split`` and the gradient-boosting stump scan every candidate
feature at once; :mod:`tests.split_oracles` keeps the per-feature loops
they replaced.  Trees, race scores and elites depend on these splits
bit for bit, so equality here is exact: same feature, same threshold,
same gain, same generator state afterwards.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.classifiers.boosting import _RegressionStump
from repro.classifiers.tree import best_split
from tests.split_oracles import best_split_reference, grow_stump_reference

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
    stump = _RegressionStump(max_depth, min_leaf).fit(X, residual)
    reference = _RegressionStump(max_depth, min_leaf)
    reference._root = grow_stump_reference(X, residual, max_depth, min_leaf)
    assert stump._root == reference._root
    assert np.array_equal(stump.predict(X), reference.predict(X))
