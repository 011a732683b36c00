"""Exact parity of the per-row feature kernels with their scalar oracles.

The sublevel interval sweep must return the union-find's pair list, the
grouped diagram statistics the one-diagram statistics' bytes, and the
hoisted trend fits ``np.polyfit``'s coefficients — equality, not a
tolerance, so the feature fingerprint stays valid.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.features.statistical import _trend_block
from repro.features.topological import _sublevel_features_block, _sublevel_pairs
from tests.feature_oracles import _diagram_stats
from tests.feature_oracles import _sublevel_pairs as _union_find_pairs

# Few distinct values, so ties, plateaus and constant rows are common.
_TIED = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 1e-300, -7.0])
_ANY = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
_ROW = st.one_of(
    st.lists(_TIED, min_size=1, max_size=40),
    st.lists(_ANY, min_size=1, max_size=40),
)


def _oracle_pairs(row: list) -> list:
    order = np.argsort(np.asarray(row), kind="stable").tolist()
    return _union_find_pairs(row, order)


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


class TestSublevelSweep:
    @settings(max_examples=300, deadline=None)
    @given(_ROW)
    @example([5.0])
    @example([1.0, 0.0])
    @example([0.0, -0.0, 0.0])
    @example([2.0, 0.0, 2.0])
    @example([1.0, 3.0, 1.0, 3.0, 1.0])
    @example([0.0, 1.0, -0.0, 1.0, 0.0])
    @example([4.0] * 12)
    def test_matches_union_find(self, row):
        order = np.argsort(np.asarray(row), kind="stable").tolist()
        pairs = _sublevel_pairs(row, order)
        expected = _oracle_pairs(row)
        assert pairs == expected
        # ``==`` treats 0.0 and -0.0 alike; the sweep keeps the same zeros.
        assert [tuple(map(_bits, p)) for p in pairs] == [
            tuple(map(_bits, p)) for p in expected
        ]

    def test_younger_minimum_dies_at_each_peak(self):
        # Minima 0, 1 and -1 at positions 0, 2 and 4; the peak 2.0 merges
        # the 1.0 valley into the -1.0 one, the peak 3.0 the 0.0 valley.
        row = [0.0, 3.0, 1.0, 2.0, -1.0]
        order = np.argsort(np.asarray(row), kind="stable").tolist()
        assert _sublevel_pairs(row, order) == [(1.0, 2.0), (0.0, 3.0)]
        assert _sublevel_pairs(row, order) == _oracle_pairs(row)


class TestGroupedDiagramStats:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 24).flatmap(
            lambda length: st.lists(
                st.lists(
                    st.one_of(_TIED, _ANY), min_size=length, max_size=length
                ),
                min_size=1,
                max_size=12,
            )
        )
    )
    @example([[1.0], [2.0]])
    @example([[0.0, 2.0, 0.0, 2.0, 0.0], [1.0, 1.0, 1.0, 1.0, 1.0],
              [0.0, 2.0, 1.0, 2.0, 0.0], [0.0, 1.0, 2.0, 3.0, 4.0]])
    def test_bytes_match_one_diagram_oracle(self, rows):
        matrix = np.asarray(rows, dtype=float)
        block = _sublevel_features_block(matrix)
        for i, row in enumerate(rows):
            pairs = _oracle_pairs(list(map(float, row)))
            diagram = np.asarray(pairs, dtype=float) if pairs else np.empty((0, 2))
            for key, value in _diagram_stats(diagram, "topo_sub").items():
                assert _bits(block[key][i]) == _bits(value), (key, i, row)

    def test_mixed_pair_counts_in_one_batch(self):
        rng = np.random.default_rng(11)
        matrix = np.vstack([
            rng.normal(size=64).cumsum(),  # many pairs
            np.full(64, 3.0),  # none
            np.arange(64.0),  # none (monotone)
            np.tile([0.0, 1.0], 32),  # plateau minima
            rng.normal(size=64),
            rng.normal(size=64).cumsum(),
        ])
        block = _sublevel_features_block(matrix)
        counts = set()
        for i in range(matrix.shape[0]):
            pairs = _oracle_pairs(matrix[i].tolist())
            counts.add(len(pairs))
            diagram = np.asarray(pairs, dtype=float) if pairs else np.empty((0, 2))
            for key, value in _diagram_stats(diagram, "topo_sub").items():
                assert _bits(block[key][i]) == _bits(value), (key, i)
        assert 0 in counts and len(counts) >= 4


def _trend_rows(length: int) -> np.ndarray:
    rng = np.random.default_rng(length)
    t = np.arange(length, dtype=float)
    return np.vstack([
        rng.normal(size=length),
        rng.normal(size=length).cumsum(),
        3.0 * t - 2.0,  # exact linear
        -0.5 * t + 1e6,
        0.25 * t**2 - 3.0 * t + 7.0,  # exact quadratic
        t**2,
        np.sin(t / 3.0),
    ])


class TestTrendFits:
    @pytest.mark.parametrize("length", [3, 4, 5, 17, 96, 256, 300])
    def test_slope_and_curvature_equal_polyfit(self, length):
        X = _trend_rows(length)
        with np.errstate(all="ignore"):
            feats = _trend_block(X)
        t = np.arange(length, dtype=float)
        for i in range(X.shape[0]):
            slope = np.polyfit(t, X[i], 1)[0]
            assert _bits(feats["trend_slope"][i]) == _bits(slope), i
            if length > 3:
                quad = np.polyfit(t, X[i], 2)[0]
                assert _bits(feats["trend_curvature"][i]) == _bits(quad), i

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(3, 64).flatmap(
            lambda length: st.lists(
                st.lists(_ANY, min_size=length, max_size=length),
                min_size=1,
                max_size=5,
            )
        )
    )
    def test_random_rows_equal_polyfit(self, rows):
        X = np.asarray(rows, dtype=float)
        with np.errstate(all="ignore"):
            feats = _trend_block(X)
        t = np.arange(X.shape[1], dtype=float)
        for i in range(X.shape[0]):
            if not X[i].std() > 0:
                assert feats["trend_slope"][i] == 0.0
                continue
            assert _bits(feats["trend_slope"][i]) == _bits(np.polyfit(t, X[i], 1)[0])
            if X.shape[1] > 3:
                quad = np.polyfit(t, X[i], 2)[0]
                assert _bits(feats["trend_curvature"][i]) == _bits(quad)
