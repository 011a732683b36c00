"""Exact parity of the feature kernels with their oracles.

The sublevel interval sweep must return the union-find's pair list, the
grouped diagram statistics the one-diagram statistics' bytes, the
hoisted trend fits ``np.polyfit``'s coefficients, and both fused block
kernels the bytes of the family kernels they replaced (kept in
``tests/feature_oracles.py``) — equality, not a tolerance, so the
feature fingerprint stays valid.  Run with ``HYPOTHESIS_PROFILE=deep``
for about ten times the examples.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.features import topological
from repro.features.statistical import statistical_features_block
from repro.features.topological import (
    _mst_edge_lengths_block,
    _sublevel_features_block,
    _sublevel_pairs,
    topological_features_block,
)
from tests.feature_oracles import (
    _diagram_stats,
    _mst_edge_lengths,
    statistical_block_oracle,
    topological_block_oracle,
)
from tests.feature_oracles import _mst_edge_lengths_block as _lockstep_prim
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
        feats = statistical_features_block(X)
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
        feats = statistical_features_block(X)
        t = np.arange(X.shape[1], dtype=float)
        for i in range(X.shape[0]):
            if not X[i].std() > 0:
                assert feats["trend_slope"][i] == 0.0
                continue
            assert _bits(feats["trend_slope"][i]) == _bits(np.polyfit(t, X[i], 1)[0])
            if X.shape[1] > 3:
                quad = np.polyfit(t, X[i], 2)[0]
                assert _bits(feats["trend_curvature"][i]) == _bits(quad)


# ---------------------------------------------------------------------------
# Fused block kernels against the family kernels they replaced
# ---------------------------------------------------------------------------

_KINDS = (
    "walk", "noise", "plateau", "tied", "constant", "linear", "quadratic",
    "extreme", "huge", "tiny",
)


def _kind_row(kind: str, length: int, rng, scale: float) -> np.ndarray:
    """One row of ``kind``: the shapes every degenerate-input guard meets."""
    t = np.arange(length, dtype=float)
    if kind == "walk":
        return rng.normal(size=length).cumsum() * scale
    if kind == "noise":
        return rng.normal(size=length) * scale
    if kind == "plateau":  # runs of equal values
        width = int(rng.integers(1, 12))
        steps = np.round(rng.normal(size=length // width + 1) * scale)
        return np.repeat(steps, width)[:length]
    if kind == "tied":
        return rng.choice([0.0, -0.0, 1.0, -1.0, 2.5, -7.0], size=length)
    if kind == "constant":
        return np.full(length, rng.choice([0.0, -0.0, 2.5, -1e100, 1e100]))
    if kind == "linear":  # exact: the residual spectrum is numerically zero
        return float(rng.integers(-5, 6)) * t + float(rng.integers(-9, 10))
    if kind == "quadratic":
        return 0.25 * float(rng.integers(-4, 5)) * t**2 - 3.0 * t + 7.0
    if kind == "extreme":
        return rng.choice([1e100, -1e100, 0.0, -0.0], size=length)
    if kind == "huge":  # sums overflow: the median of two of these is inf
        return rng.choice([1.5e308, 1e308, -1e308], size=length)
    return np.sin(t / 3.0) * 1e-300  # tiny: squares underflow


@st.composite
def _blocks(draw, max_rows: int = 6) -> np.ndarray:
    length = draw(st.integers(1, 300))
    kinds = draw(st.lists(st.sampled_from(_KINDS), min_size=1, max_size=max_rows))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1.0, 1e-3, 1e6]))
    return np.vstack([_kind_row(kind, length, rng, scale) for kind in kinds])


def _sweep_block(length: int) -> np.ndarray:
    """Every kind at one length, in one block."""
    rng = np.random.default_rng(length)
    return np.vstack([_kind_row(kind, length, rng, 1.0) for kind in _KINDS])


def _assert_same_bytes(block: dict, oracle: dict) -> None:
    assert list(block) == list(oracle)
    for name, column in oracle.items():
        assert block[name].tobytes() == column.tobytes(), name


_EDGE_BLOCKS = [
    np.array([[5.0]]),
    np.array([[0.0, -0.0]]),
    np.array([[1e100, -1e100, 0.0, -0.0, 1e100]]),
    np.array([[1e308, 1.5e308, 1e308, 1.7e308, 2.0, 1.5e308]]),
    np.zeros((3, 17)),
    np.vstack([np.arange(96.0), np.arange(96.0) ** 2, np.full(96, -0.0)]),
]


class TestFusedStatisticalBlock:
    @settings(deadline=None)
    @given(_blocks())
    def test_bytes_match_family_kernels(self, X):
        block = statistical_features_block(X)
        _assert_same_bytes(block, statistical_block_oracle(X))
        alone = statistical_features_block(X[-1:])
        assert [col[-1] for col in block.values()] == [
            col[0] for col in alone.values()
        ]

    @pytest.mark.parametrize("X", _EDGE_BLOCKS, ids=lambda X: f"{X.shape}")
    def test_edge_blocks(self, X):
        _assert_same_bytes(statistical_features_block(X), statistical_block_oracle(X))

    def test_every_length_to_300(self):
        for length in range(1, 301):
            X = _sweep_block(length)
            _assert_same_bytes(
                statistical_features_block(X), statistical_block_oracle(X)
            )

    def test_bank_periodogram_memo_keeps_bytes(self):
        X = _sweep_block(96)
        memo: dict = {}

        def cache(key, build):
            if key not in memo:
                memo[key] = build()
            return memo[key]

        first = statistical_features_block(X, cache=cache)
        assert list(memo) == [("stat_rfft_sq", 96)]
        _assert_same_bytes(first, statistical_block_oracle(X))
        _assert_same_bytes(statistical_features_block(X, cache=cache), first)


class TestFusedTopologicalBlock:
    @settings(deadline=None)
    @given(_blocks(max_rows=4))
    def test_bytes_match_oracle(self, X):
        _assert_same_bytes(topological_features_block(X), topological_block_oracle(X))

    @pytest.mark.parametrize("X", _EDGE_BLOCKS, ids=lambda X: f"{X.shape}")
    def test_edge_blocks(self, X):
        _assert_same_bytes(topological_features_block(X), topological_block_oracle(X))

    @pytest.mark.parametrize("length", [1, 4, 5, 6, 7, 40, 96, 131, 132, 133, 300])
    def test_lengths_around_the_embedding_limits(self, length):
        X = _sweep_block(length)
        _assert_same_bytes(topological_features_block(X), topological_block_oracle(X))

    @pytest.mark.parametrize("length", [2, 7, 96, 300])
    def test_overflowing_rows_warn_nothing(self, length):
        """Rows whose moments overflow give NaN/inf features quietly,
        with the oracle's bytes, and the extractor zeroes them."""
        import warnings

        from repro.features.extractor import FeatureExtractor

        rng = np.random.default_rng(length)
        X = np.vstack([_kind_row("huge", length, rng, 1.0) for _ in range(3)])
        X[1] = _EDGE_BLOCKS[3][0, np.arange(length) % 6]
        with np.errstate(all="ignore"):
            oracle = topological_block_oracle(X)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            block = topological_features_block(X)
        _assert_same_bytes(block, oracle)
        with np.errstate(all="ignore"):
            rows = FeatureExtractor().extract_block(X)
        assert np.isfinite(rows).all()

    def test_one_row_chunks_equal_multi_row_chunks(self, monkeypatch):
        X = np.vstack([_sweep_block(96), -_sweep_block(97)[::-1, 1:]])
        chunked = topological_features_block(X)  # one multi-row chunk
        monkeypatch.setattr(topological, "_MST_CHUNK_BYTES", 1)
        stepped = topological_features_block(X)  # one-row chunks
        _assert_same_bytes(stepped, chunked)
        _assert_same_bytes(chunked, topological_block_oracle(X))


@st.composite
def _clouds(draw) -> np.ndarray:
    """Point clouds on a coarse grid: duplicate points (zero distances)
    and equal distances are common."""
    batch = draw(st.integers(1, 5))
    n_points = draw(st.integers(1, 40))
    dim = draw(st.integers(1, 3))
    coords = draw(
        st.lists(
            st.integers(-2, 2), min_size=batch * n_points * dim,
            max_size=batch * n_points * dim,
        )
    )
    return np.asarray(coords, dtype=float).reshape(batch, n_points, dim) * 0.5


def _squared_distances(clouds: np.ndarray) -> np.ndarray:
    sq = np.zeros((clouds.shape[0], clouds.shape[1], clouds.shape[1]))
    for k in range(clouds.shape[2]):
        diff = clouds[:, :, None, k] - clouds[:, None, :, k]
        sq += diff * diff
    return sq


class TestPrimSteps:
    @settings(deadline=None)
    @given(_clouds())
    @example(np.zeros((2, 6, 3)))  # every point the same
    @example(np.array([[[0.0], [1.0], [0.0], [1.0], [2.0]]]))
    def test_one_and_many_row_chunks_give_oracle_edges(self, clouds):
        sq = _squared_distances(clouds)
        expected = _lockstep_prim(sq.copy())
        many = _mst_edge_lengths_block(sq.copy())
        assert many.tobytes() == expected.tobytes()
        for i in range(clouds.shape[0]):
            one = _mst_edge_lengths_block(sq[i : i + 1].copy())
            assert one.shape == (1, max(0, clouds.shape[1] - 1))
            assert one[0].tobytes() == expected[i].tobytes()
            assert one[0].tobytes() == _mst_edge_lengths(clouds[i]).tobytes()

    def test_non_finite_distances_keep_the_lockstep_bytes(self):
        # NaN distances tie with nothing, so the plain steps would pick a
        # different vertex order; one-entry stacks with any non-finite
        # distance take the lockstep steps.
        sq = np.array([
            [0.0, 0.0, np.nan, 1.0],
            [0.0, 0.0, 1.0, 2.0],
            [np.nan, 1.0, 0.0, 1.0],
            [1.0, 2.0, 1.0, 0.0],
        ])[None]
        expected = _lockstep_prim(sq.copy())
        with np.errstate(invalid="ignore"):
            got = _mst_edge_lengths_block(sq.copy())
        assert got.tobytes() == expected.tobytes()
