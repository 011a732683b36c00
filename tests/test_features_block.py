"""Parity tests for the blockwise feature kernels.

The contract: every feature computed by the blockwise kernels
(``statistical_features_block`` / ``topological_features_block`` /
``FeatureExtractor.extract_block``) matches the per-series oracles in
``tests/feature_oracles.py`` to 1e-9 on the corresponding row, including
the degenerate-input guards (constant rows, too-short series, zero
spectra); and a series' vector does not depend on the batch it is
extracted in.
"""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats as sps

from repro.exceptions import ValidationError
from repro.features.extractor import FeatureExtractor
from repro.features.statistical import (
    STATISTICAL_FEATURE_NAMES,
    _skew_kurtosis,
    statistical_features_block,
)
from repro.features.topological import (
    _MST_CHUNK_BYTES,
    TOPOLOGICAL_FEATURE_NAMES,
    _mst_edge_lengths_block,
    topological_features_block,
)
from repro.parallel import FeatureCache
from repro.timeseries.batch import SeriesBank, bank_cache_stats
from repro.timeseries.patterns import missing_pattern_features
from repro.timeseries.series import TimeSeries
from tests.feature_oracles import (
    _mst_edge_lengths,
    statistical_features,
    topological_features,
)


def _mixed_matrix(rng, n, length):
    """Random walks plus the degenerate rows every guard must handle."""
    matrix = np.vstack([rng.normal(size=length).cumsum() for _ in range(n)])
    matrix[0] = 2.5  # constant
    matrix[1] = 0.0  # all-zero
    if n > 3:
        matrix[2] = np.sin(np.linspace(0, 12.56, length)) * 5 + 1
        matrix[3] = np.arange(length, dtype=float)  # exact linear trend
    return matrix


class TestStatisticalBlock:
    @pytest.mark.parametrize("length", [4, 5, 16, 64, 256])
    def test_matches_scalar_per_row(self, length):
        rng = np.random.default_rng(length)
        matrix = _mixed_matrix(rng, 6, length)
        block = statistical_features_block(matrix)
        assert tuple(block.keys()) == STATISTICAL_FEATURE_NAMES
        for i, row in enumerate(matrix):
            scalar = statistical_features(row.copy())
            for name in STATISTICAL_FEATURE_NAMES:
                assert block[name][i] == pytest.approx(
                    scalar[name], rel=1e-9, abs=1e-9
                ), (name, i, length)

    def test_single_sample_rows(self):
        matrix = np.array([[3.0], [0.0], [-1.5]])
        block = statistical_features_block(matrix)
        for i, row in enumerate(matrix):
            scalar = statistical_features(row.copy())
            for name in STATISTICAL_FEATURE_NAMES:
                assert block[name][i] == pytest.approx(scalar[name], abs=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ValidationError):
            statistical_features_block(np.ones(8))  # 1-D
        with pytest.raises(ValidationError):
            statistical_features_block(np.empty((0, 4)))
        with pytest.raises(ValidationError):
            statistical_features_block(np.array([[1.0, np.nan]]))

    def test_all_outputs_finite(self):
        rng = np.random.default_rng(0)
        matrix = _mixed_matrix(rng, 8, 32) * 1e150  # provoke overflow paths
        block = statistical_features_block(matrix)
        for name, col in block.items():
            assert np.isfinite(col).all(), name

    def test_skew_kurtosis_match_scipy(self):
        rng = np.random.default_rng(11)
        rows = np.vstack([
            rng.normal(size=(3, 64)).cumsum(axis=1),
            rng.exponential(size=(2, 64)),
            np.full((1, 64), 3.0),  # constant
            1.0 + np.linspace(0, 1e-12, 64)[None, :],  # near-constant
            1e100 * rng.choice([-1.0, 1.0], size=(1, 64)),
            np.where(np.arange(64) % 3, 1e100, -1e100)[None, :],
        ])
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            skew, kurtosis = _skew_kurtosis(rows, rows.mean(axis=1))
            np.testing.assert_allclose(
                skew, sps.skew(rows, axis=1), rtol=1e-12, atol=1e-12,
                equal_nan=True,
            )
            np.testing.assert_allclose(
                kurtosis, sps.kurtosis(rows, axis=1), rtol=1e-12, atol=1e-12,
                equal_nan=True,
            )


class TestTopologicalBlock:
    @pytest.mark.parametrize("length", [6, 16, 64, 300])
    def test_matches_scalar_per_row(self, length):
        rng = np.random.default_rng(length)
        matrix = _mixed_matrix(rng, 5, length)
        block = topological_features_block(matrix)
        assert tuple(block.keys()) == TOPOLOGICAL_FEATURE_NAMES
        for i, row in enumerate(matrix):
            scalar = topological_features(row.copy())
            for name in TOPOLOGICAL_FEATURE_NAMES:
                assert block[name][i] == pytest.approx(
                    scalar[name], rel=1e-9, abs=1e-9
                ), (name, i, length)

    def test_too_short_for_embedding_zeroes_rips(self):
        matrix = np.random.default_rng(0).normal(size=(3, 4))
        block = topological_features_block(matrix)  # n_vectors < 2
        for name in TOPOLOGICAL_FEATURE_NAMES:
            if name.startswith("topo_rips"):
                assert np.all(block[name] == 0.0)
        scalar = topological_features(matrix[0].copy())
        for name in TOPOLOGICAL_FEATURE_NAMES:
            assert block[name][0] == pytest.approx(scalar[name], abs=1e-12)

    def test_lockstep_mst_matches_dense_prim(self):
        rng = np.random.default_rng(3)
        clouds = rng.normal(size=(7, 20, 3))
        sq = ((clouds[:, :, None, :] - clouds[:, None, :, :]) ** 2).sum(axis=3)
        batch = _mst_edge_lengths_block(sq)
        for i in range(clouds.shape[0]):
            np.testing.assert_array_equal(batch[i], _mst_edge_lengths(clouds[i]))

    def test_scratch_peak_within_cap(self):
        matrix = np.random.default_rng(4).normal(size=(256, 256)).cumsum(axis=1)
        tracemalloc.start()
        try:
            topological_features_block(matrix)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= _MST_CHUNK_BYTES, f"peak {peak / 2**20:.1f} MiB"


class TestExtractorBlock:
    def test_bank_extraction_matches_scalar(self):
        rng = np.random.default_rng(5)
        bank = SeriesBank(_mixed_matrix(rng, 6, 96))
        fx = FeatureExtractor()
        matrix = fx.extract_many(bank)
        assert matrix.shape == (bank.n, fx.n_features)
        reference = np.vstack([fx.extract(bank.raw[i]) for i in range(bank.n)])
        np.testing.assert_allclose(matrix, reference, rtol=1e-9, atol=1e-9)

    def test_batched_list_matches_serial_with_mixed_lengths(self):
        rng = np.random.default_rng(6)
        series = []
        for i in range(9):
            values = rng.normal(size=64 if i % 2 else 100).cumsum()
            if i % 3 == 0:
                values[4:9] = np.nan  # interpolated before stacking
            series.append(TimeSeries(values, name=f"s{i}"))
        fx = FeatureExtractor()
        batched = fx.extract_many(series)
        oracle = np.vstack([
            [
                {**statistical_features(s), **topological_features(s)}[name]
                for name in fx.feature_names
            ]
            for s in series
        ])
        np.testing.assert_allclose(batched, oracle, rtol=1e-9, atol=1e-9)

    def test_block_rejects_missing_pattern_family(self):
        fx = FeatureExtractor(use_missing_pattern=True)
        with pytest.raises(ValidationError):
            fx.extract_block(np.ones((2, 32)))
        # A list runs the block kernels; miss_* come from the raw series.
        values = np.arange(32.0)
        values[5:9] = np.nan
        series = [TimeSeries(values), TimeSeries(np.arange(32.0) ** 1.5)]
        out = fx.extract_many(series)
        n_base = FeatureExtractor().n_features
        np.testing.assert_array_equal(
            out[:, :n_base], FeatureExtractor().extract_many(series)
        )
        for row, s in zip(out, series):
            miss = missing_pattern_features(s)
            assert list(row[n_base:]) == [miss[n] for n in fx.feature_names[n_base:]]
        assert out[0, fx.feature_names.index("miss_ratio")] > 0

    def test_compute_dtype_validated_and_fingerprinted(self):
        # The float32 block mode and the extraction fan-out are gone:
        # float64 is the only compute dtype, and the fingerprint names
        # the block-kernel schema.
        with pytest.raises(TypeError):
            FeatureExtractor(compute_dtype="float32")
        with pytest.raises(TypeError):
            FeatureExtractor(parallel=None)
        fingerprint = FeatureExtractor().fingerprint
        assert fingerprint[0] == "fx2"
        assert all("compute_dtype" not in str(part) for part in fingerprint)

    def test_bank_cache_hits_counted_and_surfaced(self, fresh_metrics):
        rng = np.random.default_rng(8)
        bank = SeriesBank(_mixed_matrix(rng, 5, 64))
        fx = FeatureExtractor()
        first = fx.extract_many(bank)
        assert bank_cache_stats()["misses"] >= 1
        second = fx.extract_many(bank)
        stats = bank_cache_stats()
        assert stats["hits"] >= 1
        assert 0.0 < stats["hit_rate"] <= 1.0
        np.testing.assert_array_equal(first, second)

    def test_health_snapshot_reports_series_bank_cache(self, idle_daemon):
        snapshot = idle_daemon().health()
        assert "series_bank" in snapshot.caches
        assert set(snapshot.caches["series_bank"]) == {
            "hits", "misses", "hit_rate",
        }


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestExtractorScratch:
    def test_list_scratch_does_not_grow_with_batch(self):
        """Large lists run in bounded row blocks: four times the series
        must not take anywhere near four times the scratch.  Statistical
        features only: the MST scratch has its own cap, tested above."""
        rng = np.random.default_rng(9)
        series = [rng.normal(size=256).cumsum() for _ in range(512)]
        fx = FeatureExtractor(use_topological=False)
        small = _traced_peak(lambda: fx.extract_many(series[:128]))
        large = _traced_peak(lambda: fx.extract_many(series))
        assert large < 2 * small, (small, large)


class TestExtractorInputs:
    def test_inf_without_nan_raises(self):
        values = np.array([1.0, 2.0, np.inf, 3.0, 4.0, 5.0, 6.0, 7.0])
        with pytest.raises(ValidationError, match="infinite"):
            FeatureExtractor().extract(values)

    def test_inf_with_nan_raises(self):
        values = np.array([1.0, 2.0, np.inf, 3.0, np.nan, 5.0, 6.0, 7.0])
        with pytest.raises(ValidationError, match="infinite"):
            FeatureExtractor().extract(values)

    def test_inf_in_a_batch_raises(self):
        good = np.arange(16.0)
        bad = good.copy()
        bad[3] = -np.inf
        with pytest.raises(ValidationError, match="infinite"):
            FeatureExtractor().extract_many([good, bad])


_series = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(min_value=4, max_value=130),
    elements=st.floats(
        min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
    ),
)


class TestBatchIndependence:
    """A series' vector is the same bytes alone, inside any batch, and
    through ``extract`` — the serving daemon batches requests differently
    from ``ADarts.repair_many``, and their outputs must agree."""

    @settings(max_examples=15, deadline=None)
    @given(
        series=st.lists(_series, min_size=1, max_size=6),
        gaps=st.lists(st.booleans(), min_size=6, max_size=6),
        data=st.data(),
    )
    def test_vector_does_not_depend_on_batch(self, series, gaps, data):
        series = [
            np.where(np.arange(s.size) % 3 == 1, np.nan, s) if gap else s
            for s, gap in zip(series, gaps)
        ]
        dups = data.draw(
            st.lists(st.sampled_from(range(len(series))), max_size=4)
        )
        batch = data.draw(st.permutations(series + [series[i] for i in dups]))
        for cache in (None, FeatureCache()):
            fx = FeatureExtractor(cache=cache)
            matrix = fx.extract_many(batch)
            for row, s in zip(matrix, batch):
                alone = FeatureExtractor().extract_many([s])[0]
                assert row.tobytes() == alone.tobytes()
                assert fx.extract(s).tobytes() == alone.tobytes()
