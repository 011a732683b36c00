"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.features import FeatureExtractor, get_scaler
from repro.imputation import get_imputer
from repro.pipeline.metrics import (
    accuracy_score,
    mean_reciprocal_rank,
    recall_at_k,
    weighted_precision_recall_f1,
)
from repro.forecasting import smape
from repro.timeseries import TimeSeries, inject_missing_block
from repro.timeseries.correlation import cross_correlation, max_cross_correlation
from tests.feature_oracles import persistence_diagram


finite_series = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(min_value=16, max_value=128),
    elements=st.floats(
        min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
    ),
)

# Magnitudes below 1e-6 are snapped to zero: denormal-scale values make
# float absorption (x + 1.0 == 1.0) defeat exact-equality properties
# without exercising any library behaviour.
small_series = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(min_value=32, max_value=96),
    elements=st.floats(min_value=-100, max_value=100, allow_nan=False).map(
        lambda v: 0.0 if abs(v) < 1e-6 else v
    ),
)


class TestTimeSeriesProperties:
    @given(values=finite_series)
    def test_zscore_idempotent_scale(self, values):
        from hypothesis import assume

        ts = TimeSeries(values)
        z = ts.zscore()
        assert len(z) == len(ts)
        # Near-constant inputs (std at float-noise level) are numerically
        # degenerate; idempotence only makes sense away from them.
        assume(values.std() > 1e-6 * (np.abs(values).max() + 1.0))
        assert abs(z.values.mean()) < 1e-6
        zz = z.zscore()
        assert np.allclose(z.values, zz.values, atol=1e-6)

    @given(values=finite_series, ratio=st.floats(min_value=0.05, max_value=0.5))
    def test_injection_then_interpolation_restores_completeness(self, values, ratio):
        ts = TimeSeries(values)
        faulty, spec = inject_missing_block(ts, ratio=ratio, random_state=0)
        assert faulty.n_missing == spec.length
        restored = faulty.interpolated()
        assert not restored.has_missing
        # Observed values unchanged.
        obs = ~faulty.mask
        assert np.array_equal(restored.values[obs], values[obs])

    @given(values=small_series)
    def test_missing_blocks_partition_mask(self, values):
        vals = values.copy()
        vals[5:9] = np.nan
        vals[20:21] = np.nan
        ts = TimeSeries(vals)
        total = sum(length for _, length in ts.missing_blocks())
        assert total == ts.n_missing


class TestCorrelationProperties:
    @given(values=small_series)
    def test_self_correlation_bounds(self, values):
        c = cross_correlation(values, values)
        assert -1.0 - 1e-9 <= c <= 1.0 + 1e-9
        if values.std() > 1e-6:
            assert c == pytest.approx(1.0, abs=1e-6)

    @given(values=small_series, shift=st.integers(min_value=0, max_value=10))
    def test_max_cross_correlation_dominates_plain(self, values, shift):
        other = np.roll(values, shift)
        assert (
            max_cross_correlation(values, other)
            >= cross_correlation(values, other) - 1e-9
        )


class TestImputationProperties:
    @settings(max_examples=20, deadline=None)
    @given(values=small_series, start=st.integers(min_value=2, max_value=20))
    def test_linear_imputer_never_exceeds_anchor_range(self, values, start):
        # Linear interpolation output is a convex combination of anchors.
        vals = values.copy()
        stop = min(start + 6, len(vals) - 2)
        if stop <= start:
            return
        vals[start:stop] = np.nan
        out = get_imputer("linear").impute(vals[None, :])[0]
        lo, hi = np.nanmin(values), np.nanmax(values)
        assert out.min() >= lo - 1e-9
        assert out.max() <= hi + 1e-9

    @settings(max_examples=15, deadline=None)
    @given(values=small_series)
    def test_mean_imputer_constant_inside_gap(self, values):
        vals = values.copy()
        vals[10:16] = np.nan
        out = get_imputer("mean").impute(vals[None, :])[0]
        gap = out[10:16]
        assert np.allclose(gap, gap[0])


class TestMetricProperties:
    labels = st.lists(
        st.sampled_from(["a", "b", "c"]), min_size=2, max_size=30
    )

    @given(y=labels)
    def test_perfect_prediction_all_ones(self, y):
        p, r, f = weighted_precision_recall_f1(y, list(y))
        assert p == pytest.approx(1.0)
        assert r == pytest.approx(1.0)
        assert f == pytest.approx(1.0)
        assert accuracy_score(y, list(y)) == 1.0

    @given(y_true=labels, seed=st.integers(min_value=0, max_value=100))
    def test_metrics_bounded(self, y_true, seed):
        rng = np.random.default_rng(seed)
        y_pred = rng.choice(["a", "b", "c"], size=len(y_true)).tolist()
        p, r, f = weighted_precision_recall_f1(y_true, y_pred)
        for v in (p, r, f):
            assert 0.0 <= v <= 1.0
        assert 0.0 <= accuracy_score(y_true, y_pred) <= 1.0

    @given(y=labels)
    def test_f1_le_one_and_accuracy_equals_weighted_recall(self, y):
        rng = np.random.default_rng(0)
        y_pred = rng.choice(["a", "b", "c"], size=len(y)).tolist()
        _, recall, _ = weighted_precision_recall_f1(y, y_pred)
        assert accuracy_score(y, y_pred) == pytest.approx(recall)

    @given(y=labels)
    def test_recall_at_k_monotone_in_k(self, y):
        rng = np.random.default_rng(1)
        rankings = [
            rng.permutation(["a", "b", "c"]).tolist() for _ in y
        ]
        r1 = recall_at_k(y, rankings, k=1)
        r2 = recall_at_k(y, rankings, k=2)
        r3 = recall_at_k(y, rankings, k=3)
        assert r1 <= r2 <= r3 == 1.0

    @given(y=labels)
    def test_mrr_between_zero_and_one(self, y):
        rng = np.random.default_rng(2)
        rankings = [rng.permutation(["a", "b", "c"]).tolist() for _ in y]
        assert 0.0 <= mean_reciprocal_rank(y, rankings) <= 1.0

    @given(
        y_true=hnp.arrays(
            np.float64, st.integers(2, 20),
            elements=st.floats(min_value=0.1, max_value=1e3),
        )
    )
    def test_smape_bounds(self, y_true):
        rng = np.random.default_rng(0)
        y_pred = y_true * rng.uniform(0.5, 2.0, size=y_true.shape)
        assert 0.0 <= smape(y_true, y_pred) <= 2.0


class TestScalerProperties:
    matrices = hnp.arrays(
        np.float64,
        st.tuples(st.integers(5, 30), st.integers(2, 8)),
        elements=st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    )

    @settings(max_examples=20, deadline=None)
    @given(X=matrices)
    def test_standard_scaler_output_standardized(self, X):
        Z = get_scaler("standard").fit_transform(X)
        assert np.isfinite(Z).all()
        live = X.std(axis=0) > 1e-9
        if live.any():
            assert np.allclose(Z[:, live].mean(axis=0), 0.0, atol=1e-6)

    @settings(max_examples=20, deadline=None)
    @given(X=matrices)
    def test_minmax_within_range(self, X):
        Z = get_scaler("minmax").fit_transform(X)
        assert Z.min() >= -1e-9
        assert Z.max() <= 1.0 + 1e-9

    @settings(max_examples=10, deadline=None)
    @given(X=matrices)
    def test_transform_consistent_with_fit_transform(self, X):
        scaler = get_scaler("robust")
        Z1 = scaler.fit_transform(X)
        Z2 = scaler.transform(X)
        assert np.allclose(Z1, Z2)


class TestTopologyProperties:
    @settings(max_examples=20, deadline=None)
    @given(values=small_series)
    def test_sublevel_diagram_death_ge_birth(self, values):
        diagram = persistence_diagram(values, kind="sublevel")
        if diagram.size:
            assert (diagram[:, 1] >= diagram[:, 0]).all()

    @settings(max_examples=20, deadline=None)
    @given(values=small_series, shift=st.floats(min_value=-50, max_value=50))
    def test_sublevel_diagram_translation_equivariant(self, values, shift):
        d1 = persistence_diagram(values, kind="sublevel")
        d2 = persistence_diagram(values + shift, kind="sublevel")
        assert d1.shape == d2.shape
        if d1.size:
            assert np.allclose(
                sorted(d1[:, 1] - d1[:, 0]), sorted(d2[:, 1] - d2[:, 0]),
                atol=1e-9,
            )


class TestFeatureExtractorProperties:
    @settings(max_examples=15, deadline=None)
    @given(values=small_series)
    def test_feature_vector_always_finite_fixed_length(self, values):
        fe = FeatureExtractor()
        v = fe.extract(values)
        assert v.shape == (fe.n_features,)
        assert np.isfinite(v).all()
