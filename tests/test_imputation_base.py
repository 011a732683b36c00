"""Unit tests for the imputer base class, registry, and shared helpers."""

import numpy as np
import pytest

from repro.exceptions import ImputationError, RegistryError, ValidationError
from repro.imputation import available_imputers, get_imputer
from repro.imputation.base import (
    BaseImputer,
    interpolate_rows_block,
    register_imputer,
)
from repro.timeseries import TimeSeries, TimeSeriesDataset


def interpolate_rows(X):
    return interpolate_rows_block(X, np.isnan(X))


class TestInterpolateRows:
    def test_interior_gap(self):
        X = np.array([[0.0, np.nan, 2.0]])
        assert interpolate_rows(X).tolist() == [[0.0, 1.0, 2.0]]

    def test_edges_extend(self):
        X = np.array([[np.nan, 5.0, np.nan]])
        assert interpolate_rows(X).tolist() == [[5.0, 5.0, 5.0]]

    def test_fully_missing_row_uses_global_mean(self):
        X = np.array([[np.nan, np.nan], [2.0, 4.0]])
        out = interpolate_rows(X)
        assert out[0].tolist() == [3.0, 3.0]

    def test_input_not_mutated(self):
        X = np.array([[0.0, np.nan, 2.0]])
        interpolate_rows(X)
        assert np.isnan(X[0, 1])


class TestRegistry:
    def test_all_expected_imputers_registered(self):
        expected = {
            "mean", "linear", "knn", "cdrec", "svdimp", "softimpute", "svt",
            "rosl", "grouse", "trmf", "tenmf", "dynammo", "tkcm", "stmvl",
            "iim", "mlp",
        }
        assert expected.issubset(set(available_imputers()))

    def test_get_imputer_unknown_raises(self):
        with pytest.raises(RegistryError):
            get_imputer("nope")

    def test_get_imputer_passes_params(self):
        imp = get_imputer("knn", k=7)
        assert imp.k == 7

    def test_register_duplicate_name_raises(self):
        with pytest.raises(RegistryError):
            @register_imputer
            class Duplicate(BaseImputer):
                name = "mean"

                def _impute(self, X, mask):
                    return X

    def test_register_without_kernel_raises(self):
        with pytest.raises(RegistryError, match="defines no kernel"):
            @register_imputer
            class Kernelless(BaseImputer):
                name = "kernelless_test"

    def test_register_unnamed_raises(self):
        with pytest.raises(RegistryError):
            @register_imputer
            class Unnamed(BaseImputer):
                def _impute(self, X, mask):
                    return X


class TestBaseContract:
    def test_1d_input_accepted(self):
        out = get_imputer("linear").impute(np.array([0.0, np.nan, 2.0]))
        assert out.shape == (1, 3)
        assert out[0, 1] == pytest.approx(1.0)

    def test_3d_input_raises(self):
        with pytest.raises(ValidationError):
            get_imputer("linear").impute(np.zeros((2, 2, 2)))

    def test_inf_raises(self):
        with pytest.raises(ValidationError):
            get_imputer("linear").impute(np.array([[1.0, np.inf]]))

    def test_all_missing_raises(self):
        with pytest.raises(ImputationError):
            get_imputer("mean").impute(np.full((2, 3), np.nan))

    def test_no_missing_is_identity(self):
        X = np.arange(6, dtype=float).reshape(2, 3)
        out = get_imputer("mean").impute(X)
        assert np.array_equal(out, X)
        assert out is not X  # returns a copy

    def test_observed_entries_never_change(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(4, 50))
        faulty = X.copy()
        faulty[1, 10:20] = np.nan
        out = get_imputer("cdrec").impute(faulty)
        observed = ~np.isnan(faulty)
        assert np.array_equal(out[observed], X[observed])

    def test_impute_series_round_trip(self):
        ts = TimeSeries([0.0, np.nan, 2.0, 3.0], name="x")
        out = get_imputer("linear").impute_series(ts)
        assert out.name == "x"
        assert not out.has_missing

    def test_impute_dataset(self):
        rows = np.vstack([np.linspace(0, 1, 20)] * 3)
        rows[0, 5:8] = np.nan
        ds = TimeSeriesDataset.from_matrix(rows, category="Test")
        out = get_imputer("linear").impute_dataset(ds)
        assert isinstance(out, TimeSeriesDataset)
        assert out.category == "Test"
        assert not any(s.has_missing for s in out)

    def test_misbehaving_imputer_detected(self):
        class Bad(BaseImputer):
            name = "bad_shape_test"

            def _impute(self, X, mask):
                return X[:, :-1]

        with pytest.raises(ImputationError):
            Bad().impute(np.array([[1.0, np.nan, 3.0]]))

    def test_nan_leaking_imputer_detected(self):
        class Leaky(BaseImputer):
            name = "leaky_test"

            def _impute(self, X, mask):
                return X  # leaves the NaN in place

        with pytest.raises(ImputationError):
            Leaky().impute(np.array([[1.0, np.nan, 3.0]]))
