"""The three numpy/``scipy.special`` stand-ins for ``scipy.stats``.

``scipy.stats`` costs most of a ``repro`` process's import time, so the
program uses exact replacements and this file holds them to
``scipy.stats`` as the oracle: average ranks for the Spearman feature,
Welch's t-test p-value for the race's redundancy pruning, and the normal
quantile for :class:`QuantileScaler`'s normal output.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats as sps

from repro.core.modelrace import welch_pvalue
from repro.features.scaling import QuantileScaler
from repro.features.statistical import average_ranks

finite = st.floats(-1e6, 1e6, allow_nan=False)


@given(
    X=st.integers(1, 6).flatmap(
        lambda rows: st.integers(1, 40).flatmap(
            lambda cols: arrays(
                np.float64, (rows, cols),
                # A small value pool makes ties common.
                elements=st.one_of(st.sampled_from([0.0, 1.0, -2.5]), finite,
                                   st.just(np.nan)),
            )
        )
    )
)
@settings(max_examples=300, deadline=None)
def test_average_ranks_match_scipy_rankdata(X):
    np.testing.assert_array_equal(average_ranks(X), sps.rankdata(X, axis=1))


@given(
    mean1=finite, std1=st.floats(0, 1e3), n1=st.integers(2, 60),
    mean2=finite, std2=st.floats(0, 1e3), n2=st.integers(2, 60),
)
@example(mean1=0.5, std1=0.0, n1=3, mean2=0.5, std2=0.0, n2=3)
@example(mean1=0.5, std1=0.0, n1=3, mean2=0.7, std2=0.0, n2=4)
@settings(max_examples=2000, deadline=None)
def test_welch_pvalue_matches_scipy(mean1, std1, n1, mean2, std2, n2):
    expected = sps.ttest_ind_from_stats(
        mean1, std1, n1, mean2, std2, n2, equal_var=False
    ).pvalue
    got = welch_pvalue(mean1, std1, n1, mean2, std2, n2)
    assert got == expected or (np.isnan(got) and np.isnan(expected))


@given(X=arrays(np.float64, (24, 3), elements=finite))
@settings(max_examples=100, deadline=None)
def test_quantile_scaler_normal_output_matches_norm_ppf(X):
    scaler = QuantileScaler(output="normal").fit(X)
    uniform = QuantileScaler(output="uniform").fit(X).transform(X)
    expected = sps.norm.ppf(np.clip(uniform, 1e-6, 1 - 1e-6))
    np.testing.assert_array_equal(scaler.transform(X), expected)
