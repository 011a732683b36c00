"""Batched-imputation contract for every registered imputer.

``impute`` is ``impute_many([X])[0]``, and each (imputer, problem shape)
pair runs one kernel.  This suite holds every imputer to the scalar loop
its kernel replaced (``tests/imputer_oracles.py``) bit for bit, and pins
the batch contract across degenerate inputs, input containers (list /
2-D array / SeriesBank), and the batched ledger path.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tests.imputer_oracles import (
    interpolate_rows,
    oracle_impute,
    repair_quality_stats,
)
from repro.exceptions import ImputationError, ValidationError
from repro.imputation.base import (
    available_imputers,
    get_imputer,
    interpolate_rows_block,
)
from repro.observability.ledger import (
    RepairLedger,
    repair_quality_stats_block,
    use_ledger,
)
from repro.timeseries.batch import SeriesBank
from repro.timeseries.series import TimeSeries

ALL_IMPUTERS = available_imputers()


def _corpus(rng, n=6, length=48, missing=0.2):
    """Row problems with scattered gaps; every row keeps observed values."""
    rows = []
    for i in range(n):
        row = rng.normal(size=length).cumsum()
        if i == 0:
            row[:] = 4.0  # constant row
        gaps = rng.choice(length, size=max(1, int(length * missing)), replace=False)
        row[gaps] = np.nan
        if np.isnan(row).all():  # paranoia: keep at least one observation
            row[0] = 1.0
        rows.append(row)
    return rows


class TestImputeManyParity:
    @pytest.mark.parametrize("name", ALL_IMPUTERS)
    def test_matches_scalar_loop(self, name):
        rng = np.random.default_rng(11)
        rows = _corpus(rng)
        scalar = [oracle_impute(get_imputer(name), r[None, :]) for r in rows]
        batched = get_imputer(name).impute_many([r.copy() for r in rows])
        assert len(batched) == len(rows)
        tol = 1e-12 if name == "mean" else 0.0  # see TestOracleParity
        for i, (a, b) in enumerate(zip(scalar, batched)):
            np.testing.assert_allclose(b, a, rtol=tol, atol=tol,
                                       err_msg=f"{name} row {i}")

    @pytest.mark.parametrize("name", ALL_IMPUTERS)
    def test_mixed_shapes_and_complete_rows(self, name):
        rng = np.random.default_rng(12)
        problems = _corpus(rng, n=3, length=40)
        problems.append(rng.normal(size=40).cumsum())      # complete: passthrough
        problems.append(_corpus(rng, n=1, length=64)[0])   # different length
        single = [get_imputer(name).impute(p.copy()[None, :]) for p in problems]
        batched = get_imputer(name).impute_many([p.copy() for p in problems])
        for i, (a, b) in enumerate(zip(single, batched)):
            # A problem's bytes do not depend on the batch it is in.
            np.testing.assert_array_equal(b, a, err_msg=f"{name} problem {i}")

    def test_complete_corpus_is_pure_passthrough(self):
        rng = np.random.default_rng(13)
        rows = [rng.normal(size=32) for _ in range(4)]
        out = get_imputer("mean").impute_many([r.copy() for r in rows])
        for row, completed in zip(rows, out):
            np.testing.assert_array_equal(completed[0], row)

    def test_all_nan_problem_raises_like_scalar(self):
        rows = [np.array([1.0, np.nan, 3.0]), np.full(3, np.nan)]
        imp = get_imputer("mean")
        with pytest.raises(ImputationError):
            imp.impute(rows[1][None, :])
        with pytest.raises(ImputationError):
            imp.impute_many([r.copy() for r in rows])

    def test_inf_problem_raises_like_scalar(self):
        rows = [np.array([1.0, np.nan, 3.0]), np.array([1.0, np.inf, np.nan])]
        imp = get_imputer("mean")
        with pytest.raises(ValidationError):
            imp.impute(rows[1][None, :])
        with pytest.raises(ValidationError):
            imp.impute_many([r.copy() for r in rows])

    def test_matrix_container_matches_list(self):
        rng = np.random.default_rng(14)
        rows = _corpus(rng, n=5, length=36)
        matrix = np.vstack(rows)
        from_list = get_imputer("linear").impute_many([r.copy() for r in rows])
        from_matrix = get_imputer("linear").impute_many(matrix.copy())
        for a, b in zip(from_list, from_matrix):
            np.testing.assert_array_equal(a, b)

    def test_series_bank_rows_become_problems(self):
        rng = np.random.default_rng(15)
        clean = np.vstack([rng.normal(size=24).cumsum() for _ in range(4)])
        bank = SeriesBank(clean)
        out = get_imputer("mean").impute_many(bank)
        assert len(out) == 4  # complete rows pass through
        for row, completed in zip(clean, out):
            np.testing.assert_array_equal(completed[0], row)

    def test_repair_ids_length_mismatch(self):
        with pytest.raises(ValidationError):
            get_imputer("mean").impute_many(
                [np.array([1.0, np.nan])], repair_ids=["a", "b"]
            )

    def test_impute_series_many_matches_impute_series(self):
        rng = np.random.default_rng(16)
        series = [
            TimeSeries(r, name=f"s{i}") for i, r in enumerate(_corpus(rng, n=4))
        ]
        imp = get_imputer("knn")
        batched = imp.impute_series_many(series)
        for s, repaired in zip(series, batched):
            expected = get_imputer("knn").impute_series(s)
            assert repaired.name == s.name
            np.testing.assert_allclose(
                repaired.values, expected.values, rtol=1e-9, atol=1e-9
            )
            assert not repaired.has_missing


@st.composite
def _problems(draw):
    """One ``(n, L)`` problem: random walks at a drawn scale, possibly a
    constant row, a dead row, and gaps at either edge."""
    n = draw(st.sampled_from([1, 1, 2, 3]))
    length = draw(st.integers(4, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, length)).cumsum(axis=1)
    X *= draw(st.sampled_from([1e-3, 1.0, 1e3]))
    if draw(st.booleans()):
        X[0] = draw(st.floats(-50.0, 50.0, allow_nan=False))
    mask = rng.random((n, length)) < draw(st.floats(0.05, 0.6))
    mask[:, : draw(st.integers(0, 3))] = True
    mask[:, length - draw(st.integers(0, 3)):] = True
    if n > 1 and draw(st.booleans()):
        mask[-1] = True
    if mask.all():
        mask[0, length // 2] = False
    X[mask] = np.nan
    return X


def _outcome(fn, X):
    try:
        return fn(X)
    except (ValidationError, ImputationError) as exc:
        return type(exc)


class TestOracleParity:
    """``impute`` against the per-problem oracle, one- and multi-series."""

    @pytest.mark.parametrize("name", ALL_IMPUTERS)
    @settings(max_examples=25, deadline=None)
    @given(X=_problems())
    def test_bit_identical_to_oracle(self, name, X):
        got = _outcome(get_imputer(name).impute, X.copy())
        want = _outcome(lambda M: oracle_impute(get_imputer(name), M), X.copy())
        if isinstance(want, type):
            assert got is want
        elif name == "mean":
            # The masked-sum block kernel adds in a different order from
            # ndarray.mean, so fills differ in the last bits (~1e-16
            # relative); every other kernel must match to the byte.
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        else:
            np.testing.assert_array_equal(got, want)

    @settings(max_examples=100, deadline=None)
    @given(X=_problems())
    def test_row_interpolation_is_np_interp(self, X):
        before = X.copy()
        out = interpolate_rows_block(X, np.isnan(X))
        np.testing.assert_array_equal(X, before)  # input left untouched
        np.testing.assert_array_equal(out, interpolate_rows(X))

    @settings(max_examples=50, deadline=None)
    @given(X=_problems())
    def test_quality_stats_match_per_problem(self, X):
        mask = np.isnan(X)
        observed = X[~mask]
        # The ratios divide by the observed std with a 1e-12 floor, so on
        # (near-)constant data summation-order noise is amplified past
        # any fixed bound; such problems have no meaningful ratios.
        assume(observed.std() > 1e-6 * np.abs(observed).max())
        completed = get_imputer("linear").impute(X)
        (block,) = repair_quality_stats_block(completed[None], mask[None])
        scalar = repair_quality_stats(completed, mask)
        assert block.keys() == scalar.keys()
        for key, value in scalar.items():
            assert block[key] == pytest.approx(value, rel=1e-9, abs=1e-9), key


class TestBatchedLedger:
    def test_one_row_per_problem_with_repair_ids(self):
        rng = np.random.default_rng(17)
        rows = _corpus(rng, n=4, length=32)
        rows.append(rng.normal(size=32))  # complete: no ledger row
        ids = [f"rep-{i}" for i in range(len(rows))]
        ledger = RepairLedger()  # memory-only
        with use_ledger(ledger):
            get_imputer("mean").impute_many(
                [r.copy() for r in rows], repair_ids=ids
            )
        impute_rows = [r for r in ledger.records() if r["kind"] == "impute"]
        assert len(impute_rows) == 4  # complete problem emits nothing
        seen = {r["data"]["repair_id"] for r in impute_rows}
        assert seen == set(ids[:4])
        for row in impute_rows:
            assert row["data"]["algorithm"] == "mean"
            assert row["data"]["elapsed_s"] is not None
            assert row["data"]["quality"] is not None

    def test_no_ledger_rows_without_repair_context(self):
        rng = np.random.default_rng(18)
        ledger = RepairLedger()
        with use_ledger(ledger):
            get_imputer("mean").impute_many(
                [r.copy() for r in _corpus(rng, n=3, length=24)]
            )
        assert [r for r in ledger.records() if r["kind"] == "impute"] == []
