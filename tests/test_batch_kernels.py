"""Parity + property tests for the batched similarity kernels.

The scalar per-pair functions in ``repro.timeseries.correlation`` are the
semantics-defining reference; everything in ``repro.timeseries.batch``
must match them to <= 1e-9 (values) / exactly (argmax shifts, cluster
labels).  The clustering snapshot fixtures in
``tests/data/clustering_snapshots.json`` were generated with the
pre-batched code, so these tests certify the refactor end to end.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest

from repro.clustering.incremental import IncrementalClustering, _RefineSums
from repro.clustering.kshape import KShape, _ncc_shift
from repro.exceptions import ValidationError
from repro.parallel import (
    AUTO_MIN_BATCH_SECONDS,
    AUTO_PROCESS_MIN_SECONDS,
    AUTO_PROCESS_MIN_TASKS,
    ExecutionEngine,
    ParallelConfig,
)
from repro.timeseries import TimeSeries
from repro.timeseries.batch import SeriesBank, ncc_cross, ncc_rowwise, znorm_rows
from repro.timeseries.correlation import (
    average_pairwise_correlation,
    cross_correlation,
    max_cross_correlation,
    pairwise_correlation_matrix,
    pairwise_correlation_matrix_reference,
    sbd_distance_matrix,
    sbd_distance_matrix_reference,
)
from tests.clustering_oracles import LegacyRefinementClustering
from tests.feature_oracles import persistence_diagram

TOL = 1e-9

SNAPSHOT_PATH = (
    pathlib.Path(__file__).parent / "data" / "clustering_snapshots.json"
)
SNAPSHOTS = json.loads(SNAPSHOT_PATH.read_text())


# ---------------------------------------------------------------------------
# Corpora.  make_groups / make_walks MUST stay in sync with the script that
# generated clustering_snapshots.json (pre-refactor code): same seeds, same
# rng call order.
# ---------------------------------------------------------------------------

def make_groups(seed=0, n_per=6, length=120):
    rng = np.random.default_rng(seed)
    t = np.linspace(0, 4 * np.pi, length)
    groups = [np.sin(t), np.sign(np.sin(3 * t)), t / t.max() * 2 - 1]
    series = []
    for g, base in enumerate(groups):
        for i in range(n_per):
            noisy = base * rng.uniform(0.9, 1.1) + rng.normal(0, 0.05, length)
            series.append(TimeSeries(noisy, name=f"g{g}_{i}"))
    return series


def make_walks(seed=7, n=24, length=96):
    rng = np.random.default_rng(seed)
    return [
        TimeSeries(rng.normal(size=length).cumsum(), name=f"w{i}")
        for i in range(n)
    ]


def random_matrix(seed=0, n=12, length=64):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, length)).cumsum(axis=1)


# ---------------------------------------------------------------------------
# ncc_cross / ncc_rowwise vs. the scalar _ncc_shift reference.
# ---------------------------------------------------------------------------

class TestNccCrossParity:
    def test_values_and_shifts_match_scalar(self):
        X = znorm_rows(random_matrix(seed=1, n=8, length=50))
        Y = znorm_rows(random_matrix(seed=2, n=6, length=50))
        values, shifts = ncc_cross(X, Y)
        for i in range(X.shape[0]):
            for j in range(Y.shape[0]):
                ref_val, ref_shift = _ncc_shift(X[i], Y[j])
                assert abs(values[i, j] - ref_val) <= TOL
                assert int(shifts[i, j]) == ref_shift

    def test_rowwise_matches_scalar(self):
        X = znorm_rows(random_matrix(seed=3, n=7, length=40))
        Y = znorm_rows(random_matrix(seed=4, n=7, length=40))
        values, shifts = ncc_rowwise(X, Y, return_shifts=True)
        for i in range(X.shape[0]):
            ref_val, ref_shift = _ncc_shift(X[i], Y[i])
            assert abs(values[i] - ref_val) <= TOL
            assert int(shifts[i]) == ref_shift

    def test_max_shift_window_matches_scalar(self):
        series = [row for row in random_matrix(seed=5, n=5, length=48)]
        X = znorm_rows(np.vstack(series))
        for window in (0, 1, 5, 47, 200):
            values, _ = ncc_cross(X, X, max_shift=window)
            for i in range(len(series)):
                for j in range(len(series)):
                    ref = max_cross_correlation(
                        series[i], series[j], max_shift=window
                    )
                    assert abs(values[i, j] - ref) <= TOL

    def test_zero_norm_rows_yield_zero(self):
        X = np.vstack([np.zeros(16), np.arange(16.0)])
        values, shifts = ncc_cross(znorm_rows(X), znorm_rows(X))
        assert values[0, 0] == 0.0 and values[0, 1] == 0.0
        assert values[1, 0] == 0.0
        assert shifts[0, 1] == 0 and shifts[1, 0] == 0
        assert abs(values[1, 1] - 1.0) <= TOL

    def test_block_size_does_not_change_results(self):
        X = znorm_rows(random_matrix(seed=6, n=10, length=32))
        full_v, full_s = ncc_cross(X, X)
        # Tiny cap forces one row per spectral block.
        tiny_v, tiny_s = ncc_cross(X, X, block_bytes=1)
        np.testing.assert_array_equal(full_v, tiny_v)
        np.testing.assert_array_equal(full_s, tiny_s)

    def test_shape_validation(self):
        with pytest.raises(ValidationError):
            ncc_cross(np.zeros((2, 8)), np.zeros((2, 9)))
        with pytest.raises(ValidationError):
            ncc_rowwise(np.zeros((2, 8)), np.zeros((3, 8)))


# ---------------------------------------------------------------------------
# SeriesBank matrices vs. the per-pair reference loops.
# ---------------------------------------------------------------------------

class TestSeriesBankParity:
    def test_corr_matrix_matches_reference(self):
        series = make_walks(seed=11, n=10, length=70)
        bank = SeriesBank.from_series(series)
        ref = pairwise_correlation_matrix_reference(series)
        assert np.abs(bank.corr_matrix() - ref).max() <= TOL

    def test_ncc_matrix_matches_reference(self):
        series = make_walks(seed=12, n=9, length=60)
        bank = SeriesBank.from_series(series)
        ref = pairwise_correlation_matrix_reference(series, shifted=True)
        assert np.abs(bank.ncc_matrix() - ref).max() <= TOL

    def test_sbd_matrix_matches_reference(self):
        series = make_walks(seed=13, n=9, length=60)
        bank = SeriesBank.from_series(series)
        ref = sbd_distance_matrix_reference(series)
        assert np.abs(bank.sbd_matrix() - ref).max() <= TOL
        assert np.all(np.diag(bank.sbd_matrix()) == 0.0)

    def test_public_dispatch_equals_reference(self):
        series = make_walks(seed=14, n=8, length=50)
        for shifted in (False, True):
            batched = pairwise_correlation_matrix(series, shifted=shifted)
            ref = pairwise_correlation_matrix_reference(series, shifted=shifted)
            assert np.abs(batched - ref).max() <= TOL
        assert (
            np.abs(
                sbd_distance_matrix(series)
                - sbd_distance_matrix_reference(series)
            ).max()
            <= TOL
        )

    def test_exact_symmetry_and_unit_diagonal(self):
        bank = SeriesBank(random_matrix(seed=15, n=12, length=48))
        for mat in (bank.corr_matrix(), bank.ncc_matrix()):
            np.testing.assert_array_equal(mat, mat.T)  # exact, not approx
            assert np.all(np.diag(mat) == 1.0)
        _, shifts = bank.ncc_matrix(return_shifts=True)
        np.testing.assert_array_equal(shifts, -shifts.T)

    def test_constant_series_correlate_zero(self):
        matrix = random_matrix(seed=16, n=5, length=40)
        matrix[2, :] = 3.14  # constant row
        bank = SeriesBank(matrix)
        corr = bank.corr_matrix()
        off_diag = np.delete(corr[2], 2)
        assert np.all(off_diag == 0.0)
        assert corr[2, 2] == 1.0  # diagonal convention

    def test_nan_series_are_interpolated_like_reference(self):
        series = make_walks(seed=17, n=6, length=40)
        holey = []
        for i, s in enumerate(series):
            values = s.values.copy()
            values[5 + i : 9 + i] = np.nan
            holey.append(TimeSeries(values, name=s.name))
        batched = pairwise_correlation_matrix(holey)
        ref = pairwise_correlation_matrix_reference(holey)
        assert np.abs(batched - ref).max() <= TOL

    def test_unequal_lengths_fall_back_to_reference(self):
        rng = np.random.default_rng(18)
        series = [
            TimeSeries(rng.normal(size=n).cumsum())
            for n in (40, 52, 64, 48)
        ]
        for shifted in (False, True):
            np.testing.assert_array_equal(
                pairwise_correlation_matrix(series, shifted=shifted),
                pairwise_correlation_matrix_reference(series, shifted=shifted),
            )

    def test_average_correlation_matches_scalar(self):
        series = make_walks(seed=19, n=7, length=45)
        bank = SeriesBank.from_series(series)
        assert (
            abs(bank.average_correlation() - average_pairwise_correlation(series))
            <= TOL
        )
        single = SeriesBank.from_series(series[:1])
        assert single.average_correlation() == 1.0

    def test_from_series_truncates_to_min_length(self):
        rng = np.random.default_rng(20)
        series = [rng.normal(size=n) for n in (30, 25, 40)]
        bank = SeriesBank.from_series(series)
        assert bank.raw.shape == (3, 25)

    def test_validation(self):
        with pytest.raises(ValidationError):
            SeriesBank(np.zeros(8))  # 1-D
        with pytest.raises(ValidationError):
            SeriesBank(np.full((2, 4), np.nan))
        with pytest.raises(ValidationError):
            SeriesBank.from_series([])


# ---------------------------------------------------------------------------
# max_cross_correlation truncation-order regression (satellite fix).
# ---------------------------------------------------------------------------

class TestMaxCrossCorrelationTruncation:
    def test_self_prefix_is_perfectly_correlated(self):
        # Historically the series were z-normed BEFORE truncation, so the
        # discarded tail leaked into the mean/std and x vs. x[:n] scored
        # below 1.  After the fix both windows z-norm identically.
        rng = np.random.default_rng(21)
        x = rng.normal(size=80).cumsum() + 10.0
        assert abs(max_cross_correlation(x, x[:50]) - 1.0) <= 1e-12
        assert abs(max_cross_correlation(x[:50], x) - 1.0) <= 1e-12

    def test_truncation_order_matches_cross_correlation(self):
        # max over shifts can never be below the zero-lag correlation of
        # the same (truncate -> z-norm) windows.
        rng = np.random.default_rng(22)
        a = rng.normal(size=70).cumsum()
        b = rng.normal(size=55).cumsum() * 3.0 + 5.0
        assert max_cross_correlation(a, b) >= cross_correlation(a, b) - 1e-12

    def test_symmetry_on_unequal_lengths(self):
        rng = np.random.default_rng(23)
        a = rng.normal(size=64).cumsum()
        b = rng.normal(size=47).cumsum()
        assert abs(
            max_cross_correlation(a, b) - max_cross_correlation(b, a)
        ) <= TOL


# ---------------------------------------------------------------------------
# Clustering snapshots (fixtures generated with the pre-batched code).
# ---------------------------------------------------------------------------

_INCREMENTAL_PARAMS = {
    "incremental_groups_d08": dict(delta=0.8, random_state=0),
    "incremental_groups_default": dict(random_state=0),
    "incremental_walks_d06": dict(delta=0.6, min_cluster_size=4, random_state=3),
    "incremental_walks_d04": dict(delta=0.4, min_cluster_size=6, random_state=1),
}


class TestClusteringSnapshots:
    @pytest.mark.parametrize(
        "key",
        [
            "incremental_groups_d08",
            "incremental_groups_default",
            "incremental_walks_d06",
            "incremental_walks_d04",
        ],
    )
    @pytest.mark.parametrize("incremental", [True, False])
    def test_incremental_clustering_labels(self, key, incremental):
        # False runs the rescanning oracle of tests/clustering_oracles.py.
        corpus = make_groups() if "groups" in key else make_walks()
        cls = IncrementalClustering if incremental else LegacyRefinementClustering
        model = cls(**_INCREMENTAL_PARAMS[key])
        labels = model.fit(corpus).labels_.tolist()
        assert labels == SNAPSHOTS[key]

    @pytest.mark.parametrize(
        "key, n_clusters, seed",
        [
            ("kshape_groups_k3", 3, 0),
            ("kshape_groups_k5", 5, 1),
            ("kshape_walks_k4", 4, 2),
        ],
    )
    def test_kshape_labels(self, key, n_clusters, seed):
        corpus = make_groups() if "groups" in key else make_walks()
        model = KShape(n_clusters=n_clusters, random_state=seed)
        labels = model.fit(corpus).labels_.tolist()
        assert labels == SNAPSHOTS[key]

    @pytest.mark.parametrize("seed", [1, 5, 9, 13])
    def test_incremental_equals_legacy_refinement(self, seed):
        corpus = make_walks(seed=seed, n=20, length=64)
        fast = IncrementalClustering(
            delta=0.5, min_cluster_size=4, random_state=0
        ).fit(corpus)
        slow = LegacyRefinementClustering(
            delta=0.5, min_cluster_size=4, random_state=0
        ).fit(corpus)
        np.testing.assert_array_equal(fast.labels_, slow.labels_)


class TestRefineSums:
    @staticmethod
    def _random_state(seed=0, n=14, ncl=4):
        rng = np.random.default_rng(seed)
        raw = rng.uniform(-1, 1, size=(n, n))
        corr = (raw + raw.T) / 2.0
        np.fill_diagonal(corr, 1.0)
        owner = rng.integers(0, ncl, size=n)
        owner[:ncl] = np.arange(ncl)  # no empty clusters
        clusters = [list(np.flatnonzero(owner == c)) for c in range(ncl)]
        return corr, clusters

    @staticmethod
    def _rho_direct(corr, members):
        if len(members) <= 1:
            return 1.0
        idx = np.asarray(members)
        sub = corr[np.ix_(idx, idx)]
        iu = np.triu_indices(len(members), k=1)
        return float(sub[iu].mean())

    def test_rho_matches_direct_computation(self):
        corr, clusters = self._random_state(seed=1)
        sums = _RefineSums(corr, clusters)
        for c, members in enumerate(clusters):
            assert abs(sums.rho(c) - self._rho_direct(corr, members)) <= TOL

    def test_rho_merge_and_move_match_direct(self):
        corr, clusters = self._random_state(seed=2)
        sums = _RefineSums(corr, clusters)
        rho01, _ = sums.rho_merge(0, 1, np.asarray(clusters[0]))
        assert (
            abs(rho01 - self._rho_direct(corr, clusters[0] + clusters[1]))
            <= TOL
        )
        x = clusters[0][0]
        assert (
            abs(sums.rho_move(x, 1) - self._rho_direct(corr, clusters[1] + [x]))
            <= TOL
        )

    def test_apply_move_keeps_sums_consistent(self):
        corr, clusters = self._random_state(seed=3)
        sums = _RefineSums(corr, clusters)
        x = clusters[0][0]
        sums.apply_move(x, 0, 1)
        clusters[0].remove(x)
        clusters[1].append(x)
        rebuilt = _RefineSums(corr, clusters)
        np.testing.assert_allclose(sums.internal, rebuilt.internal, atol=TOL)
        np.testing.assert_allclose(sums.col, rebuilt.col, atol=TOL)
        np.testing.assert_array_equal(sums.sizes, rebuilt.sizes)

    def test_apply_merge_keeps_sums_consistent(self):
        corr, clusters = self._random_state(seed=4)
        sums = _RefineSums(corr, clusters)
        _, cross = sums.rho_merge(0, 1, np.asarray(clusters[0]))
        sums.apply_merge(0, 1, cross)
        merged = [
            [],
            clusters[1] + clusters[0],
            clusters[2],
            clusters[3],
        ]
        rebuilt = _RefineSums(corr, merged)
        np.testing.assert_allclose(sums.internal, rebuilt.internal, atol=TOL)
        np.testing.assert_allclose(sums.col, rebuilt.col, atol=TOL)
        np.testing.assert_array_equal(sums.sizes, rebuilt.sizes)


# ---------------------------------------------------------------------------
# Sublevel persistence: list-based union-find vs. an inline numpy reference.
# ---------------------------------------------------------------------------

def _sublevel_reference(x: np.ndarray) -> np.ndarray:
    """Plain numpy union-find sublevel persistence (pre-speedup semantics)."""
    n = x.shape[0]
    parent = np.arange(n)
    birth = np.full(n, np.inf)
    active = np.zeros(n, dtype=bool)

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    pairs = []
    for idx in np.argsort(x, kind="stable"):
        value = x[idx]
        birth[idx] = value
        active[idx] = True
        for nb in (idx - 1, idx + 1):
            if 0 <= nb < n and active[nb]:
                ri, rj = find(idx), find(nb)
                if ri == rj:
                    continue
                if birth[ri] > birth[rj]:
                    ri, rj = rj, ri
                if value > birth[rj]:
                    pairs.append((birth[rj], value))
                parent[rj] = ri
    if not pairs:
        return np.empty((0, 2))
    return np.asarray(pairs, dtype=float)


class TestSublevelPersistenceParity:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_series_match_reference(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=200).cumsum()
        np.testing.assert_array_equal(
            persistence_diagram(x, kind="sublevel"), _sublevel_reference(x)
        )

    def test_edge_cases_match_reference(self):
        cases = [
            np.zeros(16),                      # constant -> empty diagram
            np.array([0.0, 1.0]),              # minimal length
            np.sin(np.linspace(0, 20, 101)),   # many equal-height peaks
            np.repeat([1.0, 0.0, 1.0, 0.0], 8),  # ties everywhere
        ]
        for x in cases:
            np.testing.assert_array_equal(
                persistence_diagram(x, kind="sublevel"),
                _sublevel_reference(x),
            )

    def test_nan_input_interpolated(self):
        x = np.array([0.0, 1.0, np.nan, 3.0, 1.0, np.nan, 2.0, 0.5])
        diagram = persistence_diagram(x, kind="sublevel")
        assert not np.isnan(diagram).any()


# ---------------------------------------------------------------------------
# Cost-aware auto backend selection (ExecutionEngine probe + EWMA).
# ---------------------------------------------------------------------------

class TestCostAwareAutoSelection:
    def test_resolve_backend_with_cost_estimate(self):
        cfg = ParallelConfig(n_jobs=4, backend="auto")
        tiny = AUTO_MIN_BATCH_SECONDS / 20
        # 10 tasks x tiny cost: total work under the serial floor.
        assert cfg.resolve_backend(10, est_task_seconds=tiny) == "serial"
        # Total work in the thread band.
        assert cfg.resolve_backend(10, est_task_seconds=0.02) == "thread"
        # Enough work for process, but too few tasks to amortize forks.
        assert cfg.resolve_backend(10, est_task_seconds=0.1) == "thread"
        assert (
            cfg.resolve_backend(
                AUTO_PROCESS_MIN_TASKS, est_task_seconds=0.1
            )
            == "process"
        )
        assert AUTO_MIN_BATCH_SECONDS < AUTO_PROCESS_MIN_SECONDS

    def test_explicit_backend_ignores_estimate(self):
        cfg = ParallelConfig(n_jobs=4, backend="process")
        assert cfg.resolve_backend(5, est_task_seconds=1e-9) == "process"

    def test_resolve_chunk_size_folds_tiny_tasks(self):
        cfg = ParallelConfig(n_jobs=4)
        base = cfg.resolve_chunk_size(100)
        assert base == 7  # ceil(100 / (4 * 4))
        # Sub-microsecond tasks collapse into one chunk per batch.
        assert cfg.resolve_chunk_size(100, est_task_seconds=1e-7) == 100
        # Expensive tasks keep the load-balancing floor.
        assert cfg.resolve_chunk_size(100, est_task_seconds=0.5) == base
        # Explicit chunk_size always wins.
        assert (
            ParallelConfig(n_jobs=4, chunk_size=3).resolve_chunk_size(
                100, est_task_seconds=1e-7
            )
            == 3
        )

    def test_engine_probe_records_cost_estimate(self):
        with ExecutionEngine(ParallelConfig(n_jobs=4, backend="auto")) as eng:
            assert eng.task_cost_estimate("batch.test") is None
            out = eng.map(lambda v: v * v, list(range(20)), label="batch.test")
            assert out == [v * v for v in range(20)]
            est = eng.task_cost_estimate("batch.test")
            assert est is not None and est >= 0.0
            # Second batch refines the EWMA rather than forgetting it.
            eng.map(lambda v: v + 1, list(range(8)), label="batch.test")
            assert eng.task_cost_estimate("batch.test") is not None

    def test_engine_keeps_cheap_auto_batches_serial(self):
        from repro.parallel import engine_stats, reset_engine_stats

        reset_engine_stats()
        with ExecutionEngine(ParallelConfig(n_jobs=4, backend="auto")) as eng:
            eng.map(lambda v: v, list(range(30)), label="batch.cheap")
        stats = engine_stats()
        assert stats.get("process", {}).get("tasks", 0) == 0
