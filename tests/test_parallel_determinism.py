"""Determinism under parallelism (the PR's core correctness contract).

Same seed ⇒ identical race outcomes and labels for ``n_jobs=1`` vs
``n_jobs=4``, across thread, process and cost-aware auto backends.
Wall-clock enters the race score through gamma, so the race tests race
with ``gamma=0`` — the configuration under which scores are pure
functions of the data and bit-identical results are a meaningful
requirement.

Also covers the two pruning satellites:

* phase-1 early termination is evaluated against the *true* fold best
  behind a post-fold barrier, so candidate order no longer changes who
  gets pruned (serial-path regression test);
* the vectorized ``_prune_ttest`` makes the exact keep/drop decisions of
  the naive reference implementation on a fixed-seed snapshot.

These tests are a CI gate: the benchmark smoke job fails if any of them
is skipped, so none of them may carry skip conditions.
"""

import numpy as np
import pytest
from scipy import stats as sps

from repro.clustering.labeling import ClusterLabeler
from repro.core.config import ModelRaceConfig
from repro.core.modelrace import ModelRace
from repro.datasets import load_category
from repro.features import FeatureExtractor
from repro.observability import MetricsRegistry, use_metrics
from repro.parallel import FeatureCache, ParallelConfig
from repro.pipeline.pipeline import Pipeline, make_seed_pipelines
from repro.pipeline.scoring import ScoreWeights

BACKEND_CONFIGS = [
    pytest.param(ParallelConfig(n_jobs=4, backend="thread"), id="thread-4"),
    pytest.param(ParallelConfig(n_jobs=4, backend="process"), id="process-4"),
    pytest.param(ParallelConfig(n_jobs=4, backend="auto"), id="auto-4"),
]

#: gamma=0 removes wall-clock from the score: results must be bit-identical.
DETERMINISTIC_WEIGHTS = ScoreWeights(alpha=0.5, beta=0.25, gamma=0.0)


@pytest.fixture(scope="module")
def race_data():
    rng = np.random.default_rng(7)
    n, d = 90, 6
    X = rng.normal(size=(n, d))
    y = np.array(["cdrec", "knn", "linear"], dtype=object)[
        rng.integers(0, 3, size=n)
    ]
    X[y == "cdrec"] += 1.2
    X[y == "knn"] -= 1.2
    return X[24:], y[24:], X[:24], y[:24]


def _run_race(data, parallel: ParallelConfig | None, score_memo=None):
    X_tr, y_tr, X_te, y_te = data
    config = ModelRaceConfig(
        n_partial_sets=2,
        n_folds=2,
        max_elite=4,
        weights=DETERMINISTIC_WEIGHTS,
        random_state=0,
        parallel=parallel or ParallelConfig(),
    )
    seeds = make_seed_pipelines(["knn", "decision_tree", "gaussian_nb", "ridge"])
    return ModelRace(config, score_memo=score_memo).run(
        seeds, X_tr, y_tr, X_te, y_te
    )


class TestRaceDeterminism:
    @pytest.mark.parametrize("parallel", BACKEND_CONFIGS)
    def test_elite_and_scores_identical_across_backends(self, race_data, parallel):
        serial = _run_race(race_data, None)
        fanned = _run_race(race_data, parallel)
        assert [p.config_key() for p in serial.elite] == [
            p.config_key() for p in fanned.elite
        ]
        assert serial.scores == fanned.scores  # exact float equality
        assert serial.n_evaluations == fanned.n_evaluations
        assert serial.n_early_terminated == fanned.n_early_terminated

    @pytest.mark.parametrize("parallel", BACKEND_CONFIGS)
    def test_iteration_records_match(self, race_data, parallel):
        serial = _run_race(race_data, None)
        fanned = _run_race(race_data, parallel)
        for a, b in zip(serial.iterations, fanned.iterations):
            assert a.n_candidates == b.n_candidates
            assert a.n_evaluations == b.n_evaluations
            assert a.n_early_terminated == b.n_early_terminated
            assert a.n_ttest_pruned == b.n_ttest_pruned
            assert a.n_elite == b.n_elite


class TestLabelingDeterminism:
    @pytest.fixture(scope="class")
    def datasets(self):
        return load_category("Climate", n_series=8, n_datasets=2)

    def _label(self, datasets, parallel):
        labeler = ClusterLabeler(
            imputer_names=("linear", "knn", "svdimp"),
            missing_ratio=(0.1, 0.2),
            random_state=0,
            parallel=parallel,
        )
        return labeler.label_corpus(datasets)

    @pytest.mark.parametrize("parallel", BACKEND_CONFIGS)
    def test_labels_identical_across_backends(self, datasets, parallel):
        serial = self._label(datasets, None)
        fanned = self._label(datasets, parallel)
        assert list(serial.labels) == list(fanned.labels)
        assert serial.rankings == fanned.rankings
        assert serial.n_benchmark_runs == fanned.n_benchmark_runs
        for a, b in zip(serial.series, fanned.series):
            assert a == b  # injected faults identical too


class TestFeatureDeterminism:
    @pytest.fixture(scope="class")
    def series_list(self):
        datasets = load_category("Water", n_series=6, n_datasets=1)
        return [s for d in datasets for s in d.series]

    def test_cache_hit_path_bit_identical(self, series_list, fresh_metrics):
        reference = FeatureExtractor().extract_many(series_list)
        cache = FeatureCache()
        extractor = FeatureExtractor(cache=cache)
        cold = extractor.extract_many(series_list)
        warm = extractor.extract_many(series_list)
        assert reference.tobytes() == cold.tobytes()
        assert reference.tobytes() == warm.tobytes()
        # Second pass fully cached.
        assert cache.stats()["hits"] >= len(series_list)

    def test_disk_cache_roundtrip_bit_identical(self, series_list, tmp_path):
        reference = FeatureExtractor().extract_many(series_list)
        FeatureExtractor(cache=FeatureCache(tmp_path)).extract_many(series_list)
        fresh = FeatureCache(tmp_path)  # simulates a new process
        with use_metrics(MetricsRegistry()):
            warm = FeatureExtractor(cache=fresh).extract_many(series_list)
            assert fresh.stats()["misses"] == 0
        assert reference.tobytes() == warm.tobytes()


class TestOrderIndependentPruning:
    """Satellite: phase-1 pruning no longer depends on candidate order.

    Synthesis is disabled (it consumes the RNG in parent order, so a
    reversed seed list would legitimately produce different children);
    what must be order-independent is the evaluate-and-prune core.
    ``ttest_pvalue=1.0`` effectively disables phase-2, isolating the
    phase-1 (fold-margin) decision under test.
    """

    @pytest.fixture(autouse=True)
    def no_synthesis(self, monkeypatch):
        from repro.pipeline import synthesizer as synth_mod

        monkeypatch.setattr(
            synth_mod.Synthesizer,
            "synthesize",
            lambda self, elite, known=None: [],
        )

    def _race_with_order(self, data, seeds, margin):
        X_tr, y_tr, X_te, y_te = data
        config = ModelRaceConfig(
            n_partial_sets=1,
            n_folds=2,
            max_elite=10,
            early_termination_margin=margin,
            ttest_pvalue=1.0,
            weights=DETERMINISTIC_WEIGHTS,
            random_state=0,
        )
        result = ModelRace(config).run(seeds, X_tr, y_tr, X_te, y_te)
        terminated = sum(r.n_early_terminated for r in result.iterations)
        return {p.config_key() for p in result.elite}, terminated

    def test_candidate_order_does_not_change_pruning(self, race_data):
        seeds = make_seed_pipelines(
            ["knn", "decision_tree", "gaussian_nb", "ridge", "nearest_centroid"]
        )
        forward, term_fwd = self._race_with_order(race_data, seeds, 0.05)
        backward, term_bwd = self._race_with_order(
            race_data, list(reversed(seeds)), 0.05
        )
        assert forward == backward
        assert term_fwd == term_bwd

    def test_weak_candidate_pruned_even_when_evaluated_first(self, race_data):
        """Under the old in-loop incumbent, a weak candidate evaluated
        *before* the fold best could escape termination.  The post-fold
        barrier judges it against the true best regardless of position."""
        seeds = [
            Pipeline("knn", {"k": 1, "weights": "uniform", "p": 2}),
            Pipeline("knn", {"k": 5, "weights": "distance", "p": 2}),
        ]
        fwd, term_fwd = self._race_with_order(race_data, seeds, 0.0)
        rev, term_rev = self._race_with_order(
            race_data, list(reversed(seeds)), 0.0
        )
        assert fwd == rev
        assert term_fwd == term_rev


def _prune_ttest_reference(config, candidates, scores):
    """Pre-PR implementation (recomputes means in the loop) — the oracle."""
    alive = {p.config_key(): p for p in candidates}
    keys = sorted(
        alive,
        key=lambda k: float(np.mean(scores[k])) if scores.get(k) else -np.inf,
        reverse=True,
    )
    pruned = 0
    kept = []
    for key in keys:
        dist = scores.get(key, [])
        redundant = False
        for kept_key in kept:
            ref = scores[kept_key]
            if len(dist) < 2 or len(ref) < 2:
                similar = np.isclose(
                    np.mean(dist or [0.0]), np.mean(ref), atol=1e-3
                )
            else:
                stat = sps.ttest_ind(ref, dist, equal_var=False)
                similar = np.isnan(stat.pvalue) or stat.pvalue > config.ttest_pvalue
            if similar:
                redundant = True
                break
        if redundant:
            pruned += 1
        else:
            kept.append(key)
    kept = kept[: config.max_elite]
    return [alive[k] for k in kept], pruned


class TestVectorizedTTestSnapshot:
    """Satellite: the sufficient-statistics t-test keeps identical decisions."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("pvalue", [0.3, 0.7, 0.95])
    def test_matches_reference_on_fixed_seed_snapshots(self, seed, pvalue):
        rng = np.random.default_rng(seed)
        candidates = [
            Pipeline("knn", {"k": int(k), "weights": "uniform", "p": 2})
            for k in (1, 3, 5, 7, 9, 11, 13, 15)
        ]
        scores = {}
        for i, p in enumerate(candidates):
            # Mix of clearly separated, nearly tied, and degenerate dists.
            n_obs = int(rng.integers(1, 7))
            center = rng.choice([0.2, 0.5, 0.5001, 0.8])
            spread = rng.choice([0.0, 0.01, 0.1])
            scores[p.config_key()] = list(
                center + spread * rng.standard_normal(n_obs)
            )
        # One candidate with no scores at all (edge case).
        scores.pop(candidates[-1].config_key())
        config = ModelRaceConfig(ttest_pvalue=pvalue, max_elite=5, random_state=0)
        race = ModelRace(config)
        got_elite, got_pruned = race._prune_ttest(candidates, scores)
        want_elite, want_pruned = _prune_ttest_reference(
            config, candidates, scores
        )
        assert [p.config_key() for p in got_elite] == [
            p.config_key() for p in want_elite
        ]
        assert got_pruned == want_pruned


class TestScoreMemoInRace:
    def test_shared_memo_serves_repeat_races(self, race_data):
        from repro.parallel import ScoreMemo

        X_tr, y_tr, X_te, y_te = race_data
        config = ModelRaceConfig(
            n_partial_sets=2,
            n_folds=2,
            weights=DETERMINISTIC_WEIGHTS,
            random_state=0,
        )
        seeds = make_seed_pipelines(["knn", "gaussian_nb"])
        memo = ScoreMemo()
        first = ModelRace(config, score_memo=memo).run(
            seeds, X_tr, y_tr, X_te, y_te
        )
        hits_after_first = memo.stats()["hits"]
        second = ModelRace(config, score_memo=memo).run(
            seeds, X_tr, y_tr, X_te, y_te
        )
        # The second identical race is served from the memo wherever the
        # work repeats, and the outcome is unchanged.
        assert memo.stats()["hits"] > hits_after_first
        assert [p.config_key() for p in first.elite] == [
            p.config_key() for p in second.elite
        ]
        assert first.scores == second.scores

    def test_memoized_auto_race_matches_serial(self, race_data):
        # Re-races on one snapshot share a memo (the steady state of
        # iterative labeling); the last one is served from it and must
        # still match a memo-free serial race exactly.
        from repro.parallel import ScoreMemo

        serial_race = _run_race(race_data, None)
        memo = ScoreMemo()
        for _ in range(3):
            parallel_race = _run_race(
                race_data, ParallelConfig(n_jobs=4, backend="auto"), memo
            )
        assert [p.config_key() for p in parallel_race.elite] == [
            p.config_key() for p in serial_race.elite
        ]
        assert parallel_race.scores == serial_race.scores
