"""ModelRace telemetry: observer events, IterationRecord, no-op parity."""

import pytest

from repro.core import ModelRace, ModelRaceConfig
from repro.datasets.splits import holdout_split
from repro.observability import (
    CompositeObserver,
    IterationRecord,
    MetricsRegistry,
    RaceObserver,
    RecordingObserver,
    Tracer,
    use_metrics,
    use_tracer,
)
from repro.pipeline import Pipeline, ScoreWeights, make_seed_pipelines


@pytest.fixture(scope="module")
def race_data(labeled_features):
    X, y = labeled_features
    return holdout_split(X, y, test_ratio=0.3, random_state=0)


FAST_CONFIG = ModelRaceConfig(
    n_partial_sets=2, n_folds=2, max_elite=3, n_children_per_parent=2,
    random_state=0,
)

# gamma=0 removes the wall-clock term so runs are strictly comparable.
DETERMINISTIC_CONFIG = ModelRaceConfig(
    n_partial_sets=2, n_folds=2, max_elite=3, n_children_per_parent=2,
    weights=ScoreWeights(alpha=0.5, beta=0.25, gamma=0.0),
    random_state=0,
)


class TestIterationRecord:
    def test_dict_compat(self):
        record = IterationRecord(
            iteration=0, subset_size=10, n_candidates=5, n_folds=2,
            n_evaluations=8, n_early_terminated=1, n_ttest_pruned=2,
            n_elite=3, wall_time=0.5,
        )
        assert record["n_elite"] == 3
        assert record.get("n_folds") == 2
        assert record.get("nope", 42) == 42
        with pytest.raises(KeyError):
            record["does_not_exist"]
        as_dict = record.as_dict()
        assert as_dict["subset_size"] == 10
        assert as_dict["wall_time"] == 0.5

    def test_potential_evaluations(self):
        record = IterationRecord(
            iteration=0, subset_size=10, n_candidates=7, n_folds=3
        )
        assert record.n_potential_evaluations == 21


class TestObserverEvents:
    @pytest.fixture(scope="class")
    def observed_run(self, race_data):
        X_tr, X_te, y_tr, y_te = race_data
        observer = RecordingObserver()
        seeds = make_seed_pipelines(["knn", "decision_tree", "gaussian_nb"])
        result = ModelRace(FAST_CONFIG, observer=observer).run(
            seeds, X_tr, y_tr, X_te, y_te
        )
        return observer, result

    def test_lifecycle_events_fired(self, observed_run):
        observer, result = observed_run
        names = [name for name, _ in observer.events]
        assert names[0] == "race_start"
        assert names[-1] == "race_end"
        assert names.count("iteration_start") == FAST_CONFIG.n_partial_sets
        assert names.count("iteration_end") == FAST_CONFIG.n_partial_sets
        assert names.count("ttest_prune") == FAST_CONFIG.n_partial_sets
        assert names.count("elite_refit") == 1

    def test_candidate_scored_matches_result(self, observed_run):
        observer, result = observed_run
        scored = observer.of_type("candidate_scored")
        assert len(scored) == result.n_evaluations
        for payload in scored:
            assert hasattr(payload["score"], "score")  # PipelineScore

    def test_iteration_end_carries_records(self, observed_run):
        observer, result = observed_run
        records = [p["record"] for p in observer.of_type("iteration_end")]
        assert records == result.iterations
        for record in records:
            assert isinstance(record, IterationRecord)
            assert record.wall_time > 0.0
            assert record.n_folds >= 2
            assert record.n_evaluations <= record.n_potential_evaluations

    def test_early_termination_consistency(self, observed_run):
        observer, result = observed_run
        assert len(observer.of_type("early_termination")) == (
            result.n_early_terminated
        )

    def test_run_observer_overrides_instance(self, race_data):
        X_tr, X_te, y_tr, y_te = race_data
        per_run = RecordingObserver()
        race = ModelRace(FAST_CONFIG, observer=RecordingObserver())
        race.run(
            make_seed_pipelines(["knn"]), X_tr, y_tr, X_te, y_te,
            observer=per_run,
        )
        assert per_run.events  # the per-run observer received the stream

    def test_composite_fans_out(self, race_data):
        X_tr, X_te, y_tr, y_te = race_data
        a, b = RecordingObserver(), RecordingObserver()
        ModelRace(FAST_CONFIG, observer=CompositeObserver([a, b])).run(
            make_seed_pipelines(["knn"]), X_tr, y_tr, X_te, y_te
        )
        assert [n for n, _ in a.events] == [n for n, _ in b.events]

    def test_base_observer_is_noop(self, race_data):
        X_tr, X_te, y_tr, y_te = race_data
        result = ModelRace(FAST_CONFIG, observer=RaceObserver()).run(
            make_seed_pipelines(["knn"]), X_tr, y_tr, X_te, y_te
        )
        assert result.elite


class TestRaceResultTelemetry:
    def test_history_backward_compatible(self, race_data):
        X_tr, X_te, y_tr, y_te = race_data
        result = ModelRace(FAST_CONFIG).run(
            make_seed_pipelines(["knn", "ridge"]), X_tr, y_tr, X_te, y_te
        )
        history = result.history
        assert isinstance(history, list)
        assert all(isinstance(h, dict) for h in history)
        for record in history:
            assert record["n_elite"] <= FAST_CONFIG.max_elite
            assert record["wall_time"] > 0.0

    def test_prune_ratio_bounds(self, race_data):
        X_tr, X_te, y_tr, y_te = race_data
        result = ModelRace(FAST_CONFIG).run(
            make_seed_pipelines(["knn", "decision_tree", "gaussian_nb"]),
            X_tr, y_tr, X_te, y_te,
        )
        assert 0.0 <= result.prune_ratio < 1.0
        assert result.n_potential_evaluations >= result.n_evaluations
        expected = 1.0 - (
            result.n_evaluations / result.n_potential_evaluations
        )
        assert result.prune_ratio == pytest.approx(expected)

    def test_per_iteration_wall_clock_sums_below_total(self, race_data):
        X_tr, X_te, y_tr, y_te = race_data
        result = ModelRace(FAST_CONFIG).run(
            make_seed_pipelines(["knn"]), X_tr, y_tr, X_te, y_te
        )
        iteration_total = sum(r.wall_time for r in result.iterations)
        assert 0.0 < iteration_total <= result.runtime + 1e-6


class TestNoOpParity:
    """Observer absent + null tracer ⇒ identical RaceResult to seed path."""

    def _run(self, race_data, **kwargs):
        X_tr, X_te, y_tr, y_te = race_data
        seeds = make_seed_pipelines(["knn", "ridge", "gaussian_nb"])
        return ModelRace(DETERMINISTIC_CONFIG, **kwargs).run(
            seeds, X_tr, y_tr, X_te, y_te
        )

    def test_instrumented_run_matches_plain_run(self, race_data):
        plain = self._run(race_data)
        tracer = Tracer()
        registry = MetricsRegistry()
        with use_tracer(tracer), use_metrics(registry):
            traced = self._run(race_data, observer=RecordingObserver())
        assert [p.config_key() for p in plain.elite] == [
            p.config_key() for p in traced.elite
        ]
        assert plain.scores == traced.scores
        assert [r.n_evaluations for r in plain.iterations] == [
            r.n_evaluations for r in traced.iterations
        ]
        assert plain.prune_ratio == traced.prune_ratio
        # And the instrumented run actually produced telemetry.
        assert len(tracer) > 0
        assert (
            registry.counter("repro_race_evaluations_total").value
            == traced.n_evaluations
        )

    def test_null_path_emits_nothing(self, race_data):
        """With no tracer installed the default stays a silent singleton;
        the always-on metrics registry does not change the race."""
        from repro.observability import NULL_TRACER, get_tracer

        plain = self._run(race_data)
        assert get_tracer() is NULL_TRACER
        assert NULL_TRACER.finished_spans() == []
        registry = MetricsRegistry()
        with use_metrics(registry):
            fresh = self._run(race_data)
        assert [p.config_key() for p in plain.elite] == [
            p.config_key() for p in fresh.elite
        ]
        assert plain.scores == fresh.scores
        assert plain.n_evaluations == fresh.n_evaluations
        assert plain.prune_ratio == fresh.prune_ratio
        assert [r.n_evaluations for r in plain.iterations] == [
            r.n_evaluations for r in fresh.iterations
        ]
        assert (
            registry.total("repro_race_evaluations_total")
            == fresh.n_evaluations
        )


class _CrashingPipeline(Pipeline):
    """A pipeline whose fit always raises — races must survive it."""

    def fit(self, X, y):
        raise RuntimeError("synthetic failure for telemetry test")

    def clone(self) -> "_CrashingPipeline":
        return _CrashingPipeline(
            self.classifier_name,
            dict(self.classifier_params),
            self.scaler_name,
            dict(self.scaler_params),
        )


class TestFailureTelemetry:
    def test_crashing_pipeline_recorded_not_lost(self, race_data):
        """A pipeline that raises is scored -inf AND counted as a failure."""
        X_tr, X_te, y_tr, y_te = race_data
        bad = _CrashingPipeline("decision_tree")
        good = make_seed_pipelines(["gaussian_nb"])
        registry = MetricsRegistry()
        observer = RecordingObserver()
        with use_metrics(registry):
            result = ModelRace(
                ModelRaceConfig(
                    n_partial_sets=1, n_folds=2, random_state=0
                ),
                observer=observer,
            ).run(good + [bad], X_tr, y_tr, X_te, y_te)
        failures = [
            p
            for p in observer.of_type("candidate_scored")
            if p["score"].error is not None
        ]
        assert failures, "the crashing pipeline must surface in telemetry"
        for payload in failures:
            assert "RuntimeError" in payload["score"].error
            assert payload["score"].score == float("-inf")
        assert any(r.n_failures > 0 for r in result.iterations)
        assert (
            registry.counter(
                "repro_pipeline_failures_total",
                labels={"classifier": "decision_tree"},
            ).value
            > 0
        )
