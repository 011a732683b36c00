"""ModelRace telemetry: spans, counters, the race logger, IterationRecord."""

import logging

import pytest

from repro.core import IterationRecord, ModelRace, ModelRaceConfig
from repro.datasets.splits import holdout_split
from repro.observability import (
    MetricsRegistry,
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


def _spans(tracer, name):
    return [s for s in tracer.finished_spans() if s.name == name]


class TestIterationRecord:
    def test_dict_compat(self):
        record = IterationRecord(
            iteration=0, subset_size=10, n_candidates=5, n_folds=2,
            n_evaluations=8, n_early_terminated=1, n_ttest_pruned=2,
            n_elite=3, wall_time=0.5,
        )
        as_dict = record.as_dict()
        assert as_dict["subset_size"] == 10
        assert as_dict["n_elite"] == 3
        assert as_dict["wall_time"] == 0.5
        assert IterationRecord(**as_dict) == record

    def test_potential_evaluations(self):
        record = IterationRecord(
            iteration=0, subset_size=10, n_candidates=7, n_folds=3
        )
        assert record.n_potential_evaluations == 21


class TestObserverEvents:
    """The race lifecycle as spans, counters and log lines (serial backend,
    so every evaluation span lands on the installed tracer)."""

    @pytest.fixture(scope="class")
    def observed_run(self, race_data):
        X_tr, X_te, y_tr, y_te = race_data
        tracer = Tracer()
        registry = MetricsRegistry()
        seeds = make_seed_pipelines(["knn", "decision_tree", "gaussian_nb"])
        with use_tracer(tracer), use_metrics(registry):
            result = ModelRace(FAST_CONFIG).run(
                seeds, X_tr, y_tr, X_te, y_te
            )
        return tracer, registry, result

    def test_lifecycle_events_fired(self, observed_run):
        tracer, _, result = observed_run
        (run,) = _spans(tracer, "race.run")
        iterations = _spans(tracer, "race.iteration")
        (refit,) = _spans(tracer, "race.elite_refit")
        assert len(iterations) == FAST_CONFIG.n_partial_sets
        assert all(s.parent_id == run.span_id for s in iterations)
        assert refit.parent_id == run.span_id
        assert run.tags["n_elite"] == len(result.elite)

    def test_candidate_scored_matches_result(self, observed_run):
        tracer, registry, result = observed_run
        assert (
            registry.counter("repro_race_evaluations_total").value
            == result.n_evaluations
        )
        # Memo hits are counted but not re-scored, so they open no span.
        evaluations = _spans(tracer, "race.evaluate")
        assert 0 < len(evaluations) <= result.n_evaluations
        assert not any("error" in s.tags for s in evaluations)

    def test_iteration_end_carries_records(self, observed_run):
        tracer, _, result = observed_run
        spans = _spans(tracer, "race.iteration")
        assert len(spans) == len(result.iterations)
        for span, record in zip(spans, result.iterations):
            tags = {k: v for k, v in span.tags.items() if k != "subsystem"}
            assert tags == record.as_dict()
            assert record.wall_time > 0.0
            assert record.n_folds >= 2
            assert record.n_evaluations <= record.n_potential_evaluations

    def test_early_termination_consistency(self, observed_run):
        _, registry, result = observed_run
        assert (
            registry.counter("repro_race_early_terminations_total").value
            == result.n_early_terminated
        )
        assert (
            registry.counter("repro_race_ttest_pruned_total").value
            == result.n_ttest_pruned
        )

    def test_logger_narrates_each_event(self, race_data, caplog):
        X_tr, X_te, y_tr, y_te = race_data
        seeds = make_seed_pipelines(["knn", "decision_tree", "gaussian_nb"])
        with caplog.at_level(logging.DEBUG, logger="repro.core.modelrace"):
            result = ModelRace(FAST_CONFIG).run(
                seeds, X_tr, y_tr, X_te, y_te
            )
        messages = [
            (r.levelno, r.getMessage())
            for r in caplog.records
            if r.name == "repro.core.modelrace"
        ]
        assert messages[0] == (
            logging.INFO,
            f"race start: 3 seed pipelines, {X_tr.shape[0]} samples",
        )
        done = [m for level, m in messages if " done: evals=" in m]
        assert done == [
            f"iteration {r.iteration} done: evals={r.n_evaluations} "
            f"early={r.n_early_terminated} pruned={r.n_ttest_pruned} "
            f"elite={r.n_elite} ({r.wall_time:.3f}s)"
            for r in result.iterations
        ]
        early = [
            level for level, m in messages if "early-terminated" in m
        ]
        assert early == [logging.DEBUG] * result.n_early_terminated
        assert messages[-1] == (
            logging.INFO,
            f"elite refit: {len(result.elite)}/{len(result.elite)} fitted",
        )


class TestRaceResultTelemetry:
    def test_history_backward_compatible(self, race_data):
        """Each record's plain-dict view (the ledger ``race`` row) keeps
        the historical keys."""
        X_tr, X_te, y_tr, y_te = race_data
        result = ModelRace(FAST_CONFIG).run(
            make_seed_pipelines(["knn", "ridge"]), X_tr, y_tr, X_te, y_te
        )
        rows = [record.as_dict() for record in result.iterations]
        assert len(rows) == FAST_CONFIG.n_partial_sets
        for row in rows:
            assert row["n_elite"] <= FAST_CONFIG.max_elite
            assert row["wall_time"] > 0.0

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
    """Null tracer ⇒ identical RaceResult to the traced path."""

    def _run(self, race_data):
        X_tr, X_te, y_tr, y_te = race_data
        seeds = make_seed_pipelines(["knn", "ridge", "gaussian_nb"])
        return ModelRace(DETERMINISTIC_CONFIG).run(
            seeds, X_tr, y_tr, X_te, y_te
        )

    def test_instrumented_run_matches_plain_run(self, race_data):
        plain = self._run(race_data)
        tracer = Tracer()
        registry = MetricsRegistry()
        with use_tracer(tracer), use_metrics(registry):
            traced = self._run(race_data)
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
        tracer = Tracer()
        with use_metrics(registry), use_tracer(tracer):
            result = ModelRace(
                ModelRaceConfig(n_partial_sets=1, n_folds=2, random_state=0)
            ).run(good + [bad], X_tr, y_tr, X_te, y_te)
        failures = [
            s for s in _spans(tracer, "race.evaluate") if "error" in s.tags
        ]
        assert failures, "the crashing pipeline must surface in telemetry"
        for span in failures:
            assert span.tags["classifier"] == "decision_tree"
            assert "RuntimeError" in span.tags["error"]
        assert len(failures) == result.n_failures > 0
        assert (
            registry.counter(
                "repro_pipeline_failures_total",
                labels={"classifier": "decision_tree"},
            ).value
            > 0
        )
