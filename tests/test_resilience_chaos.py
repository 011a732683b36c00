"""Chaos harness: seeded fault plans against the race and the executors.

Every test here follows the same shape: build a deterministic
:class:`~repro.resilience.FaultPlan`, point it at one instrumented call
site, and assert that the system *degrades* (records the failure, prunes
the component, falls back) instead of crashing — and that the outcome is
reproducible for a fixed seed.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import time

import numpy as np
import pytest

from repro.core import ModelRace, ModelRaceConfig
from repro.datasets.splits import holdout_split
from repro.exceptions import (
    DeadlineExceededError,
    EvaluationError,
    ImputationError,
    InjectedFault,
    TransientError,
    ValidationError,
    WorkerCrashError,
)
from repro.imputation import get_imputer
from repro.observability import RecordingObserver
from repro.parallel import ExecutionEngine, ParallelConfig
from repro.pipeline import ScoreWeights, make_seed_pipelines
from repro.resilience import (
    CircuitBreaker,
    FaultInjector,
    FaultPlan,
    FaultPolicy,
    FaultRule,
    call_with_deadline,
    resilience_stats,
    use_fault_injector,
)

pytestmark = pytest.mark.chaos


@pytest.fixture(autouse=True)
def _fresh_stats(fresh_metrics):
    """Every test counts into its own registry (``resilience_stats``
    reads the installed one)."""
    yield fresh_metrics


@pytest.fixture(scope="module")
def race_data(labeled_features):
    X, y = labeled_features
    return holdout_split(X, y, test_ratio=0.3, random_state=0)


def _race_config(**overrides):
    base = dict(
        n_partial_sets=2,
        n_folds=2,
        max_elite=3,
        random_state=0,
        # Wall-clock-free scoring: chaos outcomes must be byte-comparable.
        weights=ScoreWeights(alpha=0.5, beta=0.25, gamma=0.0),
    )
    base.update(overrides)
    return ModelRaceConfig(**base)


# ---------------------------------------------------------------------------
# FaultPolicy unit behaviour
# ---------------------------------------------------------------------------
class TestFaultPolicy:
    def test_fail_once_then_succeed_is_retried(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] == 1:
                raise TransientError("transient hiccup")
            return "ok"

        policy = FaultPolicy(max_retries=2, backoff_base=0.0, jitter=0.0)
        assert policy.run(flaky, label="test") == "ok"
        assert calls["n"] == 2
        assert resilience_stats()["retries"] == 1

    def test_fatal_errors_are_not_retried(self):
        calls = {"n": 0}

        def broken():
            calls["n"] += 1
            raise ValueError("a bug, not weather")

        policy = FaultPolicy(max_retries=5, backoff_base=0.0)
        with pytest.raises(ValueError):
            policy.run(broken, label="test")
        assert calls["n"] == 1

    def test_retry_budget_exhausts(self):
        def always_down():
            raise TransientError("still down")

        policy = FaultPolicy(max_retries=2, backoff_base=0.0, jitter=0.0)
        with pytest.raises(TransientError):
            policy.run(always_down, label="test")
        assert resilience_stats()["retries"] == 2

    def test_deadline_abandons_hung_call(self):
        start = time.perf_counter()
        with pytest.raises(DeadlineExceededError):
            call_with_deadline(lambda: time.sleep(5.0), 0.1, label="hung")
        # The caller regains control promptly; the sleeper is orphaned.
        assert time.perf_counter() - start < 2.0
        assert resilience_stats()["deadline_hits"] == 1

    def test_deadline_is_fatal_never_retried(self):
        calls = {"n": 0}

        def hang():
            calls["n"] += 1
            time.sleep(5.0)

        policy = FaultPolicy(max_retries=3, eval_deadline=0.1)
        with pytest.raises(DeadlineExceededError):
            policy.run(hang, label="test")
        assert calls["n"] == 1  # a hang retried is a hang multiplied

    def test_no_deadline_runs_inline(self):
        # seconds=None must not spawn a watchdog thread.
        assert call_with_deadline(lambda: 42, None) == 42


# ---------------------------------------------------------------------------
# FaultInjector determinism
# ---------------------------------------------------------------------------
class TestFaultInjector:
    def test_same_seed_same_firing_sequence(self):
        def sequence(seed):
            inj = FaultInjector(
                [FaultRule(site="race.evaluate", probability=0.5)], seed=seed
            )
            out = []
            for i in range(40):
                try:
                    out.append(inj.check("race.evaluate", "knn", token=i) or "pass")
                except InjectedFault:
                    out.append("raise")
            return out

        assert sequence(7) == sequence(7)
        assert sequence(7) != sequence(8)  # plans actually differ by seed
        assert "raise" in sequence(7) and "pass" in sequence(7)

    def test_token_draws_are_order_independent(self):
        inj_fwd = FaultInjector(
            [FaultRule(site="race.evaluate", probability=0.5)], seed=3
        )
        inj_rev = FaultInjector(
            [FaultRule(site="race.evaluate", probability=0.5)], seed=3
        )

        def fires(inj, token):
            try:
                inj.check("race.evaluate", "knn", token=token)
                return False
            except InjectedFault:
                return True

        tokens = list(range(20))
        fwd = {t: fires(inj_fwd, t) for t in tokens}
        rev = {t: fires(inj_rev, t) for t in reversed(tokens)}
        assert fwd == rev

    def test_times_and_after_bound_firing(self):
        inj = FaultInjector(
            [FaultRule(site="classifier.fit", after=1, times=1)], seed=0
        )
        assert inj.check("classifier.fit", "knn") is None  # skipped (after)
        with pytest.raises(InjectedFault):
            inj.check("classifier.fit", "knn")  # fires exactly once
        assert inj.check("classifier.fit", "knn") is None  # exhausted
        assert inj.n_fired == 1

    def test_match_targets_one_component(self):
        inj = FaultInjector(
            [FaultRule(site="imputer.impute", match="mean")], seed=0
        )
        assert inj.check("imputer.impute", "linear") is None
        with pytest.raises(InjectedFault):
            inj.check("imputer.impute", "mean")

    def test_nan_kind_returns_poison_marker(self):
        inj = FaultInjector(
            [FaultRule(site="imputer.impute", kind="nan")], seed=0
        )
        assert inj.check("imputer.impute", "mean") == "nan"

    def test_kill_degrades_to_crash_error_in_parent(self):
        inj = FaultInjector(
            [FaultRule(site="race.evaluate", kind="kill")], seed=0
        )
        with pytest.raises(WorkerCrashError):
            inj.check("race.evaluate", "knn")

    @pytest.mark.parametrize(
        "bad",
        [
            {"site": "executor.task"},  # removed site: would never fire
            {"site": "no.such.site"},
            {"site": "race.evaluate", "kind": "explode"},
            {"site": "race.evaluate", "probability": 1.5},
            {"site": "race.evaluate", "times": 0},
            {"site": "race.evaluate", "after": -1},
            {"site": "race.evaluate", "duration": -1.0},
        ],
    )
    def test_rule_validation(self, bad):
        with pytest.raises(ValidationError):
            FaultRule(**bad)
        with pytest.raises(ValidationError):
            FaultInjector([bad])

    def test_injector_pickles(self):
        import pickle

        inj = FaultInjector(
            [FaultRule(site="race.evaluate", probability=0.5)], seed=9
        )
        clone = pickle.loads(pickle.dumps(inj))
        assert clone.seed == inj.seed
        assert clone.rules == inj.rules


# ---------------------------------------------------------------------------
# CircuitBreaker
# ---------------------------------------------------------------------------
class TestCircuitBreaker:
    def test_opens_after_threshold(self):
        breaker = CircuitBreaker(3, name="test")
        assert not breaker.record_failure("p")
        assert not breaker.record_failure("p")
        assert breaker.record_failure("p")  # third consecutive opens it
        assert breaker.is_open("p")
        assert breaker.open_keys() == ["p"]

    def test_success_resets_streak(self):
        breaker = CircuitBreaker(2, name="test")
        breaker.record_failure("p")
        breaker.record_success("p")
        assert not breaker.record_failure("p")  # streak restarted
        assert not breaker.is_open("p")

    def test_half_open_probe_after_cooldown(self):
        breaker = CircuitBreaker(1, reset_after=0.05, name="test")
        breaker.record_failure("p")
        assert breaker.is_open("p")
        time.sleep(0.06)
        assert not breaker.is_open("p")  # probe allowed
        assert breaker.record_failure("p")  # one failure re-opens


# ---------------------------------------------------------------------------
# Chaos against the race
# ---------------------------------------------------------------------------
class TestRaceChaos:
    def test_fail_once_then_succeed_retries_to_clean_race(self, race_data):
        X_tr, X_te, y_tr, y_te = race_data
        plan = FaultPlan(
            [FaultRule(site="race.evaluate", match="knn", times=1)], seed=0
        )
        cfg = _race_config(
            fault_policy=FaultPolicy(
                max_retries=2, backoff_base=0.0, jitter=0.0
            ),
            fault_injector=plan.injector(),
        )
        seeds = make_seed_pipelines(["knn", "decision_tree"])
        result = ModelRace(cfg).run(seeds, X_tr, y_tr, X_te, y_te)
        assert result.elite  # race completed
        assert result.n_failures == 0  # the retry absorbed the fault
        stats = resilience_stats()
        assert stats["faults_injected"] >= 1
        assert stats["retries"] >= 1

    def test_always_failing_family_is_recorded_not_fatal(self, race_data):
        X_tr, X_te, y_tr, y_te = race_data
        plan = FaultPlan(
            [FaultRule(site="race.evaluate", match="gaussian_nb")], seed=0
        )
        cfg = _race_config(fault_injector=plan.injector())
        seeds = make_seed_pipelines(["knn", "decision_tree", "gaussian_nb"])
        obs = RecordingObserver()
        result = ModelRace(cfg).run(
            seeds, X_tr, y_tr, X_te, y_te, observer=obs
        )
        assert result.elite
        assert result.n_failures >= 1
        assert all(p.classifier_name != "gaussian_nb" for p in result.elite)
        # Failures surface as scored events carrying the error string.
        failed = [
            e for e in obs.of_type("candidate_scored")
            if e["score"].error is not None
        ]
        assert failed and all(
            "InjectedFault" in e["score"].error for e in failed
        )

    def test_quarantine_prunes_failing_pipeline(self, race_data):
        X_tr, X_te, y_tr, y_te = race_data
        plan = FaultPlan(
            [FaultRule(site="race.evaluate", match="gaussian_nb")], seed=0
        )
        cfg = _race_config(
            fault_policy=FaultPolicy(quarantine_threshold=1),
            fault_injector=plan.injector(),
        )
        seeds = make_seed_pipelines(["knn", "gaussian_nb"])
        obs = RecordingObserver()
        result = ModelRace(cfg).run(
            seeds, X_tr, y_tr, X_te, y_te, observer=obs
        )
        assert result.n_quarantined >= 1
        quarantine_events = obs.of_type("quarantine")
        assert quarantine_events
        quarantined_keys = {e["config_key"] for e in quarantine_events}
        # Quarantined configurations never rejoin a later iteration.
        later_scored = {
            e["config_key"]
            for e in obs.of_type("candidate_scored")
            if e["iteration"] > min(q["iteration"] for q in quarantine_events)
        }
        assert not (quarantined_keys & later_scored)
        assert all(p.classifier_name != "gaussian_nb" for p in result.elite)

    def test_hang_past_deadline_is_abandoned(self, race_data):
        X_tr, X_te, y_tr, y_te = race_data
        plan = FaultPlan(
            [
                FaultRule(
                    site="race.evaluate",
                    kind="hang",
                    match="knn",
                    times=1,
                    duration=2.0,
                )
            ],
            seed=0,
        )
        cfg = _race_config(
            fault_policy=FaultPolicy(eval_deadline=0.2),
            fault_injector=plan.injector(),
        )
        seeds = make_seed_pipelines(["knn", "decision_tree"])
        start = time.perf_counter()
        result = ModelRace(cfg).run(seeds, X_tr, y_tr, X_te, y_te)
        assert result.elite
        assert result.n_failures >= 1  # the hung eval scored as failed
        # One 2s hang, 0.2s budget: the race must not have waited it out
        # serially for every fold.
        assert time.perf_counter() - start < 10.0
        assert resilience_stats()["deadline_hits"] >= 1

    def test_fail_fast_escalates(self, race_data):
        X_tr, X_te, y_tr, y_te = race_data
        plan = FaultPlan(
            [FaultRule(site="race.evaluate", match="knn")], seed=0
        )
        cfg = _race_config(
            fault_policy=FaultPolicy(fail_fast=True),
            fault_injector=plan.injector(),
        )
        seeds = make_seed_pipelines(["knn", "decision_tree"])
        with pytest.raises(EvaluationError):
            ModelRace(cfg).run(seeds, X_tr, y_tr, X_te, y_te)

    def test_classifier_fit_site_records_failure(self, race_data):
        X_tr, X_te, y_tr, y_te = race_data
        plan = FaultPlan(
            [FaultRule(site="classifier.fit", match="gaussian_nb")], seed=0
        )
        cfg = _race_config(fault_injector=plan.injector())
        seeds = make_seed_pipelines(["knn", "gaussian_nb"])
        result = ModelRace(cfg).run(seeds, X_tr, y_tr, X_te, y_te)
        assert result.elite
        assert result.n_failures >= 1

    def _chaos_outcome(self, race_data, parallel=None):
        X_tr, X_te, y_tr, y_te = race_data
        plan = FaultPlan(
            [FaultRule(site="race.evaluate", probability=0.4)], seed=11
        )
        overrides = {"fault_injector": plan.injector()}
        if parallel is not None:
            overrides["parallel"] = parallel
        cfg = _race_config(**overrides)
        seeds = make_seed_pipelines(["knn", "decision_tree", "gaussian_nb"])
        result = ModelRace(cfg).run(seeds, X_tr, y_tr, X_te, y_te)
        return (
            sorted(map(str, result.scores)),
            {str(k): v for k, v in result.scores.items()},
            result.n_failures,
        )

    def test_chaos_race_is_deterministic_across_runs(self, race_data):
        first = self._chaos_outcome(race_data)
        second = self._chaos_outcome(race_data)
        assert first == second
        assert first[2] >= 1  # the plan actually fired

    def test_chaos_race_agrees_across_backends(self, race_data):
        serial = self._chaos_outcome(race_data)
        threaded = self._chaos_outcome(
            race_data, parallel=ParallelConfig(n_jobs=4, backend="thread")
        )
        assert serial == threaded


# ---------------------------------------------------------------------------
# Chaos against the imputers
# ---------------------------------------------------------------------------
class TestImputerChaos:
    @pytest.fixture
    def gappy(self):
        X = np.tile(np.sin(np.linspace(0, 6.28, 50)), (3, 1))
        X[0, 10:20] = np.nan
        return X

    def test_nan_poison_trips_typed_validation(self, gappy):
        plan = FaultPlan(
            [FaultRule(site="imputer.impute", kind="nan", match="mean")],
            seed=0,
        )
        with use_fault_injector(plan.injector()):
            with pytest.raises(ImputationError):
                get_imputer("mean").impute(gappy)
            # Unmatched imputers are untouched.
            out = get_imputer("linear").impute(gappy)
        assert np.isfinite(out).all()

    def test_injected_raise_propagates_as_transient(self, gappy):
        plan = FaultPlan(
            [FaultRule(site="imputer.impute", match="mean")], seed=0
        )
        with use_fault_injector(plan.injector()):
            with pytest.raises(InjectedFault):
                get_imputer("mean").impute(gappy)

    def test_impute_deadline_abandons_hang(self, gappy):
        from repro.resilience import use_fault_policy

        plan = FaultPlan(
            [
                FaultRule(
                    site="imputer.impute",
                    kind="hang",
                    duration=2.0,
                    match="mean",
                )
            ],
            seed=0,
        )
        # The site hang fires *before* the kernel (outside the deadline
        # window), so the call is delayed but completes; the companion
        # test below puts the slowness inside the kernel where the
        # deadline actually bites.
        start = time.perf_counter()
        with use_fault_policy(FaultPolicy(impute_deadline=0.5)):
            with use_fault_injector(plan.injector()):
                out = get_imputer("mean").impute(gappy)
        assert np.isfinite(out).all()
        assert time.perf_counter() - start >= 2.0  # the hang really slept

    def test_impute_deadline_on_slow_algorithm(self, gappy, monkeypatch):
        from repro.imputation.simple import MeanImputer
        from repro.resilience import use_fault_policy

        def slow_impute(self, X3, mask3):
            time.sleep(2.0)
            return X3

        monkeypatch.setattr(MeanImputer, "_impute_block", slow_impute)
        start = time.perf_counter()
        with use_fault_policy(FaultPolicy(impute_deadline=0.2)):
            with pytest.raises(DeadlineExceededError):
                MeanImputer().impute(gappy)
        assert time.perf_counter() - start < 1.5


# ---------------------------------------------------------------------------
# Chaos against the execution engine
# ---------------------------------------------------------------------------
def _kill_child_once(item, *, sentinel: str):
    """Picklable task that hard-kills its host worker exactly once.

    The first pool worker to run a task claims the sentinel file and dies
    via ``os._exit`` — the unclean-exit ``BrokenProcessPool`` regression
    reproducer.  Subsequent executions (including the resubmitted batch
    on the demoted thread backend, where ``parent_process()`` is
    ``None``) just compute.
    """
    if multiprocessing.parent_process() is not None and not os.path.exists(sentinel):
        try:
            with open(sentinel, "x") as fh:
                fh.write("killed")
        except FileExistsError:
            return item * 2  # a sibling worker claimed the kill first
        os._exit(23)
    return item * 2


class TestProcessPoolCrash:
    def test_broken_process_pool_demotes_to_thread(self, tmp_path):
        """Regression: a worker dying mid-batch must not abort the batch.

        The engine detects ``BrokenProcessPool``, tears the pool down,
        demotes to the thread backend, and resubmits the *whole* batch —
        the caller sees complete, correctly ordered results.
        """
        engine = ExecutionEngine(ParallelConfig(n_jobs=2, backend="process"))
        if engine._process_pool() is None:
            pytest.skip("process pool unavailable in this environment")
        sentinel = str(tmp_path / "worker-killed")
        fn = functools.partial(_kill_child_once, sentinel=sentinel)
        with engine:
            out = engine.map(fn, list(range(8)), label="crash-batch")
        assert out == [i * 2 for i in range(8)]
        assert os.path.exists(sentinel), "kill task never ran in a pool worker"
        assert engine.n_demotions == 1
        stats = resilience_stats()
        assert stats["worker_crashes"] >= 1
        assert stats["backend_demotions"] >= 1

    def test_engine_survives_follow_up_batches_after_crash(self, tmp_path):
        """After a crash the engine keeps serving batches (on threads)."""
        engine = ExecutionEngine(ParallelConfig(n_jobs=2, backend="process"))
        if engine._process_pool() is None:
            pytest.skip("process pool unavailable in this environment")
        sentinel = str(tmp_path / "worker-killed")
        fn = functools.partial(_kill_child_once, sentinel=sentinel)
        with engine:
            first = engine.map(fn, list(range(4)), label="crash-batch")
            # Pool is marked broken; later batches go straight to threads.
            second = engine.map(fn, list(range(4)), label="after-crash")
        assert first == second == [i * 2 for i in range(4)]
        assert engine.n_demotions == 1  # only the crashed batch demoted
