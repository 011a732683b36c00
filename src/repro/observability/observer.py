"""Race event-callback API: structured per-iteration records + observers.

:class:`ModelRace <repro.core.modelrace.ModelRace>` emits the lifecycle of
Algorithm 1 into a :class:`RaceObserver`:

* ``on_race_start`` / ``on_race_end`` — the whole race;
* ``on_iteration_start`` / ``on_iteration_end`` — one partial-set round;
* ``on_candidate_scored`` — every (pipeline, fold) evaluation;
* ``on_early_termination`` — phase-1 pruning (fold-margin);
* ``on_ttest_prune`` — phase-2 pruning (Welch t-test redundancy);
* ``on_elite_refit`` — the final full-data refit of the survivors.

All methods default to no-ops, so subclasses override only what they
need.  :class:`IterationRecord` replaces the historical ad-hoc history
dicts; ``RaceResult.history`` keeps returning plain dicts for backward
compatibility.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field


@dataclass
class IterationRecord:
    """Structured per-iteration diagnostics of one ModelRace round.

    Attributes
    ----------
    iteration:
        0-based index of the partial-set round.
    subset_size:
        Number of training samples in this round's partial set.
    n_candidates:
        Candidate pipelines entering the round (elite + synthesized).
    n_folds:
        Stratified folds evaluated this round.
    n_evaluations:
        (pipeline, fold) evaluations actually executed.
    n_early_terminated:
        Candidates dropped by phase-1 pruning (fold-margin).
    n_ttest_pruned:
        Candidates dropped by phase-2 pruning (t-test redundancy).
    n_failures:
        Evaluations that raised inside fit/predict (scored ``-inf``).
    n_quarantined:
        Candidates quarantined by the race circuit breaker this round
        (repeated consecutive failures).
    n_elite:
        Survivors after both pruning phases.
    wall_time:
        Wall-clock seconds spent on this iteration.
    """

    iteration: int
    subset_size: int
    n_candidates: int
    n_folds: int = 0
    n_evaluations: int = 0
    n_early_terminated: int = 0
    n_ttest_pruned: int = 0
    n_failures: int = 0
    n_quarantined: int = 0
    n_elite: int = 0
    wall_time: float = 0.0

    @property
    def n_potential_evaluations(self) -> int:
        """Evaluations a pruning-free race would have run this round."""
        return self.n_candidates * self.n_folds

    def as_dict(self) -> dict:
        """Plain-dict view (the legacy ``RaceResult.history`` format)."""
        return asdict(self)

    # Legacy compatibility: history records used to be plain dicts, so
    # keep item access working on the dataclass too.
    def __getitem__(self, key: str):
        try:
            return getattr(self, key)
        except AttributeError:
            raise KeyError(key) from None

    def get(self, key: str, default=None):
        """Dict-style ``get`` for legacy consumers."""
        return getattr(self, key, default)


class RaceObserver:
    """Base observer: every callback is a no-op.

    Subclass and override the events you care about; ModelRace guarantees
    the call order documented in the module docstring.  Observers must not
    mutate their arguments — records are shared with ``RaceResult``.
    """

    def on_race_start(self, n_seeds: int, n_samples: int) -> None:
        """The race begins with ``n_seeds`` pipelines on ``n_samples``."""

    def on_iteration_start(
        self, iteration: int, subset_size: int, n_candidates: int
    ) -> None:
        """A partial-set round begins."""

    def on_candidate_scored(
        self, iteration: int, fold: int, config_key: tuple, score
    ) -> None:
        """One (pipeline, fold) evaluation finished.

        ``score`` is the full :class:`~repro.pipeline.scoring.PipelineScore`
        (including runtime and the optional ``error`` string).
        """

    def on_early_termination(
        self, iteration: int, fold: int, config_key: tuple
    ) -> None:
        """A candidate was dropped by phase-1 (fold-margin) pruning."""

    def on_quarantine(
        self, iteration: int, fold: int, config_key: tuple
    ) -> None:
        """The race circuit breaker quarantined a repeatedly failing
        candidate (it leaves the race like an early termination, but for
        reliability rather than score reasons)."""

    def on_ttest_prune(self, iteration: int, n_pruned: int) -> None:
        """Phase-2 (t-test) pruning removed ``n_pruned`` candidates."""

    def on_iteration_end(self, record: IterationRecord) -> None:
        """A round finished; ``record`` carries the full diagnostics."""

    def on_elite_refit(self, n_elite: int, n_fitted: int) -> None:
        """The final refit completed (``n_fitted`` of ``n_elite`` fit OK)."""

    def on_race_end(self, result) -> None:
        """The race finished; ``result`` is the full ``RaceResult``."""


#: Shared no-op observer used when none is supplied.
NULL_OBSERVER = RaceObserver()


class CompositeObserver(RaceObserver):
    """Fan one event stream out to several observers, in order."""

    def __init__(self, observers):
        self.observers = list(observers)

    def on_race_start(self, n_seeds, n_samples):
        for obs in self.observers:
            obs.on_race_start(n_seeds, n_samples)

    def on_iteration_start(self, iteration, subset_size, n_candidates):
        for obs in self.observers:
            obs.on_iteration_start(iteration, subset_size, n_candidates)

    def on_candidate_scored(self, iteration, fold, config_key, score):
        for obs in self.observers:
            obs.on_candidate_scored(iteration, fold, config_key, score)

    def on_early_termination(self, iteration, fold, config_key):
        for obs in self.observers:
            obs.on_early_termination(iteration, fold, config_key)

    def on_quarantine(self, iteration, fold, config_key):
        for obs in self.observers:
            obs.on_quarantine(iteration, fold, config_key)

    def on_ttest_prune(self, iteration, n_pruned):
        for obs in self.observers:
            obs.on_ttest_prune(iteration, n_pruned)

    def on_iteration_end(self, record):
        for obs in self.observers:
            obs.on_iteration_end(record)

    def on_elite_refit(self, n_elite, n_fitted):
        for obs in self.observers:
            obs.on_elite_refit(n_elite, n_fitted)

    def on_race_end(self, result):
        for obs in self.observers:
            obs.on_race_end(result)


@dataclass
class RecordingObserver(RaceObserver):
    """Records every event as ``(event_name, payload)`` tuples (tests/debug)."""

    events: list = field(default_factory=list)

    def _push(self, name: str, **payload) -> None:
        self.events.append((name, payload))

    def of_type(self, name: str) -> list:
        """Payloads of every recorded event called ``name``."""
        return [payload for event, payload in self.events if event == name]

    def on_race_start(self, n_seeds, n_samples):
        self._push("race_start", n_seeds=n_seeds, n_samples=n_samples)

    def on_iteration_start(self, iteration, subset_size, n_candidates):
        self._push(
            "iteration_start",
            iteration=iteration,
            subset_size=subset_size,
            n_candidates=n_candidates,
        )

    def on_candidate_scored(self, iteration, fold, config_key, score):
        self._push(
            "candidate_scored",
            iteration=iteration,
            fold=fold,
            config_key=config_key,
            score=score,
        )

    def on_early_termination(self, iteration, fold, config_key):
        self._push(
            "early_termination",
            iteration=iteration,
            fold=fold,
            config_key=config_key,
        )

    def on_quarantine(self, iteration, fold, config_key):
        self._push(
            "quarantine",
            iteration=iteration,
            fold=fold,
            config_key=config_key,
        )

    def on_ttest_prune(self, iteration, n_pruned):
        self._push("ttest_prune", iteration=iteration, n_pruned=n_pruned)

    def on_iteration_end(self, record):
        self._push("iteration_end", record=record)

    def on_elite_refit(self, n_elite, n_fitted):
        self._push("elite_refit", n_elite=n_elite, n_fitted=n_fitted)

    def on_race_end(self, result):
        self._push("race_end", result=result)


class LoggingObserver(RaceObserver):
    """Narrates race progress through the ``repro`` logger hierarchy."""

    def __init__(self, logger=None):
        from repro.observability.log import get_logger

        self.logger = logger or get_logger("observability.race")

    def on_race_start(self, n_seeds, n_samples):
        self.logger.info(
            "race start: %d seed pipelines, %d samples", n_seeds, n_samples
        )

    def on_iteration_start(self, iteration, subset_size, n_candidates):
        self.logger.info(
            "iteration %d: subset=%d candidates=%d",
            iteration,
            subset_size,
            n_candidates,
        )

    def on_early_termination(self, iteration, fold, config_key):
        self.logger.debug(
            "iteration %d fold %d: early-terminated %s",
            iteration,
            fold,
            config_key,
        )

    def on_quarantine(self, iteration, fold, config_key):
        self.logger.warning(
            "iteration %d fold %d: quarantined %s (repeated failures)",
            iteration,
            fold,
            config_key,
        )

    def on_ttest_prune(self, iteration, n_pruned):
        if n_pruned:
            self.logger.info(
                "iteration %d: t-test pruned %d", iteration, n_pruned
            )

    def on_iteration_end(self, record):
        self.logger.info(
            "iteration %d done: evals=%d early=%d pruned=%d elite=%d "
            "(%.3fs)",
            record.iteration,
            record.n_evaluations,
            record.n_early_terminated,
            record.n_ttest_pruned,
            record.n_elite,
            record.wall_time,
        )

    def on_elite_refit(self, n_elite, n_fitted):
        self.logger.info("elite refit: %d/%d fitted", n_fitted, n_elite)
