"""ModelRace: the two-phase racing pipeline selector (Algorithm 1).

The race iterates over growing partial training sets.  Each iteration:

1. **Synthesize** new candidate pipelines around the current elite
   (one-parameter mutations, Fig. 3 step 1);
2. **Evaluate** every candidate on stratified k-folds of the current partial
   set, scoring ``(alpha*F1 + beta*R@3 - gamma*time) / (alpha+beta+gamma)``;
3. **Early-terminate** (phase-1 pruning) candidates that trail the fold's
   best score by a margin — they skip the remaining folds.  All of a
   fold's evaluations complete *before* the margin test runs (a
   deterministic post-fold barrier), so every candidate is judged
   against the true fold best regardless of evaluation order — and the
   fold's evaluations can fan out across workers
   (``ModelRaceConfig.parallel``) without changing the outcome;
4. **Prune** (phase-2) via pairwise Welch t-tests on accumulated score
   distributions: statistically *similar* pipelines are redundant, so the
   lower-mean member is dropped; the elite is finally capped by mean score.

Distinct from classic AutoML racing, multiple configurations of the *same*
classifier family can survive — duplicates are the point (Section VII-D).

Telemetry
---------
The race has no callback API of its own; it reports through

* spans on the process tracer (``repro.observability.get_tracer()``):
  one ``race.run``, one ``race.iteration`` per partial set (tagged with
  its :meth:`IterationRecord.as_dict`), one ``race.evaluate`` per
  (pipeline, fold) scored in this process — tagged ``error`` when the
  score carries one — and one ``race.elite_refit``;
* counters and histograms on the process metrics registry;
* narration on the ``repro.core.modelrace`` logger (silent until
  ``enable_console_logging()``, which ``repro train --verbose`` calls).

:class:`RaceResult` holds the outcome, with one :class:`IterationRecord`
per partial set.  With no tracer installed every span is a shared no-op.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.special import stdtr

from repro.core.config import ModelRaceConfig
from repro.datasets.splits import stratified_kfold
from repro.exceptions import EvaluationError, ValidationError
from repro.observability import get_logger, get_metrics, get_tracer
from repro.observability.ledger import get_ledger, new_id
from repro.parallel import ExecutionEngine, ScoreMemo, hash_arrays
from repro.pipeline.pipeline import Pipeline
from repro.pipeline.scoring import PipelineScore, score_pipeline
from repro.pipeline.synthesizer import Synthesizer
from repro.resilience import (
    CircuitBreaker,
    get_fault_injector,
    get_fault_policy,
)
from repro.utils.rng import ensure_rng
from repro.utils.timing import Timer

_log = get_logger(__name__)


def welch_pvalue(mean1, std1, n1, mean2, std2, n2) -> float:
    """Two-sided p-value of Welch's t-test from summary statistics.

    ``std`` is the ddof=1 sample standard deviation.  The arithmetic and
    its order are those of ``scipy.stats.ttest_ind_from_stats(...,
    equal_var=False)``, so the p-value is bit-identical to it.
    """
    vn1 = np.asarray(std1, dtype=float) ** 2 / n1
    vn2 = np.asarray(std2, dtype=float) ** 2 / n2
    with np.errstate(divide="ignore", invalid="ignore"):
        df = (vn1 + vn2) ** 2 / (vn1**2 / (n1 - 1) + vn2**2 / (n2 - 1))
        # Zero variances leave df undefined; any non-NaN value will do.
        df = np.where(np.isnan(df), 1.0, df)
        t = np.divide(
            np.asarray(mean1, dtype=float) - np.asarray(mean2, dtype=float),
            np.sqrt(vn1 + vn2),
        )
    return float(2 * stdtr(df, -np.abs(t)))


def _evaluate_candidate(
    pipeline: Pipeline,
    *,
    X_train: np.ndarray,
    y_train: np.ndarray,
    X_test: np.ndarray,
    y_test: np.ndarray,
    weights,
    time_scale: float,
    iteration: int,
    fold: int,
    policy=None,
    injector=None,
) -> PipelineScore:
    """Score one candidate on one fold (picklable parallel worker).

    The single ``score_pipeline`` call site of the race.  The span is a
    shared no-op unless a tracer is installed in *this* process —
    process-backend workers therefore trace nothing, while serial and
    thread execution feed the parent tracer as before.

    With a :class:`~repro.resilience.FaultPolicy`, each attempt runs
    under the policy's evaluation deadline, and *retryable* failures
    (injected chaos, transient infrastructure trouble) are re-attempted
    up to ``policy.max_retries`` times; a failure that survives the
    policy is returned as a scored-as-failed :class:`PipelineScore`
    (``score=-inf``, ``error`` set) so the race records it instead of
    dying.  With an injector, the ``race.evaluate`` fault site fires
    first, keyed by the deterministic ``(iteration, fold)`` token so
    fault plans replay identically across execution backends.
    """
    tracer = get_tracer()
    with tracer.span(
        "race.evaluate",
        subsystem="race",
        iteration=iteration,
        fold=fold,
        classifier=pipeline.classifier_name,
    ) as span:
        def _attempt() -> PipelineScore:
            if injector is not None:
                injector.check(
                    "race.evaluate",
                    pipeline.classifier_name,
                    token=(iteration, fold),
                )
            return score_pipeline(
                pipeline.clone(),
                X_train,
                y_train,
                X_test,
                y_test,
                weights=weights,
                time_scale=time_scale,
                injector=injector,
            )

        if policy is None and injector is None:
            result = _attempt()  # historical zero-overhead path
        else:
            try:
                if policy is None:
                    result = _attempt()
                else:
                    result = policy.run(
                        _attempt,
                        label=f"race.evaluate:{pipeline.classifier_name}",
                    )
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
                _log.warning(
                    "evaluation of %s failed beyond the fault policy: %s",
                    pipeline,
                    error,
                )
                result = PipelineScore(
                    0.0, 0.0, float("inf"), float("-inf"), error=error
                )
        if result.error is not None:
            span.set_tag("error", result.error)
        return result


@dataclass
class IterationRecord:
    """Diagnostics of one ModelRace round (one partial set).

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
        """Plain-dict view: the ledger ``race`` row and the
        ``race.iteration`` span tags."""
        return asdict(self)


@dataclass
class RaceResult:
    """Outcome of one ModelRace run.

    Attributes
    ----------
    elite:
        Surviving pipelines (fitted on the full training set).
    scores:
        Accumulated fold scores per surviving pipeline config key.
    iterations:
        One :class:`IterationRecord` per partial-set round.
    runtime:
        Total wall-clock seconds of the race.
    ledger_record_id:
        Id of the ``race`` provenance row appended to the active
        :class:`~repro.observability.ledger.RepairLedger`, ``None`` when
        no ledger was installed.  ``fit`` and ``repair`` rows reference
        it so ``repro explain`` can walk back to the elite fold scores.
    """

    elite: list[Pipeline]
    scores: dict[tuple, list[float]]
    iterations: list[IterationRecord] = field(default_factory=list)
    runtime: float = 0.0
    ledger_record_id: str | None = None

    @property
    def n_evaluations(self) -> int:
        """Total number of (pipeline, fold) evaluations performed."""
        return sum(r.n_evaluations for r in self.iterations)

    @property
    def n_potential_evaluations(self) -> int:
        """Evaluations a pruning-free race would have run."""
        return sum(r.n_potential_evaluations for r in self.iterations)

    @property
    def n_early_terminated(self) -> int:
        """Total phase-1 (fold-margin) terminations."""
        return sum(r.n_early_terminated for r in self.iterations)

    @property
    def n_ttest_pruned(self) -> int:
        """Total phase-2 (t-test) prunes."""
        return sum(r.n_ttest_pruned for r in self.iterations)

    @property
    def n_failures(self) -> int:
        """Total evaluations that raised inside fit/predict."""
        return sum(r.n_failures for r in self.iterations)

    @property
    def n_quarantined(self) -> int:
        """Total candidates quarantined by the race circuit breaker."""
        return sum(r.n_quarantined for r in self.iterations)

    @property
    def prune_ratio(self) -> float:
        """Fraction of potential evaluations avoided by pruning (Fig. 8).

        ``1 - n_evaluations / n_potential_evaluations``; 0.0 when nothing
        could have been pruned.
        """
        potential = self.n_potential_evaluations
        if potential <= 0:
            return 0.0
        return max(0.0, 1.0 - self.n_evaluations / potential)


class ModelRace:
    """Run Algorithm 1 over a labeled feature matrix.

    Parameters
    ----------
    config:
        :class:`ModelRaceConfig` tuning knobs.
    """

    def __init__(
        self,
        config: ModelRaceConfig | None = None,
        score_memo: ScoreMemo | None = None,
    ):
        self.config = config or ModelRaceConfig()
        #: Memo of (pipeline, fold-content) → PipelineScore.  ``None``
        #: creates a fresh per-race memo inside each :meth:`run`; pass a
        #: shared :class:`~repro.parallel.ScoreMemo` to reuse scores
        #: across repeated races over the same corpus.
        self.score_memo = score_memo

    # ------------------------------------------------------------------
    def _partial_sets(
        self, n: int, rng: np.random.Generator
    ) -> list[np.ndarray]:
        """Growing nested subsets of sample indices (S_1 ⊂ S_2 ⊂ ... = all)."""
        cfg = self.config
        perm = rng.permutation(n)
        if cfg.n_partial_sets == 1:
            return [perm]
        fractions = np.linspace(cfg.initial_fraction, 1.0, cfg.n_partial_sets)
        sets = []
        for frac in fractions:
            size = max(cfg.n_folds + 1, int(round(frac * n)))
            sets.append(perm[: min(size, n)])
        return sets

    def _prune_ttest(
        self, candidates: list[Pipeline], scores: dict[tuple, list[float]]
    ) -> tuple[list[Pipeline], int]:
        """Phase-2 pruning: drop the lower-mean member of similar pairs.

        Per-key count/mean/variance are computed **once** up front; the
        pairwise Welch tests then run from those sufficient statistics
        (``ttest_ind_from_stats``), so the O(n²) comparison loop never
        touches the raw score lists again.  Decisions are identical to
        the naive recompute-everything implementation (snapshot-tested).
        """
        cfg = self.config
        alive = {p.config_key(): p for p in candidates}
        # Sufficient statistics, one pass per key.
        stats: dict[tuple, tuple[int, float, float]] = {}
        for key in alive:
            dist = scores.get(key) or []
            arr = np.asarray(dist, dtype=float)
            n = int(arr.size)
            mean = float(arr.mean()) if n else float("nan")
            # ddof=1 sample std, as welch_pvalue expects.
            std = float(arr.std(ddof=1)) if n >= 2 else 0.0
            stats[key] = (n, mean, std)
        keys = sorted(
            alive,
            key=lambda k: stats[k][1] if stats[k][0] else -np.inf,
            reverse=True,
        )
        pruned = 0
        kept: list[tuple] = []
        for key in keys:
            n_d, mean_d, std_d = stats[key]
            redundant = False
            for kept_key in kept:
                n_r, mean_r, std_r = stats[kept_key]
                if n_d < 2 or n_r < 2:
                    # Empty-dist fallback mirrors the historical
                    # ``np.mean(dist or [0.0])`` expression exactly.
                    similar = np.isclose(
                        mean_d if n_d else 0.0, mean_r, atol=1e-3
                    )
                else:
                    pvalue = welch_pvalue(
                        mean_r, std_r, n_r, mean_d, std_d, n_d
                    )
                    similar = np.isnan(pvalue) or pvalue > cfg.ttest_pvalue
                if similar:
                    redundant = True
                    break
            if redundant:
                pruned += 1
            else:
                kept.append(key)
        # Cap the elite by mean score (kept is already sorted best-first).
        kept = kept[: cfg.max_elite]
        return [alive[k] for k in kept], pruned

    # ------------------------------------------------------------------
    def run(
        self,
        seed_pipelines: list[Pipeline],
        X: np.ndarray,
        y: np.ndarray,
        X_test: np.ndarray,
        y_test: np.ndarray,
    ) -> RaceResult:
        """Race the pipelines; return the surviving elite fitted on all of X.

        Parameters
        ----------
        seed_pipelines:
            Initial pipelines (>= one per classifier family of interest).
        X, y:
            Training features/labels (the union of partial sets S).
        X_test, y_test:
            The held-out test set T used for evaluation inside the race.
        """
        if not seed_pipelines:
            raise ValidationError("seed_pipelines must be non-empty")
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        if X.shape[0] != y.shape[0]:
            raise ValidationError("X and y disagree on sample count")
        cfg = self.config
        tracer = get_tracer()
        metrics = get_metrics()
        eval_counter = metrics.counter(
            "repro_race_evaluations_total",
            "Pipeline-fold evaluations executed by ModelRace",
        )
        early_counter = metrics.counter(
            "repro_race_early_terminations_total",
            "Candidates dropped by phase-1 (fold-margin) pruning",
        )
        ttest_counter = metrics.counter(
            "repro_race_ttest_pruned_total",
            "Candidates dropped by phase-2 (t-test) pruning",
        )
        failure_counter = metrics.counter(
            "repro_race_eval_failures_total",
            "Evaluations that raised inside pipeline fit/predict",
        )
        quarantine_counter = metrics.counter(
            "repro_race_quarantined_total",
            "Candidates quarantined by the race circuit breaker",
        )
        score_hist = metrics.histogram(
            "repro_race_eval_score",
            "Distribution of per-evaluation race scores",
        )
        eval_time_hist = metrics.histogram(
            "repro_race_eval_seconds",
            "Per-evaluation pipeline fit+predict wall seconds",
        )
        iteration_time_hist = metrics.histogram(
            "repro_race_iteration_seconds",
            "Per-iteration wall seconds of the race",
        )

        # Resilience context: explicit config wins, then the process-level
        # policy/injector, then the historical behaviour (no retries, no
        # deadlines, quarantine after 3 consecutive failures).
        policy = (
            cfg.fault_policy
            if cfg.fault_policy is not None
            else get_fault_policy()
        )
        injector = (
            cfg.fault_injector
            if cfg.fault_injector is not None
            else get_fault_injector()
        )
        breaker = CircuitBreaker(
            policy.quarantine_threshold if policy is not None else 3,
            name="race",
        )
        quarantined: set[tuple] = set()

        rng = ensure_rng(cfg.random_state)
        synthesizer = Synthesizer(
            n_children_per_parent=cfg.n_children_per_parent,
            random_state=rng,
        )
        engine = ExecutionEngine(cfg.parallel)
        memo = self.score_memo if self.score_memo is not None else ScoreMemo()
        # Run-level context folded into every memo key: identical fold
        # data under a different test set / scoring config never collides.
        memo_context = hash_arrays(
            X_test,
            y_test,
            extra=repr((cfg.weights, cfg.time_budget)),
        )
        scores: dict[tuple, list[float]] = {}
        elite: list[Pipeline] = list(seed_pipelines)
        records: list[IterationRecord] = []
        time_scale = cfg.time_budget  # absolute normalizer for `time`
        _log.info(
            "race start: %d seed pipelines, %d samples",
            len(seed_pipelines),
            X.shape[0],
        )
        total_timer = Timer()
        # ``engine`` participates in the with-block so its worker pools
        # (reused across folds) are torn down when the race finishes.
        with engine, total_timer, tracer.span(
            "race.run",
            subsystem="race",
            n_seeds=len(seed_pipelines),
            n_samples=int(X.shape[0]),
        ) as race_span:
            for iteration, subset in enumerate(self._partial_sets(X.shape[0], rng)):
                iteration_timer = Timer()
                iteration_span = tracer.span(
                    "race.iteration",
                    subsystem="race",
                    iteration=iteration,
                    subset_size=int(len(subset)),
                )
                with iteration_timer, iteration_span:
                    new = synthesizer.synthesize(
                        elite, known=set(scores)
                    ) if iteration > 0 else synthesizer.synthesize(elite)
                    candidates = _dedupe(elite + new)
                    if quarantined:
                        # Quarantined configurations never re-enter the
                        # race — unless dropping them would empty it.
                        healthy = [
                            p for p in candidates
                            if p.config_key() not in quarantined
                        ]
                        if healthy:
                            candidates = healthy
                    _log.info(
                        "iteration %d: subset=%d candidates=%d",
                        iteration,
                        len(subset),
                        len(candidates),
                    )
                    active = {p.config_key() for p in candidates}
                    n_evals = 0
                    n_early = 0
                    n_failures = 0
                    n_quarantined = 0
                    X_sub, y_sub = X[subset], y[subset]
                    n_folds = min(cfg.n_folds, max(2, len(subset) // 2))
                    folds = list(
                        stratified_kfold(y_sub, n_splits=n_folds, random_state=rng)
                    )
                    for fold_idx, (train_idx, _fold_test_idx) in enumerate(folds):
                        # Candidates still racing (early-terminated ones
                        # skip the remaining folds), in stable order.
                        fold_pipelines = [
                            p for p in candidates if p.config_key() in active
                        ]
                        if not fold_pipelines:
                            continue
                        X_train, y_train = X_sub[train_idx], y_sub[train_idx]
                        fold_key = hash_arrays(
                            X_train, y_train, extra=memo_context
                        )
                        # Memo lookup: identical (pipeline, fold-content)
                        # work is never rescored.
                        slots: list[PipelineScore | None] = []
                        pending: list[Pipeline] = []
                        for pipeline in fold_pipelines:
                            cached = memo.get((pipeline.config_key(), fold_key))
                            slots.append(cached)
                            if cached is None:
                                pending.append(pipeline)
                        task = functools.partial(
                            _evaluate_candidate,
                            X_train=X_train,
                            y_train=y_train,
                            X_test=X_test,
                            y_test=y_test,
                            weights=cfg.weights,
                            time_scale=time_scale,
                            iteration=iteration,
                            fold=fold_idx,
                            policy=policy,
                            injector=injector,
                        )
                        computed = iter(
                            engine.map(task, pending, label="race.evaluate_fold")
                            if pending
                            else []
                        )
                        results: list[PipelineScore] = [
                            slot if slot is not None else next(computed)
                            for slot in slots
                        ]
                        for pipeline, result in zip(fold_pipelines, results):
                            key = pipeline.config_key()
                            if result.error is None:
                                # Failed scores are never memoized: a
                                # transient failure must not poison a
                                # shared cross-race memo.
                                memo.put((key, fold_key), result)
                            n_evals += 1
                            eval_counter.inc()
                            score_hist.observe(result.score)
                            eval_time_hist.observe(result.runtime)
                            if result.error is not None:
                                n_failures += 1
                                failure_counter.inc()
                                if policy is not None and policy.fail_fast:
                                    raise EvaluationError(
                                        f"evaluation of {pipeline} failed "
                                        f"({result.error}) and the fault "
                                        "policy is fail-fast"
                                    )
                                if breaker.record_failure(key, result.error):
                                    # Repeated consecutive failures: the
                                    # candidate leaves the race for
                                    # reliability, not score, reasons.
                                    quarantined.add(key)
                                    active.discard(key)
                                    n_quarantined += 1
                                    quarantine_counter.inc()
                                    _log.warning(
                                        "iteration %d fold %d: quarantined "
                                        "%s (repeated failures)",
                                        iteration,
                                        fold_idx,
                                        key,
                                    )
                            else:
                                breaker.record_success(key)
                            scores.setdefault(key, []).append(result.score)
                        # Phase-1 pruning (lines 11-12) as a deterministic
                        # post-fold barrier: every candidate is judged
                        # against the *true* fold best, so the decision no
                        # longer depends on candidate evaluation order.
                        fold_best = max(r.score for r in results)
                        for pipeline, result in zip(fold_pipelines, results):
                            key = pipeline.config_key()
                            if key not in active:
                                continue  # already quarantined this fold
                            if (
                                result.score
                                < fold_best - cfg.early_termination_margin
                            ):
                                active.discard(key)
                                n_early += 1
                                early_counter.inc()
                                _log.debug(
                                    "iteration %d fold %d: "
                                    "early-terminated %s",
                                    iteration,
                                    fold_idx,
                                    key,
                                )
                    survivors = [p for p in candidates if p.config_key() in active]
                    if not survivors:  # safety: never lose everything
                        survivors = [
                            p for p in candidates
                            if p.config_key() not in quarantined
                        ] or candidates
                    elite, n_pruned = self._prune_ttest(survivors, scores)
                    ttest_counter.inc(n_pruned)
                    if n_pruned:
                        _log.info(
                            "iteration %d: t-test pruned %d",
                            iteration,
                            n_pruned,
                        )
                record = IterationRecord(
                    iteration=iteration,
                    subset_size=int(len(subset)),
                    n_candidates=len(candidates),
                    n_folds=n_folds,
                    n_evaluations=n_evals,
                    n_early_terminated=n_early,
                    n_ttest_pruned=n_pruned,
                    n_failures=n_failures,
                    n_quarantined=n_quarantined,
                    n_elite=len(elite),
                    wall_time=iteration_timer.elapsed,
                )
                iteration_time_hist.observe(record.wall_time)
                for tag, value in record.as_dict().items():
                    iteration_span.set_tag(tag, value)
                records.append(record)
                _log.info(
                    "iteration %d done: evals=%d early=%d pruned=%d "
                    "elite=%d (%.3fs)",
                    record.iteration,
                    record.n_evaluations,
                    record.n_early_terminated,
                    record.n_ttest_pruned,
                    record.n_elite,
                    record.wall_time,
                )
            # Final band filter: the vote is only as strong as its weakest
            # member, so keep diversity among *top* performers only.
            means = {
                p.config_key(): float(np.mean(scores[p.config_key()]))
                for p in elite
                if scores.get(p.config_key())
            }
            if means:
                best_mean = max(means.values())
                banded = [
                    p for p in elite
                    if means.get(p.config_key(), -np.inf)
                    >= best_mean - cfg.elite_band
                ]
                if banded:
                    elite = banded
            # Final fit of the elite on the full training data.
            fitted = []
            with tracer.span(
                "race.elite_refit", subsystem="race", n_elite=len(elite)
            ):
                for pipeline in elite:
                    fresh = pipeline.clone()
                    try:
                        fresh.fit(X, y)
                    except Exception as exc:
                        _log.warning(
                            "elite refit failed for %s: %s: %s",
                            pipeline,
                            type(exc).__name__,
                            exc,
                        )
                        continue
                    fitted.append(fresh)
            _log.info("elite refit: %d/%d fitted", len(fitted), len(elite))
            if not fitted:
                raise ValidationError("no elite pipeline could be fitted")
            race_span.set_tag("n_elite", len(fitted))
        result = RaceResult(
            elite=fitted,
            scores={p.config_key(): scores.get(p.config_key(), []) for p in fitted},
            iterations=records,
            runtime=total_timer.elapsed,
        )
        metrics.gauge(
            "repro_race_prune_ratio",
            "Fraction of potential evaluations avoided by pruning",
        ).set(result.prune_ratio)
        metrics.gauge(
            "repro_race_score_memo_hit_rate",
            "Fraction of race evaluations served from the score memo",
        ).set(memo.hit_rate)
        ledger = get_ledger()
        if ledger.enabled:
            result.ledger_record_id = ledger.record(
                "race",
                {
                    "elites": [
                        {
                            "classifier": p.classifier_name,
                            "classifier_params": dict(
                                p.classifier_params or {}
                            ),
                            "scaler": p.scaler_name,
                            "fold_scores": [
                                float(s) for s in result.scores.get(
                                    p.config_key(), []
                                )
                            ],
                            "mean_score": float(
                                np.mean(result.scores[p.config_key()])
                            )
                            if result.scores.get(p.config_key())
                            else None,
                        }
                        for p in result.elite
                    ],
                    "iterations": [r.as_dict() for r in result.iterations],
                    "n_evaluations": result.n_evaluations,
                    "n_early_terminated": result.n_early_terminated,
                    "n_ttest_pruned": result.n_ttest_pruned,
                    "n_failures": result.n_failures,
                    "n_quarantined": result.n_quarantined,
                    "prune_ratio": result.prune_ratio,
                    "runtime_s": result.runtime,
                },
                record_id=new_id("race"),
            )
        return result


def _dedupe(pipelines: list[Pipeline]) -> list[Pipeline]:
    seen: set = set()
    unique: list[Pipeline] = []
    for p in pipelines:
        key = p.config_key()
        if key not in seen:
            seen.add(key)
            unique.append(p)
    return unique
