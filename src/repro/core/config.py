"""Configuration of the ModelRace selection process."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import ValidationError
from repro.parallel import ParallelConfig
from repro.pipeline.scoring import ScoreWeights
from repro.resilience import FaultInjector, FaultPolicy


@dataclass
class ModelRaceConfig:
    """Tuning knobs of Algorithm 1.

    Attributes
    ----------
    n_partial_sets:
        Number of growing partial training sets (``m = |S|`` in Alg. 1).
    n_folds:
        Stratified k-fold count per iteration (kept small per the paper's
        complexity analysis).
    weights:
        Scoring coefficients (alpha, beta, gamma).
    early_termination_margin:
        A pipeline whose fold score trails the fold's best by more than this
        margin is terminated early (lines 11-12).
    ttest_pvalue:
        Pairs whose score distributions compare with p-value above this
        threshold count as "similar with high significance"; the lower-mean
        member is pruned (line 13).
    max_elite:
        Cap on surviving pipelines per iteration (keeps the race bounded).
    elite_band:
        Final filter: only pipelines whose mean score is within this band
        of the best survivor join the voting ensemble.  Keeps the elite
        diverse *among the top performers* without letting weak-but-
        different members dilute the vote.
    time_budget:
        Wall-clock seconds mapping to a normalized runtime of 1.0 in the
        scoring function.  An absolute reference (rather than the max
        observed runtime) keeps the penalty small for ordinary pipelines —
        matching the paper's Fig. 10 observation that gamma up to 0.75
        barely moves F1 — while still punishing genuinely slow ones.
    n_children_per_parent:
        Synthesizer fan-out per elite parent per iteration.
    initial_fraction:
        Fraction of the training data in the first partial set; the last
        set always reaches 1.0.
    random_state:
        Seed for folds, sampling, and synthesis.
    parallel:
        :class:`~repro.parallel.ParallelConfig` governing how the race
        fans candidate evaluations out across workers.  The default is
        serial (``n_jobs=1``), which executes the historical
        single-core path; results are deterministic across backends for
        a fixed seed (wall-clock-free scoring, i.e. ``gamma=0``, makes
        them bit-identical).
    fault_policy:
        Optional :class:`~repro.resilience.FaultPolicy` governing retry /
        deadline / fail-fast / quarantine behaviour of race evaluations.
        ``None`` falls back to the process-level policy
        (:func:`repro.resilience.get_fault_policy`), then to the
        historical behaviour (no retries, no deadlines, failures scored
        ``-inf`` with quarantine after 3 consecutive failures).
    fault_injector:
        Optional :class:`~repro.resilience.FaultInjector` evaluated at
        the ``race.evaluate`` site — chaos testing only.  ``None`` falls
        back to the process-level injector.
    """

    n_partial_sets: int = 3
    n_folds: int = 3
    weights: ScoreWeights = field(default_factory=ScoreWeights)
    early_termination_margin: float = 0.25
    ttest_pvalue: float = 0.7
    max_elite: int = 5
    elite_band: float = 0.08
    time_budget: float = 1.0
    n_children_per_parent: int = 2
    initial_fraction: float = 0.4
    random_state: int | None = 0
    parallel: ParallelConfig = field(default_factory=ParallelConfig)
    fault_policy: FaultPolicy | None = None
    fault_injector: FaultInjector | None = None

    def __post_init__(self) -> None:
        if self.n_partial_sets < 1:
            raise ValidationError("n_partial_sets must be >= 1")
        if self.n_folds < 2:
            raise ValidationError("n_folds must be >= 2")
        if not 0 < self.initial_fraction <= 1:
            raise ValidationError("initial_fraction must be in (0, 1]")
        if self.max_elite < 1:
            raise ValidationError("max_elite must be >= 1")
        if not 0 <= self.ttest_pvalue <= 1:
            raise ValidationError("ttest_pvalue must be in [0, 1]")
        if self.early_termination_margin < 0:
            raise ValidationError("early_termination_margin must be >= 0")
        if self.elite_band < 0:
            raise ValidationError("elite_band must be >= 0")
        if self.time_budget <= 0:
            raise ValidationError("time_budget must be > 0")
