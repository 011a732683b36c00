"""Voting ensembles over the winning pipelines (Section IV-B, step 7).

The recommendation "computes a matrix of scores where each entry represents
the probability of a given imputation algorithm being chosen by the selected
pipelines [then] aggregates results by averaging the probabilities".  That is
*soft voting*; the paper found it beats majority voting, which we also
provide for the ablation bench.

Graceful degradation
--------------------
A production vote must survive a sick member.  :meth:`predict_proba_detailed`
is the resilient entry point: every member contribution runs under a
try/except + finite check, failing members are *dropped* and the vote is
re-normalized over the survivors, and a per-ensemble
:class:`~repro.resilience.CircuitBreaker` quarantines members that fail
repeatedly so later requests skip them outright.  The accompanying
:class:`VoteDetail` says exactly which members voted, which failed, and
which were skipped — ``degraded`` is True whenever the vote was not
unanimous-membership.  Only when *every* member fails does the ensemble
raise :class:`~repro.exceptions.EnsembleError`, signalling the caller
(``ADarts.recommend_many``) to take its static fallback path.

The ``ensemble.member`` fault-injection site fires before each member's
contribution; a ``"nan"`` fault poisons the member's probability matrix so
the finite check trips — exercising the same failure path a buggy
classifier would.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import EnsembleError, NotFittedError, ValidationError
from repro.observability import get_logger
from repro.pipeline.pipeline import Pipeline
from repro.resilience import CircuitBreaker, get_fault_injector
from repro.resilience.stats import count_event

_log = get_logger(__name__)

#: Consecutive member failures that quarantine an ensemble member.
MEMBER_QUARANTINE_THRESHOLD = 3


@dataclass(frozen=True)
class VoteDetail:
    """How one ensemble vote actually happened.

    Attributes
    ----------
    n_members:
        Total members of the ensemble.
    used_members:
        Display names of the members whose contributions made the vote.
    failed_members:
        Members that raised (or produced non-finite probabilities) during
        *this* vote and were dropped.
    skipped_members:
        Members skipped up front because their circuit was already open.
    proba:
        The aggregated probability matrix, re-normalized over
        ``used_members``.
    member_probas:
        Per-used-member aligned contribution tensor
        ``(n_used, n_samples, n_classes)`` — the raw material for
        serving-side disagreement metrics.
    """

    n_members: int
    used_members: tuple[str, ...]
    failed_members: tuple[str, ...] = ()
    skipped_members: tuple[str, ...] = ()
    proba: np.ndarray = field(default=None, repr=False)
    member_probas: np.ndarray = field(default=None, repr=False)

    @property
    def n_used(self) -> int:
        return len(self.used_members)

    @property
    def n_failed(self) -> int:
        return len(self.failed_members)

    @property
    def degraded(self) -> bool:
        """True when any member was dropped or skipped for this vote."""
        return bool(self.failed_members or self.skipped_members)


class _BaseEnsemble:
    """Shared plumbing: class-union alignment across member pipelines."""

    def __init__(self, pipelines: list[Pipeline]):
        if not pipelines:
            raise ValidationError("ensemble needs at least one pipeline")
        self.pipelines = list(pipelines)
        classes: list = []
        for p in self.pipelines:
            try:
                member_classes = p.classes_
            except NotFittedError:
                raise ValidationError(
                    "all ensemble pipelines must be fitted"
                ) from None
            classes.extend(member_classes.tolist())
        self.classes_ = np.array(sorted(set(classes), key=str))
        #: Stable display names (classifier family + position).
        self.member_names: tuple[str, ...] = tuple(
            f"{p.classifier_name}#{i}" for i, p in enumerate(self.pipelines)
        )
        #: Quarantines members after repeated consecutive vote failures.
        self.breaker = CircuitBreaker(
            MEMBER_QUARANTINE_THRESHOLD, name="ensemble"
        )

    def _aligned_proba(self, pipeline: Pipeline, X: np.ndarray) -> np.ndarray:
        """Member probabilities re-indexed onto the union class axis."""
        proba = pipeline.predict_proba(X)
        out = np.zeros((proba.shape[0], len(self.classes_)))
        col_of = {cls: j for j, cls in enumerate(self.classes_.tolist())}
        for j, cls in enumerate(pipeline.classes_.tolist()):
            out[:, col_of[cls]] = proba[:, j]
        return out

    def _member_matrix(self, pipeline: Pipeline, X: np.ndarray) -> np.ndarray:
        """One member's vote contribution on the union class axis."""
        raise NotImplementedError

    def member_probas(self, X) -> np.ndarray:
        """Per-member aligned probability tensor (no degradation).

        Shape ``(n_members, n_samples, n_classes)`` on the union class
        axis.  This is the *strict* view: a failing member raises.  The
        serving path uses :meth:`predict_proba_detailed` instead, whose
        :class:`VoteDetail` carries the healthy subset.
        """
        X = np.asarray(X, dtype=float)
        return np.stack(
            [self._aligned_proba(p, X) for p in self.pipelines], axis=0
        )

    # ------------------------------------------------------------------
    def predict_proba_detailed(self, X) -> VoteDetail:
        """Vote with graceful member degradation; full diagnostics.

        Members whose circuit is open are skipped; members that raise or
        produce non-finite matrices are dropped (and their breaker streak
        advanced); the vote averages over the survivors.  Raises
        :class:`~repro.exceptions.EnsembleError` only when *no* member
        could contribute.
        """
        X = np.asarray(X, dtype=float)
        injector = get_fault_injector()
        mats: list[np.ndarray] = []
        used: list[str] = []
        failed: list[str] = []
        skipped: list[str] = []
        for name, pipeline in zip(self.member_names, self.pipelines):
            if self.breaker.is_open(name):
                skipped.append(name)
                continue
            try:
                action = (
                    injector.check("ensemble.member", name)
                    if injector is not None
                    else None
                )
                mat = self._member_matrix(pipeline, X)
                if action == "nan":
                    mat = np.full_like(mat, np.nan)
                if not np.all(np.isfinite(mat)):
                    raise EnsembleError(
                        f"member {name} produced non-finite probabilities"
                    )
            except Exception as exc:
                failed.append(name)
                count_event(
                    "member_failures",
                    labels={"member": pipeline.classifier_name},
                )
                _log.warning(
                    "ensemble member %s failed to vote (%s: %s); dropping "
                    "it from this vote",
                    name,
                    type(exc).__name__,
                    exc,
                )
                self.breaker.record_failure(name, f"{type(exc).__name__}: {exc}")
                continue
            self.breaker.record_success(name)
            mats.append(mat)
            used.append(name)
        if not mats:
            raise EnsembleError(
                f"every ensemble member failed to vote "
                f"({len(failed)} failed, {len(skipped)} quarantined)"
            )
        stack = np.stack(mats, axis=0)
        return VoteDetail(
            n_members=len(self.pipelines),
            used_members=tuple(used),
            failed_members=tuple(failed),
            skipped_members=tuple(skipped),
            proba=stack.mean(axis=0),
            member_probas=stack,
        )

    @property
    def quarantined_members(self) -> tuple[str, ...]:
        """Display names of members whose circuits are currently open."""
        return tuple(self.breaker.open_keys())

    # ------------------------------------------------------------------
    def predict(self, X) -> np.ndarray:
        """Hard recommendations: the top-probability class per sample."""
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]

    def predict_rankings(self, X) -> list[list]:
        """Per-sample class rankings, best first."""
        proba = self.predict_proba(X)
        order = np.argsort(proba, axis=1)[:, ::-1]
        return [[self.classes_[j] for j in row] for row in order]

    def predict_proba(self, X) -> np.ndarray:
        """Aggregated class probabilities (degradation-tolerant)."""
        return self.predict_proba_detailed(X).proba


class SoftVotingEnsemble(_BaseEnsemble):
    """Average the class-probability matrices of all member pipelines."""

    def _member_matrix(self, pipeline: Pipeline, X: np.ndarray) -> np.ndarray:
        return self._aligned_proba(pipeline, X)


class MajorityVotingEnsemble(_BaseEnsemble):
    """One-pipeline-one-vote hard voting (the ablation baseline).

    ``predict_proba`` returns normalized vote counts, so rankings/MRR remain
    computable — coarser than soft probabilities, which is exactly the
    deficiency the paper observed.
    """

    def _member_matrix(self, pipeline: Pipeline, X: np.ndarray) -> np.ndarray:
        pred = pipeline.predict(X)
        votes = np.zeros((X.shape[0], len(self.classes_)))
        col_of = {cls: j for j, cls in enumerate(self.classes_.tolist())}
        for i, label in enumerate(pred):
            votes[i, col_of[label]] += 1.0
        return votes
