"""Vote-path oracles: the one-member-at-a-time reference implementations.

The production vote runs each member in one pass: the quantile scaler
searches every column at once, the finite fixes are single ``np.where``
calls, ``check_2d`` makes one finiteness pass, Gaussian naive Bayes
scores all classes in one broadcast, and the ensemble aligns member
columns through index arrays built once.  These are the implementations
those replaced, kept verbatim (the per-column ``np.interp`` loop,
``nan_to_num``, the per-class loop, the per-call class dict) so the parity
tests can hold the production vote to them byte for byte.  They read the
live objects' fitted state and never change it; nothing under ``src/``
imports them.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

from repro.classifiers.bayes import GaussianNBClassifier
from repro.core.voting import MajorityVotingEnsemble
from repro.exceptions import EnsembleError, NotFittedError, ValidationError
from repro.features.scaling import QuantileScaler
from repro.resilience import get_fault_injector
from repro.resilience.stats import count_event


def check_2d(values, name: str = "values", allow_nan: bool = True) -> np.ndarray:
    """Coerce ``values`` to a 2-D float array (rows = observations)."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2:
        raise ValidationError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValidationError(f"{name} must be non-empty")
    if np.isinf(arr).any():
        raise ValidationError(f"{name} contains infinite values")
    if not allow_nan and np.isnan(arr).any():
        raise ValidationError(f"{name} contains NaN but NaN is not allowed here")
    return arr


def quantile_interp(refs: np.ndarray, levels: np.ndarray, X: np.ndarray) -> np.ndarray:
    """The per-column ``np.interp`` loop of the quantile scaler."""
    out = np.empty_like(X)
    for j in range(X.shape[1]):
        out[:, j] = np.interp(X[:, j], refs[:, j], levels)
    return out


def scaler_transform(scaler, X) -> np.ndarray:
    """``BaseScaler.transform``: the quantile scaler's interp loop, then
    ``nan_to_num`` over the output."""
    if not scaler._fitted:
        raise NotFittedError(f"{type(scaler).__name__} is not fitted")
    X = check_2d(X, name="X", allow_nan=False)
    if isinstance(scaler, QuantileScaler):
        out = quantile_interp(scaler._refs, scaler._levels, X)
        if scaler.output == "normal":
            out = ndtri(np.clip(out, 1e-6, 1 - 1e-6))
    else:
        out = scaler._transform(X)
    return np.nan_to_num(out, nan=0.0, posinf=0.0, neginf=0.0)


def gaussian_nb_scores(clf: GaussianNBClassifier, X: np.ndarray) -> np.ndarray:
    """Gaussian naive Bayes scores, one class at a time."""
    log_proba = np.empty((X.shape[0], clf.n_classes_))
    for c in range(clf.n_classes_):
        diff = X - clf._means[c]
        log_like = -0.5 * (
            np.log(2 * np.pi * clf._vars[c]) + diff**2 / clf._vars[c]
        ).sum(axis=1)
        log_proba[:, c] = np.log(clf._priors[c] + 1e-12) + log_like
    log_proba -= log_proba.max(axis=1, keepdims=True)
    proba = np.exp(log_proba)
    return proba / proba.sum(axis=1, keepdims=True)


def normalize_scores(proba: np.ndarray) -> np.ndarray:
    """``BaseClassifier.predict_proba``'s repair of raw class scores."""
    proba = np.clip(np.nan_to_num(proba, nan=0.0), 0.0, None)
    row_sums = proba.sum(axis=1, keepdims=True)
    uniform = np.full_like(proba, 1.0 / proba.shape[1])
    return np.where(row_sums > 0, proba / np.maximum(row_sums, 1e-12), uniform)


def classifier_proba(clf, X) -> np.ndarray:
    """``BaseClassifier.predict_proba``."""
    if clf.classes_ is None:
        raise NotFittedError(f"{type(clf).__name__} is not fitted")
    X = check_2d(X, name="X", allow_nan=False)
    if isinstance(clf, GaussianNBClassifier):
        proba = gaussian_nb_scores(clf, X)
    else:
        proba = clf._predict_proba(X)
    return normalize_scores(proba)


def pipeline_proba(pipeline, X) -> np.ndarray:
    """``Pipeline.predict_proba`` through the oracle scaler and classifier."""
    if not pipeline._fitted:
        raise NotFittedError("pipeline is not fitted")
    Z = scaler_transform(pipeline._scaler, np.asarray(X, dtype=float))
    return classifier_proba(pipeline._classifier, Z)


def aligned_proba(ensemble, pipeline, X: np.ndarray) -> np.ndarray:
    """Member probabilities re-indexed onto the union class axis."""
    proba = pipeline_proba(pipeline, X)
    out = np.zeros((proba.shape[0], len(ensemble.classes_)))
    col_of = {cls: j for j, cls in enumerate(ensemble.classes_.tolist())}
    for j, cls in enumerate(pipeline.classes_.tolist()):
        out[:, col_of[cls]] = proba[:, j]
    return out


def member_matrix(ensemble, pipeline, X: np.ndarray) -> np.ndarray:
    """One member's contribution: soft probabilities or a hard vote."""
    if not isinstance(ensemble, MajorityVotingEnsemble):
        return aligned_proba(ensemble, pipeline, X)
    pred = pipeline.classes_[np.argmax(pipeline_proba(pipeline, X), axis=1)]
    votes = np.zeros((X.shape[0], len(ensemble.classes_)))
    col_of = {cls: j for j, cls in enumerate(ensemble.classes_.tolist())}
    for i, label in enumerate(pred):
        votes[i, col_of[label]] += 1.0
    return votes


def predict_proba_detailed(ensemble, X) -> dict:
    """The degradation-tolerant vote; advances ``ensemble.breaker`` as the
    production vote does.  Returns the :class:`VoteDetail` fields."""
    X = np.asarray(X, dtype=float)
    injector = get_fault_injector()
    mats: list[np.ndarray] = []
    used: list[str] = []
    failed: list[str] = []
    skipped: list[str] = []
    for name, pipeline in zip(ensemble.member_names, ensemble.pipelines):
        if ensemble.breaker.is_open(name):
            skipped.append(name)
            continue
        try:
            action = (
                injector.check("ensemble.member", name)
                if injector is not None
                else None
            )
            mat = member_matrix(ensemble, pipeline, X)
            if action == "nan":
                mat = np.full_like(mat, np.nan)
            if not np.all(np.isfinite(mat)):
                raise EnsembleError(
                    f"member {name} produced non-finite probabilities"
                )
        except Exception as exc:
            failed.append(name)
            count_event(
                "member_failures", labels={"member": pipeline.classifier_name}
            )
            ensemble.breaker.record_failure(name, f"{type(exc).__name__}: {exc}")
            continue
        ensemble.breaker.record_success(name)
        mats.append(mat)
        used.append(name)
    if not mats:
        raise EnsembleError(
            f"every ensemble member failed to vote "
            f"({len(failed)} failed, {len(skipped)} quarantined)"
        )
    stack = np.stack(mats, axis=0)
    return {
        "n_members": len(ensemble.pipelines),
        "used_members": tuple(used),
        "failed_members": tuple(failed),
        "skipped_members": tuple(skipped),
        "proba": stack.mean(axis=0),
        "member_probas": stack,
    }
