"""Persisting trained A-DARTS engines.

"Any other application can easily embed the model that results from
A-DARTS's training" — this module makes that concrete: a trained engine is
exported as a JSON document holding the winning pipeline configurations,
the extractor configuration, and the labeled training matrix; loading
rebuilds the pipelines and refits them (fits are fast — the expensive parts
were the labeling and the race, which are *not* repeated).

JSON (not pickle) keeps the artifact portable, diffable, and safe to load.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np

from repro.core.adarts import ADarts
from repro.core.voting import MajorityVotingEnsemble, SoftVotingEnsemble
from repro.exceptions import NotFittedError, ValidationError
from repro.features.extractor import FeatureExtractor
from repro.clustering.atlas import ClusterAtlas
from repro.observability.ledger import upgrade_record
from repro.observability.serving import FeatureBaseline
from repro.pipeline.pipeline import Pipeline

FORMAT_VERSION = 1


def _pipeline_to_dict(pipeline: Pipeline) -> dict:
    return {
        "classifier_name": pipeline.classifier_name,
        "classifier_params": _jsonable(pipeline.classifier_params),
        "scaler_name": pipeline.scaler_name,
        "scaler_params": _jsonable(pipeline.scaler_params),
    }


def _jsonable(params: dict) -> dict:
    out = {}
    for key, value in params.items():
        if isinstance(value, tuple):
            out[key] = {"__tuple__": list(value)}
        elif isinstance(value, (np.integer,)):
            out[key] = int(value)
        elif isinstance(value, (np.floating,)):
            out[key] = float(value)
        else:
            out[key] = value
    return out


def _from_jsonable(params: dict) -> dict:
    out = {}
    for key, value in params.items():
        if isinstance(value, dict) and "__tuple__" in value:
            out[key] = tuple(value["__tuple__"])
        else:
            out[key] = value
    return out


def export_engine(engine: ADarts) -> dict:
    """Serialize a fitted engine to a JSON-ready dictionary."""
    if not engine.is_fitted:
        raise NotFittedError("cannot export an unfitted engine")
    X = engine._train_X
    y = engine._train_y
    if X is None or y is None:
        raise ValidationError(
            "engine has no stored training data; was it fitted via "
            "fit_features/fit_labeled/fit_datasets?"
        )
    document = {
        "format_version": FORMAT_VERSION,
        "voting": engine.voting,
        "extractor": {
            "use_statistical": engine.extractor.use_statistical,
            "use_topological": engine.extractor.use_topological,
            "use_missing_pattern": engine.extractor.use_missing_pattern,
            "embedding_dimension": engine.extractor.embedding_dimension,
            "embedding_delay": engine.extractor.embedding_delay,
        },
        "pipelines": [
            _pipeline_to_dict(p) for p in engine.winning_pipelines
        ],
        "training_features": np.asarray(X, dtype=float).tolist(),
        "training_labels": [str(label) for label in y],
    }
    # Optional drift fingerprint: serving-side monitors rebuild their
    # DriftDetector from this without re-touching the training matrix.
    if engine.feature_baseline_ is not None:
        document["feature_baseline"] = engine.feature_baseline_.as_dict()
    # Optional provenance: the fit-time ledger head (run/fit/race ids +
    # training rows) and the cluster atlas travel with the engine so
    # serving-side repair rows keep their training lineage and cluster
    # assignments after an export/import round-trip.
    if engine.ledger_head_ is not None:
        document["ledger_head"] = engine.ledger_head_
    if engine.cluster_atlas_ is not None and len(engine.cluster_atlas_):
        document["cluster_atlas"] = engine.cluster_atlas_.as_dict()
    return document


def import_engine(document: dict) -> ADarts:
    """Rebuild a fitted engine from :func:`export_engine`'s output.

    A malformed document (a missing key, or a value of the wrong type or
    shape, in any section) raises :class:`ValidationError`.
    """
    if not isinstance(document, dict):
        raise ValidationError(
            f"engine document must be a JSON object, got "
            f"{type(document).__name__}"
        )
    version = document.get("format_version")
    if version != FORMAT_VERSION:
        raise ValidationError(
            f"unsupported engine format version {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
    try:
        return _build_engine(document)
    except KeyError as exc:
        raise ValidationError(
            f"engine document is missing required key {exc}"
        ) from None
    except (TypeError, ValueError, AttributeError, IndexError) as exc:
        raise ValidationError(f"malformed engine document: {exc}") from None


def _build_engine(document: dict) -> ADarts:
    extractor = FeatureExtractor(**document["extractor"])
    engine = ADarts(extractor=extractor, voting=document["voting"])
    X = np.asarray(document["training_features"], dtype=float)
    y = np.asarray(document["training_labels"], dtype=object)
    members = []
    for spec in document.get("pipelines", []):
        pipeline = Pipeline(
            spec["classifier_name"],
            _from_jsonable(spec["classifier_params"]),
            spec["scaler_name"],
            _from_jsonable(spec["scaler_params"]),
        )
        pipeline.fit(X, y)
        members.append(pipeline)
    if not members:
        raise ValidationError("document contains no pipelines")
    ensemble_cls = (
        SoftVotingEnsemble if document["voting"] == "soft" else MajorityVotingEnsemble
    )
    engine._ensemble = ensemble_cls(members)
    engine._train_X = X
    engine._train_y = y
    baseline = document.get("feature_baseline")
    if baseline is not None:
        engine.feature_baseline_ = FeatureBaseline.from_dict(baseline)
    else:
        # Legacy documents carry no fingerprint; rebuild it from the
        # stored training matrix so restored engines stay monitorable.
        try:
            names = (
                extractor.feature_names
                if X.ndim == 2 and X.shape[1] == extractor.n_features
                else None
            )
            engine.feature_baseline_ = FeatureBaseline.from_matrix(
                X, feature_names=names
            )
        except ValueError:
            engine.feature_baseline_ = None
    head = document.get("ledger_head")
    if head is not None:
        # Rows inside the head are schema-upgraded on the way in, so a
        # document exported under ledger schema v1 explains cleanly.
        engine.ledger_head_ = {
            "run_id": head.get("run_id"),
            "fit_id": head.get("fit_id"),
            "race_id": head.get("race_id"),
            "records": [upgrade_record(r) for r in head.get("records", [])],
        }
    atlas = document.get("cluster_atlas")
    if atlas is not None:
        engine.cluster_atlas_ = ClusterAtlas.from_dict(atlas)
    return engine


def _json_default(value):
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    return str(value)


def save_engine(engine: ADarts, path) -> pathlib.Path:
    """Write a fitted engine to a JSON file; returns the path."""
    path = pathlib.Path(path)
    with path.open("w") as fh:
        json.dump(export_engine(engine), fh, default=_json_default)
    return path


def load_engine(path) -> ADarts:
    """Load a fitted engine from a JSON file written by :func:`save_engine`.

    Raises :class:`~repro.exceptions.ValidationError` (not a bare
    ``JSONDecodeError``) on malformed files, so CLI callers turn it into
    a clean non-zero exit instead of a traceback.
    """
    path = pathlib.Path(path)
    if not path.exists():
        raise ValidationError(f"no engine file at {path}")
    try:
        with path.open() as fh:
            document = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from None
    return import_engine(document)
