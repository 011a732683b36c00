"""Tests for engine export/import (JSON persistence)."""

import copy
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ADarts, ModelRaceConfig, TimeSeries
from repro.core import export_engine, import_engine, load_engine, save_engine
from repro.exceptions import NotFittedError, ValidationError


FAST = dict(
    config=ModelRaceConfig(n_partial_sets=2, n_folds=2, max_elite=3, random_state=0),
    classifier_names=["knn", "decision_tree", "gaussian_nb"],
)


@pytest.fixture(scope="module")
def trained(labeled_features):
    X, y = labeled_features
    return ADarts(**FAST).fit_features(X, y), X, y


class TestExportImport:
    def test_round_trip_predictions_identical(self, trained):
        engine, X, y = trained
        document = export_engine(engine)
        restored = import_engine(document)
        assert (engine.predict(X) == restored.predict(X)).all()

    def test_round_trip_preserves_pipelines(self, trained):
        engine, X, y = trained
        restored = import_engine(export_engine(engine))
        original = sorted(p.config_key() for p in engine.winning_pipelines)
        rebuilt = sorted(p.config_key() for p in restored.winning_pipelines)
        assert original == rebuilt

    def test_document_is_json_serializable(self, trained):
        engine, _, _ = trained
        text = json.dumps(export_engine(engine))
        assert json.loads(text)["format_version"] == 1

    def test_unfitted_export_raises(self):
        with pytest.raises(NotFittedError):
            export_engine(ADarts(**FAST))

    def test_wrong_version_rejected(self, trained):
        engine, _, _ = trained
        document = export_engine(engine)
        document["format_version"] = 99
        with pytest.raises(ValidationError):
            import_engine(document)

    def test_restored_engine_recommends(self, small_climate_dataset, faulty_series):
        # recommend() goes through the feature extractor, so the engine must
        # have been trained on extractor output (fit_labeled path).
        from repro.clustering.labeling import ClusterLabeler

        labeler = ClusterLabeler(imputer_names=("linear", "mean"), random_state=0)
        engine = ADarts(labeler=labeler, **FAST)
        engine.fit_datasets([small_climate_dataset])
        restored = import_engine(export_engine(engine))
        rec = restored.recommend(faulty_series)
        assert rec.algorithm in ("linear", "mean")
        assert rec.algorithm == engine.recommend(faulty_series).algorithm

    def test_mlp_tuple_params_survive(self, labeled_features):
        X, y = labeled_features
        engine = ADarts(
            config=ModelRaceConfig(
                n_partial_sets=2, n_folds=2, max_elite=2, random_state=0
            ),
            classifier_names=["mlp"],
        ).fit_features(X, y)
        restored = import_engine(export_engine(engine))
        for pipeline in restored.winning_pipelines:
            assert isinstance(pipeline.classifier_params["hidden"], tuple)


class TestFileRoundTrip:
    def test_save_and_load(self, trained, tmp_path):
        engine, X, _ = trained
        path = save_engine(engine, tmp_path / "engine.json")
        assert path.exists()
        restored = load_engine(path)
        assert (engine.predict(X) == restored.predict(X)).all()

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(ValidationError):
            load_engine(tmp_path / "nope.json")


class TestFeatureBaselinePersistence:
    def test_baseline_exported_and_restored(self, trained):
        import numpy as np

        engine, X, _ = trained
        assert engine.feature_baseline_ is not None
        document = export_engine(engine)
        assert "feature_baseline" in document
        restored = import_engine(document)
        original = engine.feature_baseline_
        rebuilt = restored.feature_baseline_
        assert rebuilt is not None
        assert rebuilt.feature_names == original.feature_names
        assert rebuilt.n_samples == original.n_samples
        assert np.allclose(rebuilt.mean, original.mean)
        assert np.allclose(rebuilt.edges, original.edges)
        assert np.allclose(rebuilt.expected, original.expected)

    def test_baseline_document_is_json_safe(self, trained):
        engine, _, _ = trained
        payload = json.dumps(export_engine(engine)["feature_baseline"])
        assert "NaN" not in payload

    def test_legacy_document_rebuilds_baseline(self, trained):
        engine, X, _ = trained
        document = export_engine(engine)
        document.pop("feature_baseline")  # pre-baseline era document
        restored = import_engine(document)
        baseline = restored.feature_baseline_
        assert baseline is not None
        assert baseline.n_samples == X.shape[0]
        assert baseline.n_features == X.shape[1]

    def test_save_load_keeps_baseline(self, trained, tmp_path):
        import numpy as np

        engine, _, _ = trained
        path = save_engine(engine, tmp_path / "engine.json")
        restored = load_engine(path)
        assert restored.feature_baseline_ is not None
        assert np.allclose(
            restored.feature_baseline_.std, engine.feature_baseline_.std
        )


class TestLedgerHeadPersistence:
    @pytest.fixture(scope="class")
    def ledgered(self, labeled_features):
        from repro.observability import RepairLedger, use_ledger

        X, y = labeled_features
        engine = ADarts(**FAST)
        with use_ledger(RepairLedger()):
            engine.fit_features(X, y)
        return engine

    def test_head_round_trips(self, ledgered):
        restored = import_engine(export_engine(ledgered))
        assert restored.ledger_head_ is not None
        assert restored.ledger_head_["fit_id"] == ledgered.ledger_head_["fit_id"]
        kinds = {r["kind"] for r in restored.ledger_head_["records"]}
        assert {"fit", "race"} <= kinds

    def test_head_document_is_json_safe(self, ledgered):
        text = json.dumps(export_engine(ledgered))
        assert json.loads(text)["ledger_head"]["fit_id"].startswith("fit")

    def test_head_records_schema_upgraded_on_import(self, ledgered):
        from repro.observability import LEDGER_SCHEMA_VERSION

        document = export_engine(ledgered)
        # Simulate a head written by the v1 prototype: flat payload + epoch ts.
        old = dict(document["ledger_head"]["records"][0])
        old.pop("schema")
        old.update(old.pop("data"))
        old["ts"] = 1700000000.0
        old.pop("time", None)
        document["ledger_head"]["records"][0] = old
        restored = import_engine(document)
        first = restored.ledger_head_["records"][0]
        assert first["schema"] == LEDGER_SCHEMA_VERSION
        assert "data" in first

    def test_engine_without_head_still_imports(self, trained):
        engine, X, _ = trained
        document = export_engine(engine)
        document.pop("ledger_head", None)
        document.pop("cluster_atlas", None)
        restored = import_engine(document)
        assert restored.ledger_head_ is None
        assert restored.cluster_atlas_ is None
        assert (engine.predict(X) == restored.predict(X)).all()


class TestMalformedDocuments:
    def test_non_dict_document_rejected(self):
        with pytest.raises(ValidationError):
            import_engine([1, 2, 3])

    def test_missing_required_key_rejected(self, trained):
        engine, _, _ = trained
        document = export_engine(engine)
        document.pop("extractor")
        with pytest.raises(ValidationError, match="missing required key"):
            import_engine(document)

    def test_malformed_section_rejected(self, trained):
        engine, _, _ = trained
        document = export_engine(engine)
        document["extractor"] = "not a mapping"
        with pytest.raises(ValidationError):
            import_engine(document)

    def test_invalid_json_file_rejected(self, tmp_path):
        path = tmp_path / "engine.json"
        path.write_text("{ this is not json")
        with pytest.raises(ValidationError, match="not valid JSON"):
            load_engine(path)


@pytest.fixture(scope="module")
def full_document():
    """Exported engine with every section: pipelines, atlas, ledger head,
    feature baseline."""
    from repro.datasets import load_category
    from repro.observability import RepairLedger, use_ledger

    engine = ADarts(**FAST)
    with use_ledger(RepairLedger()):
        engine.fit_datasets(load_category("Climate", n_series=8, n_datasets=1))
    document = json.loads(json.dumps(export_engine(engine)))
    assert {"cluster_atlas", "ledger_head", "feature_baseline"} <= set(document)
    return document


def _faulty_series():
    t = np.arange(96, dtype=float)
    out = []
    for i in range(2):
        values = np.sin(2 * np.pi * t / (12 + 6 * i)) + 0.1 * t
        values[30 + i : 45 + i] = np.nan
        out.append(TimeSeries(values, name=f"f{i}"))
    return out


def _assert_engine_works(engine):
    """Recommend and repair two gapped series with a ledger installed."""
    from repro.observability import RepairLedger, use_ledger

    series = _faulty_series()
    with use_ledger(RepairLedger()):
        recommendations = engine.recommend_many(series)
        repaired = engine.repair_many(series, recommendations)
    assert [len(s) for s in repaired] == [len(s) for s in series]
    assert not any(s.has_missing for s in repaired)


_SWAPS = (None, True, 7, 0.5, "x", [], {})


def _mutate(data, document):
    """Drop one key or swap one value's JSON type, anywhere in the tree."""
    document = copy.deepcopy(document)
    parent, key, node = None, None, document
    while True:
        if isinstance(node, dict):
            children = sorted(node)
        elif isinstance(node, list):
            children = list(range(len(node)))
        else:
            children = []
        if not children or (parent is not None and data.draw(st.booleans())):
            break
        key = data.draw(st.sampled_from(children))
        parent, node = node, node[key]
    if isinstance(parent, dict) and data.draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = data.draw(
            st.sampled_from([v for v in _SWAPS if type(v) is not type(node)])
        )
    return document


class TestMalformedEngineDocuments:
    @pytest.mark.parametrize(
        "break_document",
        [
            lambda d: d["pipelines"][0].pop("classifier_name"),
            lambda d: d["cluster_atlas"].pop("ids"),
            lambda d: d.__setitem__("pipelines", 3),
            lambda d: d.__setitem__("feature_baseline", "x"),
            lambda d: d.__setitem__("ledger_head", []),
        ],
        ids=["spec-key", "atlas-ids", "pipelines-int", "baseline-str", "head-list"],
    )
    def test_raises_validation_error(self, full_document, break_document):
        document = copy.deepcopy(full_document)
        break_document(document)
        with pytest.raises(ValidationError):
            import_engine(document)

    def test_unbroken_document_works(self, full_document):
        _assert_engine_works(import_engine(copy.deepcopy(full_document)))

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_fuzzed_document_is_rejected_or_works(self, full_document, data):
        document = _mutate(data, full_document)
        try:
            engine = import_engine(document)
        except ValidationError:
            return
        _assert_engine_works(engine)
