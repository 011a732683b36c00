"""Repair provenance ledger: records, upgrades, atlas, explain, round-trips."""

import json
import threading

import numpy as np
import pytest

from repro import ADarts, ModelRaceConfig, TimeSeries
from repro.clustering.labeling import ClusterLabeler
from repro.exceptions import ValidationError
from repro.clustering.atlas import ClusterAtlas
from repro.observability import (
    LEDGER_SCHEMA_VERSION,
    NULL_LEDGER,
    RepairLedger,
    Tracer,
    current_repair_id,
    explain_repair,
    filter_records,
    get_ledger,
    read_ledger,
    render_explanation,
    render_summary,
    repair_context,
    repair_quality_stats_block,
    set_ledger,
    summarize_ledger,
    upgrade_record,
    use_ledger,
    use_tracer,
)
from repro.pipeline.scoring import ScoreWeights
from repro.timeseries.series import TimeSeriesDataset

FAST_CONFIG = ModelRaceConfig(
    n_partial_sets=2, n_folds=2, max_elite=2, random_state=0,
    weights=ScoreWeights(alpha=0.5, beta=0.25, gamma=0.0),
)


def _corpus(n_per_family=8, length=96, seed=11):
    rng = np.random.default_rng(seed)
    t = np.linspace(0, 4 * np.pi, length)
    series, labels = [], []
    for i in range(n_per_family):
        values = np.sin(t * (1 + 0.1 * i)) + 0.05 * rng.normal(size=length)
        series.append(TimeSeries(values, name=f"sine{i}"))
        labels.append("linear")
    for i in range(n_per_family):
        series.append(
            TimeSeries(0.5 * np.cumsum(rng.normal(size=length)), name=f"walk{i}")
        )
        labels.append("mean")
    return series, np.array(labels)


class TestRepairLedgerBasics:
    def test_default_is_noop(self):
        ledger = get_ledger()
        assert ledger is NULL_LEDGER
        assert not ledger.enabled
        assert ledger.record("repair", {"x": 1}) is None
        assert ledger.records() == []

    def test_record_shape_and_jsonl_file(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        with RepairLedger(path) as ledger:
            rid = ledger.record("repair", {"algorithm": "linear"})
            assert rid.startswith("rep")
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(rows) == 1
        row = rows[0]
        assert row["schema"] == LEDGER_SCHEMA_VERSION
        assert row["kind"] == "repair"
        assert row["id"] == rid
        assert row["run_id"] == ledger.run_id
        assert row["data"] == {"algorithm": "linear"}
        assert row["trace_id"] is None

    def test_rows_carry_active_trace_id(self, tmp_path):
        tracer = Tracer()
        ledger = RepairLedger(tmp_path / "l.jsonl")
        with use_tracer(tracer), tracer.span("work"):
            ledger.record("repair", {})
        ledger.close()
        row = ledger.records()[0]
        assert row["trace_id"] == f"{tracer.trace_id}:1"

    def test_use_ledger_scopes_and_restores(self, tmp_path):
        ledger = RepairLedger(tmp_path / "l.jsonl")
        assert get_ledger() is NULL_LEDGER
        with use_ledger(ledger):
            assert get_ledger() is ledger
        assert get_ledger() is NULL_LEDGER
        set_ledger(None)

    def test_memory_ring_is_bounded(self):
        ledger = RepairLedger(keep_in_memory=3)
        for i in range(10):
            ledger.record("event", {"i": i})
        assert len(ledger) == 3
        assert ledger.n_written == 10
        assert [r["data"]["i"] for r in ledger.records()] == [7, 8, 9]
        assert [r["data"]["i"] for r in ledger.tail(2)] == [8, 9]

    def test_concurrent_appends_are_complete(self, tmp_path):
        ledger = RepairLedger(tmp_path / "l.jsonl")

        def worker(tag):
            for i in range(50):
                ledger.record("event", {"tag": tag, "i": i})

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        ledger.close()
        rows = read_ledger(ledger.path)
        assert len(rows) == 200
        assert len({r["id"] for r in rows}) == 200


class TestSchemaUpgrade:
    def test_v1_flat_record_upgrades_to_v2(self, tmp_path):
        # v1 prototype layout: payload at the top level, epoch "ts".
        old = {
            "kind": "repair",
            "id": "rep_old",
            "ts": 1700000000.0,
            "algorithm": "mean",
            "degraded": True,
        }
        path = tmp_path / "old.jsonl"
        path.write_text(json.dumps(old) + "\n")
        rows = read_ledger(path)
        assert rows[0]["schema"] == LEDGER_SCHEMA_VERSION
        assert rows[0]["id"] == "rep_old"
        assert rows[0]["data"] == {"algorithm": "mean", "degraded": True}
        assert rows[0]["time"].startswith("2023-11-14")
        assert rows[0]["trace_id"] is None

    def test_v2_record_passes_through(self):
        row = {
            "schema": 2, "kind": "fit", "id": "fit_x", "run_id": "run_x",
            "time": "2026-01-01T00:00:00+00:00", "trace_id": None,
            "data": {"n_samples": 4},
        }
        assert upgrade_record(dict(row)) == row

    def test_future_schema_rejected(self):
        with pytest.raises(ValidationError):
            upgrade_record({"schema": 99, "kind": "fit"})
        with pytest.raises(ValidationError):
            upgrade_record([1, 2, 3])

    def test_malformed_jsonl_raises_validation_error(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"schema": 2}\nnot json at all\n')
        with pytest.raises(ValidationError, match="not valid JSON"):
            read_ledger(path)
        with pytest.raises(ValidationError, match="no such ledger"):
            read_ledger(tmp_path / "missing.jsonl")

    @staticmethod
    def _rows(n):
        return [
            json.dumps({
                "schema": 2, "kind": "fit", "id": f"fit_{i}", "run_id": "r",
                "time": "2026-01-01T00:00:00+00:00", "trace_id": None,
                "data": {"n_samples": i},
            })
            for i in range(n)
        ]

    def test_row_cut_by_a_crash_is_skipped(self, tmp_path, caplog):
        rows = self._rows(3)
        path = tmp_path / "cut.jsonl"
        # The crash hit mid-row: no closing brace, no trailing newline.
        path.write_text("\n".join(rows[:2]) + "\n" + rows[2][:25])
        with caplog.at_level("WARNING", logger="repro.observability.ledger"):
            records = read_ledger(path)
        assert [r["id"] for r in records] == ["fit_0", "fit_1"]
        assert records.truncated_line == 3
        assert "cut short" in caplog.text
        intact = tmp_path / "intact.jsonl"
        intact.write_text("\n".join(rows) + "\n")
        assert read_ledger(intact).truncated_line is None

    @pytest.mark.parametrize("trailing_newline", [True, False])
    def test_corrupt_middle_row_raises(self, tmp_path, trailing_newline):
        rows = self._rows(3)
        rows[1] = rows[1][:25]
        path = tmp_path / "corrupt.jsonl"
        path.write_text("\n".join(rows) + ("\n" if trailing_newline else ""))
        with pytest.raises(ValidationError, match=r"corrupt.jsonl:2 is not"):
            read_ledger(path)

    def test_audit_summary_reports_the_cut_row(self, tmp_path, capsys):
        from repro.cli import main

        rows = self._rows(2)
        path = tmp_path / "cut.jsonl"
        path.write_text(rows[0] + "\n" + rows[1][:30])
        assert main(["audit", "--ledger", str(path), "--summary"]) == 0
        out = capsys.readouterr().out
        assert "records      : 1" in out
        assert "truncated    : line 2" in out
        assert main(
            ["audit", "--ledger", str(path), "--summary", "--json"]
        ) == 0
        assert json.loads(capsys.readouterr().out)["truncated_line"] == 2


class TestQualityStats:
    def test_plausible_fill_scores_low_z(self):
        rng = np.random.default_rng(0)
        completed = rng.normal(size=(1, 200))
        mask = np.zeros((1, 200), dtype=bool)
        mask[0, 50:70] = True
        (stats,) = repair_quality_stats_block(completed, mask)
        assert stats["n_missing"] == 20
        assert stats["plausibility_z"] < 1.0
        assert 0.3 < stats["scale_ratio"] < 3.0

    def test_implausible_flat_fill_flagged(self):
        rng = np.random.default_rng(0)
        completed = rng.normal(size=(1, 200))
        mask = np.zeros((1, 200), dtype=bool)
        mask[0, 50:70] = True
        completed[mask] = 25.0  # constant, far outside the observed range
        (stats,) = repair_quality_stats_block(completed, mask)
        assert stats["plausibility_z"] > 5.0
        assert stats["scale_ratio"] < 0.1
        assert stats["roughness_ratio"] > 1.0


class TestClusterAtlas:
    def test_assign_picks_nearest_representative(self):
        t = np.linspace(0, 6 * np.pi, 120)
        atlas = ClusterAtlas()
        atlas.add("c_sine", "linear", np.sin(t))
        atlas.add("c_ramp", "mean", np.linspace(0, 10, 120))
        hit = atlas.assign(np.sin(t) * 3.0 + 5.0)
        assert hit["cluster"] == "c_sine"
        assert hit["label"] == "linear"
        assert hit["ncc"] > 0.95

    def test_assign_interpolates_nans(self):
        t = np.linspace(0, 6 * np.pi, 120)
        atlas = ClusterAtlas()
        atlas.add("c_sine", "linear", np.sin(t))
        atlas.add("c_ramp", "mean", np.linspace(0, 10, 120))
        faulty = np.sin(t).copy()
        faulty[30:50] = np.nan
        hit = atlas.assign(faulty)
        assert hit["cluster"] == "c_sine"

    @pytest.mark.parametrize("query", ["gapped", "all-nan"])
    def test_assignment_matches_np_interp_fill(self, query):
        from tests.imputer_oracles import atlas_interpolate

        t = np.linspace(0, 6 * np.pi, 120)
        atlas = ClusterAtlas()
        atlas.add("c_sine", "linear", np.sin(t))
        atlas.add("c_ramp", "mean", np.linspace(0, 10, 120))
        values = np.sin(1.3 * t) + 0.01 * t
        if query == "gapped":
            values[:4] = values[30:50] = values[-3:] = np.nan
        else:
            values[:] = np.nan
        # A NaN-free query is not interpolated, so this is the
        # assignment np.interp's fill gives.
        assert atlas.assign(values) == atlas.assign(atlas_interpolate(values))

    def test_empty_atlas_returns_none(self):
        assert ClusterAtlas().assign(np.ones(10)) is None

    def test_dict_round_trip(self):
        t = np.linspace(0, 6 * np.pi, 60)
        atlas = ClusterAtlas()
        atlas.add("c0", "linear", np.sin(t))
        restored = ClusterAtlas.from_dict(
            json.loads(json.dumps(atlas.as_dict()))
        )
        assert restored.ids == ["c0"]
        assert restored.labels == ["linear"]
        assert restored.assign(np.sin(t))["ncc"] > 0.99


class TestFilterAndSummarize:
    def _records(self):
        ledger = RepairLedger()
        ledger.record(
            "repair",
            {"algorithm": "linear", "confidence": 0.9, "degraded": False,
             "cluster": {"cluster": "c0", "ncc": 0.8}},
        )
        ledger.record(
            "repair",
            {"algorithm": "mean", "confidence": 0.5, "degraded": True,
             "fallback": True, "cluster": {"cluster": "c1", "ncc": 0.4}},
        )
        rid = ledger.records()[0]["id"]
        ledger.record(
            "impute",
            {"repair_id": rid, "algorithm": "linear", "elapsed_s": 0.01,
             "quality": {"plausibility_z": 0.2, "roughness_ratio": 1.1}},
        )
        return ledger.records()

    def test_filter_by_kind_algorithm_degraded(self):
        records = self._records()
        assert len(filter_records(records, kind="repair")) == 2
        assert len(filter_records(records, algorithm="linear")) == 2
        assert len(filter_records(records, degraded_only=True)) == 1
        assert len(filter_records(records, cluster="c1")) == 1

    def test_summary_scorecards(self):
        summary = summarize_ledger(self._records())
        assert summary["repairs"]["n"] == 2
        assert summary["repairs"]["degraded"] == 1
        assert summary["repairs"]["fallback"] == 1
        assert summary["repairs"]["per_algorithm"]["linear"]["n"] == 1
        assert (
            summary["repairs"]["per_cluster"]["c0"]["mean_ncc"]
            == pytest.approx(0.8)
        )
        assert summary["imputations"]["linear"]["n"] == 1
        text = render_summary(summary)
        assert "per-imputer scorecard" in text
        assert "linear" in text


@pytest.fixture(scope="module")
def fit_and_serve(tmp_path_factory):
    """One real fit_datasets + serving run, everything ledgered."""
    root = tmp_path_factory.mktemp("ledger_e2e")
    path = root / "ledger.jsonl"
    series, _labels = _corpus()
    dataset = TimeSeriesDataset(series, name="corpus", category="Synthetic")
    engine = ADarts(
        config=FAST_CONFIG,
        classifier_names=["knn", "decision_tree"],
        labeler=ClusterLabeler(
            imputer_names=("linear", "mean"), random_state=0
        ),
    )
    ledger = RepairLedger(path)
    with use_ledger(ledger):
        engine.fit_datasets([dataset])
        faulty = []
        for i in range(3):
            values = series[i].values.copy()
            values[20:40] = np.nan
            faulty.append(TimeSeries(values, name=f"faulty{i}"))
        recommendations = engine.recommend_many(faulty)
        repaired = [
            rec.impute(s) for rec, s in zip(recommendations, faulty)
        ]
    ledger.close()
    return engine, path, recommendations, repaired


class TestLedgerEndToEnd:
    def test_full_lineage_recorded(self, fit_and_serve):
        engine, path, recommendations, repaired = fit_and_serve
        rows = read_ledger(path)
        kinds = {r["kind"] for r in rows}
        assert {"fit", "race", "label", "repair", "impute"} <= kinds
        assert all(r["schema"] == LEDGER_SCHEMA_VERSION for r in rows)
        assert all(rec.repair_id for rec in recommendations)
        assert all(not np.isnan(s.values).any() for s in repaired)

    def test_explain_reconstructs_decision_path(self, fit_and_serve):
        engine, path, recommendations, _repaired = fit_and_serve
        rows = read_ledger(path)
        explanation = explain_repair(rows, recommendations[0].repair_id)
        repair = explanation["repair"]["data"]
        assert repair["algorithm"] == recommendations[0].algorithm
        assert repair["n_missing"] == 20
        assert repair["feature_hash"]
        # Cluster assignment against the fit-time atlas.
        assert explanation["cluster"]["cluster"].startswith("corpus:c")
        assert -1.0 <= explanation["cluster"]["ncc"] <= 1.0
        # Race lineage: elites with fold scores.
        assert explanation["race"] is not None
        elites = explanation["race"]["data"]["elites"]
        assert elites and elites[0]["fold_scores"]
        assert explanation["race"]["data"]["iterations"]
        # Labeling lineage for the assigned cluster.
        assert explanation["labeling"]
        assert explanation["labeling"][0]["data"]["winner"]
        # The imputation row with quality stats.
        assert explanation["imputations"]
        quality = explanation["imputations"][0]["data"]["quality"]
        assert "plausibility_z" in quality
        text = render_explanation(explanation)
        assert recommendations[0].repair_id in text
        assert "race" in text
        assert "imputation" in text

    def test_engine_head_snapshot(self, fit_and_serve):
        engine, _path, _recs, _repaired = fit_and_serve
        head = engine.ledger_head_
        assert head is not None
        assert head["fit_id"] and head["race_id"] and head["run_id"]
        head_kinds = {r["kind"] for r in head["records"]}
        assert {"fit", "race", "label"} <= head_kinds
        assert engine.cluster_atlas_ is not None
        assert engine.cluster_atlas_.n_clusters >= 1

    def test_explain_unknown_id_raises(self, fit_and_serve):
        _engine, path, _recs, _repaired = fit_and_serve
        with pytest.raises(ValidationError, match="no repair record"):
            explain_repair(read_ledger(path), "rep_does_not_exist")

    def test_export_import_preserves_ledger_head(
        self, fit_and_serve, tmp_path
    ):
        from repro.core.serialization import load_engine, save_engine

        engine, _path, _recs, _repaired = fit_and_serve
        restored = load_engine(save_engine(engine, tmp_path / "engine.json"))
        assert restored.ledger_head_ is not None
        assert restored.ledger_head_["fit_id"] == engine.ledger_head_["fit_id"]
        assert restored.ledger_head_["race_id"] == engine.ledger_head_["race_id"]
        assert len(restored.ledger_head_["records"]) == len(
            engine.ledger_head_["records"]
        )
        assert restored.cluster_atlas_ is not None
        assert restored.cluster_atlas_.ids == engine.cluster_atlas_.ids
        assert restored.cluster_atlas_.labels == engine.cluster_atlas_.labels

        # A serving-only ledger + the imported head still explains fully.
        serving_ledger = RepairLedger(tmp_path / "serving.jsonl")
        values = np.sin(np.linspace(0, 4 * np.pi, 96))
        values[10:30] = np.nan
        with use_ledger(serving_ledger):
            rec = restored.recommend(TimeSeries(values, name="later"))
        serving_ledger.close()
        explanation = explain_repair(
            read_ledger(serving_ledger.path),
            rec.repair_id,
            head=restored.ledger_head_,
        )
        assert explanation["race"] is not None
        assert explanation["fit"] is not None

    def test_degraded_fallback_repair_explains(self, fit_and_serve, tmp_path):
        from repro.exceptions import EnsembleError

        engine, _path, _recs, _repaired = fit_and_serve
        ledger = RepairLedger(tmp_path / "degraded.jsonl")
        values = np.sin(np.linspace(0, 4 * np.pi, 96))
        values[10:30] = np.nan
        faulty = TimeSeries(values, name="doomed")

        def boom(X):
            raise EnsembleError("all members down")

        original = engine._ensemble.predict_proba_detailed
        engine._ensemble.predict_proba_detailed = boom
        try:
            with use_ledger(ledger):
                rec = engine.recommend(faulty)
                repaired = rec.impute(faulty)
        finally:
            engine._ensemble.predict_proba_detailed = original
        ledger.close()
        assert rec.degraded
        assert not np.isnan(repaired.values).any()
        explanation = explain_repair(read_ledger(ledger.path), rec.repair_id)
        assert explanation["resilience"]["degraded"] is True
        assert explanation["resilience"]["fallback"] is True
        assert explanation["repair"]["data"]["fallback"] is True
        text = render_explanation(explanation)
        assert "STATIC FALLBACK" in text
        assert explanation["imputations"], "fallback impute row recorded"


class TestRepairContext:
    def test_context_nesting(self):
        assert current_repair_id() is None
        with repair_context("rep_a"):
            assert current_repair_id() == "rep_a"
            with repair_context("rep_b"):
                assert current_repair_id() == "rep_b"
            assert current_repair_id() == "rep_a"
        assert current_repair_id() is None

    def test_impute_outside_repair_context_not_ledgered(self):
        from repro.imputation import get_imputer

        ledger = RepairLedger()
        matrix = np.vstack([np.linspace(0, 1, 40)] * 3)
        matrix[0, 5:10] = np.nan
        with use_ledger(ledger):
            get_imputer("linear").impute(matrix)
        assert ledger.records() == []
