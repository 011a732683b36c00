"""Tests for the command-line interface."""

import pathlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cli import build_parser, main, read_series_csv, write_series_csv
from repro.exceptions import ValidationError
from repro.imputation import available_imputers
from repro.timeseries import TimeSeries


def _oracle_write_series_csv(path, series_list) -> None:
    """The per-field CSV writer ``write_series_csv`` must match byte for byte."""
    path = pathlib.Path(path)
    with path.open("w") as fh:
        for series in series_list:
            fields = [
                "" if np.isnan(v) else repr(float(v)) for v in series.values
            ]
            fh.write((",".join(fields) or "nan") + "\n")


_CSV_EDGES = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
              -1.7976931348623157e308, 2.2250738585072014e-308, 0.1, 1e16]
_CSV_VALUE = st.one_of(
    st.floats(allow_nan=True, allow_infinity=False),
    st.sampled_from(_CSV_EDGES + [float("nan")]),
)
_CSV_ROWS = st.lists(st.lists(_CSV_VALUE, min_size=1, max_size=30),
                     min_size=1, max_size=6)


class TestCsvWriterContract:
    @settings(max_examples=150, deadline=None)
    @given(_CSV_ROWS)
    @example([_CSV_EDGES, [float("nan"), -0.0, float("nan")], [5e-324]])
    @example([[float("nan")], [float("nan"), float("nan")]])
    def test_bytes_match_per_field_oracle(self, tmp_path_factory, rows):
        folder = tmp_path_factory.mktemp("csv")
        series = [TimeSeries(row) for row in rows]
        write_series_csv(folder / "new.csv", series)
        _oracle_write_series_csv(folder / "old.csv", series)
        written = (folder / "new.csv").read_bytes()
        assert written == (folder / "old.csv").read_bytes()
        for line, row in zip(written.decode().split("\n"), rows):
            if len(row) == 1 and row[0] != row[0]:
                assert line == "nan"  # a blank line would be skipped
                continue
            blanks = [field == "" for field in line.split(",")]
            assert blanks == [v != v for v in row]  # NaN -> blank field

    @settings(max_examples=150, deadline=None)
    @given(_CSV_ROWS)
    @example([_CSV_EDGES, [float("nan"), -0.0, float("nan")]])
    @example([[float("nan")], [1.0, 2.0]])  # a lone NaN keeps its row
    def test_read_back_is_bit_exact(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("csv") / "rows.csv"
        write_series_csv(path, [TimeSeries(row) for row in rows])
        loaded = read_series_csv(path)
        assert len(loaded) == len(rows)
        for series, row in zip(loaded, rows):
            expected = np.asarray(row, dtype=float)
            missing = np.isnan(expected)
            assert np.array_equal(np.isnan(series.values), missing)
            assert series.values[~missing].tobytes() == expected[~missing].tobytes()


class TestCsvIO:
    def test_round_trip(self, tmp_path):
        series = [
            TimeSeries([1.0, np.nan, 3.0], name="a"),
            TimeSeries([4.0, 5.0, np.nan], name="b"),
        ]
        path = tmp_path / "data.csv"
        write_series_csv(path, series)
        loaded = read_series_csv(path)
        assert len(loaded) == 2
        assert loaded[0].n_missing == 1
        assert loaded[0].values[0] == 1.0
        assert np.isnan(loaded[1].values[2])

    def test_nan_token_accepted(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.0,nan,3.0\n")
        loaded = read_series_csv(path)
        assert np.isnan(loaded[0].values[1])

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.0,2.0\n\n3.0,4.0\n")
        assert len(read_series_csv(path)) == 2

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ValidationError):
            read_series_csv(tmp_path / "nope.csv")

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("\n")
        with pytest.raises(ValidationError):
            read_series_csv(path)

    def test_malformed_value_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0,oops,5.0\n")
        with pytest.raises(ValidationError, match="line 2"):
            read_series_csv(path)


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        for argv in (
            ["train", "--out", "x.json"],
            ["recommend", "--engine", "e.json", "--data", "d.csv"],
            ["repair", "--engine", "e.json", "--data", "d.csv", "--out", "o.csv"],
            ["list-imputers"],
        ):
            args = parser.parse_args(argv)
            assert callable(args.func)

    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize("argv", [["bench", "trend"], ["profile"]])
    def test_retired_commands_exit_2(self, argv, capsys):
        # Timing comes from benchmarks/e2e/run.py and hotspots from the
        # stdlib cProfile, so the CLI has no bench or profile command.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_jobs_and_backend_are_train_only(self, capsys):
        parser = build_parser()
        args = parser.parse_args(
            ["train", "--out", "x.json", "--jobs", "2", "--backend", "thread"]
        )
        assert (args.jobs, args.backend) == (2, "thread")
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([
                "repair", "--engine", "e.json", "--data", "d.csv",
                "--out", "o.csv", "--jobs", "2",
            ])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            parser.parse_args(["repair", "--help"])
        assert "--jobs" not in capsys.readouterr().out


class TestCommands:
    def test_list_imputers(self, capsys):
        assert main(["list-imputers"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out == available_imputers()

    def test_recommend_with_bad_engine_path_errors(self, tmp_path, capsys):
        code = main(
            [
                "recommend",
                "--engine", str(tmp_path / "missing.json"),
                "--data", str(tmp_path / "missing.csv"),
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.slow
    def test_full_train_recommend_repair_cycle(self, tmp_path, capsys):
        engine_path = tmp_path / "engine.json"
        code = main(
            [
                "train",
                "--categories", "Climate",
                "--out", str(engine_path),
                "--series-per-dataset", "8",
                "--datasets-per-category", "1",
                "--partial-sets", "2",
            ]
        )
        assert code == 0
        assert engine_path.exists()

        data_path = tmp_path / "faulty.csv"
        t = np.arange(120, dtype=float)
        values = 10 + 5 * np.sin(2 * np.pi * t / 30.0)
        values[40:55] = np.nan
        write_series_csv(data_path, [TimeSeries(values)])

        code = main(
            ["recommend", "--engine", str(engine_path), "--data", str(data_path)]
        )
        assert code == 0
        line = capsys.readouterr().out.strip()
        assert "\t" in line  # name \t algorithm \t ranking

        out_path = tmp_path / "repaired.csv"
        code = main(
            [
                "repair",
                "--engine", str(engine_path),
                "--data", str(data_path),
                "--out", str(out_path),
            ]
        )
        assert code == 0
        repaired = read_series_csv(out_path)
        assert not repaired[0].has_missing

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
    def test_repair_with_malformed_engine_exits_2(
        self, tmp_path, capsys, labeled_features, break_document
    ):
        import json

        from repro import ADarts, ModelRaceConfig
        from repro.core import export_engine

        X, y = labeled_features
        engine = ADarts(
            config=ModelRaceConfig(n_partial_sets=2, n_folds=2, max_elite=1),
            classifier_names=["gaussian_nb"],
        ).fit_features(X, y)
        document = export_engine(engine)
        document["cluster_atlas"] = {
            "ids": ["c0"], "labels": ["linear"], "representatives": [[0.0, 1.0]],
        }
        document["ledger_head"] = {"run_id": "run_x", "records": []}
        break_document(document)
        engine_path = tmp_path / "engine.json"
        engine_path.write_text(json.dumps(document))
        data_path = tmp_path / "faulty.csv"
        write_series_csv(data_path, [TimeSeries([1.0, np.nan, 3.0, 4.0])])
        code = main([
            "repair", "--engine", str(engine_path), "--data", str(data_path),
            "--out", str(tmp_path / "fixed.csv"),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err
        assert "Traceback" not in err

    @pytest.fixture
    def train_stderr(self, tmp_path, capsys):
        """Run ``repro train`` on the tiny corpus; return its stderr."""

        def run(*extra):
            code = main([
                "train", "--categories", "Climate",
                "--out", str(tmp_path / "engine.json"),
                "--series-per-dataset", "8", "--datasets-per-category", "1",
                "--partial-sets", "2", *extra,
            ])
            assert code == 0
            return capsys.readouterr().err

        return run

    def test_train_verbose_narrates_each_race_iteration(self, train_stderr):
        err = train_stderr("--verbose")
        done = [
            line.split("repro.core.modelrace: ", 1)[1]
            for line in err.splitlines()
            if " done: evals=" in line
        ]
        assert [line.split(" done:")[0] for line in done] == [
            "iteration 0", "iteration 1",
        ]
        assert "race start: 12 seed pipelines" in err
        assert "elite refit: " in err

    def test_verbose_logging_is_undone_after_the_command(self, train_stderr):
        """``--verbose`` leaves the ``repro`` logger as it found it: no
        handler bound to this command's stderr, the level unchanged."""
        import logging

        root = logging.getLogger("repro")
        before = (list(root.handlers), root.level)
        train_stderr("--verbose")
        assert (list(root.handlers), root.level) == before

    def test_train_without_verbose_is_quiet(self, train_stderr):
        err = train_stderr()
        assert "saved engine to" in err
        assert "done: evals=" not in err
        assert "repro.core.modelrace" not in err

    def test_train_unknown_category_errors(self, tmp_path, capsys):
        code = main(
            ["train", "--categories", "Bogus", "--out", str(tmp_path / "e.json")]
        )
        assert code == 2


class TestServingParser:
    def test_monitor_registered(self):
        parser = build_parser()
        args = parser.parse_args(
            ["monitor", "--engine", "e.json", "--data", "d.csv"]
        )
        assert callable(args.func)
        assert args.format == "json"
        assert args.drift_window == 256
        assert args.psi_threshold == 0.25

    def test_monitor_format_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                [
                    "monitor", "--engine", "e.json", "--data", "d.csv",
                    "--format", "xml",
                ]
            )


@pytest.fixture(scope="module")
def serving_artifacts(tmp_path_factory):
    """A small trained engine JSON plus a faulty-series CSV."""
    from repro import ADarts, ModelRaceConfig
    from repro.core import save_engine
    from repro.pipeline.scoring import ScoreWeights

    rng = np.random.default_rng(11)
    t = np.linspace(0, 4 * np.pi, 96)
    series, labels = [], []
    for i in range(8):
        series.append(
            TimeSeries(
                np.sin(t * (1 + 0.1 * i)) + 0.05 * rng.normal(size=96),
                name=f"sine{i}",
            )
        )
        labels.append("linear")
    for i in range(8):
        series.append(
            TimeSeries(0.5 * np.cumsum(rng.normal(size=96)), name=f"walk{i}")
        )
        labels.append("mean")
    engine = ADarts(
        config=ModelRaceConfig(
            n_partial_sets=2, n_folds=2, max_elite=2, random_state=0,
            weights=ScoreWeights(alpha=0.5, beta=0.25, gamma=0.0),
        ),
        classifier_names=["knn", "decision_tree"],
    )
    X = engine.extractor.extract_many(series)
    engine.fit_features(X, np.array(labels))

    root = tmp_path_factory.mktemp("serving")
    engine_path = root / "engine.json"
    save_engine(engine, engine_path)
    data_path = root / "data.csv"
    write_series_csv(data_path, series)
    return engine_path, data_path


class TestServingCommands:
    def test_monitor_json_document(self, serving_artifacts, tmp_path, capsys):
        import json

        engine_path, data_path = serving_artifacts
        out_path = tmp_path / "health.json"
        prom_path = tmp_path / "health.prom"
        code = main(
            [
                "monitor",
                "--engine", str(engine_path),
                "--data", str(data_path),
                "--repeat", "2",
                "--drift-min-samples", "16",
                "--out", str(out_path),
                "--prom-out", str(prom_path),
            ]
        )
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["n_series"] == 32
        assert document["latency"]["count"] > 0
        assert document["drift"]["enabled"] is True
        assert json.loads(out_path.read_text())["n_series"] == 32
        assert "repro_serving_requests_total" in prom_path.read_text()

    def test_monitor_prometheus_stdout(self, serving_artifacts, capsys):
        engine_path, data_path = serving_artifacts
        code = main(
            [
                "monitor",
                "--engine", str(engine_path),
                "--data", str(data_path),
                "--format", "prometheus",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_serving_requests_total counter" in out
        assert "repro_serving_latency_seconds" in out

    def test_monitor_bad_engine_errors(self, tmp_path, capsys):
        code = main(
            [
                "monitor",
                "--engine", str(tmp_path / "missing.json"),
                "--data", str(tmp_path / "missing.csv"),
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_monitor_malformed_metrics_input_errors(self, tmp_path, capsys):
        from repro.observability.report import load_metrics

        bad = tmp_path / "metrics.json"
        bad.write_text('[1, 2, 3]')
        with pytest.raises(ValidationError, match="unrecognized metrics"):
            load_metrics(bad)


class TestLedgerParser:
    def test_audit_and_explain_registered(self):
        parser = build_parser()
        args = parser.parse_args(["audit", "--ledger", "l.jsonl", "--summary"])
        assert callable(args.func)
        assert args.summary is True
        args = parser.parse_args(
            [
                "audit", "--ledger", "l.jsonl", "--kind", "repair",
                "--algorithm", "linear", "--degraded-only", "--tail", "5",
            ]
        )
        assert args.kind == "repair"
        assert args.tail == 5
        args = parser.parse_args(
            ["explain", "rep_abc", "--ledger", "l.jsonl", "--engine", "e.json"]
        )
        assert callable(args.func)
        assert args.repair_id == "rep_abc"

    def test_audit_kind_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["audit", "--ledger", "l.jsonl", "--kind", "bogus"]
            )

    def test_repair_accepts_ledger_out(self):
        args = build_parser().parse_args(
            [
                "repair", "--engine", "e.json", "--data", "d.csv",
                "--out", "o.csv", "--ledger-out", "l.jsonl",
            ]
        )
        assert args.ledger_out == "l.jsonl"


@pytest.fixture(scope="module")
def ledgered_repair(serving_artifacts, tmp_path_factory):
    """Run ``repro repair --ledger-out`` once; share the resulting ledger."""
    engine_path, data_path = serving_artifacts
    root = tmp_path_factory.mktemp("ledgered")
    faulty_path = root / "faulty.csv"
    t = np.linspace(0, 4 * np.pi, 96)
    values = np.sin(t)
    values[30:50] = np.nan
    write_series_csv(faulty_path, [TimeSeries(values, name="gap")])
    ledger_path = root / "ledger.jsonl"
    code = main(
        [
            "repair",
            "--engine", str(engine_path),
            "--data", str(faulty_path),
            "--out", str(root / "repaired.csv"),
            "--ledger-out", str(ledger_path),
        ]
    )
    assert code == 0
    return engine_path, ledger_path


class TestLedgerCommands:
    def test_repair_writes_ledger(self, ledgered_repair):
        import json

        _engine_path, ledger_path = ledgered_repair
        rows = [
            json.loads(line)
            for line in ledger_path.read_text().splitlines()
        ]
        kinds = {row["kind"] for row in rows}
        assert "repair" in kinds
        assert "impute" in kinds

    def test_audit_summary(self, ledgered_repair, capsys):
        _engine_path, ledger_path = ledgered_repair
        assert main(["audit", "--ledger", str(ledger_path), "--summary"]) == 0
        out = capsys.readouterr().out
        assert "repair ledger summary" in out
        assert "per-imputer scorecard" in out

    def test_audit_line_and_json_modes(self, ledgered_repair, capsys):
        import json

        _engine_path, ledger_path = ledgered_repair
        assert main(["audit", "--ledger", str(ledger_path)]) == 0
        out = capsys.readouterr().out
        assert "repair" in out
        assert (
            main(
                [
                    "audit", "--ledger", str(ledger_path),
                    "--kind", "repair", "--json",
                ]
            )
            == 0
        )
        rows = [
            json.loads(line)
            for line in capsys.readouterr().out.strip().splitlines()
        ]
        assert rows and all(r["kind"] == "repair" for r in rows)

    def test_explain_reconstructs_repair(
        self, ledgered_repair, capsys
    ):
        import json

        engine_path, ledger_path = ledgered_repair
        rows = [
            json.loads(line)
            for line in ledger_path.read_text().splitlines()
        ]
        repair_id = next(r["id"] for r in rows if r["kind"] == "repair")
        code = main(
            [
                "explain", repair_id,
                "--ledger", str(ledger_path),
                "--engine", str(engine_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert repair_id in out
        assert "decision" in out

    def test_audit_missing_ledger_errors(self, tmp_path, capsys):
        code = main(["audit", "--ledger", str(tmp_path / "nope.jsonl")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_audit_malformed_ledger_errors(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("this is not json\n")
        code = main(["audit", "--ledger", str(bad)])
        assert code == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_explain_unknown_id_errors(self, ledgered_repair, capsys):
        _engine_path, ledger_path = ledgered_repair
        code = main(["explain", "rep_nope", "--ledger", str(ledger_path)])
        assert code == 2
        assert "no repair record" in capsys.readouterr().err


class TestTopCommand:
    def test_top_registered(self):
        parser = build_parser()
        args = parser.parse_args(["top", "--snapshot", "h.json", "--once"])
        assert callable(args.func)
        assert args.once is True

    def test_top_once_live_engine(self, serving_artifacts, capsys):
        """One frame polled from a live daemon over a unix socket."""
        import tempfile

        from repro.core import load_engine
        from repro.serving import ServingDaemon, SocketServer

        engine_path, _data_path = serving_artifacts
        engine = load_engine(engine_path)
        # A short directory: unix socket paths are limited to ~100 bytes.
        with tempfile.TemporaryDirectory() as short, ServingDaemon(
            engine, n_shards=1, shard_backend="inline"
        ) as daemon, SocketServer(daemon, path=f"{short}/s") as server:
            code = main(["top", "--connect", server.address, "--once",
                         "--no-color"])
        assert code == 0
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "SLO" in out
        assert "RESOURCES" in out
        assert "\x1b[2J" not in out  # --once never clears the screen

    def test_top_once_from_snapshot_file(
        self, serving_artifacts, tmp_path, capsys
    ):
        engine_path, data_path = serving_artifacts
        out_path = tmp_path / "health.json"
        assert main(
            [
                "monitor",
                "--engine", str(engine_path),
                "--data", str(data_path),
                "--out", str(out_path),
            ]
        ) == 0
        capsys.readouterr()
        code = main(["top", "--snapshot", str(out_path), "--once"])
        assert code == 0
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "latency_p99" in out

    def test_top_without_source_errors(self, capsys):
        code = main(["top", "--once"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_top_loop_exits_cleanly_on_interrupt(
        self, serving_artifacts, tmp_path, monkeypatch, capsys
    ):
        import time as _time

        engine_path, data_path = serving_artifacts
        snapshot_path = tmp_path / "health.json"
        assert main(
            ["monitor", "--engine", str(engine_path), "--data",
             str(data_path), "--out", str(snapshot_path)]
        ) == 0
        capsys.readouterr()

        def _interrupt(_seconds):
            raise KeyboardInterrupt

        monkeypatch.setattr(_time, "sleep", _interrupt)
        code = main(["top", "--snapshot", str(snapshot_path)])
        assert code == 0
        captured = capsys.readouterr()
        assert "\x1b[2J" in captured.out  # at least one frame was drawn
        assert "top stopped" in captured.err


class TestServeCommand:
    def test_serve_registered_with_defaults(self):
        args = build_parser().parse_args(["serve", "--engine", "e.json"])
        assert args.command == "serve"
        assert args.shards == 2
        assert args.shard_backend == "auto"
        assert args.max_batch == 16
        assert args.max_delay_ms == 0.0
        assert args.max_pending == 1024
        assert args.selfcheck is None

    def test_serve_backend_choices_enforced(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["serve", "--engine", "e.json", "--shard-backend", "bogus"]
            )
        assert "--shard-backend" in capsys.readouterr().err

    def test_serve_requires_engine(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])
        assert "--engine" in capsys.readouterr().err

    def test_serve_selfcheck_roundtrip(
        self, serving_artifacts, tmp_path, capsys
    ):
        """The CI lane: seeded requests through the real socket, exit 0,
        snapshot exported — and a second run is reproducible."""
        import json

        engine_path, _ = serving_artifacts
        snapshot_path = tmp_path / "serve_health.json"
        code = main(
            ["serve", "--engine", str(engine_path),
             "--shards", "2", "--shard-backend", "inline",
             "--max-batch", "8", "--max-delay-ms", "1",
             "--selfcheck", "12", "--seed", "5",
             "--snapshot-out", str(snapshot_path)]
        )
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert "selfcheck OK" in captured.out
        assert "12/12 responses" in captured.out
        assert "statuses {200: 12}" in captured.out
        assert "2 inline shard(s)" in captured.err

        doc = json.loads(snapshot_path.read_text())
        assert doc["n_requests"] >= 1
        assert doc["n_series"] == 12
        assert doc["scorecards"]["batching"]["items"] == 12

    def test_serve_refuses_an_extractor_of_the_wrong_width(
        self, serving_artifacts, tmp_path, capsys
    ):
        """An ``extractor`` section that disagrees with the training
        matrix's width is refused at startup, not served by the fallback."""
        import json

        engine_path, _ = serving_artifacts
        document = json.loads(engine_path.read_text())
        extractor = document["extractor"]
        extractor["use_statistical"] = not extractor["use_statistical"]
        doctored = tmp_path / "doctored.json"
        doctored.write_text(json.dumps(document))
        code = main(
            ["serve", "--engine", str(doctored), "--shard-backend", "inline",
             "--selfcheck", "3"]
        )
        assert code == 2
        assert "error: engine extractor makes" in capsys.readouterr().err

    def test_serve_selfcheck_bad_engine_errors(self, tmp_path, capsys):
        code = main(
            ["serve", "--engine", str(tmp_path / "nope.json"),
             "--selfcheck", "3"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestMonitorWatch:
    def test_watch_flag_registered(self):
        args = build_parser().parse_args(
            ["monitor", "--engine", "e.json", "--data", "d.csv",
             "--watch", "2.5"]
        )
        assert args.watch == 2.5

    def test_watch_loop_renders_and_exits_on_interrupt(
        self, serving_artifacts, monkeypatch, capsys
    ):
        import time as _time

        engine_path, data_path = serving_artifacts
        calls = []

        def _interrupt(seconds):
            calls.append(seconds)
            if len(calls) >= 2:
                raise KeyboardInterrupt

        monkeypatch.setattr(_time, "sleep", _interrupt)
        code = main(
            [
                "monitor",
                "--engine", str(engine_path),
                "--data", str(data_path),
                "--watch", "1.0",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.count("\x1b[2J") == 2  # one clear per frame
        assert "monitor stopped" in captured.err
        assert len(calls) == 2
