"""Traced training: run A-DARTS with full observability switched on.

Trains a small engine with a tracer and a metrics registry installed and
the race's progress logged to stderr, repairs a faulty series, then
exports

* ``trace.json``    — Chrome ``trace_event`` document; open it in
  ``chrome://tracing`` or https://ui.perfetto.dev to see the nested
  labeling / feature-extraction / race / inference spans on a timeline;
* ``metrics.prom``  — Prometheus text exposition of every counter,
  gauge, and latency histogram the run touched;

and renders the same summary the CLI produces via::

    python -m repro report --trace trace.json --metrics metrics.prom

Run:
    python examples/traced_training.py
"""

import logging

import numpy as np

from repro import ADarts, ModelRaceConfig, TimeSeries
from repro.datasets import load_category
from repro.observability import (
    MetricsRegistry,
    Tracer,
    enable_console_logging,
    use_metrics,
    use_tracer,
)
from repro.observability.report import load_metrics, load_trace, render_report
from repro.timeseries import inject_missing_block


def main() -> None:
    # Narrate race progress to stderr: the repro.core.modelrace logger.
    enable_console_logging(logging.INFO)

    tracer = Tracer()
    registry = MetricsRegistry()

    datasets = load_category("Climate", n_series=12, n_datasets=2)
    engine = ADarts(
        config=ModelRaceConfig(n_partial_sets=2, n_folds=2, max_elite=3),
        classifier_names=["knn", "decision_tree", "gaussian_nb"],
    )

    t = np.arange(300, dtype=float)
    clean = TimeSeries(
        10.0 + 5.0 * np.sin(2 * np.pi * t / 50.0), name="sensor"
    )
    faulty, _ = inject_missing_block(clean, ratio=0.1, random_state=7)

    # Everything inside this block is traced and metered.
    with use_tracer(tracer), use_metrics(registry):
        engine.fit_datasets(datasets)
        recommendation = engine.recommend(faulty)
        repaired = recommendation.impute(faulty)

    print(f"\nrecommended: {recommendation.algorithm}")
    print(f"repaired series has missing values: {repaired.has_missing}")

    trace_path = tracer.export_chrome_trace("trace.json")
    metrics_path = registry.export("metrics.prom")
    print(f"wrote {len(tracer)} spans to {trace_path}")
    print(f"wrote metrics to {metrics_path}")

    # The report needs only the files on disk — same as `repro report`.
    print()
    print(
        render_report(
            load_trace(trace_path), metrics=load_metrics(metrics_path), top=8
        )
    )


if __name__ == "__main__":
    main()
