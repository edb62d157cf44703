"""Experiment harness: statistics, tables and canned experiments.

``repro.sim.experiments`` contains one function per figure/table of the
paper's evaluation (Section 6); the benchmark modules under ``benchmarks/``
and the ``tnn-experiments`` CLI both call into it.  Experiment scale is
controlled by the ``REPRO_SCALE`` (dataset-size multiplier) and
``REPRO_QUERIES`` (queries per configuration) environment variables so the
paper-scale run and a minutes-long laptop run share one code path.
"""

from repro.sim.stats import MetricStats, ResultStats, summarize, summarize_batch
from repro.engine import QueryWorkload
from repro.sim.tables import format_series, format_table
from repro.sim.experiments import (
    ExperimentSeries,
    experiment_scale,
    queries_per_config,
)
from repro.sim.trace import render_timeline, trace_summary
from repro.sim.charts import render_chart

__all__ = [
    "render_timeline",
    "trace_summary",
    "render_chart",
    "MetricStats",
    "ResultStats",
    "summarize",
    "summarize_batch",
    "QueryWorkload",
    "format_series",
    "format_table",
    "ExperimentSeries",
    "experiment_scale",
    "queries_per_config",
]
