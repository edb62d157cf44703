"""Tests for the experiment runner, stats and tables."""

import math

import pytest

from repro.core import ApproximateTNN, DoubleNN, TNNEnvironment, WindowBasedTNN
from repro.datasets import uniform
from repro.engine import SharedScanRunner
from repro.geometry import Rect
from repro.sim import (
    MetricStats,
    QueryWorkload,
    format_series,
    format_table,
    summarize,
)


@pytest.fixture(scope="module")
def env():
    region = Rect(0, 0, 2000, 2000)
    return TNNEnvironment.build(
        uniform(150, seed=1, region=region), uniform(150, seed=2, region=region)
    )


def test_metric_stats():
    st = MetricStats.of([1.0, 2.0, 3.0])
    assert st.mean == 2.0
    assert st.minimum == 1.0
    assert st.maximum == 3.0
    assert st.count == 3
    assert math.isclose(st.std, math.sqrt(2.0 / 3.0))


def test_metric_stats_empty_raises():
    with pytest.raises(ValueError):
        MetricStats.of([])


def test_workload_reproducible(env):
    w = QueryWorkload(5, seed=9)
    assert w.queries(env) == w.queries(env)
    assert w.queries(env) != QueryWorkload(5, seed=10).queries(env)


def test_workload_counts(env):
    assert len(QueryWorkload(7, seed=0).queries(env)) == 7


def test_runner_same_workload_for_all_algorithms(env):
    runner = SharedScanRunner(env, QueryWorkload(5, seed=3))
    res_a = runner.run_algorithm(DoubleNN())
    res_b = runner.run_algorithm(WindowBasedTNN())
    # Same query points in the same order.
    assert [r.query for r in res_a] == [r.query for r in res_b]
    # And identical (exact) answers.
    for a, b in zip(res_a, res_b):
        assert math.isclose(a.distance, b.distance, rel_tol=1e-9)


def test_runner_summary(env):
    runner = SharedScanRunner(env, QueryWorkload(5, seed=4))
    stats = runner.run({"double-nn": DoubleNN()})
    st = stats["double-nn"]
    assert st.algorithm == "double-nn"
    assert st.access_time.count == 5
    assert st.tune_in.mean > 0
    assert st.fail_rate == 0.0


def test_summarize_empty_raises():
    with pytest.raises(ValueError):
        summarize([])


def test_compare_failures_exact_never_fails(env):
    runner = SharedScanRunner(env, QueryWorkload(5, seed=5))
    assert runner.compare_failures(WindowBasedTNN(), DoubleNN()) == 0.0


def test_compare_failures_detects_bad_radius(env):
    """An Approximate-TNN whose radius is forced tiny must fail often."""

    class BrokenApproximate(ApproximateTNN):
        def _estimate(self, env, query, tuner_s, tuner_r, policy_s, policy_r):
            return 1e-6, None
            yield  # still a generator

    runner = SharedScanRunner(env, QueryWorkload(5, seed=6))
    assert runner.compare_failures(BrokenApproximate(), DoubleNN()) == 1.0


def test_format_table_alignment():
    text = format_table(["a", "bb"], [[1, 2.5], [33, 4]], title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "bb" in lines[1]
    assert len(lines) == 5


def test_format_series_columns():
    text = format_series("x", [1, 2], {"alg": [10.0, 20.0]}, title="S")
    assert "alg" in text
    assert "10" in text and "20" in text


def test_format_table_nan_rendered_as_dash():
    text = format_table(["v"], [[float("nan")]])
    assert "-" in text.splitlines()[-1]
