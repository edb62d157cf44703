"""Tests for the batched execution engine (SharedScanRunner + QueryEngine)."""

import math

import pytest

from repro.core import ApproximateTNN, DoubleNN, HybridNN, TNNEnvironment
from repro.datasets import uniform
from repro.engine import QueryEngine, QueryWorkload, SharedScanRunner
from repro.geometry import Point, Rect, distance
from repro.sim import summarize, summarize_batch


@pytest.fixture(scope="module")
def env():
    region = Rect(0, 0, 2000, 2000)
    return TNNEnvironment.build(
        uniform(150, seed=1, region=region), uniform(150, seed=2, region=region)
    )


def _per_query(env, algo, workload):
    """The reference path: ``algo.run`` on every workload query."""
    return [algo.run(env, p, ps, pr) for p, ps, pr in workload.queries(env)]


# ----------------------------------------------------------------------
# SharedScanRunner vs per-query algorithm.run — the engine property
# ----------------------------------------------------------------------
@pytest.mark.parametrize("algo_cls", [DoubleNN, HybridNN, ApproximateTNN])
def test_serial_batch_identical_to_sequential_runner(env, algo_cls):
    workload = QueryWorkload(10, seed=7)
    batch = SharedScanRunner(env, workload, workers=0)
    sequential = _per_query(env, algo_cls(), workload)
    assert batch.run_algorithm(algo_cls()) == sequential


def test_process_pool_bit_identical(env):
    workload = QueryWorkload(9, seed=11)
    batch = SharedScanRunner(env, workload)
    reference = _per_query(env, DoubleNN(), workload)
    # Dataclass equality covers every field: answers, distances and all
    # cost accounting must match bit for bit, in workload order.
    assert batch.run_algorithm(DoubleNN(), workers=0) == reference
    assert batch.run_algorithm(DoubleNN(), workers=2) == reference
    assert batch.run_algorithm(DoubleNN(), workers=3) == reference
    # An algorithm with no estimate searches shards the same way.
    approx = _per_query(env, ApproximateTNN(), workload)
    # An empty workload completes in every mode with no results.
    empty = SharedScanRunner(env, QueryWorkload(0, seed=11))
    for workers in (0, 2):
        assert batch.run_algorithm(ApproximateTNN(), workers=workers) == approx
        assert empty.run_algorithm(DoubleNN(), workers=workers) == []


def test_workers_constructor_default(env):
    workload = QueryWorkload(4, seed=2)
    assert SharedScanRunner(env, workload, workers=2).run_algorithm(
        DoubleNN()
    ) == _per_query(env, DoubleNN(), workload)


def test_run_summary_matches_scalar_summarize(env):
    workload = QueryWorkload(8, seed=5)
    batch = SharedScanRunner(env, workload)
    stats = batch.run({"double-nn": DoubleNN()})["double-nn"]
    slow = summarize(_per_query(env, DoubleNN(), workload))
    for metric in ("access_time", "tune_in", "estimate_pages", "filter_pages"):
        assert math.isclose(
            getattr(stats, metric).mean, getattr(slow, metric).mean, rel_tol=1e-12
        )
        assert getattr(stats, metric).count == 8
    assert stats.fail_rate == slow.fail_rate


def test_summarize_batch_empty_raises():
    with pytest.raises(ValueError):
        summarize_batch([])


def test_summary_and_oracle_runs_keep_no_reception_logs(env, monkeypatch):
    """``run`` (serial and pool), ``reference_results`` and
    ``compare_failures`` build log-free tuners, and their results match a
    run that keeps logs."""
    workload = QueryWorkload(6, seed=5)
    logged = SharedScanRunner(env, workload, workers=0)
    hybrid_logged = logged.run_algorithm(HybridNN(), record_log=True)
    double_logged = logged.run_algorithm(DoubleNN(), record_log=True)

    flags = []
    real_tuners = TNNEnvironment.tuners

    def tuners_spy(self, *args, **kwargs):
        pair = real_tuners(self, *args, **kwargs)
        flags.extend(t.record_log for t in pair)
        return pair

    pool_flags = []
    real_pool = SharedScanRunner._run_shared_pool

    def pool_spy(self, algorithm, workers, sp, record_log=True):
        pool_flags.append(record_log)
        return real_pool(self, algorithm, workers, sp, record_log)

    monkeypatch.setattr(TNNEnvironment, "tuners", tuners_spy)
    monkeypatch.setattr(SharedScanRunner, "_run_shared_pool", pool_spy)

    serial = SharedScanRunner(env, workload, workers=0)
    stats = serial.run({"hybrid-nn": HybridNN()})
    assert stats == {"hybrid-nn": summarize_batch(hybrid_logged)}
    assert serial.reference_results(DoubleNN()) == double_logged
    assert serial.compare_failures(HybridNN(), DoubleNN()) == 0.0
    assert flags and not any(flags)

    pooled = SharedScanRunner(env, workload, workers=2)
    assert pooled.run({"hybrid-nn": HybridNN()}) == stats
    assert pool_flags == [False]


# ----------------------------------------------------------------------
# Reference caching in compare_failures
# ----------------------------------------------------------------------
def test_compare_failures_caches_reference(env):
    calls = {"n": 0}

    class CountingDoubleNN(DoubleNN):
        def _stages(self, *args, **kwargs):
            calls["n"] += 1
            return super()._stages(*args, **kwargs)

    batch = SharedScanRunner(env, QueryWorkload(5, seed=6))
    reference = CountingDoubleNN()
    assert batch.compare_failures(DoubleNN(), reference) == 0.0
    assert calls["n"] == 5
    # Second candidate against the same oracle: no reference re-runs.
    assert batch.compare_failures(HybridNN(), reference) == 0.0
    assert calls["n"] == 5


def test_compare_failures_detects_bad_candidate(env):
    class BrokenApproximate(ApproximateTNN):
        def _estimate(self, env, query, tuner_s, tuner_r, policy_s, policy_r):
            return 1e-6, None
            yield  # still a generator

    batch = SharedScanRunner(env, QueryWorkload(5, seed=6))
    assert batch.compare_failures(BrokenApproximate(), DoubleNN()) == 1.0


# ----------------------------------------------------------------------
# QueryEngine facade
# ----------------------------------------------------------------------
def test_query_engine_nn_matches_brute_force(env):
    engine = QueryEngine(env)
    q = Point(700.0, 1200.0)
    answer = engine.nn(q, phase=17.0)
    best = min(env.s_points, key=lambda p: distance(q, p))
    assert answer.answers[0][0] == best
    assert math.isclose(answer.answers[0][1], distance(q, best))
    assert answer.tune_in > 0 and answer.access_time > 0
    assert answer.max_queue_size >= 1


def test_query_engine_knn_sorted_and_exact(env):
    engine = QueryEngine(env)
    q = Point(300.0, 300.0)
    answer = engine.knn(q, k=5, channel="r")
    dists = [d for _, d in answer.answers]
    assert dists == sorted(dists) and len(dists) == 5
    expected = sorted(distance(q, p) for p in env.r_points)[:5]
    assert all(math.isclose(a, b) for a, b in zip(dists, expected))


def test_query_engine_range_matches_filter(env):
    engine = QueryEngine(env)
    q, radius = Point(1000.0, 1000.0), 250.0
    answer = engine.range(q, radius)
    got = {p for p, _ in answer.answers}
    want = {p for p in env.s_points if distance(q, p) <= radius}
    assert got == want
    assert all(d <= radius for _, d in answer.answers)


def test_query_engine_tnn_default_is_double_nn(env):
    engine = QueryEngine(env)
    q = Point(900.0, 400.0)
    assert engine.tnn(q, phase_s=3.0, phase_r=5.0) == DoubleNN().run(env, q, 3.0, 5.0)


def test_query_engine_rejects_unknown_channel(env):
    with pytest.raises(ValueError):
        QueryEngine(env).nn(Point(0.0, 0.0), channel="x")


def test_query_engine_batch_roundtrip(env):
    engine = QueryEngine(env)
    workload = QueryWorkload(3, seed=1)
    batch = engine.batch(workload)
    assert isinstance(batch, SharedScanRunner)
    assert batch.run_algorithm(DoubleNN()) == _per_query(
        env, DoubleNN(), workload
    )


# ----------------------------------------------------------------------
# Workload relocation compatibility
# ----------------------------------------------------------------------
def test_workload_importable_from_both_homes():
    from repro.engine.workload import QueryWorkload as EngineWorkload
    from repro.sim import QueryWorkload as SimWorkload

    assert EngineWorkload is SimWorkload
