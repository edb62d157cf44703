"""Engine — batched multi-query execution on the paper's 1,000-query workload.

Times :class:`repro.engine.SharedScanRunner` pushing a full workload of
exact Double-NN queries through one environment, and checks the engine
invariants:

* the runner returns **bit-identical** result sequences to the per-query
  reference loop, ``DoubleNN().run`` on every workload query;
* vectorised aggregation (``summarize_batch``) matches the scalar
  ``summarize`` on every metric.

``REPRO_BENCH_QUERIES`` (default 1,000 — the paper's per-configuration
query count) and ``REPRO_BENCH_POINTS`` (default 1,000 per dataset) size
the workload; CI's smoke run shrinks both to stay under a minute.
"""

import math
import os
import time

from repro.core import DoubleNN, TNNEnvironment
from repro.datasets import sized_uniform
from repro.engine import QueryWorkload, SharedScanRunner
from repro.sim import format_table, summarize, summarize_batch

N_QUERIES = int(os.environ.get("REPRO_BENCH_QUERIES", 1_000))
N_POINTS = int(os.environ.get("REPRO_BENCH_POINTS", 1_000))


def _measure():
    env = TNNEnvironment.build(
        sized_uniform(N_POINTS, seed=1), sized_uniform(N_POINTS, seed=2)
    )
    workload = QueryWorkload(N_QUERIES, seed=0)
    runner = SharedScanRunner(env, workload)

    t0 = time.perf_counter()
    results = runner.run_algorithm(DoubleNN())
    elapsed = time.perf_counter() - t0

    algo = DoubleNN()
    reference = [algo.run(env, q, ps, pr) for q, ps, pr in runner.queries]
    return results, reference, elapsed


def test_engine_batch_throughput(benchmark, record_experiment):
    results, reference, elapsed = benchmark.pedantic(_measure, rounds=1, iterations=1)

    # Bit-identical to the per-query reference loop.
    assert results == reference

    # Vectorised aggregation agrees with the scalar reference.
    fast, slow = summarize_batch(results), summarize(results)
    for metric in ("access_time", "tune_in", "estimate_pages", "filter_pages"):
        a, b = getattr(fast, metric), getattr(slow, metric)
        assert math.isclose(a.mean, b.mean, rel_tol=1e-12)
        assert math.isclose(a.std, b.std, rel_tol=1e-9, abs_tol=1e-12)
        assert a.count == b.count == N_QUERIES

    throughput = N_QUERIES / elapsed
    record_experiment(
        "engine_batch",
        format_table(
            ["queries", "dataset size", "wall-clock (s)", "queries/s"],
            [[N_QUERIES, N_POINTS, f"{elapsed:.3f}", f"{throughput:.0f}"]],
            title="[engine] SharedScanRunner Double-NN workload throughput",
        ),
    )
    assert throughput > 0
