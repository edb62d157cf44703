"""Randomized TNN workloads through batches vs the per-query oracles.

End-to-end randomized workloads run through ``execute_tnn_batch`` at both
paper page geometries (including mid-run Hybrid-NN re-steering) and on
the distributed-layout heap fallback, and must match per-query
``algorithm.run`` and the stages stepped on the heap result for result.
"""

import random

import pytest

from repro.broadcast import SystemParameters
from repro.client import run_all
from repro.core.environment import TNNEnvironment
from repro.core.double import DoubleNN
from repro.core.hybrid import HybridNN
from repro.datasets import sized_uniform
from repro.engine import SharedScanRunner
from repro.engine.shared_scan import execute_tnn_batch
from repro.geometry import kernels


@pytest.mark.parametrize("capacity", [64, 512])
@pytest.mark.parametrize("algo_cls", [HybridNN, DoubleNN])
def test_randomized_workload_bit_identity(capacity, algo_cls):
    """Random workloads: batch == per-query, both geometries.

    Hybrid-NN covers mid-run re-steering (retarget / transitive switch of
    a part-walked stack); Double-NN covers independent estimate pairs.
    """
    params = SystemParameters(page_capacity=capacity)
    env = TNNEnvironment.build(
        sized_uniform(900, seed=5),
        sized_uniform(900, seed=6),
        params=params,
    )
    rng = random.Random(31 + capacity)
    queries = [
        (env.random_query_point(rng), *env.random_phases(rng))
        for _ in range(40)
    ]
    algo = algo_cls()
    shared = execute_tnn_batch(env, algo, queries)
    per_query = [algo.run(env, q, ps, pr) for q, ps, pr in queries]
    assert shared == per_query


def test_distributed_layout_heap_searches_match_per_query():
    """Heap-backed searches (no cyclic order) match per-query runs."""
    env = TNNEnvironment.build(
        sized_uniform(600, seed=7),
        sized_uniform(600, seed=8),
        params=SystemParameters(page_capacity=64),
        distributed_levels=2,
    )
    rng = random.Random(9)
    queries = [
        (env.random_query_point(rng), *env.random_phases(rng))
        for _ in range(10)
    ]
    runner = SharedScanRunner(env, _FixedWorkload(queries), workers=0)
    algo = HybridNN()
    got = runner.run_algorithm(algo)
    want = [algo.run(env, q, ps, pr) for q, ps, pr in queries]
    assert got == want


class _FixedWorkload:
    """Adapter: a pre-drawn query list as a runner workload."""

    def __init__(self, queries):
        self._q = list(queries)

    def queries(self, env):
        return list(self._q)

    def __len__(self):
        return len(self._q)


# ----------------------------------------------------------------------
# The batch vs the per-query stages stepped on the heap
# ----------------------------------------------------------------------
def _ab_queries(env, n, seed):
    rng = random.Random(seed)
    return [
        (env.random_query_point(rng), *env.random_phases(rng))
        for _ in range(n)
    ]


def _per_query_oracle(env, algo, queries):
    """The per-query reference: every stage stepped on the heap by
    ``run_all``."""
    out = []
    for q, ps, pr in queries:
        stages = algo._stages(env, q, *env.tuners(ps, pr))
        try:
            while True:
                group = next(stages)
                run_all(group.searches, on_finish=group.on_finish)
        except StopIteration as done:
            out.append(done.value)
    return out


@pytest.mark.parametrize("capacity", [64, 512])
@pytest.mark.parametrize("algo_cls", [HybridNN, DoubleNN])
@pytest.mark.parametrize("seed", [0, 1])
def test_store_phase_a_matches_scalar_row_loop(capacity, algo_cls, seed):
    """Random workloads: the batch == the per-query heap step loop.

    The batch's drain walks (certified weak bounds, exact keeps,
    bounded pair runs) must reproduce the heap-stepped run result for
    result — answers, access times and tune-in counters all derive from
    the same per-node decisions, so any divergence surfaces here.
    """
    env = TNNEnvironment.build(
        sized_uniform(2000, seed=seed),
        sized_uniform(2000, seed=seed + 50),
        params=SystemParameters(page_capacity=capacity),
    )
    queries = _ab_queries(env, 40, seed + 100)
    algo = algo_cls()
    store = execute_tnn_batch(env, algo, queries)
    assert store == _per_query_oracle(env, algo, queries)


def test_ab_sweep_drains_every_estimate_search(monkeypatch):
    """The A/B sweep's workload really runs every NN search on the walk.

    Guard against silently-green sweeps: on this fixed-seed workload every
    estimate search of every query drains (Hybrid-NN's pair in bounded
    runs, so a search may drain more than once) and none steps, while the
    answers still match the per-query heap step loop.
    """
    from repro.client import BroadcastNNSearch, arrival_queue

    drained, stepped = [], []
    drain = arrival_queue.drain
    step = BroadcastNNSearch.step

    def drain_spy(s, *args):
        drained.append(s)
        return drain(s, *args)

    def step_spy(s):
        stepped.append(s)
        return step(s)

    env = TNNEnvironment.build(
        sized_uniform(3000, seed=0),
        sized_uniform(3000, seed=50),
        params=SystemParameters(page_capacity=64),
    )
    queries = _ab_queries(env, 60, 0)
    algo = HybridNN()
    monkeypatch.setattr(arrival_queue, "drain", drain_spy)
    monkeypatch.setattr(BroadcastNNSearch, "step", step_spy)
    store = execute_tnn_batch(env, algo, queries)
    monkeypatch.undo()
    nn = {id(s) for s in drained if type(s) is BroadcastNNSearch}
    assert len(nn) == 2 * len(queries), "an estimate search never drained"
    assert stepped == []
    assert store == _per_query_oracle(env, algo, queries)


def test_weak_point_margin_tests_agree():
    """The two weak-point survivor tests are the same predicate.

    The per-query keep test proves a certified-weak point survivor with
    one scalar MINDIST, ``hypot(max(...), max(...)) > ub``; a query batch
    can test the same rows through ``kernels.mindist_multi(...) <= ub``.
    Elementwise the verdicts must be complementary, including rows where
    the exact MINDIST ties the bound (constructed below).
    """
    import math as _math

    import numpy as np

    rng = random.Random(97)
    k = 400
    qx = np.array([rng.uniform(-100, 100) for _ in range(k)])
    qy = np.array([rng.uniform(-100, 100) for _ in range(k)])
    x0 = np.array([rng.uniform(-100, 100) for _ in range(k)])
    y0 = np.array([rng.uniform(-100, 100) for _ in range(k)])
    mbrs = np.column_stack((
        x0, y0,
        x0 + [rng.uniform(0, 40) for _ in range(k)],
        y0 + [rng.uniform(0, 40) for _ in range(k)],
    ))
    # Degenerate slivers: zero width / zero height / single point.
    mbrs[0, 2] = mbrs[0, 0]
    mbrs[1, 3] = mbrs[1, 1]
    mbrs[2, 2:] = mbrs[2, :2]
    d = kernels.mindist_multi(np.column_stack((qx, qy)), mbrs)
    ubs = np.array([rng.uniform(0, 60) for _ in range(k)])
    ubs[3] = d[3]  # exact tie: `<= ub` keeps, `> ub` must not prune
    ubs[4] = _math.nextafter(d[4], 0.0)  # just below: both must prune
    vec_keep = d <= ubs
    for j in range(k):
        scalar_prune = _math.hypot(
            max(mbrs[j, 0] - qx[j], 0.0, qx[j] - mbrs[j, 2]),
            max(mbrs[j, 1] - qy[j], 0.0, qy[j] - mbrs[j, 3]),
        ) > ubs[j]
        assert scalar_prune == (not vec_keep[j])
