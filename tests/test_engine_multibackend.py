"""run_many bit-identity across air-index backends, cyclic and not.

The batch contract — answers, access times, tune-in
counts and queue footprints bit-identical to the per-query oracle — must
hold on every backend the layout seam can produce.  Cyclic backends
(grid, quadtree, plain R-tree) exercise the drain walk; non-cyclic ones
(distributed indexing, broadcast-disk schedules) exercise the heap, which
historically had thinner shared-scan coverage.  Each backend is checked
against the single-query methods and against searches stepped on the
heap.
"""

import random

import pytest

from repro.broadcast import SystemParameters
from repro.broadcast.layout import (
    BroadcastDiskSchedule,
    GridAirIndexLayout,
    QuadtreeAirIndexLayout,
    RTreeInterleavedLayout,
)
from repro.core import DoubleNN, HybridNN, TNNEnvironment
from repro.datasets import sized_uniform
from repro.engine import (
    KNNRequest,
    NNRequest,
    QueryEngine,
    QueryWorkload,
    RangeRequest,
    SharedScanRunner,
    WindowRequest,
)
from repro.geometry import Point, Rect


HOT = Rect(0.0, 0.0, 12000.0, 12000.0)

LAYOUTS = {
    "rtree": RTreeInterleavedLayout(),
    "distributed": RTreeInterleavedLayout(distributed_levels=2),
    "grid": GridAirIndexLayout(),
    "quadtree": QuadtreeAirIndexLayout(),
    "disk": BroadcastDiskSchedule(hot_region=HOT),
}


@pytest.fixture(scope="module")
def envs():
    s = sized_uniform(320, seed=31)
    r = sized_uniform(320, seed=32)
    return {
        name: TNNEnvironment.build(s, r, layout=layout)
        for name, layout in LAYOUTS.items()
    }


def _mixed_requests(env, n, seed=41):
    rng = random.Random(seed)
    out = []
    for i in range(n):
        p = env.random_query_point(rng)
        channel = "s" if rng.random() < 0.5 else "r"
        program = env.s_program if channel == "s" else env.r_program
        phase = rng.uniform(0, program.cycle_length)
        kind = i % 4
        if kind == 0:
            out.append(NNRequest(p, phase, channel))
        elif kind == 1:
            out.append(KNNRequest(p, 1 + i % 4, phase, channel))
        elif kind == 2:
            out.append(RangeRequest(p, rng.uniform(100, 3000), phase, channel))
        else:
            q = env.random_query_point(rng)
            out.append(
                WindowRequest(
                    Rect(min(p.x, q.x), min(p.y, q.y), max(p.x, q.x), max(p.y, q.y)),
                    phase,
                    channel,
                )
            )
    return out


def _oracle(engine, req):
    if isinstance(req, NNRequest):
        return engine.nn(req.point, req.phase, req.channel)
    if isinstance(req, KNNRequest):
        return engine.knn(req.point, req.k, req.phase, req.channel)
    if isinstance(req, RangeRequest):
        return engine.range(req.center, req.radius, req.phase, req.channel)
    return engine.window(req.window, req.phase, req.channel)


def _stepped(engine, req):
    """The search ``engine`` would build for ``req``, stepped on the heap."""
    search = engine._build(req)
    while not search.finished():
        search.step()
    return engine._finish(search)


@pytest.mark.parametrize("stepped", [True, False])
@pytest.mark.parametrize("backend", sorted(LAYOUTS))
def test_run_many_bit_identity_per_backend(backend, stepped, envs):
    """``run_many`` against the single-query methods, or (``stepped``)
    against every request's search stepped on the heap."""
    env = envs[backend]
    engine = QueryEngine(env)
    requests = _mixed_requests(env, 20)
    got = engine.run_many(requests)
    oracle = _stepped if stepped else _oracle
    assert got == [oracle(engine, req) for req in requests]


@pytest.mark.parametrize("backend", ["distributed", "disk"])
def test_heap_fallback_engaged_on_non_cyclic_backends(backend, envs):
    """Non-cyclic programs must not sneak onto the walk."""
    env = envs[backend]
    assert not env.s_program.has_cyclic_order
    engine = QueryEngine(env)
    search = engine._build(NNRequest(Point(100.0, 100.0)))
    assert not search._drains()


@pytest.mark.parametrize("backend", ["grid", "quadtree"])
def test_walk_engaged_on_cyclic_backends(backend, envs):
    """Cyclic backends build searches on the walk's stack, which drain."""
    env = envs[backend]
    assert env.s_program.has_cyclic_order
    engine = QueryEngine(env)
    search = engine._build(NNRequest(Point(100.0, 100.0)))
    assert search._drains()


@pytest.mark.parametrize("backend", ["grid", "quadtree", "disk"])
def test_shared_scan_runner_tnn_bit_identity(backend, envs):
    """Whole-workload TNN through SharedScanRunner matches per-query runs."""
    env = envs[backend]
    workload = QueryWorkload(n_queries=8, seed=51)
    runner = SharedScanRunner(env, workload)
    for algo in (DoubleNN(), HybridNN()):
        want = [
            algo.run(env, p, ps, pr) for p, ps, pr in runner.queries
        ]
        assert runner.run_algorithm(algo) == want
