"""Small-page-geometry client hot path: the drain walk vs heap steps.

The paper's smallest page geometry (64-byte pages: leaf capacity 6,
fanout M = 3, the "H = 10 and M = 3" tree of Section 6) gives the
longest walks per query.  This benchmark drives the full **client**
stack — broadcast Hybrid-NN estimate phase, mid-flight re-steering,
filter-phase range queries — on it.

Workload A (the headline): the seeded 1,000-query Hybrid-NN TNN workload,
interleaved best-of-``REPRO_BENCH_ROUNDS`` on the same host, through
``algorithm.run`` (its stages drain) vs every stage stepped on the heap
by ``run_all`` (the seed queue and geometry implementation).  Asserts the
two produce **bit-identical** ``TNNResult`` streams (answers, radii,
access times, tune-in — everything); ``REPRO_BENCH_MIN_SPEEDUP`` gates
the drained-over-stepped speedup when set (CI smoke runs are too noisy
and too small).

Workload B: an 8-channel scheduler fleet (one client interleaving eight
channels), the coupled ``SearchGroup.run`` (bounded drain walks) vs the
step-at-a-time ``run_all`` scan it replays — answers, clocks and tune-in
must match exactly; both times are recorded.

Writes ``BENCH_small_geometry.json`` at the repository root.
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import time

from repro.broadcast import (
    BroadcastChannel,
    BroadcastProgram,
    ChannelTuner,
    SystemParameters,
)
from repro.client import BroadcastNNSearch, SearchGroup, run_all
from repro.core.environment import TNNEnvironment
from repro.core.hybrid import HybridNN
from repro.datasets import sized_uniform
from repro.geometry import Point
from repro.rtree import str_pack
from repro.sim import format_table

N_QUERIES = int(os.environ.get("REPRO_BENCH_QUERIES", 1_000))
N_POINTS = int(os.environ.get("REPRO_BENCH_POINTS", 30_000))
PAGE_CAPACITY = int(os.environ.get("REPRO_BENCH_CAPACITY", 64))
ROUNDS = int(os.environ.get("REPRO_BENCH_ROUNDS", 4))
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", 0.0))
N_CHANNELS = int(os.environ.get("REPRO_BENCH_CHANNELS", 8))

JSON_PATH = (
    pathlib.Path(__file__).resolve().parent.parent
    / "BENCH_small_geometry.json"
)


def _build_env():
    params = SystemParameters(page_capacity=PAGE_CAPACITY)
    env = TNNEnvironment.build(
        sized_uniform(N_POINTS, seed=1),
        sized_uniform(N_POINTS, seed=2),
        params=params,
    )
    rng = random.Random(0)
    queries = [
        (env.random_query_point(rng), *env.random_phases(rng))
        for _ in range(N_QUERIES)
    ]
    return env, queries


def _build_fleet(seed=7):
    """One NN search per channel: the async-channel-tuner shape."""
    rng = random.Random(seed)
    searches = []
    q = Point(rng.uniform(0, 1000), rng.uniform(0, 1000))
    for c in range(N_CHANNELS):
        prng = random.Random(100 + c)
        pts = [
            Point(prng.random() * 1000, prng.random() * 1000)
            for _ in range(max(200, N_POINTS // 20))
        ]
        params = SystemParameters(page_capacity=PAGE_CAPACITY)
        tree = str_pack(pts, params.leaf_capacity, params.internal_fanout)
        program = BroadcastProgram(tree, params, m=2)
        tuner = ChannelTuner(
            BroadcastChannel(program, phase=rng.uniform(0, 500))
        )
        searches.append(BroadcastNNSearch(tree, tuner, q))
    return searches


def _fleet_results(searches):
    return [(s.result(), s.tuner.now, s.tuner.index_pages) for s in searches]


def test_small_geometry_drain_vs_heap_steps(
    benchmark, record_experiment, drained_vs_stepped
):
    env, queries = _build_env()
    drained, stepped, drained_s, stepped_s = benchmark.pedantic(
        drained_vs_stepped, args=(env, HybridNN(), queries, ROUNDS),
        rounds=1, iterations=1,
    )

    # The acceptance bar: the full TNNResult streams are bit-identical.
    assert drained == stepped
    speedup = stepped_s / drained_s

    # Workload B: the 8-channel fleet, coupled group vs the run_all scan.
    group_searches = _build_fleet()
    t0 = time.perf_counter()
    SearchGroup(group_searches, coupled=True).run()
    group_s = time.perf_counter() - t0
    run_all_searches = _build_fleet()
    t0 = time.perf_counter()
    run_all(run_all_searches)
    run_all_s = time.perf_counter() - t0
    assert _fleet_results(group_searches) == _fleet_results(run_all_searches)

    params = SystemParameters(page_capacity=PAGE_CAPACITY)
    payload = {
        "benchmark": "small_geometry",
        "workload": "Hybrid-NN TNN queries over two broadcast channels",
        "n_queries": N_QUERIES,
        "n_points_per_dataset": N_POINTS,
        "page_capacity": PAGE_CAPACITY,
        "leaf_capacity": params.leaf_capacity,
        "fanout": params.internal_fanout,
        "protocol": f"interleaved best-of-{ROUNDS}, same host",
        "stepped_seconds": round(stepped_s, 6),
        "drained_seconds": round(drained_s, 6),
        "speedup": round(speedup, 3),
        "bit_identical": drained == stepped,
        "scheduler_fleet": {
            "channels": N_CHANNELS,
            "coupled_group_seconds": round(group_s, 6),
            "run_all_seconds": round(run_all_s, 6),
            "answers_identical": True,
        },
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    record_experiment(
        "small_geometry",
        format_table(
            [
                "queries",
                "points",
                "leaf/fanout",
                "heap steps (s)",
                "drained (s)",
                "speedup",
                f"{N_CHANNELS}-ch group/run_all (s)",
            ],
            [[
                N_QUERIES,
                N_POINTS,
                f"{params.leaf_capacity}/{params.internal_fanout}",
                f"{stepped_s:.3f}",
                f"{drained_s:.3f}",
                f"{speedup:.2f}x",
                f"{group_s:.3f}/{run_all_s:.3f}",
            ]],
            title=(
                "[small_geometry] heap steps vs drain walk, "
                "64-byte-page client hot path"
            ),
        ),
    )
    assert speedup >= MIN_SPEEDUP
