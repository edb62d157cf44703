"""Hybrid-NN at the 512-byte page geometry: the drain walk vs heap steps.

Times the seeded Hybrid-NN TNN workload (estimate pair with mid-flight
re-steering, Case 3's transitive survivor, filter-phase range queries)
on the 512-byte Table-2 page geometry (leaf capacity 51, fanout 28),
where fan-outs are widest: once through ``algorithm.run``, whose stages
drain (one preorder stack walk per search run), and once with every
stage stepped on the heap by ``run_all`` — the seed implementation and
the reference.  The two run interleaved best-of-``REPRO_BENCH_ROUNDS`` on
the same host.  Asserts the two return **bit-identical** ``TNNResult``
streams (answers, radii, access times, tune-in — everything) and writes
``BENCH_tnn_geometry.json`` at the repository root.

Defaults match the paper's largest sweep size (30,000 points per dataset,
1,000 queries).  CI's smoke run shrinks ``REPRO_BENCH_QUERIES`` /
``REPRO_BENCH_POINTS`` to stay under a minute; ``REPRO_BENCH_MIN_SPEEDUP``
gates the drained-over-stepped speedup when set.
"""

from __future__ import annotations

import json
import os
import pathlib
import random

from repro.broadcast import SystemParameters
from repro.core.environment import TNNEnvironment
from repro.core.hybrid import HybridNN
from repro.datasets import sized_uniform
from repro.sim import format_table

N_QUERIES = int(os.environ.get("REPRO_BENCH_QUERIES", 1_000))
N_POINTS = int(os.environ.get("REPRO_BENCH_POINTS", 30_000))
PAGE_CAPACITY = int(os.environ.get("REPRO_BENCH_CAPACITY", 512))
ROUNDS = int(os.environ.get("REPRO_BENCH_ROUNDS", 4))
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", 0.0))

JSON_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_tnn_geometry.json"


def test_tnn_geometry_drain_vs_heap_steps(
    benchmark, record_experiment, drained_vs_stepped
):
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
    drained, stepped, drained_s, stepped_s = benchmark.pedantic(
        drained_vs_stepped, args=(env, HybridNN(), queries, ROUNDS),
        rounds=1, iterations=1,
    )

    # The acceptance bar: the full TNNResult streams are bit-identical.
    assert drained == stepped
    speedup = stepped_s / drained_s

    payload = {
        "benchmark": "tnn_geometry",
        "workload": "Hybrid-NN TNN queries at the 512-byte page geometry",
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
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    record_experiment(
        "tnn_geometry",
        format_table(
            ["queries", "points", "leaf/fanout", "heap steps (s)",
             "drained (s)", "speedup"],
            [[
                N_QUERIES,
                N_POINTS,
                f"{params.leaf_capacity}/{params.internal_fanout}",
                f"{stepped_s:.3f}",
                f"{drained_s:.3f}",
                f"{speedup:.2f}x",
            ]],
            title="[tnn_geometry] heap steps vs drain walk, 512-byte pages",
        ),
    )
    assert speedup >= MIN_SPEEDUP
