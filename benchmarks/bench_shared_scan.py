"""Shared-scan batch executor A/B — page-major vs per-query kernel path.

The headline workload of the shared-scan PR: the seeded 1,000-query
Hybrid-NN TNN workload at the paper's 64-byte page geometry (leaf capacity
6, fanout M = 3 — the geometry PR 3's ``bench_small_geometry`` optimised
one query at a time).  The per-query kernel path replays the broadcast
cycle once per query; :class:`~repro.engine.batch.SharedScanRunner`
advances it page-major, serving every active query per arrival tick and
batching the bound geometry across the workload in multi-query kernel
calls.

Protocol: interleaved best-of-``REPRO_BENCH_ROUNDS`` on the same host —
one per-query pass and one shared-scan pass per round, alternating, best
times compared — with a mandatory assertion that the two paths produce
**bit-identical** ``TNNResult`` streams.  ``REPRO_BENCH_MIN_SPEEDUP``
gates the speedup on full-size local runs (CI smoke runs are too small
and too noisy to gate).

Writes ``BENCH_shared_scan.json`` at the repository root, including the
PR 3 per-query reference time from ``BENCH_small_geometry.json`` when
present.
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import time

from repro.broadcast import SystemParameters
from repro.core.environment import TNNEnvironment
from repro.core.hybrid import HybridNN
from repro.datasets import sized_uniform
from repro.engine import QueryWorkload, SharedScanRunner
from repro.geometry import kernels
from repro.sim import format_table

N_QUERIES = int(os.environ.get("REPRO_BENCH_QUERIES", 1_000))
N_POINTS = int(os.environ.get("REPRO_BENCH_POINTS", 30_000))
PAGE_CAPACITY = int(os.environ.get("REPRO_BENCH_CAPACITY", 64))
ROUNDS = int(os.environ.get("REPRO_BENCH_ROUNDS", 4))
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", 0.0))
# The per-backend ledger gate sweeps every registered layout with a
# per-query oracle pass, so it runs at its own (smaller) scale.
SWEEP_QUERIES = int(os.environ.get("REPRO_BENCH_SWEEP_QUERIES", 40))
SWEEP_POINTS = int(os.environ.get("REPRO_BENCH_SWEEP_POINTS", 2_000))

ROOT = pathlib.Path(__file__).resolve().parent.parent
JSON_PATH = ROOT / "BENCH_shared_scan.json"
SMALL_GEOMETRY_JSON = ROOT / "BENCH_small_geometry.json"


def _build():
    params = SystemParameters(page_capacity=PAGE_CAPACITY)
    env = TNNEnvironment.build(
        sized_uniform(N_POINTS, seed=1),
        sized_uniform(N_POINTS, seed=2),
        params=params,
    )
    workload = QueryWorkload(N_QUERIES, seed=0)
    return env, workload


def test_shared_scan_speedup(benchmark, record_experiment):
    env, workload = _build()
    algo = HybridNN()
    runner = SharedScanRunner(env, workload, workers=0)
    queries = workload.queries(env)

    def per_query():
        return [algo.run(env, q, ps, pr) for q, ps, pr in queries]

    def measure():
        with kernels.use_kernels(True):
            # Warm both paths, then interleave best-of-N so neither side
            # owns a quieter stretch of the host.
            pq_res = per_query()
            shared_res = runner.run_algorithm(algo)
            pq_best = shared_best = None
            for _ in range(ROUNDS):
                t0 = time.perf_counter()
                pq_res = per_query()
                dt = time.perf_counter() - t0
                pq_best = dt if pq_best is None else min(pq_best, dt)
                t0 = time.perf_counter()
                shared_res = runner.run_algorithm(algo)
                dt = time.perf_counter() - t0
                shared_best = dt if shared_best is None else min(shared_best, dt)
        return pq_res, shared_res, pq_best, shared_best

    pq_res, shared_res, pq_s, shared_s = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )

    # The acceptance bar: the full TNNResult streams are bit-identical.
    assert shared_res == pq_res
    speedup = pq_s / shared_s

    pr3_reference = None
    if SMALL_GEOMETRY_JSON.exists():
        try:
            pr3_reference = json.loads(SMALL_GEOMETRY_JSON.read_text()).get(
                "kernel_seconds"
            )
        except (ValueError, OSError):  # pragma: no cover - defensive
            pr3_reference = None
    # The previous recording (the last PR's shared-scan time) is carried
    # forward so the arena PR's before/after lives in the artifact itself.
    previous_shared = None
    previous_backends = None
    if JSON_PATH.exists():
        try:
            prev = json.loads(JSON_PATH.read_text())
            previous_shared = prev.get("shared_scan_seconds")
            # The per-backend ledger gate (test below) merges its section
            # into this file; a headline-only re-run keeps it.
            previous_backends = prev.get("backends")
        except (ValueError, OSError):  # pragma: no cover - defensive
            previous_shared = None

    params = SystemParameters(page_capacity=PAGE_CAPACITY)
    payload = {
        "benchmark": "shared_scan",
        "workload": "Hybrid-NN TNN queries, shared-scan vs per-query",
        "n_queries": N_QUERIES,
        "n_points_per_dataset": N_POINTS,
        "page_capacity": PAGE_CAPACITY,
        "leaf_capacity": params.leaf_capacity,
        "fanout": params.internal_fanout,
        "frontier": "columnar-arena",
        "protocol": f"interleaved best-of-{ROUNDS}, same host",
        "per_query_seconds": round(pq_s, 6),
        "shared_scan_seconds": round(shared_s, 6),
        "speedup": round(speedup, 3),
        "bit_identical": shared_res == pq_res,
        "pr3_per_query_reference_seconds": pr3_reference,
        "previous_shared_scan_seconds": previous_shared,
    }
    if previous_backends is not None:
        payload["backends"] = previous_backends
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    record_experiment(
        "shared_scan",
        format_table(
            [
                "queries",
                "points",
                "leaf/fanout",
                "per-query (s)",
                "shared scan (s)",
                "speedup",
            ],
            [[
                N_QUERIES,
                N_POINTS,
                f"{params.leaf_capacity}/{params.internal_fanout}",
                f"{pq_s:.3f}",
                f"{shared_s:.3f}",
                f"{speedup:.2f}x",
            ]],
            title=(
                "[shared_scan] per-query vs page-major shared scan, "
                "1,000-query Hybrid-TNN at 64-byte pages"
            ),
        ),
    )
    assert speedup >= MIN_SPEEDUP


def test_ledger_backend_sweep(record_experiment):
    """Tuner-ledger bit-identity gate on every registered backend.

    For each layout backend, the shared-scan path (columnar tuner ledger
    engaged where the backend supports the arena, the per-query driver
    ``SearchGroup.run`` where it does not) must match the per-query
    scalar-tuner oracle twice over:

    * the full Hybrid-TNN ``TNNResult`` stream, and
    * raw tuner state at the search level — ``now``, the page counters,
      ``lost_pages`` and the **materialised log tuples** — against a
      :func:`run_all`-driven oracle on identically constructed searches.

    Merges a per-backend ``bit_identical`` section into
    ``BENCH_shared_scan.json``; CI fails the build if any entry is false.
    """
    from repro.broadcast import (
        BroadcastChannel,
        ChannelTuner,
        available_layouts,
        make_layout,
    )
    from repro.client import BroadcastNNSearch, SearchGroup, run_all
    from repro.engine import execute_tnn_batch
    from repro.engine.shared_scan import SharedScanExecutor

    algo = HybridNN()
    backends = {}
    for name in available_layouts():
        env = TNNEnvironment.build(
            sized_uniform(SWEEP_POINTS, seed=1),
            sized_uniform(SWEEP_POINTS, seed=2),
            params=SystemParameters(page_capacity=PAGE_CAPACITY),
            layout=make_layout(name),
        )
        queries = QueryWorkload(SWEEP_QUERIES, seed=7).queries(env)
        with kernels.use_kernels(True):
            want = [algo.run(env, q, ps, pr) for q, ps, pr in queries]
            got = execute_tnn_batch(env, algo, queries)
        results_ok = got == want

        rng = random.Random(13)
        cycle = env.s_program.cycle_length
        specs = [
            (env.random_query_point(rng), rng.uniform(0, cycle))
            for _ in range(10)
        ]

        def nn_search(spec):
            q, phase = spec
            tuner = ChannelTuner(
                BroadcastChannel(env.s_program, phase=phase)
            )
            return BroadcastNNSearch(env.s_tree, tuner, q)

        oracle = [nn_search(spec) for spec in specs]
        shared = [nn_search(spec) for spec in specs]
        with kernels.use_kernels(True):
            for s in oracle:
                run_all([s])
            executor = SharedScanExecutor()
            for s in shared:
                executor.add(SearchGroup([s]))
            executor.run()
        tuners_ok = all(
            a.result() == b.result()
            and a.tuner.now == b.tuner.now
            and a.tuner.index_pages == b.tuner.index_pages
            and a.tuner.data_pages == b.tuner.data_pages
            and a.tuner.lost_pages == b.tuner.lost_pages
            and a.tuner.log == b.tuner.log
            for a, b in zip(shared, oracle)
        )
        backends[name] = {"bit_identical": bool(results_ok and tuners_ok)}
        assert results_ok, f"{name}: TNNResult stream diverged"
        assert tuners_ok, f"{name}: tuner state or log diverged"

    data = {}
    if JSON_PATH.exists():
        try:
            data = json.loads(JSON_PATH.read_text())
        except (ValueError, OSError):  # pragma: no cover - defensive
            data = {}
    data["backends"] = backends
    JSON_PATH.write_text(json.dumps(data, indent=2) + "\n")

    record_experiment(
        "shared_scan_backends",
        format_table(
            ["backend", "bit_identical"],
            [[name, str(entry["bit_identical"])]
             for name, entry in sorted(backends.items())],
            title=(
                "[shared_scan] ledger bit-identity vs scalar-tuner "
                f"oracle, {SWEEP_QUERIES} queries / backend"
            ),
        ),
    )
