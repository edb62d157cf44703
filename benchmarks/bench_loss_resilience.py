"""Loss resilience — degradation curves and chaos recovery.

The fault-tolerance PR's recording harness.  Two experiments write
``BENCH_loss_resilience.json`` at the repository root:

* **Degradation curves** — a Hybrid-TNN workload runs on the shared-scan
  fast path under every registered channel fault family: i.i.d. loss at
  increasing rates, Gilbert–Elliott fades at increasing burstiness
  (mean fade length ``1 / p_bad_good``) and detected page corruption.
  Mean access time and tune-in are recorded per configuration, and every
  run is gated **bit-identical** against the stepped per-query lifecycle
  (every stage driven by ``run_all``'s explicit ``step()`` calls): lossy
  groups drain per query through ``SearchGroup.run``, and the retry
  chains they replay closed form must match the scalar retry loop.
* **Chaos campaign** — the same workload fans out over a supervised
  worker pool while the chaos hook hard-kills one worker mid-campaign;
  the supervisor's rebuild/reshard/retry path must deliver the same
  ``TNNResult`` stream as the unsupervised serial run.

Scaled by ``REPRO_BENCH_QUERIES`` / ``REPRO_BENCH_POINTS`` for CI smoke.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

from repro.broadcast import (
    GilbertElliottLossModel,
    PageCorruptionModel,
    PageLossModel,
    SystemParameters,
)
from repro.core.environment import TNNEnvironment
from repro.core.hybrid import HybridNN
from repro.datasets import sized_uniform
from repro.client import run_all
from repro.engine import QueryWorkload, SharedScanRunner, execute_tnn_batch
from repro.sim import format_table

N_QUERIES = int(os.environ.get("REPRO_BENCH_QUERIES", 200))
N_POINTS = int(os.environ.get("REPRO_BENCH_POINTS", 8_000))
PAGE_CAPACITY = int(os.environ.get("REPRO_BENCH_CAPACITY", 64))

ROOT = pathlib.Path(__file__).resolve().parent.parent
JSON_PATH = ROOT / "BENCH_loss_resilience.json"

#: The swept channel configurations: (label, fault model or None).
#: Burstiness rises as ``p_bad_good`` falls — the mean fade stretches
#: from 2.5 to 10 slots at a fixed in-fade loss rate.
_CONFIGS = [
    ("lossless", None),
    ("iid rate=0.05", PageLossModel(rate=0.05, seed=17)),
    ("iid rate=0.15", PageLossModel(rate=0.15, seed=17)),
    ("iid rate=0.30", PageLossModel(rate=0.30, seed=17)),
    (
        "ge fade~2.5",
        GilbertElliottLossModel(
            bad_rate=0.6, p_good_bad=0.05, p_bad_good=0.4, seed=17
        ),
    ),
    (
        "ge fade~5",
        GilbertElliottLossModel(
            bad_rate=0.6, p_good_bad=0.05, p_bad_good=0.2, seed=17
        ),
    ),
    (
        "ge fade~10",
        GilbertElliottLossModel(
            bad_rate=0.6, p_good_bad=0.05, p_bad_good=0.1, seed=17
        ),
    ),
    ("corruption rate=0.10", PageCorruptionModel(rate=0.10, seed=17)),
]


def _build():
    env = TNNEnvironment.build(
        sized_uniform(N_POINTS, seed=1),
        sized_uniform(N_POINTS, seed=2),
        params=SystemParameters(page_capacity=PAGE_CAPACITY),
    )
    workload = QueryWorkload(N_QUERIES, seed=5)
    return env, workload.queries(env)


def _merge_json(update: dict) -> None:
    data = {}
    if JSON_PATH.exists():
        try:
            data = json.loads(JSON_PATH.read_text())
        except (ValueError, OSError):  # pragma: no cover - defensive
            data = {}
    data.update(update)
    # The CI gate reads the top-level flag: both experiments must hold.
    data["bit_identical"] = bool(
        data.get("curves_bit_identical", True)
        and data.get("chaos_bit_identical", True)
    )
    JSON_PATH.write_text(json.dumps(data, indent=2) + "\n")


def _stepped_per_query(env, algo, queries):
    """Each query's lifecycle with every stage stepped by ``run_all`` —
    the reference of both ``algo.run`` and ``execute_tnn_batch``."""
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


def test_loss_degradation_curves(benchmark, record_experiment):
    env, queries = _build()
    algo = HybridNN()

    def measure():
        curves = []
        all_identical = True
        for label, loss in _CONFIGS:
            env.loss = loss  # tuners() reads the field per query
            t0 = time.perf_counter()
            got = execute_tnn_batch(env, algo, queries)
            dt = time.perf_counter() - t0
            want = _stepped_per_query(env, algo, queries)
            identical = got == want
            all_identical = all_identical and identical
            n = len(got)
            curves.append(
                {
                    "config": label,
                    "mean_access_time": sum(r.access_time for r in got)
                    / n,
                    "mean_tune_in": sum(
                        r.tune_in_s + r.tune_in_r for r in got
                    )
                    / n,
                    "shared_scan_seconds": round(dt, 6),
                    "bit_identical": identical,
                }
            )
        env.loss = None
        return curves, all_identical

    curves, all_identical = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )

    _merge_json(
        {
            "benchmark": "loss_resilience",
            "workload": "Hybrid-NN TNN queries, faulty channel sweep",
            "n_queries": N_QUERIES,
            "n_points_per_dataset": N_POINTS,
            "page_capacity": PAGE_CAPACITY,
            "curves": curves,
            "curves_bit_identical": all_identical,
        }
    )

    record_experiment(
        "loss_resilience",
        format_table(
            ["channel", "mean access", "mean tune-in", "bit-identical"],
            [
                [
                    c["config"],
                    f"{c['mean_access_time']:.0f}",
                    f"{c['mean_tune_in']:.1f}",
                    str(c["bit_identical"]),
                ]
                for c in curves
            ],
            title=(
                "[loss_resilience] shared-scan fast path under channel "
                f"faults, {N_QUERIES}-query Hybrid-TNN"
            ),
        ),
    )

    assert all_identical, "a lossy fast-path run diverged from the oracle"
    # Degradation is monotone along the i.i.d. rate axis and along the
    # burstiness axis (longer fades retry more replicas).
    by = {c["config"]: c for c in curves}
    iid = [
        by[k]["mean_access_time"]
        for k in ("lossless", "iid rate=0.05", "iid rate=0.15", "iid rate=0.30")
    ]
    assert iid == sorted(iid)
    ge_tunein = [
        by[k]["mean_tune_in"]
        for k in ("ge fade~2.5", "ge fade~5", "ge fade~10")
    ]
    assert ge_tunein[-1] > by["lossless"]["mean_tune_in"]


def test_chaos_worker_kill_campaign(
    record_experiment, tmp_path, monkeypatch
):
    """Kill one pool worker mid-campaign on a bursty channel: the shard
    supervisor retries/reshards and the merged stream stays bit-identical
    to the unsupervised serial run."""
    env, _ = _build()
    env.loss = GilbertElliottLossModel(
        bad_rate=0.6, p_good_bad=0.05, p_bad_good=0.2, seed=17
    )
    workload = QueryWorkload(N_QUERIES, seed=5)
    algo = HybridNN()
    want = SharedScanRunner(env, workload, workers=0).run_algorithm(algo)

    marker = tmp_path / "chaos.marker"
    marker.write_text("armed")
    monkeypatch.setenv("REPRO_CHAOS_KILL_SHARD", "0")
    monkeypatch.setenv("REPRO_CHAOS_MARKER", str(marker))
    monkeypatch.setenv("REPRO_SHARD_BACKOFF", "0.01")
    t0 = time.perf_counter()
    got = SharedScanRunner(env, workload, workers=2).run_algorithm(algo)
    dt = time.perf_counter() - t0

    kill_fired = not marker.exists()
    identical = got == want
    _merge_json(
        {
            "chaos": {
                "workers": 2,
                "killed_shard": 0,
                "kill_fired": kill_fired,
                "recovered_seconds": round(dt, 6),
            },
            "chaos_bit_identical": bool(identical and kill_fired),
        }
    )
    record_experiment(
        "loss_resilience_chaos",
        format_table(
            ["workers", "kill fired", "bit-identical", "recovered (s)"],
            [["2", str(kill_fired), str(identical), f"{dt:.3f}"]],
            title=(
                "[loss_resilience] worker killed mid-campaign, supervised "
                "pool recovery"
            ),
        ),
    )
    assert kill_fired, "the chaos hook never killed a worker"
    assert identical, "the recovered campaign diverged from the serial run"
