"""Ablation — the (1, m) replication factor.

The broadcast program defaults to Imielinski et al.'s optimum
``m* = sqrt(data_pages / index_pages)``.  This ablation sweeps m with
**data retrieval enabled** (the trade-off only exists when queries also
wait for data pages) and confirms the access-time U-shape: too few index
replicas make clients wait for the next index copy; too many inflate the
cycle and push the data pages apart.
"""

from repro.broadcast import BroadcastProgram, optimal_m
from repro.core import DoubleNN, TNNEnvironment
from repro.datasets import sized_uniform
from repro.engine import QueryWorkload, SharedScanRunner
from repro.sim import format_table
from repro.sim.experiments import _scaled, experiment_scale, queries_per_config

M_SWEEP = (1, 2, 4, 8, 16, 32, 64, 128)


def _measure():
    n = _scaled(10_000, experiment_scale())
    s_pts = sized_uniform(n, seed=1)
    r_pts = sized_uniform(n, seed=2)
    out = {}
    for m in M_SWEEP:
        env = TNNEnvironment.build(s_pts, r_pts, m=m)
        runner = SharedScanRunner(env, QueryWorkload(queries_per_config(), seed=3))
        algo = DoubleNN(include_data_retrieval=True)
        stats = runner.run({"double-nn": algo})["double-nn"]
        out[m] = stats.access_time.mean
    # What would the auto-selected m have been?
    env = TNNEnvironment.build(s_pts, r_pts)
    auto_m = env.s_program.m
    return out, auto_m


def test_interleave_ablation(benchmark, record_experiment):
    results, auto_m = benchmark.pedantic(_measure, rounds=1, iterations=1)
    rows = [[m, f"{v:.0f}"] for m, v in results.items()]
    record_experiment(
        "ablation_interleave",
        format_table(
            ["m", "access time (pages)"],
            rows,
            title=f"[ablation] (1, m) replication factor (auto m* = {auto_m})",
        ),
    )
    # The extremes must both lose to the best interior choice (U-shape).
    best = min(results.values())
    assert results[1] > best
    assert results[M_SWEEP[-1]] > best


def test_optimal_m_near_sweep_minimum(benchmark):
    """The analytic m* should land near the empirical sweep minimum."""
    results, auto_m = benchmark.pedantic(_measure, rounds=1, iterations=1)
    best_m = min(results, key=results.get)
    # Within a factor of 4 on the geometric m grid.
    assert best_m / 4 <= auto_m <= best_m * 4
