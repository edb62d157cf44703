"""Ablation — R-tree packing algorithm (STR vs Hilbert vs Nearest-X).

The paper states it uses STR "to achieve the best performance" but never
quantifies the choice.  This ablation measures the tune-in time of
Double-NN under each packer on the same workload: STR and Hilbert should
clearly beat Nearest-X (whose x-strip leaves have terrible aspect ratios),
with STR typically the best of the three.
"""

from repro.core import DoubleNN, TNNEnvironment
from repro.datasets import sized_uniform
from repro.engine import QueryWorkload, SharedScanRunner
from repro.sim import format_table
from repro.sim.experiments import _scaled, experiment_scale, queries_per_config

PACKINGS = ("str", "hilbert", "nearest_x")


def _measure():
    n = _scaled(10_000, experiment_scale())
    s_pts = sized_uniform(n, seed=1)
    r_pts = sized_uniform(n, seed=2)
    out = {}
    for packing in PACKINGS:
        env = TNNEnvironment.build(s_pts, r_pts, packing=packing)
        runner = SharedScanRunner(env, QueryWorkload(queries_per_config(), seed=3))
        stats = runner.run({"double-nn": DoubleNN()})["double-nn"]
        out[packing] = (stats.tune_in.mean, stats.access_time.mean)
    return out


def test_packing_ablation(benchmark, record_experiment):
    results = benchmark.pedantic(_measure, rounds=1, iterations=1)
    rows = [
        [name, f"{tunein:.1f}", f"{access:.0f}"]
        for name, (tunein, access) in results.items()
    ]
    record_experiment(
        "ablation_packing",
        format_table(
            ["packing", "tune-in (pages)", "access time (pages)"],
            rows,
            title="[ablation] R-tree packing algorithm (Double-NN)",
        ),
    )
    # STR (the paper's choice) must beat the naive Nearest-X packer.
    assert results["str"][0] < results["nearest_x"][0]
