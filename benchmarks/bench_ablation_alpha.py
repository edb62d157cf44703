"""Ablation — dynamic depth-scaled alpha vs fixed alpha (Section 5.2).

The paper argues a fixed pruning threshold "may not be suitable for all
R-tree nodes" and proposes Equation 4's depth-scaled alpha.  This ablation
compares Double-NN tune-in under: exact search, fixed alpha (the static
thresholds of Lin et al.), and the dynamic alpha with factor 1.
"""

from repro.client.policies import AnnPolicy, dynamic_alpha, fixed_alpha
from repro.core import AnnOptimization, DoubleNN, TNNEnvironment
from repro.datasets import sized_uniform
from repro.engine import QueryWorkload, SharedScanRunner
from repro.sim import format_table
from repro.sim.experiments import _scaled, experiment_scale, queries_per_config


class _FixedAlphaOptimization(AnnOptimization):
    """ANN plumbing with a constant alpha (the static baseline)."""

    def __init__(self, alpha: float) -> None:
        super().__init__(factor=0.0, density_aware=False)
        object.__setattr__(self, "_alpha", alpha)

    def policies(self, env):
        policy = AnnPolicy(fixed_alpha(self._alpha))
        return policy, policy


def _measure():
    n = _scaled(10_000, experiment_scale())
    env = TNNEnvironment.build(
        sized_uniform(n, seed=1), sized_uniform(n, seed=2)
    )
    runner = SharedScanRunner(env, QueryWorkload(queries_per_config(), seed=3))
    variants = {
        "exact": DoubleNN(),
        "fixed-0.2": DoubleNN(optimization=_FixedAlphaOptimization(0.2)),
        "fixed-0.5": DoubleNN(optimization=_FixedAlphaOptimization(0.5)),
        "fixed-0.8": DoubleNN(optimization=_FixedAlphaOptimization(0.8)),
        "dynamic-f1": DoubleNN(
            optimization=AnnOptimization(factor=1.0, density_aware=False)
        ),
    }
    stats = runner.run(variants)
    return {name: st.tune_in.mean for name, st in stats.items()}


def test_alpha_ablation(benchmark, record_experiment):
    results = benchmark.pedantic(_measure, rounds=1, iterations=1)
    rows = [[name, f"{v:.1f}"] for name, v in results.items()]
    record_experiment(
        "ablation_alpha",
        format_table(
            ["alpha policy", "tune-in (pages)"],
            rows,
            title="[ablation] fixed vs dynamic pruning threshold (Double-NN)",
        ),
    )
    # The dynamic alpha must beat exact search; an over-aggressive fixed
    # threshold (0.8 at every level, including the root region) must not
    # beat the depth-aware policy.
    assert results["dynamic-f1"] < results["exact"]
    assert results["dynamic-f1"] <= min(
        results["fixed-0.2"], results["fixed-0.5"], results["fixed-0.8"]
    ) * 1.05
