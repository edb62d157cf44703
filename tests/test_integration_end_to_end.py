"""End-to-end integration: the whole stack on one realistic scenario.

Builds a mid-size skewed environment, runs all algorithms (exact and
ANN-optimised) over a shared workload and cross-checks every published
qualitative relationship in one place.
"""

import math
import random

import pytest

from repro.broadcast import SystemParameters
from repro.core import (
    AnnOptimization,
    ApproximateTNN,
    DoubleNN,
    HybridNN,
    TNNEnvironment,
    WindowBasedTNN,
)
from repro.datasets import city_like, gaussian_clusters, uniform
from repro.engine import QueryWorkload, SharedScanRunner
from repro.geometry import Rect
from repro.rtree import tnn_oracle

REGION = Rect(0.0, 0.0, 39_000.0, 39_000.0)


@pytest.fixture(scope="module")
def env():
    return TNNEnvironment.build(
        uniform(1_200, seed=31, region=REGION),
        uniform(1_500, seed=32, region=REGION),
        SystemParameters(page_capacity=64),
    )


@pytest.fixture(scope="module")
def runner(env):
    return SharedScanRunner(env, QueryWorkload(12, seed=5))


@pytest.fixture(scope="module")
def all_stats(runner):
    return runner.run(
        {
            "window": WindowBasedTNN(),
            "approx": ApproximateTNN(),
            "double": DoubleNN(),
            "hybrid": HybridNN(),
            "double-ann": DoubleNN(
                optimization=AnnOptimization(factor=1.0, density_aware=False)
            ),
        }
    )


def test_all_algorithms_ran(all_stats):
    assert set(all_stats) == {"window", "approx", "double", "hybrid", "double-ann"}
    for st in all_stats.values():
        assert st.access_time.count == 12


def test_exact_algorithms_never_fail(all_stats):
    for name in ("window", "double", "hybrid", "double-ann"):
        assert all_stats[name].fail_rate == 0.0


def test_access_time_ordering(all_stats):
    """Approx < Double == Hybrid <= Window (Figure 9)."""
    assert all_stats["approx"].access_time.mean < all_stats["double"].access_time.mean
    assert (
        abs(all_stats["double"].access_time.mean - all_stats["hybrid"].access_time.mean)
        / all_stats["double"].access_time.mean
        < 0.05
    )
    assert (
        all_stats["double"].access_time.mean
        <= all_stats["window"].access_time.mean * 1.01
    )


def test_approximate_tunein_dwarfs_exact(all_stats):
    assert all_stats["approx"].tune_in.mean > 1.5 * all_stats["double"].tune_in.mean


def test_ann_reduces_estimate_pages(all_stats):
    assert (
        all_stats["double-ann"].estimate_pages.mean
        < all_stats["double"].estimate_pages.mean
    )


def test_exact_answers_match_oracle_spotcheck(env):
    rng = random.Random(77)
    for _ in range(3):
        p = env.random_query_point(rng)
        want = tnn_oracle(p, env.s_tree, env.r_tree)[2]
        for algo in (WindowBasedTNN(), DoubleNN(), HybridNN()):
            got = algo.run(env, p, *env.random_phases(rng))
            assert math.isclose(got.distance, want, rel_tol=1e-9)


def test_skewed_environment_end_to_end():
    """The CITY-like scenario: exact algorithms stay exact on skew."""
    env = TNNEnvironment.build(
        city_like(600, seed=41),
        gaussian_clusters(900, clusters=10, seed=42, region=REGION, spread=0.03),
    )
    rng = random.Random(9)
    for _ in range(4):
        p = env.random_query_point(rng)
        want = tnn_oracle(p, env.s_tree, env.r_tree)[2]
        for algo in (DoubleNN(), HybridNN()):
            got = algo.run(env, p, *env.random_phases(rng))
            assert math.isclose(got.distance, want, rel_tol=1e-9)


def test_full_cycle_determinism(env):
    """Identical queries + phases give identical results (pure simulation)."""
    p = env.random_query_point(random.Random(1))
    a = HybridNN().run(env, p, 123.0, 456.0)
    b = HybridNN().run(env, p, 123.0, 456.0)
    assert a.distance == b.distance
    assert a.access_time == b.access_time
    assert a.tune_in_time == b.tune_in_time
