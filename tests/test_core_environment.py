"""Tests for TNNEnvironment and AnnOptimization policy selection."""

import random

import pytest

from repro.broadcast import SystemParameters
from repro.client.policies import AnnPolicy, ExactPolicy
from repro.core import (
    AnnOptimization,
    ApproximateTNN,
    DoubleNN,
    HybridNN,
    TNNEnvironment,
    WindowBasedTNN,
)
from repro.datasets import uniform
from repro.geometry import Point, Rect


@pytest.fixture(scope="module")
def env():
    return TNNEnvironment.build(
        uniform(120, seed=1, region=Rect(0, 0, 1000, 1000)),
        uniform(80, seed=2, region=Rect(0, 0, 1000, 1000)),
        SystemParameters(page_capacity=64),
        m=2,
    )


def test_build_creates_trees_and_programs(env):
    assert env.s_tree.size == 120
    assert env.r_tree.size == 80
    env.s_tree.validate()
    env.r_tree.validate()
    assert env.s_program.index_length == env.s_tree.node_count()
    assert env.region.contains_rect(env.s_tree.mbr)
    assert env.region.contains_rect(env.r_tree.mbr)


def test_tuners_are_fresh_and_phased(env):
    t1, t2 = env.tuners(phase_s=5.0, phase_r=9.0)
    assert t1.pages_downloaded == 0
    assert t2.pages_downloaded == 0
    assert t1.channel.phase == 5.0
    assert t2.channel.phase == 9.0
    # A second call returns independent tuners.
    t3, _ = env.tuners()
    t1.download_index_page(0)
    assert t3.pages_downloaded == 0


def test_random_phases_in_cycle(env):
    rng = random.Random(0)
    for _ in range(20):
        ps, pr = env.random_phases(rng)
        assert 0 <= ps < env.s_program.cycle_length
        assert 0 <= pr < env.r_program.cycle_length


def test_random_query_point_in_region(env):
    rng = random.Random(1)
    for _ in range(20):
        assert env.region.contains_point(env.random_query_point(rng))


def test_object_lookup_roundtrip(env):
    for i, p in enumerate(env.s_tree.iter_points()):
        assert env.s_object_of(p) == i
        if i > 20:
            break
    first_r = next(env.r_tree.iter_points())
    assert env.r_object_of(first_r) == 0


_ALGORITHMS = (DoubleNN, HybridNN, WindowBasedTNN, ApproximateTNN)


def _fresh_env():
    return TNNEnvironment.build(
        uniform(120, seed=1, region=Rect(0, 0, 1000, 1000)),
        uniform(80, seed=2, region=Rect(0, 0, 1000, 1000)),
        SystemParameters(page_capacity=64),
        m=2,
    )


def test_default_run_builds_no_object_index():
    """Only data retrieval looks up object indexes, so a default run
    builds neither point -> object dict."""
    env = _fresh_env()
    rng = random.Random(3)
    for algo_cls in _ALGORITHMS:
        for _ in range(3):
            q = env.random_query_point(rng)
            assert algo_cls().run(env, q, *env.random_phases(rng)).s
    assert env._s_object_index is None
    assert env._r_object_index is None


def test_data_retrieval_matches_eager_object_index():
    """Object indexes built on the first lookup give the same answers,
    access times and data pages as dicts built with the environment."""
    lazy, eager = _fresh_env(), _fresh_env()
    eager._s_object_index = {
        p: i for i, p in enumerate(eager.s_tree.iter_points())
    }
    eager._r_object_index = {
        p: i for i, p in enumerate(eager.r_tree.iter_points())
    }
    rng = random.Random(4)
    for algo_cls in _ALGORITHMS:
        algo = algo_cls(include_data_retrieval=True)
        for _ in range(3):
            q = lazy.random_query_point(rng)
            ps, pr = lazy.random_phases(rng)
            got = algo.run(lazy, q, ps, pr)
            assert got == algo.run(eager, q, ps, pr)
            assert got.data_pages == 2 * lazy.params.pages_per_object
    assert lazy._s_object_index == eager._s_object_index
    assert lazy._r_object_index == eager._r_object_index


def test_packing_method_forwarded():
    env = TNNEnvironment.build(
        uniform(50, seed=3), uniform(50, seed=4), packing="hilbert"
    )
    env.s_tree.validate()


# ----------------------------------------------------------------------
# AnnOptimization policy selection (Section 6.2.2)
# ----------------------------------------------------------------------
def make_env(ns, nr):
    return TNNEnvironment.build(
        uniform(ns, seed=5, region=Rect(0, 0, 500, 500)),
        uniform(nr, seed=6, region=Rect(0, 0, 500, 500)),
        m=1,
    )


def test_ann_equal_sizes_both_approximate():
    ps, pr = AnnOptimization(factor=1.0).policies(make_env(50, 50))
    assert isinstance(ps, AnnPolicy)
    assert isinstance(pr, AnnPolicy)


def test_ann_density_aware_sparse_s_exact():
    ps, pr = AnnOptimization().policies(make_env(20, 200))
    assert isinstance(ps, ExactPolicy)  # S is sparser -> exact
    assert isinstance(pr, AnnPolicy)


def test_ann_density_aware_sparse_r_exact():
    ps, pr = AnnOptimization().policies(make_env(200, 20))
    assert isinstance(ps, AnnPolicy)
    assert isinstance(pr, ExactPolicy)


def test_ann_density_aware_disabled():
    ps, pr = AnnOptimization(density_aware=False).policies(make_env(20, 200))
    assert isinstance(ps, AnnPolicy)
    assert isinstance(pr, AnnPolicy)
