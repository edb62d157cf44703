"""Brute-force anchor for the one batch runner.

Every other runner test checks bit-identity against per-query
``algorithm.run``; both sides share most of their code, so a bug common
to both would pass.  This module checks :class:`SharedScanRunner` answers
against quadratic ground truth (:func:`repro.rtree.traversal
.brute_force_tnn`) instead, over every registered air-index layout and
every fault family, on Hybrid-NN, Double-NN, Window-Based TNN and
Approximate-TNN, plus one pool cell, one Brute-Force-TNN cell, two
degenerate datasets (duplicate points, collinear points) and one
clustered dataset on which Approximate-TNN's radius falls short.

The invariant per query of an exact algorithm: the reported transitive
distance equals the brute-force optimum within ``rel_tol=1e-12``, and the
returned pair is a real ``(s, r)`` pair that attains it.  Approximate-TNN
must meet the same invariant whenever its radius is at least the
optimum; below it, the query fails or returns a pair no better than the
optimum, never a better one.
"""

import math

import pytest

from repro.broadcast import SystemParameters, make_fault_model, make_layout
from repro.core import (
    ApproximateTNN,
    BruteForceTNN,
    DoubleNN,
    HybridNN,
    TNNEnvironment,
    WindowBasedTNN,
)
from repro.datasets import gaussian_clusters, uniform
from repro.engine import QueryWorkload, SharedScanRunner
from repro.geometry import Point, Rect
from repro.rtree.traversal import brute_force_tnn

REL_TOL = 1e-12
N_POINTS = 200
N_QUERIES = 15
REGION = Rect(0.0, 0.0, 1000.0, 1000.0)

LAYOUTS = ["rtree", "rtree-distributed", "grid", "quadtree", "disk"]

#: Fault family -> registry constructor arguments (None: lossless).
FAULTS = {
    "lossless": None,
    "iid": ("iid", {"rate": 0.2, "seed": 3}),
    "gilbert-elliott": (
        "gilbert-elliott",
        {"bad_rate": 0.6, "p_good_bad": 0.1, "p_bad_good": 0.3, "seed": 5},
    ),
    "corruption": ("corruption", {"rate": 0.2, "seed": 7}),
}

ALGORITHMS = [HybridNN, DoubleNN, WindowBasedTNN]


def _fault(name):
    spec = FAULTS[name]
    if spec is None:
        return None
    registry_name, kwargs = spec
    return make_fault_model(registry_name, **kwargs)


def _env(s_points, r_points, layout="rtree", fault="lossless"):
    return TNNEnvironment.build(
        s_points,
        r_points,
        params=SystemParameters(page_capacity=64),
        layout=make_layout(layout),
        loss=_fault(fault),
    )


def _assert_pair(env, q, res, distance):
    """``res`` holds a real ``(s, r)`` pair at transitive ``distance``."""
    assert res.s in set(env.s_points) and res.r in set(env.r_points)
    attained = q.distance_to(res.s) + res.s.distance_to(res.r)
    assert math.isclose(attained, distance, rel_tol=REL_TOL)


def _assert_brute_force(env, runner, algo_cls):
    queries = runner.queries
    results = runner.run_algorithm(algo_cls())
    assert len(results) == len(queries)
    for (q, _, _), res in zip(queries, results):
        _, _, want = brute_force_tnn(q, env.s_points, env.r_points)
        assert not res.failed
        assert math.isclose(res.distance, want, rel_tol=REL_TOL)
        _assert_pair(env, q, res, want)


def _assert_approximate(env, runner):
    """Approximate-TNN against brute force; returns how many queries had
    a radius at least the optimum and how many fell short."""
    queries = runner.queries
    results = runner.run_algorithm(ApproximateTNN())
    assert len(results) == len(queries)
    covered = short = 0
    for (q, _, _), res in zip(queries, results):
        _, _, want = brute_force_tnn(q, env.s_points, env.r_points)
        if res.radius >= want:
            covered += 1
            assert not res.failed
            assert math.isclose(res.distance, want, rel_tol=REL_TOL)
        else:
            short += 1
            if res.failed:
                continue
            assert res.distance >= want * (1 - REL_TOL)
        _assert_pair(env, q, res, res.distance)
    return covered, short


def _check_cell(env, runner):
    for algo_cls in ALGORITHMS:
        _assert_brute_force(env, runner, algo_cls)
    return _assert_approximate(env, runner)


@pytest.fixture(scope="module")
def points():
    return (
        uniform(N_POINTS, seed=31, region=REGION),
        uniform(N_POINTS, seed=32, region=REGION),
    )


@pytest.mark.parametrize("fault", list(FAULTS))
@pytest.mark.parametrize("layout", LAYOUTS)
def test_runner_matches_brute_force(points, layout, fault):
    env = _env(*points, layout=layout, fault=fault)
    runner = SharedScanRunner(env, QueryWorkload(N_QUERIES, seed=9), workers=0)
    _check_cell(env, runner)


def test_pool_runner_matches_brute_force(points):
    env = _env(*points, layout="rtree", fault="gilbert-elliott")
    runner = SharedScanRunner(env, QueryWorkload(N_QUERIES, seed=10), workers=2)
    _check_cell(env, runner)


def test_brute_force_tnn_matches_brute_force(points):
    """Brute-Force-TNN downloads both whole indexes, page-major too."""
    env = _env(*points, layout="rtree", fault="iid")
    runner = SharedScanRunner(env, QueryWorkload(N_QUERIES, seed=13), workers=0)
    _assert_brute_force(env, runner, BruteForceTNN)


def _duplicates(seed):
    """Each of 50 distinct points repeated four times."""
    base = uniform(N_POINTS // 4, seed=seed, region=REGION)
    return [p for p in base for _ in range(4)]


def _collinear(offset):
    """Points on one diagonal line, each one twice."""
    return [
        Point(5.0 * (i // 2 * 2 + offset), 2.5 * (i // 2 * 2 + offset) + 100.0)
        for i in range(N_POINTS)
    ]


@pytest.mark.parametrize("fault", ["lossless", "iid"])
@pytest.mark.parametrize(
    "dataset",
    [
        pytest.param((_duplicates(41), _duplicates(42)), id="duplicates"),
        pytest.param((_collinear(0), _collinear(1)), id="collinear"),
    ],
)
def test_degenerate_datasets_match_brute_force(dataset, fault):
    env = _env(*dataset, fault=fault)
    runner = SharedScanRunner(env, QueryWorkload(N_QUERIES, seed=11), workers=0)
    _check_cell(env, runner)


@pytest.mark.parametrize("fault", ["lossless", "iid"])
def test_clustered_dataset_matches_brute_force(fault):
    """On clustered data Approximate-TNN's uniform-data radius often falls
    short of the optimum: both of its branches run here."""
    env = _env(
        gaussian_clusters(N_POINTS, 4, seed=51, region=REGION),
        gaussian_clusters(N_POINTS, 4, seed=52, region=REGION),
        fault=fault,
    )
    runner = SharedScanRunner(env, QueryWorkload(N_QUERIES, seed=12), workers=0)
    covered, short = _check_cell(env, runner)
    assert covered > 0 and short > 0
