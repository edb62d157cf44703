"""Tests for the future-work extensions: chain, round-trip, unordered, and
the one group driver every extension runs its stages through."""

import math
import random

import pytest

from repro.broadcast import ChannelTuner, SystemParameters
from repro.client import BroadcastNNSearch, SearchGroup, arrival_queue, run_all
from repro.core import TNNEnvironment
from repro.datasets import uniform
from repro.extensions import (
    ChainEnvironment,
    ChainTNN,
    HybridChainTNN,
    RoundTripTNN,
    TopKTNN,
    UnorderedTNN,
    chain_oracle,
    roundtrip_oracle,
    unordered_oracle,
)
from repro.extensions.roundtrip import roundtrip_length
from repro.geometry import Point, Rect, distance

REGION = Rect(0, 0, 1000, 1000)


def make_datasets(sizes, seed0=0):
    return [uniform(n, seed=seed0 + i, region=REGION) for i, n in enumerate(sizes)]


# ----------------------------------------------------------------------
# Chain TNN
# ----------------------------------------------------------------------
def test_chain_env_validation():
    with pytest.raises(ValueError):
        ChainEnvironment.build([uniform(5, seed=1, region=REGION)])


def test_chain_env_build():
    env = ChainEnvironment.build(make_datasets([40, 30, 20]))
    assert env.k == 3
    assert len(env.tuners()) == 3
    with pytest.raises(ValueError):
        env.tuners([0.0])  # wrong arity


def test_chain_matches_oracle_k3():
    env = ChainEnvironment.build(make_datasets([40, 30, 20], seed0=3))
    rng = random.Random(1)
    algo = ChainTNN()
    for _ in range(6):
        p = env.random_query_point(rng)
        result = algo.run(env, p, env.random_phases(rng))
        _, want = chain_oracle(p, env.datasets)
        assert math.isclose(result.distance, want, rel_tol=1e-9)
        assert len(result.route) == 3


def test_chain_matches_oracle_k4():
    env = ChainEnvironment.build(make_datasets([25, 25, 25, 25], seed0=7))
    rng = random.Random(2)
    result = ChainTNN().run(env, env.random_query_point(rng), env.random_phases(rng))
    _, want = chain_oracle(result.query, env.datasets)
    assert math.isclose(result.distance, want, rel_tol=1e-9)


def test_chain_k2_reduces_to_tnn():
    """With two datasets the chain objective is exactly classic TNN."""
    datasets = make_datasets([30, 30], seed0=11)
    env = ChainEnvironment.build(datasets)
    p = Point(500, 500)
    result = ChainTNN().run(env, p)
    from repro.rtree.traversal import brute_force_tnn

    _, _, want = brute_force_tnn(p, datasets[0], datasets[1])
    assert math.isclose(result.distance, want, rel_tol=1e-9)


def test_chain_route_is_consistent():
    env = ChainEnvironment.build(make_datasets([20, 20, 20], seed0=13))
    p = Point(100, 900)
    result = ChainTNN().run(env, p)
    total = distance(p, result.route[0])
    for a, b in zip(result.route, result.route[1:]):
        total += distance(a, b)
    assert math.isclose(total, result.distance, rel_tol=1e-9)
    assert result.radius >= result.distance - 1e-9
    assert result.tune_in_time == sum(result.per_channel_tune_in)


def test_chain_oracle_empty_raises():
    with pytest.raises(ValueError):
        chain_oracle(Point(0, 0), [[], [Point(1, 1)]])


# ----------------------------------------------------------------------
# Round-trip TNN
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def pair_env():
    return TNNEnvironment.build(
        uniform(60, seed=21, region=REGION),
        uniform(50, seed=22, region=REGION),
        SystemParameters(),
    )


def test_roundtrip_matches_oracle(pair_env):
    rng = random.Random(3)
    algo = RoundTripTNN()
    for _ in range(6):
        p = pair_env.random_query_point(rng)
        result = algo.run(pair_env, p, *pair_env.random_phases(rng))
        _, _, want = roundtrip_oracle(p, pair_env.s_points, pair_env.r_points)
        assert math.isclose(result.distance, want, rel_tol=1e-9)
        assert math.isclose(
            roundtrip_length(p, result.s, result.r), want, rel_tol=1e-9
        )


def test_roundtrip_at_least_one_way(pair_env):
    """A round trip is never shorter than the one-way TNN route."""
    from repro.rtree import tnn_oracle

    rng = random.Random(4)
    p = pair_env.random_query_point(rng)
    rt = RoundTripTNN().run(pair_env, p)
    _, _, one_way = tnn_oracle(p, pair_env.s_tree, pair_env.r_tree)
    assert rt.distance >= one_way - 1e-9


def test_roundtrip_oracle_empty_raises():
    with pytest.raises(ValueError):
        roundtrip_oracle(Point(0, 0), [], [Point(1, 1)])


# ----------------------------------------------------------------------
# Unordered TNN
# ----------------------------------------------------------------------
def test_unordered_matches_oracle(pair_env):
    rng = random.Random(5)
    algo = UnorderedTNN()
    for _ in range(6):
        p = pair_env.random_query_point(rng)
        result = algo.run(pair_env, p, *pair_env.random_phases(rng))
        order, want = unordered_oracle(p, pair_env.s_points, pair_env.r_points)
        assert math.isclose(result.distance, want, rel_tol=1e-9)
        assert result.order == order


def test_unordered_never_worse_than_ordered(pair_env):
    from repro.rtree import tnn_oracle

    rng = random.Random(6)
    for _ in range(4):
        p = pair_env.random_query_point(rng)
        result = UnorderedTNN().run(pair_env, p)
        _, _, ordered = tnn_oracle(p, pair_env.s_tree, pair_env.r_tree)
        assert result.distance <= ordered + 1e-9


def test_unordered_picks_r_first_when_r_closer():
    """Query adjacent to an R point: visiting R first is clearly optimal."""
    s_pts = [Point(900, 900)]
    r_pts = [Point(10, 10)]
    env = TNNEnvironment.build(s_pts, r_pts)
    result = UnorderedTNN().run(env, Point(0, 0))
    assert result.order == "r-first"
    want = distance(Point(0, 0), r_pts[0]) + distance(r_pts[0], s_pts[0])
    assert math.isclose(result.distance, want, rel_tol=1e-9)


# ----------------------------------------------------------------------
# Every extension's stages: the group driver vs stepped run_all
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "name", ["roundtrip", "unordered", "topk", "chain", "hybrid_chain"]
)
def test_extension_stages_match_stepped_run_all(name, monkeypatch):
    """Each extension's stages run through ``SearchGroup.run``, which
    drains its searches — the hybrid chain's four coupled estimate
    searches in bounded runs, re-steered as each hop finishes; answers,
    access times and tune-in equal those of the same queries with every
    stage stepped by ``run_all``.  No extension result carries a
    reception log, so the driven run's tuners record none: a
    ``ChannelTuner.__init__`` spy counts 0 log tuples (the stepped run
    forces logging, so the spy bites, and its answers and costs still
    match)."""
    params = SystemParameters(page_capacity=64)
    if name in ("chain", "hybrid_chain"):
        sizes = [300, 250, 200] + ([150] if name == "hybrid_chain" else [])
        env = ChainEnvironment.build(make_datasets(sizes, seed0=11), params)
        algo = ChainTNN() if name == "chain" else HybridChainTNN()

        def run(p, rng):
            return algo.run(env, p, env.random_phases(rng))
    else:
        env = TNNEnvironment.build(
            uniform(400, seed=31, region=REGION),
            uniform(300, seed=32, region=REGION),
            params,
        )
        algo = {
            "roundtrip": RoundTripTNN(),
            "unordered": UnorderedTNN(),
            "topk": TopKTNN(3),
        }[name]

        def run(p, rng):
            return algo.run(env, p, *env.random_phases(rng))

    def answers():
        rng = random.Random(7)
        return [run(env.random_query_point(rng), rng) for _ in range(8)]

    drained = []
    bounded = []
    drain = arrival_queue.drain

    def drain_spy(s, limit=math.inf, strict=False):
        drained.append(s)
        bounded.append(limit < math.inf)
        return drain(s, limit, strict)

    tuners = []
    init = ChannelTuner.__init__
    force_log = False

    def init_spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if force_log:
            self.record_log = True
        tuners.append(self)

    retargets = []
    retarget = BroadcastNNSearch.retarget

    def retarget_spy(self, point):
        retargets.append(point)
        retarget(self, point)

    monkeypatch.setattr(arrival_queue, "drain", drain_spy)
    monkeypatch.setattr(ChannelTuner, "__init__", init_spy)
    monkeypatch.setattr(BroadcastNNSearch, "retarget", retarget_spy)
    got = answers()
    assert drained
    assert any(bounded) == bool(retargets) == (name == "hybrid_chain")
    assert tuners and sum(len(t.log) for t in tuners) == 0
    monkeypatch.setattr(
        SearchGroup, "run",
        lambda group: run_all(group.searches, on_finish=group.on_finish),
    )
    del drained[:]
    del tuners[:]
    force_log = True
    want = answers()
    assert drained == []
    assert sum(len(t.log) for t in tuners) > 0
    assert got == want
