"""Brute-force anchor for mixed client batches (``QueryEngine.run_many``).

Every other ``run_many`` test checks bit-identity against the
single-query methods; both sides share most of their code, so a bug
common to both would pass.  This module checks NN, kNN (``k`` of 1, 8
and more than the dataset holds), range and window answers against plain
sorted distances and point-in-window tests over the raw point lists —
no R-tree involved — on uniform, clustered, duplicate-point, collinear
and single-point datasets, on both channels, at the paper's 64- and
512-byte page geometries, lossless and under every fault family (i.i.d.
loss, Gilbert-Elliott fades, detected corruption), whose retries ride the
per-query drains, and lossless on
every registered broadcast layout.  The single-query methods are held to
the same ground truth.
"""

import math
import random
from collections import Counter

import pytest

from repro.broadcast import (
    SystemParameters,
    available_layouts,
    make_fault_model,
    make_layout,
)
from repro.core import TNNEnvironment
from repro.datasets import gaussian_clusters, uniform
from repro.engine import (
    KNNRequest,
    NNRequest,
    QueryEngine,
    RangeRequest,
    WindowRequest,
)
from repro.geometry import Point, Rect

N_POINTS = 240
REGION = Rect(0.0, 0.0, 1000.0, 1000.0)


def _duplicates(seed):
    """Each of 60 distinct points repeated four times."""
    return [p for p in uniform(N_POINTS // 4, seed=seed, region=REGION)
            for _ in range(4)]


def _collinear(offset):
    """Points on one diagonal line, each one twice."""
    return [
        Point(4.0 * (i // 2 * 2 + offset), 2.0 * (i // 2 * 2 + offset) + 100.0)
        for i in range(N_POINTS)
    ]


DATASETS = {
    "uniform": lambda: (
        uniform(N_POINTS, seed=51, region=REGION),
        uniform(N_POINTS, seed=52, region=REGION),
    ),
    "clustered": lambda: (
        gaussian_clusters(N_POINTS, 4, seed=53, region=REGION),
        gaussian_clusters(N_POINTS, 3, seed=54, region=REGION),
    ),
    "duplicates": lambda: (_duplicates(55), _duplicates(56)),
    "collinear": lambda: (_collinear(0), _collinear(1)),
    "single-point": lambda: ([Point(400.0, 600.0)], [Point(250.0, 125.0)]),
}


#: Fault family -> registry constructor arguments.
FAULTS = {
    "iid": ("iid", {"rate": 0.25, "seed": 3}),
    "gilbert-elliott": (
        "gilbert-elliott",
        {"bad_rate": 0.6, "p_good_bad": 0.1, "p_bad_good": 0.3, "seed": 5},
    ),
    "corruption": ("corruption", {"rate": 0.25, "seed": 7}),
}


def _dist(q, p):
    return math.hypot(q.x - p.x, q.y - p.y)


def _requests(env, rng):
    """Every request kind on both channels, inside and outside the data."""
    out = []
    for channel, program, n in (
        ("s", env.s_program, len(env.s_points)),
        ("r", env.r_program, len(env.r_points)),
    ):
        cycle = program.cycle_length
        queries = [
            Point(rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0))
            for _ in range(4)
        ]
        queries.append(Point(-300.0, 1700.0))  # outside the data region
        for q in queries:
            out.append(NNRequest(q, rng.uniform(0, cycle), channel))
            for k in (1, 8, n + 3):
                out.append(KNNRequest(q, k, rng.uniform(0, cycle), channel))
            for radius in (0.0, rng.uniform(20.0, 300.0), 5000.0):
                out.append(
                    RangeRequest(q, radius, rng.uniform(0, cycle), channel)
                )
            w, h = rng.uniform(0.0, 400.0), rng.uniform(0.0, 400.0)
            out.append(WindowRequest(Rect(q.x, q.y, q.x + w, q.y + h),
                                     rng.uniform(0, cycle), channel))
        out.append(WindowRequest(Rect(-1.0, -1.0, 1001.0, 1001.0),
                                 0.0, channel))
    return out


def _single(engine, r):
    if isinstance(r, NNRequest):
        return engine.nn(r.point, r.phase, r.channel)
    if isinstance(r, KNNRequest):
        return engine.knn(r.point, r.k, r.phase, r.channel)
    if isinstance(r, RangeRequest):
        return engine.range(r.center, r.radius, r.phase, r.channel)
    return engine.window(r.window, r.phase, r.channel)


def _assert_brute_force(env, r, answer):
    pts = env.s_points if r.channel == "s" else env.r_points
    have = Counter(p for p, _ in answer.answers)
    if isinstance(r, (NNRequest, KNNRequest)):
        q = r.point
        k = 1 if isinstance(r, NNRequest) else r.k
        want = sorted(_dist(q, p) for p in pts)[:k]
        assert [d for _, d in answer.answers] == want
        assert all(d == _dist(q, p) for p, d in answer.answers)
        assert not have - Counter(pts)  # real points, multiplicity kept
    elif isinstance(r, RangeRequest):
        c = r.center
        want = Counter(p for p in pts if _dist(c, p) <= r.radius)
        assert have == want
        assert all(d == _dist(c, p) for p, d in answer.answers)
    else:
        w = r.window
        want = Counter(
            p for p in pts
            if w.xmin <= p.x <= w.xmax and w.ymin <= p.y <= w.ymax
        )
        assert have == want
        assert all(d == 0.0 for _, d in answer.answers)


def _check_batch(env, requests):
    """``run_many`` and the single-query methods against brute force;
    returns the ``run_many`` answers."""
    engine = QueryEngine(env)
    got = engine.run_many(requests)
    assert len(got) == len(requests)
    for r, answer in zip(requests, got):
        _assert_brute_force(env, r, answer)
    for r in requests:
        _assert_brute_force(env, r, _single(engine, r))
    return got


@pytest.mark.parametrize("page_capacity", [64, 512])
@pytest.mark.parametrize("dataset", list(DATASETS))
def test_run_many_matches_brute_force(dataset, page_capacity):
    s_points, r_points = DATASETS[dataset]()
    env = TNNEnvironment.build(
        s_points, r_points, params=SystemParameters(page_capacity=page_capacity)
    )
    _check_batch(env, _requests(env, random.Random(page_capacity)))


@pytest.mark.parametrize("dataset", ["uniform", "clustered", "duplicates"])
@pytest.mark.parametrize("fault", list(FAULTS))
def test_lossy_run_many_matches_brute_force(fault, dataset):
    """A faulty channel delays answers but never changes them: NN, kNN,
    range and window answers still match brute force, and the faults
    really engage (some answer waits longer than on the lossless twin)."""
    s_points, r_points = DATASETS[dataset]()
    name, kwargs = FAULTS[fault]
    params = SystemParameters(page_capacity=64)
    env = TNNEnvironment.build(
        s_points, r_points, params=params, loss=make_fault_model(name, **kwargs)
    )
    clean = TNNEnvironment.build(s_points, r_points, params=params)
    requests = _requests(env, random.Random(64))
    got = _check_batch(env, requests)
    ref = QueryEngine(clean).run_many(requests)
    assert all(a.access_time >= b.access_time for a, b in zip(got, ref))
    assert any(a.tune_in > b.tune_in for a, b in zip(got, ref))


@pytest.mark.parametrize("layout", available_layouts())
def test_run_many_matches_brute_force_on_every_layout(layout):
    """Lossless answers on every registered layout.  Cyclic layouts that
    are not R-trees (grid, quadtree) serve every search as one drain
    walk; layouts without cyclic page order (distributed indexing,
    broadcast disks) serve on the heap."""
    s_points, r_points = DATASETS["clustered"]()
    lay = make_layout(layout)
    env = TNNEnvironment.build(
        s_points, r_points, params=SystemParameters(page_capacity=64),
        layout=lay,
    )
    requests = _requests(env, random.Random(7))
    search = QueryEngine(env)._build(requests[0])
    assert search._drains() == lay.has_cyclic_order
    _check_batch(env, requests)
