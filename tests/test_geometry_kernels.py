"""Exactness and equivalence tests for the vectorised geometry kernels.

The kernels in :mod:`repro.geometry.kernels` must be **bit-identical** to
the scalar implementations they accelerate — the scalar code is the
correctness oracle.  These tests drive that contract with seeded randomized
cases (including grazing, collinear and degenerate MBRs, where the masked
case analysis of Lemma 1 is most fragile).  No search runs on the kernels;
the last tests check that whole-engine answers do not depend on which
search path ran (the drain walk or the heap step loop) and that the
scalar in-memory oracles agree with a brute-force scan.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.broadcast import SystemParameters
from repro.client import run_all
from repro.core import DoubleNN, HybridNN, TNNEnvironment, WindowBasedTNN
from repro.datasets import sized_uniform
from repro.engine import QueryWorkload, SharedScanRunner
from repro.geometry import (
    Circle,
    Point,
    Rect,
    distance,
    kernels,
    min_max_trans_dist,
    min_trans_dist,
)
from repro.rtree import build_rtree
from repro.rtree.traversal import (
    best_first_knn,
    best_first_nn,
    range_search,
    transitive_nn,
    window_search,
)

#: Randomized (p, mbr, r) configurations checked against the scalar oracle.
N_PROPERTY_CASES = 1_200


def _random_rect(rng: random.Random) -> Rect:
    """A rect that is degenerate ~1/3 of the time, grid-aligned ~1/2."""
    mode = rng.random()
    if mode < 0.5:
        # Integer grid: forces exact collinearity/grazing configurations.
        x = float(rng.randint(-12, 12))
        y = float(rng.randint(-12, 12))
        w = float(rng.randint(0, 10)) if rng.random() < 0.8 else 0.0
        h = float(rng.randint(0, 10)) if rng.random() < 0.8 else 0.0
        return Rect(x, y, x + w, y + h)
    if mode < 0.65:
        # Degenerate: zero width and/or height at float coordinates.
        x = rng.uniform(-100, 100)
        y = rng.uniform(-100, 100)
        if rng.random() < 0.3:
            return Rect(x, y, x, y)  # point rect
        if rng.random() < 0.5:
            return Rect(x, y, x, y + rng.uniform(0, 60))
        return Rect(x, y, x + rng.uniform(0, 60), y)
    x1, x2 = sorted(rng.uniform(-100, 100) for _ in range(2))
    y1, y2 = sorted(rng.uniform(-100, 100) for _ in range(2))
    return Rect(x1, y1, x2, y2)


def _random_query(rng: random.Random, rect: Rect) -> Point:
    """Query points biased onto the rect's boundary/corners/edge lines."""
    mode = rng.random()
    if mode < 0.25:
        # Exactly on a corner or side carrier line: grazing cases.
        c = rect.corners()[rng.randrange(4)]
        if rng.random() < 0.5:
            return c
        if rng.random() < 0.5:
            return Point(c.x, c.y + rng.uniform(-50, 50))
        return Point(c.x + rng.uniform(-50, 50), c.y)
    if mode < 0.45:
        return Point(float(rng.randint(-15, 15)), float(rng.randint(-15, 15)))
    return Point(rng.uniform(-150, 150), rng.uniform(-150, 150))


def _case_batches():
    """Yield (p, r, rects) batches totalling >= N_PROPERTY_CASES rects."""
    rng = random.Random(0xC0FFEE)
    produced = 0
    while produced < N_PROPERTY_CASES:
        rects = [_random_rect(rng) for _ in range(rng.randint(1, 40))]
        p = _random_query(rng, rects[0])
        r = _random_query(rng, rects[-1])
        produced += len(rects)
        yield p, r, rects


def test_kernel_bounds_match_scalar_oracles_exactly():
    """Lemma 1/3 + MINDIST/MINMAXDIST kernels == scalar, bit for bit."""
    checked = 0
    for p, r, rects in _case_batches():
        arr = kernels.as_mbr_array(rects)
        lower, upper = kernels.trans_bounds(p, arr, r)
        lower_only = kernels.min_trans_dist(p, arr, r)
        upper_only = kernels.min_max_trans_dist(p, arr, r)
        md, mmd = kernels.point_bounds(p, arr)
        md_only = kernels.mindist(p, arr)
        mmd_only = kernels.minmaxdist(p, arr)
        for i, rect in enumerate(rects):
            assert min_trans_dist(p, rect, r) == lower[i] == lower_only[i]
            assert min_max_trans_dist(p, rect, r) == upper[i] == upper_only[i]
            assert rect.mindist(p) == md[i] == md_only[i]
            assert rect.minmaxdist(p) == mmd[i] == mmd_only[i]
            checked += 1
    assert checked >= N_PROPERTY_CASES


def test_kernel_point_distances_match_scalar_exactly():
    rng = random.Random(31337)
    for _ in range(60):
        pts = [
            Point(rng.uniform(-1e4, 1e4), rng.uniform(-1e4, 1e4))
            for _ in range(rng.randint(1, 80))
        ]
        p = Point(rng.uniform(-1e4, 1e4), rng.uniform(-1e4, 1e4))
        r = Point(rng.uniform(-1e4, 1e4), rng.uniform(-1e4, 1e4))
        arr = kernels.as_point_array(pts)
        pd = kernels.point_dists(p, arr)
        td = kernels.trans_dists(p, arr, r)
        for i, s in enumerate(pts):
            assert distance(p, s) == pd[i]
            assert distance(p, s) + distance(s, r) == td[i]


def test_vector_hypot_bit_identical_to_math_hypot():
    rng = random.Random(7)
    xs = [rng.uniform(-1e6, 1e6) for _ in range(20_000)]
    ys = [rng.uniform(-1e6, 1e6) for _ in range(20_000)]
    # Extreme magnitudes exercise the scaling and the scalar fallback rows.
    for _ in range(2_000):
        xs.append(rng.uniform(-1, 1) * 10.0 ** rng.randint(-320, 308))
        ys.append(rng.uniform(-1, 1) * 10.0 ** rng.randint(-320, 308))
    edge = [0.0, -0.0, 1.0, 5e-324, 1e-308, 1.7e308, math.inf, -math.inf, 3.0]
    for a in edge:
        for b in edge:
            xs.append(a)
            ys.append(b)
    out = kernels.hypot(np.array(xs), np.array(ys))
    for i, (a, b) in enumerate(zip(xs, ys)):
        assert math.hypot(a, b) == out[i]


def test_hypot_nan_propagates():
    out = kernels.hypot(np.array([math.nan, 1.0]), np.array([2.0, math.nan]))
    assert math.isnan(out[0]) and math.isnan(out[1])


def test_segment_intersects_rects_matches_scalar():
    from repro.geometry import Segment, segment_intersects_rect

    checked = 0
    for p, r, rects in _case_batches():
        mask = kernels.segment_intersects_rects(p, r, kernels.as_mbr_array(rects))
        for i, rect in enumerate(rects):
            assert segment_intersects_rect(Segment(p, r), rect) == bool(mask[i])
            checked += 1
        if checked >= 400:
            break


def test_node_arrays_match_structure():
    """Pack-time arrays mirror the node's children/points exactly."""
    tree = build_rtree(sized_uniform(700, seed=5), 17, 9)
    for node in tree.iter_nodes():
        if node.is_leaf:
            arr = node.points_array()
            assert arr.shape == (len(node.points), 2)
            for i, pt in enumerate(node.points):
                assert (arr[i, 0], arr[i, 1]) == (pt.x, pt.y)
        else:
            arr = node.child_mbr_array()
            counts = node.child_count_array()
            assert arr.shape == (len(node.children), 4)
            for i, child in enumerate(node.children):
                assert tuple(arr[i]) == tuple(child.mbr)
                assert counts[i] == child.point_count


@pytest.mark.parametrize("leaf_capacity,fanout", [(6, 3), (23, 14), (51, 28)])
def test_traversal_answers_bit_identical_across_paths(leaf_capacity, fanout):
    """Every in-memory query type returns the same answer on both paths."""
    s_tree = build_rtree(sized_uniform(900, seed=1), leaf_capacity, fanout)
    r_tree = build_rtree(sized_uniform(900, seed=2), leaf_capacity, fanout)
    rng = random.Random(0)
    queries = [
        Point(rng.uniform(0, 30_000), rng.uniform(0, 30_000)) for _ in range(25)
    ]

    s_pts = list(s_tree.iter_points())
    r_pts = list(r_tree.iter_points())

    def oracles(q):
        rpt, rd = best_first_nn(r_tree, q)
        spt, sd = transitive_nn(s_tree, q, rpt)
        window = Rect(q.x - 3_000, q.y - 3_000, q.x + 3_000, q.y + 3_000)
        return (
            rd, distance(q, rpt), sd, distance(q, spt) + distance(spt, rpt),
            [d for _, d in best_first_knn(s_tree, q, 5)],
            sorted(range_search(s_tree, Circle(q, 4_000.0))),
            sorted(window_search(r_tree, window)),
        )

    def scan(q):
        rd = min(distance(q, p) for p in r_pts)
        rpt = best_first_nn(r_tree, q)[0]
        sd = min(distance(q, s) + distance(s, rpt) for s in s_pts)
        window = Rect(q.x - 3_000, q.y - 3_000, q.x + 3_000, q.y + 3_000)
        return (
            rd, rd, sd, sd,
            sorted(distance(q, p) for p in s_pts)[:5],
            sorted(p for p in s_pts if distance(q, p) <= 4_000.0),
            sorted(p for p in r_pts if window.contains_point(p)),
        )

    for q in queries:
        assert oracles(q) == scan(q)


@pytest.mark.parametrize("capacity", [64, 512])
def test_engine_answers_bit_identical_across_paths(capacity):
    """Broadcast-engine query results are independent of the search path.

    Every stage stepped on the heap by ``run_all`` is the seed
    implementation, so equality here is the "bit-identical to seed"
    guarantee for whole-engine answers, per query and on the runner,
    whose stages drain.
    """
    env = TNNEnvironment.build(
        sized_uniform(400, seed=1),
        sized_uniform(400, seed=2),
        SystemParameters(page_capacity=capacity),
    )
    workload = QueryWorkload(12, seed=3)
    queries = workload.queries(env)
    for algo in (HybridNN(), DoubleNN(), WindowBasedTNN()):
        stepped = []
        for q, ps, pr in queries:
            stages = algo._stages(env, q, *env.tuners(ps, pr))
            try:
                while True:
                    group = next(stages)
                    run_all(group.searches, on_finish=group.on_finish)
            except StopIteration as done:
                stepped.append(done.value)
        per_query = [algo.run(env, q, ps, pr) for q, ps, pr in queries]
        runner = SharedScanRunner(env, workload).run_algorithm(algo)
        assert per_query == stepped
        assert runner == stepped


def test_trans_lower_multi_matches_scalar_exactly():
    """Per-row Lemma 1 lanes == ``min_trans_dist`` bit for bit.

    ``trans_lower_multi`` resolves the shared-scan margin band, so it
    must replay the scalar transitive lower bound exactly — including
    degenerate sliver MBRs, endpoints inside the rectangle, and grazing
    segments that touch a corner.
    """
    rng = random.Random(31)
    rows = []
    for _ in range(300):
        rect = _random_rect(rng)
        rows.append((_random_query(rng, rect), rect, _random_query(rng, rect)))
    # Degenerate slivers and containment cases.
    sliver_w = Rect(3.0, -2.0, 3.0, 9.0)
    sliver_h = Rect(-5.0, 1.5, 8.0, 1.5)
    box = Rect(0.0, 0.0, 10.0, 10.0)
    rows += [
        (Point(-4.0, 2.0), sliver_w, Point(11.0, 4.0)),
        (Point(3.0, -7.0), sliver_h, Point(3.0, 12.0)),
        (Point(4.0, 5.0), box, Point(22.0, 30.0)),   # p inside
        (Point(-9.0, -9.0), box, Point(6.0, 6.0)),   # r inside
        (Point(-5.0, 15.0), box, Point(15.0, -5.0)), # grazes the corner
        (Point(-3.0, -3.0), box, Point(-1.0, -4.0)), # both outside, no cross
    ]
    px = np.array([p.x for p, _, _ in rows])
    py = np.array([p.y for p, _, _ in rows])
    rx = np.array([r.x for _, _, r in rows])
    ry = np.array([r.y for _, _, r in rows])
    mbrs = kernels.as_mbr_array([rect for _, rect, _ in rows])
    lower = kernels.trans_lower_multi(px, py, mbrs, rx, ry)
    assert lower.shape == (len(rows),)
    for i, (p, rect, r) in enumerate(rows):
        assert min_trans_dist(p, rect, r) == lower[i]
    # Row-diagonal agreement with the fan-out kernel.
    starts = np.column_stack((px, py))
    ends = np.column_stack((rx, ry))
    fan_lower, _ = kernels.trans_bounds_multi(
        starts, np.ascontiguousarray(mbrs[:, None, :]), ends
    )
    assert np.array_equal(fan_lower[:, 0], lower)
