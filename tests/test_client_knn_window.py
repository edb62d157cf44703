"""Tests for the broadcast kNN and window searches."""

import functools
import heapq
import itertools
import math
import random
from collections import Counter

import pytest

from repro.broadcast import (
    BroadcastChannel,
    BroadcastProgram,
    ChannelTuner,
    SystemParameters,
    available_layouts,
    make_layout,
)
from repro.client import BroadcastKNNSearch, BroadcastWindowSearch
from repro.core import TNNEnvironment
from repro.geometry import Point, Rect, distance
from repro.rtree import best_first_knn, str_pack
from repro.rtree.traversal import window_search


def _finish(search, stepped):
    """Run ``search`` to the end: the drain walk, or (``stepped``) the
    ``step()`` loop on the heap."""
    if stepped:
        while not search.finished():
            search.step()
    else:
        search.run_to_completion()
    return search


def make_setup(n=300, seed=0, m=2, phase=0.0):
    rng = random.Random(seed)
    pts = [Point(rng.random() * 1000, rng.random() * 1000) for _ in range(n)]
    params = SystemParameters(page_capacity=64)
    tree = str_pack(pts, params.leaf_capacity, params.internal_fanout)
    program = BroadcastProgram(tree, params, m=m)
    return pts, tree, ChannelTuner(BroadcastChannel(program, phase=phase))


# ----------------------------------------------------------------------
# kNN
# ----------------------------------------------------------------------
@pytest.mark.parametrize("k", [1, 3, 10])
def test_knn_matches_in_memory(k):
    pts, tree, tuner = make_setup(seed=1)
    q = Point(420, 530)
    got = BroadcastKNNSearch(tree, tuner, q, k).run_to_completion()
    want = best_first_knn(tree, q, k)
    assert len(got) == k
    for (gp, gd), (wp, wd) in zip(got, want):
        assert math.isclose(gd, wd, rel_tol=1e-12)


def test_knn_results_sorted():
    _, tree, tuner = make_setup(seed=2)
    got = BroadcastKNNSearch(tree, tuner, Point(100, 100), 8).run_to_completion()
    dists = [d for _, d in got]
    assert dists == sorted(dists)


def test_knn_k_exceeds_dataset():
    pts, tree, tuner = make_setup(n=5, seed=3)
    got = BroadcastKNNSearch(tree, tuner, Point(0, 0), 20).run_to_completion()
    assert len(got) == 5


def test_knn_invalid_k():
    _, tree, tuner = make_setup(n=10, seed=4)
    with pytest.raises(ValueError):
        BroadcastKNNSearch(tree, tuner, Point(0, 0), 0)


def test_knn_k1_equals_nn():
    pts, tree, tuner = make_setup(seed=5)
    q = Point(700, 200)
    [(pt, d)] = BroadcastKNNSearch(tree, tuner, q, 1).run_to_completion()
    assert math.isclose(d, min(distance(q, p) for p in pts), rel_tol=1e-12)


def test_knn_downloads_fewer_pages_for_smaller_k():
    _, tree, t1 = make_setup(n=600, seed=6)
    _, _, t2 = make_setup(n=600, seed=6)
    q = Point(500, 500)
    BroadcastKNNSearch(tree, t1, q, 1).run_to_completion()
    BroadcastKNNSearch(tree, t2, q, 50).run_to_completion()
    assert t1.index_pages <= t2.index_pages


def test_knn_step_on_finished_raises():
    _, tree, tuner = make_setup(n=10, seed=7)
    s = BroadcastKNNSearch(tree, tuner, Point(0, 0), 2)
    s.run_to_completion()
    with pytest.raises(RuntimeError):
        s.step()


# ----------------------------------------------------------------------
# Window search
# ----------------------------------------------------------------------
def test_window_matches_in_memory():
    pts, tree, tuner = make_setup(seed=8)
    win = Rect(200, 300, 600, 700)
    got = BroadcastWindowSearch(tree, tuner, win).run_to_completion()
    assert sorted(got) == sorted(window_search(tree, win))


def test_window_empty():
    _, tree, tuner = make_setup(seed=9)
    got = BroadcastWindowSearch(tree, tuner, Rect(-10, -10, -5, -5)).run_to_completion()
    assert got == []


def test_window_full_region():
    pts, tree, tuner = make_setup(n=150, seed=10)
    got = BroadcastWindowSearch(tree, tuner, Rect(-1, -1, 1001, 1001)).run_to_completion()
    assert len(got) == len(pts)
    assert tuner.index_pages == tree.node_count()


def test_window_boundary_inclusive():
    pts = [Point(0, 0), Point(5, 5), Point(10, 10)]
    params = SystemParameters()
    tree = str_pack(pts, params.leaf_capacity, params.internal_fanout)
    program = BroadcastProgram(tree, params, m=1)
    tuner = ChannelTuner(BroadcastChannel(program))
    got = BroadcastWindowSearch(tree, tuner, Rect(0, 0, 5, 5)).run_to_completion()
    assert sorted(got) == [Point(0, 0), Point(5, 5)]


def test_window_step_on_finished_raises():
    _, tree, tuner = make_setup(n=10, seed=11)
    s = BroadcastWindowSearch(tree, tuner, Rect(0, 0, 1, 1))
    s.run_to_completion()
    with pytest.raises(RuntimeError):
        s.step()


# ----------------------------------------------------------------------
# Queue accounting (Section 4.2.4 memory claim)
# ----------------------------------------------------------------------
def test_nn_queue_stays_small():
    from repro.client import BroadcastNNSearch

    pts, tree, tuner = make_setup(n=800, seed=12)
    search = BroadcastNNSearch(tree, tuner, Point(500, 500))
    search.run_to_completion()
    h, m = tree.height, max(tree.fanout, tree.leaf_capacity)
    # The delayed-pruning queue is bounded by roughly one fanout's worth of
    # siblings per level; allow slack for the arrival-order pop schedule.
    assert search.max_queue_size <= 3 * h * m
    assert search.max_queue_size >= 1


def test_knn_tracks_max_queue_size():
    """kNN carries the same memory-footprint accounting as the NN search."""
    pts, tree, tuner = make_setup(n=200, seed=7)
    search = BroadcastKNNSearch(tree, tuner, Point(400, 400), k=3)
    assert search.max_queue_size == 1  # the root is queued at construction
    search.run_to_completion()
    assert search.max_queue_size > 1
    # The queue can never have outgrown the whole tree.
    assert search.max_queue_size <= tree.node_count()


def test_window_tracks_max_queue_size():
    """The window search rides the shared queue mixin's accounting."""
    pts, tree, tuner = make_setup(n=300, seed=13)
    search = BroadcastWindowSearch(tree, tuner, Rect(100, 100, 900, 900))
    assert search.max_queue_size == 1  # the root is queued at construction
    search.run_to_completion()
    assert search.max_queue_size > 1
    assert search.max_queue_size <= tree.node_count()


# ----------------------------------------------------------------------
# Kernel path vs scalar oracle: bit-identical answers and tuner state
# ----------------------------------------------------------------------
def _setup_for(capacity, n, seed, phase):
    rng = random.Random(seed)
    pts = [Point(rng.random() * 1000, rng.random() * 1000) for _ in range(n)]
    params = SystemParameters(page_capacity=capacity)
    tree = str_pack(pts, params.leaf_capacity, params.internal_fanout)
    program = BroadcastProgram(tree, params, m=2)
    return pts, tree, ChannelTuner(BroadcastChannel(program, phase=phase))


@pytest.mark.parametrize("capacity", [64, 512])
@pytest.mark.parametrize("seed", range(6))
def test_knn_kernel_path_bit_identical(capacity, seed):
    """Seeded sweep: the walk and the heap step loop agree exactly,
    incl. tune-in."""
    rng = random.Random(1000 + seed)
    q = Point(rng.uniform(0, 1000), rng.uniform(0, 1000))
    k = rng.choice([1, 3, 7, 20])
    phase = rng.uniform(0, 100)
    n = 400 + 60 * seed

    results = {}
    for stepped in (False, True):
        _, tree, tuner = _setup_for(capacity, n, seed, phase)
        s = _finish(BroadcastKNNSearch(tree, tuner, q, k), stepped)
        results[stepped] = (s.results(), s.max_queue_size, tuner.now,
                            tuner.index_pages, tuple(tuner.log))
    assert results[False] == results[True]


@pytest.mark.parametrize("capacity", [64, 512])
@pytest.mark.parametrize("seed", range(6))
def test_window_kernel_path_bit_identical(capacity, seed):
    """Seeded sweep: walked and heap-stepped window queries agree
    exactly."""
    rng = random.Random(2000 + seed)
    x0, y0 = rng.uniform(0, 800), rng.uniform(0, 800)
    win = Rect(x0, y0, x0 + rng.uniform(10, 400), y0 + rng.uniform(10, 400))
    phase = rng.uniform(0, 100)
    n = 400 + 60 * seed

    results = {}
    for stepped in (False, True):
        _, tree, tuner = _setup_for(capacity, n, seed, phase)
        s = _finish(BroadcastWindowSearch(tree, tuner, win), stepped)
        results[stepped] = (s.results, s.max_queue_size, tuner.now,
                            tuner.index_pages, tuple(tuner.log))
    assert results[False] == results[True]


def test_knn_kernel_path_handles_duplicate_distance_ties():
    """Exact distance ties at the k-th slot: the walk and the heap step
    loop keep the same set."""
    # A ring of symmetric points: many exactly-equal distances from q.
    pts = [Point(500 + dx, 500 + dy) for dx in range(-20, 21, 2)
           for dy in range(-20, 21, 2)]
    params = SystemParameters(page_capacity=512)
    q = Point(500, 500)
    results = {}
    for stepped in (False, True):
        tree = str_pack(pts, params.leaf_capacity, params.internal_fanout)
        program = BroadcastProgram(tree, params, m=2)
        tuner = ChannelTuner(BroadcastChannel(program))
        s = _finish(BroadcastKNNSearch(tree, tuner, q, 7), stepped)
        results[stepped] = s.results()
    assert results[False] == results[True]


# ----------------------------------------------------------------------
# The MAXDIST guarantee: the answers of the k-th-best search, a subset
# of its downloads
# ----------------------------------------------------------------------
_CYCLIC = [n for n in available_layouts() if make_layout(n).has_cyclic_order]

#: Lattice spacing: lattice points tie exactly in distance from a cell
#: centre or from another lattice point.
_STEP = 40.0


def _reference_knn(tree, tuner, q, k):
    """kNN without the guarantee: a preorder walk that prunes on the k-th
    best alone (on a layout with cyclic page order, preorder is arrival
    order).  Returns the answers ordered like ``results()``."""
    best = []
    seq = itertools.count()

    def kth():
        return -best[0][0] if len(best) == k else math.inf

    def visit(node):
        if node.mbr.mindist(q) > kth():
            return
        tuner.download_index_page(node.page_id)
        for pt in node.points:
            d = distance(q, pt)
            if len(best) < k:
                heapq.heappush(best, (-d, next(seq), pt))
            elif d < kth():
                heapq.heapreplace(best, (-d, next(seq), pt))
        for child in node.children:
            visit(child)

    visit(tree.root)
    ordered = sorted(best, key=lambda e: (-e[0], e[1]))
    return [(pt, -negd) for negd, _, pt in ordered]


def _guarantee_points():
    """Uniform points, a lattice whose points tie in distance, and
    points repeated four times."""
    rng = random.Random(77)
    uniform_pts = [Point(rng.random() * 1000, rng.random() * 1000)
                   for _ in range(240)]
    lattice = [Point(_STEP * i, _STEP * j) for i in range(5, 15)
               for j in range(5, 15)]
    dups = [p for p in uniform_pts[:30] for _ in range(3)]
    return uniform_pts + lattice + dups


def _guarantee_queries():
    rng = random.Random(78)
    qs = [Point(rng.random() * 1000, rng.random() * 1000) for _ in range(4)]
    # A lattice cell centre and a lattice point: rings of exact ties.
    qs += [Point(9.5 * _STEP, 9.5 * _STEP), Point(10 * _STEP, 7 * _STEP)]
    qs.append(Point(-300.0, 1500.0))  # off the data region
    return qs


@functools.lru_cache(maxsize=None)
def _guarantee_env(layout, page_capacity, points=None):
    pts = _guarantee_points() if points is None else list(points)
    return TNNEnvironment.build(
        pts, pts[:50], params=SystemParameters(page_capacity=page_capacity),
        layout=make_layout(layout),
    )


def _run_knn(env, q, k, phase, backend):
    """One kNN search on the s channel: ``walk`` drains its stack,
    ``heap`` steps on the heap.  Returns the answers and tuner."""
    tuner = ChannelTuner(BroadcastChannel(env.s_program, phase=phase))
    search = _finish(BroadcastKNNSearch(env.s_tree, tuner, q, k),
                     backend == "heap")
    assert search._drains() == (backend == "walk")
    return search.results(), tuner


@pytest.mark.parametrize("backend", ["walk", "heap"])
@pytest.mark.parametrize("page_capacity", [64, 512])
@pytest.mark.parametrize("layout", _CYCLIC)
def test_knn_guarantee_downloads_a_subset(layout, page_capacity, backend):
    """Lossless, the guarantee changes no answer, and every page the
    search downloads the k-th-best search downloads too, at the same
    arrival; tune-in and access time are no higher.  With ``k`` above
    the dataset size no subtree backs a guarantee: the logs are equal."""
    env = _guarantee_env(layout, page_capacity)
    n = len(env.s_points)
    saved = 0
    for k in (1, 3, 8, 40, n + 1):
        for q in _guarantee_queries():
            for phase in (0.0, 127.3):
                got, tuner = _run_knn(env, q, k, phase, backend)
                ref_tuner = ChannelTuner(
                    BroadcastChannel(env.s_program, phase=phase))
                want = _reference_knn(env.s_tree, ref_tuner, q, k)
                assert got == want
                assert set(tuner.log) <= set(ref_tuner.log)
                assert tuner.index_pages <= ref_tuner.index_pages
                assert tuner.now <= ref_tuner.now
                if k > n:
                    assert tuner.log == ref_tuner.log
                saved += ref_tuner.index_pages - tuner.index_pages
    assert saved > 0  # the guarantee prunes somewhere


def _tie_points():
    """A lattice: rings of points at exactly equal distances."""
    return tuple(Point(_STEP * i, _STEP * j) for i in range(1, 21)
                 for j in range(1, 21))


def _dup_points():
    """Each of 60 distinct points repeated five times."""
    rng = random.Random(79)
    base = [Point(rng.random() * 1000, rng.random() * 1000)
            for _ in range(60)]
    return tuple(p for p in base for _ in range(5))


@pytest.mark.parametrize("backend", ["walk", "heap"])
@pytest.mark.parametrize("data", ["ties", "duplicates"])
@pytest.mark.parametrize("page_capacity", [64, 512])
@pytest.mark.parametrize("layout", _CYCLIC)
def test_knn_guarantee_matches_brute_force(layout, page_capacity, data,
                                           backend):
    """Against sorted distances over the raw points: many points at the
    same distance, duplicate points, and ``k`` above every leaf's size
    (the guarantee then comes from internal nodes alone).  Every point
    strictly closer than the k-th distance is in the answer, as often as
    the dataset holds it, and no point more often."""
    points = _tie_points() if data == "ties" else _dup_points()
    env = _guarantee_env(layout, page_capacity, points)
    tree = env.s_tree
    biggest_leaf = max(len(nd.points) for nd in tree.iter_nodes()
                       if nd.is_leaf)
    rng = random.Random(80)
    queries = [Point(10.5 * _STEP, 10.5 * _STEP),
               Point(10 * _STEP, 10 * _STEP), points[7]]
    queries += [Point(rng.random() * 900, rng.random() * 900)
                for _ in range(3)]
    held = Counter(points)
    for k in (1, 4, 9, biggest_leaf + 1, 3 * biggest_leaf + 2):
        for q in queries:
            got, _ = _run_knn(env, q, k, 61.7, backend)
            dists = sorted(distance(q, p) for p in points)
            assert [d for _, d in got] == dists[:k]
            answer = Counter(pt for pt, _ in got)
            assert all(answer[p] <= held[p] for p in answer)
            cut = dists[k - 1]
            closer = Counter(p for p in points if distance(q, p) < cut)
            assert all(answer[p] == c for p, c in closer.items())
