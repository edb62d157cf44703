"""Tests for the broadcast range (circle) search."""

import random

import pytest

from repro.broadcast import (
    BroadcastChannel,
    BroadcastProgram,
    ChannelTuner,
    SystemParameters,
)
from repro.client import BroadcastRangeSearch
from repro.geometry import Circle, Point
from repro.rtree import str_pack
from repro.rtree.traversal import range_search


def make_setup(n=300, seed=0, m=2, phase=0.0):
    rng = random.Random(seed)
    pts = [Point(rng.random() * 1000, rng.random() * 1000) for _ in range(n)]
    params = SystemParameters(page_capacity=64)
    tree = str_pack(pts, params.leaf_capacity, params.internal_fanout)
    program = BroadcastProgram(tree, params, m=m)
    tuner = ChannelTuner(BroadcastChannel(program, phase=phase))
    return pts, tree, tuner


@pytest.mark.parametrize("seed", range(5))
def test_range_matches_in_memory(seed):
    pts, tree, tuner = make_setup(seed=seed)
    circle = Circle(Point(400, 500), 150.0)
    got = BroadcastRangeSearch(tree, tuner, circle).run_to_completion()
    want = range_search(tree, circle)
    assert sorted(got) == sorted(want)


def test_range_empty_result():
    _, tree, tuner = make_setup(seed=5)
    got = BroadcastRangeSearch(tree, tuner, Circle(Point(-9999, -9999), 5)).run_to_completion()
    assert got == []
    # Only the root page was downloaded (the circle misses all children)
    # or even zero pages if it misses the root MBR as well.
    assert tuner.index_pages <= 1


def test_range_full_coverage_downloads_all_pages():
    pts, tree, tuner = make_setup(n=120, seed=6)
    circle = Circle(Point(500, 500), 1e6)
    got = BroadcastRangeSearch(tree, tuner, circle).run_to_completion()
    assert len(got) == len(pts)
    assert tuner.index_pages == tree.node_count()


def test_range_small_circle_downloads_few_pages():
    pts, tree, tuner = make_setup(n=800, seed=7)
    circle = Circle(Point(500, 500), 30.0)
    BroadcastRangeSearch(tree, tuner, circle).run_to_completion()
    assert tuner.index_pages < tree.node_count() / 4


def test_range_respects_start_time():
    _, tree, tuner = make_setup(seed=8)
    search = BroadcastRangeSearch(tree, tuner, Circle(Point(500, 500), 100), start_time=42.0)
    assert tuner.now == 42.0
    search.run_to_completion()
    assert tuner.now > 42.0


def test_range_step_on_finished_raises():
    _, tree, tuner = make_setup(n=10, seed=9)
    s = BroadcastRangeSearch(tree, tuner, Circle(Point(0, 0), 1.0))
    s.run_to_completion()
    with pytest.raises(RuntimeError):
        s.step()


# ----------------------------------------------------------------------
# The walk vs the heap step loop: bit-identical answers and tuner state
# ----------------------------------------------------------------------
@pytest.mark.parametrize("capacity", [64, 512])
@pytest.mark.parametrize("seed", range(6))
def test_range_kernel_path_bit_identical(capacity, seed):
    """Seeded sweep: walked and heap-stepped range queries agree
    exactly."""
    rng = random.Random(3000 + seed)
    circle = Circle(
        Point(rng.uniform(0, 1000), rng.uniform(0, 1000)),
        rng.uniform(20, 350),
    )
    phase = rng.uniform(0, 100)
    n = 400 + 60 * seed

    results = {}
    for stepped in (False, True):
        rng2 = random.Random(seed)
        pts = [
            Point(rng2.random() * 1000, rng2.random() * 1000)
            for _ in range(n)
        ]
        params = SystemParameters(page_capacity=capacity)
        tree = str_pack(pts, params.leaf_capacity, params.internal_fanout)
        program = BroadcastProgram(tree, params, m=2)
        tuner = ChannelTuner(BroadcastChannel(program, phase=phase))
        search = BroadcastRangeSearch(tree, tuner, circle)
        if stepped:
            while not search.finished():
                search.step()
        else:
            search.run_to_completion()
        results[stepped] = (search.results, search.max_queue_size,
                            tuner.now, tuner.index_pages, tuple(tuner.log))
    assert results[False] == results[True]


def test_range_boundary_points_included():
    pts = [Point(0, 0), Point(3, 0), Point(5, 0)]
    params = SystemParameters(page_capacity=64)
    tree = str_pack(pts, params.leaf_capacity, params.internal_fanout)
    program = BroadcastProgram(tree, params, m=1)
    tuner = ChannelTuner(BroadcastChannel(program))
    got = BroadcastRangeSearch(tree, tuner, Circle(Point(0, 0), 3.0)).run_to_completion()
    assert sorted(got) == [Point(0, 0), Point(3, 0)]
