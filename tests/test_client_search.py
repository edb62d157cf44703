"""Tests for the steppable broadcast NN search."""

import math
import random

import pytest

from repro.broadcast import (
    BroadcastChannel,
    BroadcastProgram,
    ChannelTuner,
    SystemParameters,
)
from repro.client import AnnPolicy, BroadcastNNSearch, SearchMode, dynamic_alpha
from repro.geometry import Point, distance, transitive_distance
from repro.rtree import best_first_nn, str_pack, transitive_nn


def make_setup(n=300, seed=0, m=2, phase=0.0, capacity=64):
    rng = random.Random(seed)
    pts = [Point(rng.random() * 1000, rng.random() * 1000) for _ in range(n)]
    params = SystemParameters(page_capacity=capacity)
    tree = str_pack(pts, params.leaf_capacity, params.internal_fanout)
    program = BroadcastProgram(tree, params, m=m)
    tuner = ChannelTuner(BroadcastChannel(program, phase=phase))
    return pts, tree, tuner


def test_broadcast_nn_matches_best_first():
    pts, tree, tuner = make_setup(seed=1)
    q = Point(321, 654)
    search = BroadcastNNSearch(tree, tuner, q)
    search.run_to_completion()
    got, got_d = search.result()
    _, want_d = best_first_nn(tree, q)
    assert math.isclose(got_d, want_d, rel_tol=1e-12)
    assert math.isclose(distance(q, got), want_d, rel_tol=1e-12)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("phase", [0.0, 17.0, 101.0])
def test_broadcast_nn_exact_across_phases(seed, phase):
    pts, tree, tuner = make_setup(n=150, seed=seed, phase=phase)
    rng = random.Random(seed + 1000)
    q = Point(rng.uniform(0, 1000), rng.uniform(0, 1000))
    search = BroadcastNNSearch(tree, tuner, q)
    search.run_to_completion()
    _, got_d = search.result()
    want_d = min(distance(q, p) for p in pts)
    assert math.isclose(got_d, want_d, rel_tol=1e-12)


def test_broadcast_nn_monotone_clock():
    _, tree, tuner = make_setup(seed=2)
    search = BroadcastNNSearch(tree, tuner, Point(500, 500))
    times = []
    while not search.finished():
        search.step()
        times.append(tuner.now)
    assert times == sorted(times)


def test_broadcast_nn_downloads_less_than_full_index():
    _, tree, tuner = make_setup(n=800, seed=3)
    search = BroadcastNNSearch(tree, tuner, Point(500, 500))
    search.run_to_completion()
    assert tuner.index_pages < tree.node_count()


def test_step_on_finished_raises():
    _, tree, tuner = make_setup(n=10, seed=4)
    search = BroadcastNNSearch(tree, tuner, Point(0, 0))
    search.run_to_completion()
    with pytest.raises(RuntimeError):
        search.step()


def test_result_before_any_leaf_raises():
    _, tree, tuner = make_setup(n=50, seed=5)
    search = BroadcastNNSearch(tree, tuner, Point(0, 0))
    with pytest.raises(RuntimeError):
        search.result()


def test_start_time_delays_search():
    _, tree, tuner = make_setup(n=60, seed=6)
    search = BroadcastNNSearch(tree, tuner, Point(100, 100), start_time=37.0)
    assert tuner.now == 37.0
    search.run_to_completion()
    assert tuner.now > 37.0


# ----------------------------------------------------------------------
# Transitive mode (Hybrid Case 3 machinery)
# ----------------------------------------------------------------------
def test_transitive_mode_matches_oracle():
    pts, tree, tuner = make_setup(n=200, seed=7)
    p, r = Point(100, 900), Point(900, 100)
    search = BroadcastNNSearch(tree, tuner, p)
    search.switch_to_transitive(p, r)
    search.run_to_completion()
    s, d = search.result()
    _, want = transitive_nn(tree, p, r)
    assert math.isclose(d, want, rel_tol=1e-12)
    assert math.isclose(transitive_distance(p, s, r), want, rel_tol=1e-12)


def test_switch_to_transitive_mid_search():
    pts, tree, tuner = make_setup(n=250, seed=8)
    p, r = Point(200, 200), Point(800, 800)
    search = BroadcastNNSearch(tree, tuner, p)
    for _ in range(5):
        if search.finished():
            break
        search.step()
    search.switch_to_transitive(p, r)
    search.run_to_completion()
    _, d = search.result()
    want = min(transitive_distance(p, x, r) for x in pts)
    assert math.isclose(d, want, rel_tol=1e-12)


def test_switch_twice_raises():
    _, tree, tuner = make_setup(n=30, seed=9)
    p, r = Point(0, 0), Point(1, 1)
    search = BroadcastNNSearch(tree, tuner, p)
    search.switch_to_transitive(p, r)
    with pytest.raises(RuntimeError):
        search.switch_to_transitive(p, r)


def test_retarget_early_finds_exact_new_nn():
    """Retargeting before any leaf was consumed keeps every subtree
    reachable (delayed pruning), so the new NN is exact."""
    pts, tree, tuner = make_setup(n=250, seed=10)
    q1, q2 = Point(100, 100), Point(900, 900)
    search = BroadcastNNSearch(tree, tuner, q1)
    search.step()  # only the root was expanded: nothing consumed yet
    search.retarget(q2)
    assert search.mode is SearchMode.POINT
    search.run_to_completion()
    got, d = search.result()
    want = min(distance(q2, p) for p in pts)
    assert math.isclose(d, want, rel_tol=1e-12)


def test_retarget_late_searches_remaining_portion():
    """Retargeting mid-flight answers over the remaining portion of the
    tree plus the temporary result (Hybrid Case 2 semantics): the result is
    self-consistent and never beats the global NN."""
    pts, tree, tuner = make_setup(n=250, seed=10)
    q1, q2 = Point(100, 100), Point(900, 900)
    search = BroadcastNNSearch(tree, tuner, q1)
    for _ in range(40):
        if search.finished():
            break
        search.step()
    if search.finished():
        return
    search.retarget(q2)
    search.run_to_completion()
    got, d = search.result()
    assert got in pts
    assert math.isclose(d, distance(q2, got), rel_tol=1e-12)
    assert d >= min(distance(q2, p) for p in pts) - 1e-12


def test_retarget_in_transitive_mode_raises():
    _, tree, tuner = make_setup(n=30, seed=11)
    p, r = Point(0, 0), Point(1, 1)
    search = BroadcastNNSearch(tree, tuner, p)
    search.switch_to_transitive(p, r)
    with pytest.raises(RuntimeError):
        search.retarget(Point(2, 2))


# ----------------------------------------------------------------------
# ANN pruning
# ----------------------------------------------------------------------
def test_ann_visits_no_more_pages_than_exact():
    for seed in range(5):
        pts, tree, t_exact = make_setup(n=400, seed=seed)
        _, _, t_ann = make_setup(n=400, seed=seed)
        q = Point(500, 500)
        exact = BroadcastNNSearch(tree, t_exact, q)
        exact.run_to_completion()
        ann = BroadcastNNSearch(tree, t_ann, q, policy=AnnPolicy(dynamic_alpha(1.0)))
        ann.run_to_completion()
        assert t_ann.index_pages <= t_exact.index_pages


def test_ann_always_finds_some_point():
    for seed in range(8):
        pts, tree, tuner = make_setup(n=300, seed=seed)
        rng = random.Random(seed)
        q = Point(rng.uniform(0, 1000), rng.uniform(0, 1000))
        ann = BroadcastNNSearch(tree, tuner, q, policy=AnnPolicy(dynamic_alpha(1.0)))
        ann.run_to_completion()
        pt, d = ann.result()  # must not raise: witness chain reaches a leaf
        assert d >= min(distance(q, p) for p in pts) - 1e-12


def test_ann_alpha_zero_equals_exact():
    pts, tree, t1 = make_setup(n=300, seed=13)
    _, _, t2 = make_setup(n=300, seed=13)
    q = Point(444, 555)
    exact = BroadcastNNSearch(tree, t1, q)
    exact.run_to_completion()
    ann = BroadcastNNSearch(tree, t2, q, policy=AnnPolicy(0.0))
    ann.run_to_completion()
    assert t1.index_pages == t2.index_pages
    assert exact.result()[1] == ann.result()[1]


def test_ann_result_never_better_than_exact():
    pts, tree, tuner = make_setup(n=300, seed=14)
    q = Point(250, 750)
    ann = BroadcastNNSearch(tree, tuner, q, policy=AnnPolicy(dynamic_alpha(1.0)))
    ann.run_to_completion()
    _, ann_d = ann.result()
    _, exact_d = best_first_nn(tree, q)
    assert ann_d >= exact_d - 1e-12


def test_ann_transitive_mode():
    pts, tree, tuner = make_setup(n=300, seed=15)
    p, r = Point(100, 100), Point(900, 200)
    search = BroadcastNNSearch(
        tree, tuner, p, policy=AnnPolicy(dynamic_alpha(1.0 / 150))
    )
    search.switch_to_transitive(p, r)
    search.run_to_completion()
    s, d = search.result()
    want = min(transitive_distance(p, x, r) for x in pts)
    assert d >= want - 1e-12
    assert math.isclose(d, transitive_distance(p, s, r), rel_tol=1e-12)


def make_setup_with_empty_internal(q, n=60, seed=3):
    """A broadcast setup whose tree contains a childless internal node.

    The empty node's MBR hugs the query point, so its (void) MinMaxDist
    guarantee looks attractive and the node gets downloaded, exercising
    the witness hand-off guard.
    """
    from repro.geometry import Rect
    from repro.rtree.node import RTreeNode

    rng = random.Random(seed)
    pts = [Point(rng.random() * 1000, rng.random() * 1000) for _ in range(n)]
    params = SystemParameters(page_capacity=64)
    tree = str_pack(pts, params.leaf_capacity, params.internal_fanout)
    empty = RTreeNode(mbr=Rect(q.x - 1, q.y - 1, q.x + 1, q.y + 1), level=1)
    tree.root.children.append(empty)
    program = BroadcastProgram(tree, params, m=2)
    tuner = ChannelTuner(BroadcastChannel(program, phase=0.0))
    return tree, tuner, empty


def test_childless_internal_node_does_not_crash():
    """A childless internal node must not crash the witness hand-off.

    Degenerate packing can produce an internal node with no children; if
    it carried the upper bound's guarantee, the bound is rebuilt from the
    best concrete point instead of dereferencing a missing child.
    """
    q = Point(321, 654)
    tree, tuner, _ = make_setup_with_empty_internal(q, seed=3)
    search = BroadcastNNSearch(tree, tuner, q)
    search.run_to_completion()
    got, got_d = search.result()
    _, want_d = best_first_nn(tree, q)
    assert math.isclose(got_d, want_d, rel_tol=1e-12)


def test_childless_internal_witness_rebuilds_bound():
    """If the empty node itself witnessed the bound, the bound is reset."""
    q = Point(500, 500)
    tree, tuner, empty = make_setup_with_empty_internal(q, seed=5)
    search = BroadcastNNSearch(tree, tuner, q)
    # Force the empty node to be the current witness before it is absorbed.
    search._witness_page = empty.page_id
    search._absorb_internal(empty)
    # The void node no longer witnesses the bound; the rebuilt bound comes
    # from the best concrete point or a queued MBR's guarantee (rescan).
    assert search._witness_page != empty.page_id
    assert search.upper_bound >= search.best_dist or search._witness_page is not None
    search.run_to_completion()
    _, want_d = best_first_nn(tree, q)
    assert math.isclose(search.result()[1], want_d, rel_tol=1e-12)


def test_empty_internal_node_cannot_poison_upper_bound():
    """Regression: a void MinMaxDist guarantee must never be *accepted*.

    On a deep tree with the query far outside the region, an empty node
    whose MBR hugs the query would (if its guarantee were accepted at
    parent absorption) set a tiny upper bound and exact-prune every real
    subtree, finishing the search with no answer at all.
    """
    from repro.geometry import Rect
    from repro.rtree.node import RTreeNode

    rng = random.Random(42)
    pts = [Point(rng.random() * 1000, rng.random() * 1000) for _ in range(600)]
    params = SystemParameters(page_capacity=64)
    tree = str_pack(pts, params.leaf_capacity, params.internal_fanout)
    q = Point(5000, 5000)
    empty = RTreeNode(mbr=Rect(q.x - 1, q.y - 1, q.x + 1, q.y + 1), level=1)
    tree.root.children.append(empty)
    program = BroadcastProgram(tree, params, m=2)
    tuner = ChannelTuner(BroadcastChannel(program, phase=0.0))
    search = BroadcastNNSearch(tree, tuner, q)
    search.run_to_completion()
    got, got_d = search.result()
    want_d = min(distance(q, p) for p in pts)
    assert math.isclose(got_d, want_d, rel_tol=1e-12)


# ----------------------------------------------------------------------
# The walk (certified bounds) vs the heap step loop (scalar metrics)
# ----------------------------------------------------------------------
def _pop(search, stepped):
    """One pop: a ``step()`` on the heap, or a bounded walk up to the
    next arrival, which keeps the search on its stack."""
    if stepped:
        search.step()
    else:
        search._run_until(search.next_event_time())


@pytest.mark.parametrize("capacity", [64, 512])
@pytest.mark.parametrize("seed", range(5))
def test_nn_kernel_path_bit_identical(capacity, seed):
    """Seeded sweep: the walk's certified bounds change nothing."""
    rng = random.Random(4000 + seed)
    q = Point(rng.uniform(0, 1000), rng.uniform(0, 1000))
    phase = rng.uniform(0, 100)
    results = {}
    for stepped in (False, True):
        _, tree, tuner = make_setup(
            n=300 + 50 * seed, seed=seed, phase=phase, capacity=capacity
        )
        search = BroadcastNNSearch(tree, tuner, q)
        if stepped:
            while not search.finished():
                search.step()
        else:
            search.run_to_completion()
        results[stepped] = (
            search.result(),
            search.max_queue_size,
            tuner.now,
            tuner.index_pages,
            tuple(tuner.log),
        )
    assert results[False] == results[True]


@pytest.mark.parametrize("capacity", [64, 512])
@pytest.mark.parametrize("seed", range(5))
def test_hybrid_mutations_kernel_path_bit_identical(capacity, seed):
    """Mid-flight transitive switch, walked vs stepped on the heap.

    One-pop bounded walks up to the switch keep the search on its stack,
    so the rescan reads the stack and the walk's certified transitive
    bounds finish the search.
    """
    rng = random.Random(5000 + seed)
    q = Point(rng.uniform(0, 1000), rng.uniform(0, 1000))
    target = Point(rng.uniform(0, 1000), rng.uniform(0, 1000))
    phase = rng.uniform(0, 100)
    switch_after = rng.randrange(3, 12)
    results = {}
    for stepped in (False, True):
        _, tree, tuner = make_setup(
            n=300 + 50 * seed, seed=seed, phase=phase, capacity=capacity
        )
        search = BroadcastNNSearch(tree, tuner, q)
        steps = 0
        while not search.finished():
            _pop(search, stepped)
            steps += 1
            if steps == switch_after and not search.finished():
                search.switch_to_transitive(q, target)
                search.run_to_completion()
        results[stepped] = (
            search.result(),
            search.mode.value,
            search.max_queue_size,
            tuner.now,
            tuner.index_pages,
            tuple(tuner.log),
        )
    assert results[False] == results[True]


@pytest.mark.parametrize("seed", range(4))
def test_retarget_walk_matches_heap_steps(seed):
    """Case 2 re-steering: retarget mid-run, walked vs stepped on the
    heap."""
    rng = random.Random(6000 + seed)
    q = Point(rng.uniform(0, 1000), rng.uniform(0, 1000))
    new_q = Point(rng.uniform(0, 1000), rng.uniform(0, 1000))
    phase = rng.uniform(0, 100)
    retarget_after = rng.randrange(2, 10)
    results = {}
    for stepped in (False, True):
        _, tree, tuner = make_setup(n=400, seed=seed, phase=phase)
        search = BroadcastNNSearch(tree, tuner, q)
        steps = 0
        while not search.finished():
            _pop(search, stepped)
            steps += 1
            if steps == retarget_after and not search.finished():
                search.retarget(new_q)
                search.run_to_completion()
        results[stepped] = (
            search.result(),
            search.max_queue_size,
            tuner.now,
            tuner.index_pages,
            tuple(tuner.log),
        )
    assert results[False] == results[True]
