"""Tests for the cooperative multi-channel scheduler.

``run_all`` is a lazy-invalidation event heap (O(log channels) per event);
``run_all_scan`` is the original O(channels) argmin scan.  The property
suite drives 3-16 channels through both and requires identical step
traces, answers and tuner states — including under ``after_step``
callbacks that mutate *other* searches mid-run (Hybrid-NN re-steering).
"""

import math
import random

import pytest

from repro.broadcast import (
    BroadcastChannel,
    BroadcastProgram,
    ChannelTuner,
    SystemParameters,
)
from repro.client import (
    BroadcastNNSearch,
    run_all,
    run_all_scan,
)
from repro.geometry import Point, distance
from repro.rtree import str_pack


def make_channel(n, seed, phase=0.0):
    rng = random.Random(seed)
    pts = [Point(rng.random() * 1000, rng.random() * 1000) for _ in range(n)]
    params = SystemParameters(page_capacity=64)
    tree = str_pack(pts, params.leaf_capacity, params.internal_fanout)
    program = BroadcastProgram(tree, params, m=2)
    return pts, tree, ChannelTuner(BroadcastChannel(program, phase=phase))


def test_run_all_completes_both():
    pts1, tree1, t1 = make_channel(200, seed=1)
    pts2, tree2, t2 = make_channel(150, seed=2, phase=31.0)
    q = Point(500, 500)
    s1 = BroadcastNNSearch(tree1, t1, q)
    s2 = BroadcastNNSearch(tree2, t2, q)
    run_all([s1, s2])
    assert s1.finished() and s2.finished()
    assert math.isclose(s1.result()[1], min(distance(q, p) for p in pts1), rel_tol=1e-12)
    assert math.isclose(s2.result()[1], min(distance(q, p) for p in pts2), rel_tol=1e-12)


def test_run_all_interleaves_in_time_order():
    """After each step the stepped search is (weakly) the one whose page
    arrived earliest — verify via a monotone global event trace."""
    _, tree1, t1 = make_channel(120, seed=3)
    _, tree2, t2 = make_channel(120, seed=4, phase=7.0)
    q = Point(400, 600)
    s1 = BroadcastNNSearch(tree1, t1, q)
    s2 = BroadcastNNSearch(tree2, t2, q)
    trace = []
    run_all([s1, s2], after_step=lambda s: trace.append(s))
    assert set(trace) == {s1, s2}
    assert len(trace) > 2


def test_run_all_parallel_equals_independent_results():
    """Interleaving cannot change per-channel outcomes for independent
    searches — same pages, same answers, same tune-in."""
    pts1, tree1, ta = make_channel(180, seed=5)
    _, _, tb = make_channel(180, seed=5)
    q = Point(300, 300)
    parallel = BroadcastNNSearch(tree1, ta, q)
    run_all([parallel])
    solo = BroadcastNNSearch(tree1, tb, q)
    while not solo.finished():
        solo.step()
    assert parallel.result() == solo.result()
    assert ta.index_pages == tb.index_pages


def test_after_step_can_mutate_other_search():
    """The Hybrid-NN pattern: when one search finishes, re-steer the other."""
    pts1, tree1, t1 = make_channel(60, seed=6)
    pts2, tree2, t2 = make_channel(600, seed=7)
    q = Point(500, 500)
    s1 = BroadcastNNSearch(tree1, t1, q)
    s2 = BroadcastNNSearch(tree2, t2, q)
    mutated = []

    def coordinator(stepped):
        if s1.finished() and not mutated and not s2.finished():
            s2.retarget(Point(100, 100))
            mutated.append(True)

    run_all([s1, s2], after_step=coordinator)
    if mutated:
        # Retargeting searches the *remaining portion* of the tree (plus the
        # temporary result), per Hybrid-NN Case 2 — so the answer is a real
        # dataset point, self-consistent, and no better than the global NN.
        pt, d = s2.result()
        assert pt in pts2
        assert math.isclose(d, distance(Point(100, 100), pt), rel_tol=1e-12)
        assert d >= min(distance(Point(100, 100), p) for p in pts2) - 1e-12


def test_run_all_empty_list():
    run_all([])  # no-op, must not raise
    run_all_scan([])


# ----------------------------------------------------------------------
# Event heap vs brute-force scan (property suite)
# ----------------------------------------------------------------------
def build_fleet(n_channels, seed):
    """One NN search per channel, shared query, varied sizes and phases."""
    rng = random.Random(seed)
    searches = []
    tuners = []
    q = Point(rng.uniform(0, 1000), rng.uniform(0, 1000))
    for c in range(n_channels):
        pts, tree, tuner = make_channel(
            80 + 37 * c, seed=1000 * seed + c, phase=rng.uniform(0, 200)
        )
        searches.append(BroadcastNNSearch(tree, tuner, q))
        tuners.append(tuner)
    return searches, tuners


def tuner_state(tuners):
    return [(t.now, t.index_pages, t.data_pages, tuple(t.log)) for t in tuners]


@pytest.mark.parametrize("n_channels", [3, 5, 8, 11, 16])
def test_heap_matches_scan_trace_and_answers(n_channels):
    """Same steps in the same order, same answers, same tuner states."""
    heap_searches, heap_tuners = build_fleet(n_channels, seed=n_channels)
    scan_searches, scan_tuners = build_fleet(n_channels, seed=n_channels)

    heap_trace = []
    scan_trace = []
    run_all(
        heap_searches,
        after_step=lambda s: heap_trace.append((heap_searches.index(s), s.now)),
    )
    run_all_scan(
        scan_searches,
        after_step=lambda s: scan_trace.append((scan_searches.index(s), s.now)),
    )

    assert heap_trace == scan_trace
    assert tuner_state(heap_tuners) == tuner_state(scan_tuners)
    for h, s in zip(heap_searches, scan_searches):
        assert h.result() == s.result()
        assert h.max_queue_size == s.max_queue_size


@pytest.mark.parametrize("n_channels", [3, 6, 9, 13])
def test_heap_matches_scan_with_mutating_after_step(n_channels):
    """Coordinator callbacks that re-steer *other* searches mid-run.

    Mimics Hybrid-NN: when the first channel finishes, retarget half of
    the survivors onto the winner and switch the rest to the transitive
    metric — both mutations invalidate queued bounds on searches the
    scheduler did not just step.
    """

    def drive(scheduler, seed):
        searches, tuners = build_fleet(n_channels, seed=seed)
        steered = [False]
        trace = []

        def coordinator(stepped):
            trace.append(searches.index(stepped))
            if steered[0]:
                return
            done = [s for s in searches if s.finished()]
            if not done:
                return
            winner, _ = done[0].result()
            steered[0] = True
            for k, other in enumerate(searches):
                if other.finished():
                    continue
                if k % 2 == 0:
                    other.retarget(winner)
                elif other.mode.value == "point":
                    other.switch_to_transitive(other.query, winner)

        scheduler(searches, after_step=coordinator)
        return (
            trace,
            [s.result() for s in searches],
            tuner_state(tuners),
        )

    seed = 7 * n_channels
    assert drive(run_all, seed) == drive(run_all_scan, seed)


@pytest.mark.parametrize("n_channels", [2, 4, 8, 16])
def test_heap_matches_scan_with_on_finish(n_channels):
    """Finish-driven coordination (the Hybrid-NN shape) on both schedulers."""

    def drive(scheduler, seed):
        searches, tuners = build_fleet(n_channels, seed=seed)
        finishes = []

        def on_finish(s):
            finishes.append(searches.index(s))
            # Re-steer the first still-running search onto the winner.
            winner, _ = s.result()
            for other in searches:
                if not other.finished() and other.mode.value == "point":
                    other.retarget(winner)
                    break

        scheduler(searches, on_finish=on_finish)
        return finishes, [s.result() for s in searches], tuner_state(tuners)

    seed = 11 * n_channels
    assert drive(run_all, seed) == drive(run_all_scan, seed)


def test_on_finish_fires_once_per_search():
    searches, _ = build_fleet(3, seed=99)
    finished = []
    run_all(searches, on_finish=finished.append)
    assert sorted(map(id, finished)) == sorted(map(id, searches))


@pytest.mark.parametrize("n_channels", [1, 2, 3])
def test_after_step_and_on_finish_compose(n_channels):
    """Both hooks together fire like the scan reference on every path
    (the 1-, 2- and N-search scheduler specialisations)."""

    def drive(scheduler):
        searches, tuners = build_fleet(n_channels, seed=55 + n_channels)
        steps = []
        finishes = []
        scheduler(
            searches,
            after_step=lambda s: steps.append(searches.index(s)),
            on_finish=lambda s: finishes.append(searches.index(s)),
        )
        return steps, finishes, tuner_state(tuners)

    heap = drive(run_all)
    scan = drive(run_all_scan)
    assert heap == scan
    assert sorted(heap[1]) == list(range(n_channels))


def test_heap_drives_eight_channels_to_correct_answers():
    """The acceptance shape: >= 8 channels, every answer exact."""
    rng = random.Random(42)
    q = Point(500, 500)
    searches = []
    points = []
    for c in range(8):
        pts, tree, tuner = make_channel(
            150 + 13 * c, seed=100 + c, phase=rng.uniform(0, 300)
        )
        searches.append(BroadcastNNSearch(tree, tuner, q))
        points.append(pts)
    run_all(searches)
    for s, pts in zip(searches, points):
        assert math.isclose(
            s.result()[1],
            min(distance(q, p) for p in pts),
            rel_tol=1e-12,
        )
