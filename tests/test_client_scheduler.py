"""Tests for the cooperative multi-channel scheduler.

``run_all`` is the step-at-a-time reference: an argmin scan that steps
the unfinished search with the earliest next arrival, ties to the first.
``SearchGroup(..., coupled=True).run()`` is the fast driver: it replays
that schedule in bounded runs, one walk per run.  The property suite
drives 2-16 channels through both and requires identical answers, tuner
states and ``on_finish`` order — including under callbacks that re-steer
*other* searches mid-run (Hybrid-NN re-steering) — and, on heap-backed
searches, which step one node at a time under both, the identical global
step order.  The ``heap_matches_scan`` tests are named for the event-heap
scheduler the coupled group replaced as the fast driver.
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
    SearchGroup,
    run_all,
)
from repro.geometry import Point, distance
from repro.rtree import str_pack


def make_channel(n, seed, phase=0.0, heap=False):
    """One channel's points, tree and tuner; ``heap``: a program without
    cyclic page order, so its searches step on the arrival heap."""
    rng = random.Random(seed)
    pts = [Point(rng.random() * 1000, rng.random() * 1000) for _ in range(n)]
    params = SystemParameters(page_capacity=64)
    tree = str_pack(pts, params.leaf_capacity, params.internal_fanout)
    program = BroadcastProgram(tree, params, m=2)
    if heap:
        program.has_cyclic_order = False
    return pts, tree, ChannelTuner(BroadcastChannel(program, phase=phase))


def trace_steps(searches, trace):
    """Log ``(index, clock)`` before every ``step()`` of each search."""
    for i, s in enumerate(searches):
        def step(s=s, i=i, step=s.step):
            trace.append((i, s.next_event_time()))
            step()

        s.step = step


def coupled(searches, on_finish=None):
    SearchGroup(searches, coupled=True, on_finish=on_finish).run()


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
    """Each step takes the earliest pending page of either channel: the
    global trace of stepped arrivals never goes back in time."""
    _, tree1, t1 = make_channel(120, seed=3)
    _, tree2, t2 = make_channel(120, seed=4, phase=7.0)
    q = Point(400, 600)
    s1 = BroadcastNNSearch(tree1, t1, q)
    s2 = BroadcastNNSearch(tree2, t2, q)
    trace = []
    trace_steps([s1, s2], trace)
    run_all([s1, s2])
    assert {i for i, _ in trace} == {0, 1}
    assert len(trace) > 2
    times = [t for _, t in trace]
    assert times == sorted(times)


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


def test_on_finish_can_mutate_other_search():
    """The Hybrid-NN pattern: when one search finishes, re-steer the other;
    the coupled group re-steers at the same moment as ``run_all``."""

    def drive(driver):
        pts1, tree1, t1 = make_channel(60, seed=6)
        pts2, tree2, t2 = make_channel(600, seed=7)
        q = Point(500, 500)
        s1 = BroadcastNNSearch(tree1, t1, q)
        s2 = BroadcastNNSearch(tree2, t2, q)
        mutated = []

        def coordinator(finished):
            if finished is s1 and not s2.finished():
                s2.retarget(Point(100, 100))
                mutated.append(True)

        driver([s1, s2], coordinator)
        return mutated, pts2, s2.result(), tuner_state([t1, t2])

    mutated, pts2, (pt, d), state = drive(run_all)
    assert mutated
    # Retargeting searches the *remaining portion* of the tree (plus the
    # temporary result), per Hybrid-NN Case 2 — so the answer is a real
    # dataset point, self-consistent, and no better than the global NN.
    assert pt in pts2
    assert math.isclose(d, distance(Point(100, 100), pt), rel_tol=1e-12)
    assert d >= min(distance(Point(100, 100), p) for p in pts2) - 1e-12
    assert drive(coupled) == (mutated, pts2, (pt, d), state)


def test_run_all_empty_list():
    run_all([])  # no-op, must not raise
    coupled([])


# ----------------------------------------------------------------------
# The coupled group vs the run_all scan (property suite)
# ----------------------------------------------------------------------
def build_fleet(n_channels, seed, heap=False):
    """One NN search per channel, shared query, varied sizes and phases."""
    rng = random.Random(seed)
    searches = []
    tuners = []
    q = Point(rng.uniform(0, 1000), rng.uniform(0, 1000))
    for c in range(n_channels):
        pts, tree, tuner = make_channel(
            80 + 37 * c, seed=1000 * seed + c, phase=rng.uniform(0, 200),
            heap=heap,
        )
        searches.append(BroadcastNNSearch(tree, tuner, q))
        tuners.append(tuner)
    return searches, tuners


def tuner_state(tuners):
    return [(t.now, t.index_pages, t.data_pages, tuple(t.log)) for t in tuners]


@pytest.mark.parametrize("n_channels", [3, 5, 8, 11, 16])
def test_heap_matches_scan_trace_and_answers(n_channels):
    """Same answers, tuner states and queue sizes; on heap-backed
    searches, the same steps in the same order."""
    for heap in (False, True):
        fast, fast_tuners = build_fleet(n_channels, n_channels, heap)
        ref, ref_tuners = build_fleet(n_channels, n_channels, heap)
        fast_trace, ref_trace = [], []
        trace_steps(fast, fast_trace)
        trace_steps(ref, ref_trace)
        coupled(fast)
        run_all(ref)

        assert fast_trace == (ref_trace if heap else [])
        assert tuner_state(fast_tuners) == tuner_state(ref_tuners)
        for f, r in zip(fast, ref):
            assert f.result() == r.result()
            assert f.max_queue_size == r.max_queue_size


@pytest.mark.parametrize("n_channels", [3, 6, 9, 13])
def test_heap_matches_scan_with_mutating_after_step(n_channels):
    """Coordinator callbacks that re-steer *other* searches mid-run.

    Mimics Hybrid-NN: when the first channel finishes, retarget half of
    the survivors onto the winner and switch the rest to the transitive
    metric — both mutations invalidate queued bounds on searches the
    driver did not just run.
    """

    def drive(driver, seed):
        searches, tuners = build_fleet(n_channels, seed=seed)
        steered = [False]
        trace = []

        def coordinator(finished):
            trace.append(searches.index(finished))
            if steered[0]:
                return
            winner, _ = finished.result()
            steered[0] = True
            for k, other in enumerate(searches):
                if other.finished():
                    continue
                if k % 2 == 0:
                    other.retarget(winner)
                elif other.mode.value == "point":
                    other.switch_to_transitive(other.query, winner)

        driver(searches, coordinator)
        return (
            trace,
            [s.result() for s in searches],
            tuner_state(tuners),
        )

    seed = 7 * n_channels
    assert drive(coupled, seed) == drive(run_all, seed)


@pytest.mark.parametrize("n_channels", [2, 4, 8, 16])
def test_heap_matches_scan_with_on_finish(n_channels):
    """Finish-driven coordination (the Hybrid-NN shape) on both drivers."""

    def drive(driver, seed):
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

        driver(searches, on_finish)
        return finishes, [s.result() for s in searches], tuner_state(tuners)

    seed = 11 * n_channels
    assert drive(coupled, seed) == drive(run_all, seed)


def test_on_finish_fires_once_per_search():
    for driver in (run_all, coupled):
        searches, _ = build_fleet(3, seed=99)
        finished = []
        driver(searches, finished.append)
        assert sorted(map(id, finished)) == sorted(map(id, searches))


@pytest.mark.parametrize("n_channels", [1, 2, 3])
def test_on_finish_follows_the_finishing_step(n_channels):
    """``on_finish`` fires right after the step that finishes its search,
    on both drivers, heap-backed so both step node by node."""

    def drive(driver):
        searches, tuners = build_fleet(n_channels, 55 + n_channels, True)
        events = []
        trace_steps(searches, events)
        driver(searches, lambda s: events.append(("finish", searches.index(s))))
        return events, tuner_state(tuners)

    events, state = drive(run_all)
    assert drive(coupled) == (events, state)
    finishes = [k for k, e in enumerate(events) if e[0] == "finish"]
    assert sorted(events[k][1] for k in finishes) == list(range(n_channels))
    for k in finishes:
        assert events[k - 1][0] == events[k][1]
        assert all(e[0] != events[k][1] for e in events[k + 1:])


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
    coupled(searches)
    for s, pts in zip(searches, points):
        assert math.isclose(
            s.result()[1],
            min(distance(q, p) for p in pts),
            rel_tol=1e-12,
        )
