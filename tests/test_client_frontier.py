"""Tests for the arrival queue: the walk's stack and the arrival heap.

Both forms must serve the truly-next arrival under the current clock.
The reference here is the argmin of ``peek_index_arrival`` over the
queued nodes: the heap must pop in exactly that order, and the stack's
closed-form ``next_event_time`` must equal it bit for bit.
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
from repro.client import BroadcastKNNSearch
from repro.client.arrival_queue import ArrivalQueueMixin
from repro.client.drain import drain
from repro.geometry import Point
from repro.rtree import str_pack


def make_tuner(n=200, seed=0, phase=0.0, capacity=64, m=2):
    rng = random.Random(seed)
    pts = [Point(rng.random() * 1000, rng.random() * 1000) for _ in range(n)]
    params = SystemParameters(page_capacity=capacity)
    tree = str_pack(pts, params.leaf_capacity, params.internal_fanout)
    program = BroadcastProgram(tree, params, m=m)
    return tree, ChannelTuner(BroadcastChannel(program, phase=phase))


class _Heap(ArrivalQueueMixin):
    """A bare queue on ``tuner``'s channel, on the heap from the start
    (as after a search's first step)."""

    def __init__(self, tree, tuner):
        self.tree = tree
        self.tuner = tuner
        self._init_queue(None)
        self._stack = None


def reference_next(tuner, nodes):
    """Brute-force truly-next node: argmin of the scalar arrival peeks."""
    best = None
    best_key = None
    for node in nodes:
        key = tuner.peek_index_arrival(node.page_id)
        if best_key is None or key < best_key:
            best_key = key
            best = node
    return best, best_key


@pytest.mark.parametrize("seed", range(8))
def test_pop_order_matches_scalar_reference(seed):
    """Random push/pop/advance interleaving pops the reference node."""
    rng = random.Random(seed)
    tree, tuner = make_tuner(seed=seed, phase=rng.uniform(0, 50))
    heap = _Heap(tree, tuner)
    pool = list(tree.root.iter_preorder())
    rng.shuffle(pool)
    queued = []
    while pool or queued:
        can_push = bool(pool)
        if can_push and (not queued or rng.random() < 0.6):
            node = pool.pop()
            heap._push(node)
            queued.append(node)
        else:
            want, want_key = reference_next(tuner, queued)
            assert heap.next_event_time() == want_key
            got = heap._pop_head()
            assert got is want
            queued.remove(got)
            # Consuming the page moves the clock past its slot.
            if rng.random() < 0.7:
                tuner.advance_to(want_key + 1.0)
    assert heap.finished()
    assert heap.max_queue_size >= 1


def test_pop_on_empty_raises():
    tree, tuner = make_tuner()
    with pytest.raises(RuntimeError):
        _Heap(tree, tuner)._pop_head()


def test_peek_empty_is_inf():
    tree, tuner = make_tuner()
    assert _Heap(tree, tuner).next_event_time() == math.inf
    search = BroadcastKNNSearch(tree, tuner, Point(500.0, 500.0), 3)
    search.run_to_completion()
    assert search.finished() and search._drains()
    assert search.next_event_time() == math.inf


def test_peek_matches_scalar_peek_bitwise():
    """The stack's closed-form next arrival equals the scalar tuner peek
    over its queued pages exactly: for a fresh root at several clocks,
    and after each bounded walk of a search stopped part-way."""
    tree, tuner = make_tuner(phase=13.37)
    for t in (0.0, 0.5, 7.0, 100.25, 1234.0):
        tuner.advance_to(t)
        search = BroadcastKNNSearch(tree, tuner, Point(400.0, 600.0), 5)
        assert search.next_event_time() == tuner.peek_index_arrival(
            tree.root.page_id
        )
    stops = 0
    while not search.finished():
        want = min(tuner.peek_index_arrival(rec[1]) for rec in search._stack)
        assert search.next_event_time() == want
        drain(search, want + 3.0)
        stops += 1
    assert stops > 2


def test_max_size_tracks_footprint():
    tree, tuner = make_tuner()
    heap = _Heap(tree, tuner)
    nodes = [n for n in tree.root.iter_preorder()][:5]
    for node in nodes:
        heap._push(node)
    for _ in range(5):
        heap._pop_head()
    assert heap.max_queue_size == 5
    assert heap.finished()
