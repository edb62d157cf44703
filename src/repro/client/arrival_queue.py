"""Arrival-ordered candidate queue shared by every steppable search.

All broadcast searches (NN, kNN, window, range) consume index pages in the
order they fly by, so they share one queue discipline: candidates ordered
by each node's next on-air arrival, popped truly-next under the current
channel clock.  The mixin also tracks the largest queue size reached — the
client's memory footprint (Section 4.2.4 bounds the delayed-pruning queue
by ``(H - 1) x (M - 1)`` MBRs for a DFS-ordered broadcast).

A search holds its queue in one of two forms:

* on a layout with cyclic page order, the walk's stack: the tree's flat
  node records (:func:`~repro.client.drain.walk_table`; one tuple per
  node, ``(xmin, ymin, xmax, ymax, page, kids, backed, points, node)``),
  smallest page on top, seeded with the root's record.
  :func:`~repro.client.drain.drain` pops it in one preorder walk, to
  completion or up to a limit; a bounded stop leaves the unvisited
  records in place, so ``next_event_time``, ``finished``,
  ``max_queue_size``, a Hybrid-NN rescan and a later walk all read the
  same stack;
* the boxed-tuple heap keyed by arrival, with lazy head normalisation —
  the seed implementation and the reference.  Every ``step()`` pops the
  heap: a search's first step moves its stack onto the heap for good, and
  layouts without cyclic page order (distributed indexing, broadcast-disk
  schedules) start there.

Subclasses provide ``self.tuner`` and ``self.tree`` and call
:meth:`_init_queue` once the tuner's clock stands at the search's start.
``run_to_completion`` and the bounded runs of a coupled group go through
:meth:`ArrivalQueueMixin._run_until`: one walk while the search
:meth:`~ArrivalQueueMixin._drains`, else one ``step()`` per queued node.
"""

from __future__ import annotations

import heapq
import itertools
import math
from operator import attrgetter
from typing import List, Optional, Tuple

from repro.broadcast.tuner import ChannelTuner
from repro.client.drain import drain, walk_table
from repro.rtree.node import RTreeNode


class ArrivalQueueMixin:
    """Queue plumbing for searches driven by broadcast arrival order."""

    tuner: ChannelTuner

    def _init_queue(self, root: Optional[RTreeNode]) -> None:
        """Queue ``root`` (``None``: the search is born finished).

        Layouts without cyclic page order (distributed indexing,
        broadcast-disk schedules) give the walk's closed-form arrival
        arithmetic nothing to exploit — the generating BroadcastLayout
        declares the capability and the program mirrors it as
        ``has_cyclic_order`` — so their searches start on the heap.
        """
        channel = getattr(self.tuner, "channel", None)
        program = getattr(channel, "program", None)
        self._queue: List[Tuple[float, int, RTreeNode]] = []
        self._counter = itertools.count()
        #: Cached (clock, head-seq) of the last head normalization, so the
        #: scheduler's next_event_time / step pairs don't re-peek arrivals.
        self._head_state: Optional[Tuple[float, int]] = None
        self._max_queue = 0
        if getattr(program, "has_cyclic_order", False):
            self._phase = channel.phase
            self._cycle = program.super_page_length
            self._stack: Optional[list] = (
                [] if root is None else [walk_table(self.tree)[root.page_id]]
            )
            self._max_queue = len(self._stack)
            return
        self._stack = None
        if root is not None:
            self._push(root)

    @property
    def max_queue_size(self) -> int:
        """Largest queue size reached — the client's memory footprint."""
        return self._max_queue

    def _push(self, node: RTreeNode) -> None:
        """Queue a node on the heap, keyed by its next arrival."""
        arrival = self.tuner.peek_index_arrival(node.page_id)
        heapq.heappush(self._queue, (arrival, next(self._counter), node))
        self._head_state = None
        if len(self._queue) > self._max_queue:
            self._max_queue = len(self._queue)

    def _normalize_head(self) -> None:
        """Refresh stale arrival keys so the head is the true next page.

        Arrivals are computed at push time; by pop time the clock may have
        moved past them, in which case the node's next replica is later.
        Recomputed keys never decrease, so one sift per displaced head
        converges.  The result is cached per (clock, head) state: arrivals
        only go stale when this channel's clock moves or the queue changes,
        both of which invalidate the cache.
        """
        if not self._queue:
            return
        state = (self.tuner.now, self._queue[0][1])
        if state == self._head_state:
            return
        while True:
            arrival, seq, node = self._queue[0]
            true_arrival = self.tuner.peek_index_arrival(node.page_id)
            if true_arrival <= arrival:
                break
            heapq.heapreplace(self._queue, (true_arrival, seq, node))
        self._head_state = (self.tuner.now, self._queue[0][1])

    def _pop_head(self) -> RTreeNode:
        """Normalize, pop and return the truly-next node.

        The first pop of a search on the walk's stack moves the stack's
        nodes onto the heap, ascending, for good: steps run on the heap.
        """
        stack = self._stack
        if stack is not None:
            self._stack = None
            for rec in reversed(stack):
                self._push(rec[8])
        if not self._queue:
            raise RuntimeError("step() on a finished search")
        self._normalize_head()
        _, _, node = heapq.heappop(self._queue)
        self._head_state = None
        return node

    def _queued_nodes(self) -> List[RTreeNode]:
        """The queued nodes in ascending page order (Hybrid-NN's rescan)."""
        if self._stack is not None:
            return [rec[8] for rec in reversed(self._stack)]
        return sorted((e[2] for e in self._queue), key=attrgetter("page_id"))

    # ------------------------------------------------------------------
    # Running to completion
    # ------------------------------------------------------------------
    def _drains(self) -> bool:
        """Whether :func:`~repro.client.drain.drain` runs this search: it
        walks the stack, which only a search that never stepped holds."""
        return self._stack is not None

    def _run_until(self, limit: float = math.inf,
                   strict: bool = False) -> None:
        """Run the search until its next page arrives past ``limit`` (at
        ``limit`` too when ``strict``), or to completion (the default).

        One drain walk when the search :meth:`_drains`, else one
        ``step()`` per queued node — the loop the walk is tested against.
        A coupled group passes the other members' next event here
        (:meth:`~repro.client.scheduler.SearchGroup.run`).
        """
        if self._stack is not None:
            drain(self, limit, strict)
            return
        while not self.finished():
            t = self.next_event_time()
            if t > limit or (strict and t == limit):
                return
            self.step()

    # ------------------------------------------------------------------
    # Introspection for the scheduler
    # ------------------------------------------------------------------
    def finished(self) -> bool:
        stack = self._stack
        return not (self._queue if stack is None else stack)

    def next_event_time(self) -> float:
        """Arrival time of the next page this search would download.

        On the stack that is the top record's page: its queued pages lie
        all at or past the cursor ``ceil(now - phase) % cycle`` or all
        before it (a fresh root), so the smallest comes next
        (:func:`~repro.client.drain.drain` checks it).
        """
        stack = self._stack
        if stack is None:
            self._normalize_head()
            return self._queue[0][0] if self._queue else math.inf
        if not stack:
            return math.inf
        base = math.ceil(self.tuner.now - self._phase)
        page = stack[-1][4]
        return base + (page - base) % self._cycle + self._phase

    @property
    def now(self) -> float:
        return self.tuner.now
