"""Arrival-ordered candidate queue shared by every steppable search.

All broadcast searches (NN, kNN, window, range) consume index pages in the
order they fly by, so they share one queue discipline: candidates ordered
by each node's next on-air arrival, popped truly-next under the current
channel clock.  The mixin also tracks the largest queue size reached — the
client's memory footprint (Section 4.2.4 bounds the delayed-pruning queue
by ``(H - 1) x (M - 1)`` MBRs for a DFS-ordered broadcast).

Two interchangeable backends produce bit-identical pop orders:

* the struct-of-arrays :class:`~repro.client.frontier.ArrivalFrontier`
  (kernel path) — arrivals refreshed per arrival tick in one batched call,
  lower bounds evaluated lazily in queue-wide kernel batches;
* the original boxed-tuple heap with lazy head normalisation (scalar
  oracle, selected by ``kernels.use_kernels(False)`` /
  ``REPRO_NO_KERNELS=1``) — arrivals are computed at push time and stale
  heads are refreshed one sift at a time, with the result cached per
  (clock, head) state.

Subclasses provide ``self.tuner`` and call :meth:`_init_queue` before the
first :meth:`_push`.

Pops go through the queue one at a time only while the search steps.  A
frontier-backed search run alone (``run_to_completion`` and the bounded
runs of Hybrid-NN's pair, both through :meth:`ArrivalQueueMixin._run_until`
wherever :meth:`ArrivalQueueMixin._drains` holds: every kNN, range and
window search, and NN searches under a trivial policy in either metric,
on the per-query path and in the shared-scan executor alike) reads the
frontier's queued pages once and walks them as one stack of the tree's
flat node records (:func:`repro.client.drain.drain`), leaving the
frontier empty — or, stopped at a limit, holding the unvisited entries
again.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import List, Optional, Tuple

from repro.broadcast.tuner import ChannelTuner
from repro.client.drain import drain
from repro.client.frontier import ArrivalFrontier
from repro.geometry import kernels
from repro.rtree.node import RTreeNode


class ArrivalQueueMixin:
    """Queue plumbing for searches driven by broadcast arrival order."""

    tuner: ChannelTuner

    def _init_queue(self) -> None:
        #: Backend choice is fixed per search: a search constructed under
        #: ``use_kernels(False)`` stays on the oracle heap for its
        #: lifetime, and layouts without cyclic page order (distributed
        #: indexing, broadcast-disk schedules) give the frontier's
        #: closed-form arrival arithmetic nothing to exploit — the
        #: generating BroadcastLayout declares the capability and the
        #: program mirrors it as ``has_cyclic_order``.
        use_frontier = kernels.enabled() and getattr(
            getattr(getattr(self.tuner, "channel", None), "program", None),
            "has_cyclic_order",
            False,
        )
        self._heap_max = 0
        if use_frontier:
            frontier = ArrivalFrontier(self.tuner)
            self._frontier: Optional[ArrivalFrontier] = frontier
            # Flatten the dispatch for the hot loop: the frontier's own
            # bound methods replace the mixin's forwarding wrappers.
            self._push = frontier.push
            self._pop_head_bound = frontier.pop
            self.next_event_time = frontier.peek_arrival
            self.finished = frontier.finished
            return
        self._frontier = None
        self._counter = itertools.count()
        self._queue: List[Tuple[float, int, RTreeNode]] = []
        #: Cached (clock, head-seq) of the last head normalization, so the
        #: scheduler's next_event_time / step pairs don't re-peek arrivals.
        self._head_state: Optional[Tuple[float, int]] = None

    @property
    def max_queue_size(self) -> int:
        """Largest queue size reached — the client's memory footprint."""
        f = self._frontier
        if f is not None:
            return f.max_size
        return self._heap_max

    def _push(
        self,
        node: RTreeNode,
        lb: Optional[float] = None,
        epoch: int = -1,
        weak: bool = False,
    ) -> None:
        """Queue a node; ``lb`` pre-caches its lower bound under ``epoch``.

        The heap backend ignores the bound hint — its callers cache bounds
        in the search's page-id dict instead.
        """
        if self._frontier is not None:
            # Only reachable when a subclass calls the unbound method; the
            # instance attribute set in _init_queue normally shadows it.
            self._frontier.push(node, lb, epoch, weak)
            return
        arrival = self.tuner.peek_index_arrival(node.page_id)
        heapq.heappush(self._queue, (arrival, next(self._counter), node))
        self._head_state = None
        if len(self._queue) > self._heap_max:
            self._heap_max = len(self._queue)

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
        """Normalize, pop and return the truly-next node."""
        node, _, _ = self._pop_head_bound()
        return node

    def _pop_head_bound(
        self, epoch: int = -1
    ) -> Tuple[RTreeNode, Optional[float], bool]:
        """Pop the truly-next node plus its cached/batched lower bound.

        The bound is ``None`` when this backend does not manage bounds (the
        oracle heap) or when the frontier's pending-unevaluated set is too
        small for a worthwhile kernel batch — the caller then evaluates the
        single bound scalar, which is bit-identical either way.  The third
        element flags a *weak* bound: a certified under-estimate that can
        prove a prune but must be verified before a keep.
        """
        if self._frontier is not None:
            return self._frontier.pop(epoch)
        if not self._queue:
            raise RuntimeError("step() on a finished search")
        self._normalize_head()
        _, _, node = heapq.heappop(self._queue)
        self._head_state = None
        return node, None, False

    # ------------------------------------------------------------------
    # Running to completion
    # ------------------------------------------------------------------
    def _drains(self) -> bool:
        """Whether :func:`~repro.client.drain.drain` can run this search:
        it walks the frontier backend's queue."""
        return self._frontier is not None

    def _run_until(self, limit: float = math.inf,
                   strict: bool = False) -> None:
        """Run the search until its next page arrives past ``limit`` (at
        ``limit`` too when ``strict``), or to completion (the default).

        One drain walk when the search :meth:`_drains`, else one
        ``step()`` per queued node — the loop the walk is tested against.
        A two-member driver passes each member's sibling's next event
        here (:meth:`~repro.client.scheduler.SearchGroup.run`).
        """
        if self._drains():
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
        if self._frontier is not None:
            return self._frontier.finished()
        return not self._queue

    def next_event_time(self) -> float:
        """Arrival time of the next page this search would download."""
        if self._frontier is not None:
            return self._frontier.peek_arrival()
        self._normalize_head()
        return self._queue[0][0] if self._queue else math.inf

    @property
    def now(self) -> float:
        return self.tuner.now
