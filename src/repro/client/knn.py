"""Steppable broadcast k-nearest-neighbor search.

Generalises :class:`~repro.client.search.BroadcastNNSearch` to ``k``
answers; the arrival-order queue, delayed pruning and doze-between-pages
accounting are identical.  Not used by the TNN algorithms themselves but
part of the public client API — a broadcast spatial library without kNN
would be incomplete, and the generalised TNN variants of future work
build on it.

Two distances govern the search:

* the **k-th best** (:attr:`BroadcastKNNSearch.bound`): the k-th
  smallest distance offered so far, infinite until ``k`` points have
  been seen.  Offers into the candidate heap admit on it alone;
* the **prune bound** (:attr:`BroadcastKNNSearch.prune_bound`): the
  smaller of the k-th best and the MAXDIST guarantee.  Every point of a
  subtree lies inside its MBR, so a subtree holding at least ``k`` points
  holds ``k`` of them within ``MAXDIST(q, mbr)``; each downloaded
  internal node lowers the guarantee to the smallest MAXDIST among its
  children with ``point_count >= k`` — the kNN analogue of the NN
  search's MINMAXDIST.  A pop prunes on ``MINDIST > prune bound``,
  strictly.  A pruned subtree holds only points farther than ``k`` known
  ones, so the answers are those of a search pruning on the k-th best
  alone, and its downloads a subset of that search's.  The offers keep
  the k-th best: a prune bound below it would drop a point tied at the
  answer's k-th distance.

Queue plumbing comes from :class:`ArrivalQueueMixin`.  On a layout with
cyclic page order the search runs to completion, on a lossless or a
faulty tuner, as one preorder stack walk that absorbs each leaf inline
with the scalar offer loop (:func:`repro.client.drain.drain`) in
:meth:`run_to_completion`, which batches run too; the
walk keeps the guarantee on the search, so a stepped search and a walk
agree bit for bit.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import List, Tuple

from repro.broadcast.tuner import ChannelTuner
from repro.client.arrival_queue import ArrivalQueueMixin
from repro.client.drain import KNN
from repro.geometry import Point, distance
from repro.rtree.node import RTreeNode
from repro.rtree.tree import RTree


class BroadcastKNNSearch(ArrivalQueueMixin):
    """Exact k-NN over one broadcast channel, in arrival order."""

    _DRAIN_KIND = KNN

    def __init__(
        self,
        tree: RTree,
        tuner: ChannelTuner,
        query: Point,
        k: int,
        start_time: float = 0.0,
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.tree = tree
        self.tuner = tuner
        self.query = query
        self.k = k
        #: Max-heap (negated distances) of the best k candidates so far.
        self._best: List[Tuple[float, int, Point]] = []
        self._offer_seq = itertools.count()
        #: The MAXDIST guarantee: ``k`` points lie within this distance
        #: (inf until a downloaded node has a child holding ``k`` points).
        self._guarantee = math.inf
        tuner.advance_to(start_time)
        self._init_queue(tree.root)

    # ------------------------------------------------------------------
    @property
    def bound(self) -> float:
        """The k-th best candidate distance (inf until k candidates seen).

        Offers into the candidate heap admit on it alone; pops prune on
        :attr:`prune_bound`.
        """
        if len(self._best) < self.k:
            return math.inf
        return -self._best[0][0]

    @property
    def prune_bound(self) -> float:
        """The smaller of the k-th best and the MAXDIST guarantee."""
        return min(self.bound, self._guarantee)

    def _offer(self, pt: Point) -> None:
        """Offer a candidate point; it enters on the k-th best alone."""
        d = distance(self.query, pt)
        entry = (-d, next(self._offer_seq), pt)
        if len(self._best) < self.k:
            heapq.heappush(self._best, entry)
        elif d < self.bound:
            heapq.heapreplace(self._best, entry)

    # ------------------------------------------------------------------
    def step(self) -> None:
        node = self._pop_head()
        if node.mbr.mindist(self.query) > self.prune_bound:
            return
        self.tuner.download_index_page(node.page_id)
        if node.is_leaf:
            self._absorb_leaf(node)
        else:
            self._push_children(node)

    def _push_children(self, node: RTreeNode) -> None:
        """Queue a whole fan-out and lower the guarantee to the smallest
        MAXDIST among the children holding ``k`` points."""
        g = self._guarantee
        for child in node.children:
            if child.point_count >= self.k:
                z = child.mbr.maxdist(self.query)
                if z < g:
                    g = z
        self._guarantee = g
        for child in node.children:
            self._push(child)

    def _absorb_leaf(self, node: RTreeNode) -> None:
        for pt in node.points:
            self._offer(pt)

    def run_to_completion(self) -> List[Tuple[Point, float]]:
        self._run_until()
        return self.results()

    def results(self) -> List[Tuple[Point, float]]:
        """The (up to) k nearest points, ascending by (distance, offer order).

        The offer-order tiebreak makes the listing independent of the
        binary heap's internal layout.
        """
        ordered = sorted(self._best, key=lambda e: (-e[0], e[1]))
        return [(pt, -negd) for negd, _, pt in ordered]
