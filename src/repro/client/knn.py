"""Steppable broadcast k-nearest-neighbor search.

Generalises :class:`~repro.client.search.BroadcastNNSearch` to ``k``
answers: the pruning bound is the k-th best candidate distance, everything
else (arrival-order queue, delayed pruning, doze-between-pages accounting)
is identical.  Not used by the TNN algorithms themselves but part of the
public client API — a broadcast spatial library without kNN would be
incomplete, and the generalised TNN variants of future work build on it.

Queue plumbing comes from the shared arrival frontier; on the kernel
path, leaf absorption evaluates every leaf point in one
:func:`kernels.point_dists` call and pre-filters the candidate heap
offers with ``np.partition``.  The scalar per-point loop stays as the
bit-identical oracle (``kernels.use_kernels(False)``).  A frontier-backed
kNN search, on a lossless or a faulty tuner, runs to completion as one
preorder stack walk that absorbs each leaf inline with that scalar loop
(:func:`repro.client.drain.drain`) in :meth:`run_to_completion`, which
the shared-scan executor runs too.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import List, Tuple

import numpy as np

from repro.broadcast.tuner import ChannelTuner
from repro.client.arrival_queue import ArrivalQueueMixin
from repro.client.drain import KNN
from repro.geometry import Point, distance, kernels
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
        self._init_queue()
        tuner.advance_to(start_time)
        self._push(tree.root)

    # ------------------------------------------------------------------
    @property
    def bound(self) -> float:
        """The k-th best candidate distance (inf until k candidates seen)."""
        if len(self._best) < self.k:
            return math.inf
        return -self._best[0][0]

    def _offer(self, pt: Point) -> None:
        self._offer_known(pt, distance(self.query, pt))

    def _offer_known(self, pt: Point, d: float) -> None:
        """Offer a candidate whose distance is already evaluated."""
        entry = (-d, next(self._offer_seq), pt)
        if len(self._best) < self.k:
            heapq.heappush(self._best, entry)
        elif d < self.bound:
            heapq.heapreplace(self._best, entry)

    # ------------------------------------------------------------------
    def step(self) -> None:
        node = self._pop_head()
        if node.mbr.mindist(self.query) > self.bound:
            return
        self.tuner.download_index_page(node.page_id)
        if node.is_leaf:
            self._absorb_leaf(node)
        else:
            self._push_children(node)

    def _push_children(self, node: RTreeNode) -> None:
        """Queue a whole fan-out (kNN pushes without pre-computed bounds).

        The frontier backend takes the whole sibling run in one sorted
        splice; the oracle heap keeps its per-entry pushes.
        """
        if self._frontier is not None:
            self._frontier.push_many(node.children, src=node)
        else:
            for child in node.children:
                self._push(child)

    def _absorb_leaf(self, node: RTreeNode) -> None:
        if not (
            kernels.enabled() and node.fanout >= kernels.min_batch_leaf()
        ):
            for pt in node.points:
                self._offer(pt)
            return
        # One kernel call covers the whole leaf; each element is
        # bit-identical to math.hypot, so replaying the offer loop on the
        # precomputed distances reproduces the scalar heap exactly.
        d = kernels.point_dists(self.query, node.points_array())
        if len(self._best) < self.k:
            for i, pt in enumerate(node.points):
                self._offer_known(pt, float(d[i]))
            return
        idx = np.flatnonzero(d < self.bound)
        if idx.size == 0:
            return
        if idx.size > self.k:
            # Only candidates at or below the k-th smallest candidate
            # distance can survive; points beyond it either never enter
            # the heap or are evicted before the leaf is fully absorbed,
            # and dropping them does not disturb which (or in what
            # relative offer order) the survivors are offered.  Ties at
            # the cut are kept, so this is a superset of any k-smallest.
            v = np.partition(d[idx], self.k - 1)[self.k - 1]
            idx = idx[d[idx] <= v]
        for i in idx.tolist():
            self._offer_known(node.points[i], float(d[i]))

    def run_to_completion(self) -> List[Tuple[Point, float]]:
        self._run_until()
        return self.results()

    def results(self) -> List[Tuple[Point, float]]:
        """The (up to) k nearest points, ascending by (distance, offer order).

        The offer-order tiebreak makes the listing independent of the
        binary heap's internal layout, which the kernel path's candidate
        pre-filter is allowed to perturb (it skips offers that provably
        cannot survive, without renumbering the survivors).
        """
        ordered = sorted(self._best, key=lambda e: (-e[0], e[1]))
        return [(pt, -negd) for negd, _, pt in ordered]
