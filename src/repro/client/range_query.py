"""Steppable broadcast range (circle) query — the filter phase workhorse."""

from __future__ import annotations

from typing import List

import numpy as np

from repro.broadcast.tuner import ChannelTuner
from repro.client.arrival_queue import ArrivalQueueMixin
from repro.client.drain import RANGE
from repro.geometry import Circle, Point, kernels
from repro.rtree.node import RTreeNode
from repro.rtree.tree import RTree


class BroadcastRangeSearch(ArrivalQueueMixin):
    """Collects every indexed point inside a circle from a broadcast channel.

    Like :class:`BroadcastNNSearch`, the traversal consumes index pages in
    arrival order: nodes intersecting the circle are downloaded, the rest
    are skipped for free.  Queue plumbing comes from the shared arrival
    frontier; on the kernel path, leaf containment runs as one
    :func:`kernels.point_dists` call over the leaf's ``points_array()``
    (circle containment is exactly ``dis(center, p) <= radius``).
    """

    _DRAIN_KIND = RANGE

    def __init__(
        self,
        tree: RTree,
        tuner: ChannelTuner,
        circle: Circle,
        start_time: float = 0.0,
    ) -> None:
        if not circle.radius >= 0.0:
            raise ValueError(
                f"radius must be a number >= 0, got {circle.radius}"
            )
        self.tree = tree
        self.tuner = tuner
        self.circle = circle
        self.results: List[Point] = []
        self._init_queue()
        tuner.advance_to(start_time)
        self._push(tree.root)

    def step(self) -> None:
        """Process one queued node."""
        node = self._pop_head()
        if not self.circle.intersects_rect(node.mbr):
            return  # skipped for free: never downloaded
        self.tuner.download_index_page(node.page_id)
        if node.is_leaf:
            self._absorb_leaf(node)
        else:
            self._push_children(node)

    def _push_children(self, node: RTreeNode) -> None:
        """Queue a whole fan-out (range pushes without pre-computed bounds).

        The frontier backend takes the whole sibling run in one sorted
        splice; the oracle heap keeps its per-entry pushes.
        """
        if self._frontier is not None:
            self._frontier.push_many(node.children, src=node)
        else:
            for child in node.children:
                self._push(child)

    def _absorb_leaf(self, node: RTreeNode) -> None:
        if kernels.enabled() and node.fanout >= kernels.min_batch_leaf():
            # Containment is exactly ``dis(center, p) <= radius`` in leaf
            # order, like the scalar loop.
            d = kernels.point_dists(self.circle.center, node.points_array())
            self.results.extend(
                node.points[i]
                for i in np.flatnonzero(d <= self.circle.radius).tolist()
            )
            return
        self.results.extend(
            p for p in node.points if self.circle.contains_point(p)
        )

    def run_to_completion(self) -> List[Point]:
        self._run_until()
        return self.results
