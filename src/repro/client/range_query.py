"""Steppable broadcast range (circle) query — the filter phase workhorse."""

from __future__ import annotations

from typing import List

from repro.broadcast.tuner import ChannelTuner
from repro.client.arrival_queue import ArrivalQueueMixin
from repro.client.drain import RANGE
from repro.geometry import Circle, Point
from repro.rtree.node import RTreeNode
from repro.rtree.tree import RTree


class BroadcastRangeSearch(ArrivalQueueMixin):
    """Collects every indexed point inside a circle from a broadcast channel.

    Like :class:`BroadcastNNSearch`, the traversal consumes index pages in
    arrival order: nodes intersecting the circle are downloaded, the rest
    are skipped for free.  Queue plumbing comes from
    :class:`ArrivalQueueMixin`: on a layout with cyclic page order the
    search runs to completion as one walk
    (:func:`repro.client.drain.drain`).
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
        tuner.advance_to(start_time)
        self._init_queue(tree.root)

    def step(self) -> None:
        """Process one queued node."""
        node = self._pop_head()
        if not self.circle.intersects_rect(node.mbr):
            return  # skipped for free: never downloaded
        self.tuner.download_index_page(node.page_id)
        if node.is_leaf:
            self._absorb_leaf(node)
        else:
            for child in node.children:
                self._push(child)

    def _absorb_leaf(self, node: RTreeNode) -> None:
        self.results.extend(
            p for p in node.points if self.circle.contains_point(p)
        )

    def run_to_completion(self) -> List[Point]:
        self._run_until()
        return self.results
