"""Steppable broadcast window (rectangle) query.

Section 2.2 of the paper uses window queries as the canonical example of
R-tree search; the filter phase's circle query is a special case.  This
class completes the client API with the rectangular variant.

The window never moves, so unlike the NN searches there is nothing delayed
pruning could save: children are filtered against the window **at push
time**, which keeps the arrival queue to exactly the nodes that will be
downloaded.  Queue plumbing — the walk's stack on a layout with cyclic
page order (:func:`repro.client.drain.drain`), the arrival heap for
steps, and ``max_queue_size`` accounting — comes from
:class:`ArrivalQueueMixin`, shared with every other steppable search.
"""

from __future__ import annotations

from typing import List

from repro.broadcast.tuner import ChannelTuner
from repro.client.arrival_queue import ArrivalQueueMixin
from repro.client.drain import WINDOW
from repro.geometry import Point, Rect
from repro.rtree.node import RTreeNode
from repro.rtree.tree import RTree


class BroadcastWindowSearch(ArrivalQueueMixin):
    """Collects every indexed point inside a closed rectangle."""

    _DRAIN_KIND = WINDOW

    def __init__(
        self,
        tree: RTree,
        tuner: ChannelTuner,
        window: Rect,
        start_time: float = 0.0,
    ) -> None:
        self.tree = tree
        self.tuner = tuner
        self.window = window
        self.results: List[Point] = []
        tuner.advance_to(start_time)
        self._init_queue(
            tree.root if window.intersects_rect(tree.root.mbr) else None
        )

    def step(self) -> None:
        """Download and absorb one queued (intersecting) node."""
        node = self._pop_head()
        self.tuner.download_index_page(node.page_id)
        if node.is_leaf:
            self._absorb_leaf(node)
        else:
            self._push_intersecting(node)

    def _absorb_leaf(self, node: RTreeNode) -> None:
        w = self.window
        self.results.extend(p for p in node.points if w.contains_point(p))

    def _push_intersecting(self, node: RTreeNode) -> None:
        w = self.window
        for child in node.children:
            if w.intersects_rect(child.mbr):
                self._push(child)

    def run_to_completion(self) -> List[Point]:
        self._run_until()
        return self.results
