"""Steppable broadcast window (rectangle) query.

Section 2.2 of the paper uses window queries as the canonical example of
R-tree search; the filter phase's circle query is a special case.  This
class completes the client API with the rectangular variant.

The window never moves, so unlike the NN searches there is nothing delayed
pruning could save: children are filtered against the window **at push
time** (one vectorised intersect mask per expanded node on the kernel
path), which keeps the arrival queue to exactly the nodes that will be
downloaded.  Leaf containment runs as one comparison mask over the leaf's
``points_array()``.  Queue plumbing — head-state caching, batched arrival
refresh and ``max_queue_size`` accounting — comes from
:class:`ArrivalQueueMixin`, shared with every other steppable search.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.broadcast.tuner import ChannelTuner
from repro.client.arrival_queue import ArrivalQueueMixin
from repro.client.drain import WINDOW
from repro.geometry import Point, Rect, kernels
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
        self._init_queue()
        tuner.advance_to(start_time)
        if window.intersects_rect(tree.root.mbr):
            self._push(tree.root)

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
        if kernels.enabled() and node.fanout >= kernels.min_batch_leaf():
            # The elementwise closed comparisons match
            # ``Rect.contains_point`` exactly.
            pts = node.points_array()
            inside = (
                (w.xmin <= pts[:, 0])
                & (pts[:, 0] <= w.xmax)
                & (w.ymin <= pts[:, 1])
                & (pts[:, 1] <= w.ymax)
            )
            self.results.extend(
                node.points[i] for i in np.flatnonzero(inside).tolist()
            )
            return
        self.results.extend(p for p in node.points if w.contains_point(p))

    def _push_intersecting(self, node: RTreeNode) -> None:
        w = self.window
        if kernels.enabled() and node.fanout >= kernels.min_batch():
            mbrs = node.child_mbr_array()
            miss = (
                (mbrs[:, 0] > w.xmax)
                | (mbrs[:, 2] < w.xmin)
                | (mbrs[:, 1] > w.ymax)
                | (mbrs[:, 3] < w.ymin)
            )
            for i in np.flatnonzero(~miss).tolist():
                self._push(node.children[i])
            return
        for child in node.children:
            if w.intersects_rect(child.mbr):
                self._push(child)

    def run_to_completion(self) -> List[Point]:
        self._run_until()
        return self.results
