"""Steppable broadcast nearest-neighbor search.

The search engine behind the estimate phase of every TNN algorithm.  Its
queue is a priority queue keyed by *arrival time* on the broadcast channel,
so pages are consumed in the order they fly by and backtracking never
happens (Section 2.2).  Children of a visited node are pushed **without**
pruning; all pruning happens when a node is popped (delayed pruning,
Section 4.2.4), which is what allows Hybrid-NN to change the query point or
the distance metric mid-search without having discarded the subtree that
the *new* query needs.

Two modes exist:

* ``SearchMode.POINT`` — classic NN to a query point ``q``; prunes with
  MinDist, tightens the upper bound with MinMaxDist (internal nodes) and
  real point distances (leaves).
* ``SearchMode.TRANSITIVE`` — Hybrid-NN Case 3; finds the ``s`` minimising
  ``dis(p,s)+dis(s,r)``, pruning with MinTransDist and tightening with
  MinMaxTransDist (Algorithm 2 of the paper).

A search on a layout with cyclic page order runs alone to the end, or up
to a limit, as one preorder stack walk
(:func:`repro.client.drain.drain`), under any policy and in either
metric: :meth:`~BroadcastNNSearch.run_to_completion` and the bounded runs
of Hybrid-NN's pair skip the per-step dispatch.  The walk settles its
transitive pops on certified bounds (see
:func:`~repro.client.drain.weak_trans_lower` /
:func:`~repro.client.drain.certified_keep`: deflated under-estimates
prove prunes, inflated over-estimates prove keeps, and only the
rounding-margin band between them pays for the exact metric), and asks
a pruning policy about each kept entry after that.  Each decision is the
step loop's while the distances are not tiny against the coordinates:
within a few coordinate ulp of a side the scalar Lemma 1 over-estimates,
and a certified keep there can keep what the step prunes (pinned by the
strict xfail ``test_scalar_lemma1_reflection_rounds_at_coordinate_ulp``
in ``tests/test_drain_certification.py``).  A Hybrid-NN mode switch
rescans the queue for the new metric's guarantee only
(:meth:`_rescan_queue_bounds`), in ascending page order.

:meth:`~BroadcastNNSearch.step` advances one queued node and is what a
scheduler interleaving several channels calls.  Steps run on the
arrival heap with the scalar metrics — the seed implementation and the
reference the walk is tested against; a search's first step moves its
stack onto the heap for good.
"""

from __future__ import annotations

import enum
import math
from typing import Optional, Tuple

from repro.broadcast.tuner import ChannelTuner
from repro.client.arrival_queue import ArrivalQueueMixin
from repro.client.drain import NN, corner_minmax_trans, weak_trans_lower
from repro.client.policies import ExactPolicy, PruneContext, PruningPolicy
from repro.geometry import Point, distance, min_max_trans_dist, min_trans_dist
from repro.rtree.node import RTreeNode
from repro.rtree.tree import RTree


class SearchMode(enum.Enum):
    """What the search minimises."""

    POINT = "point"
    TRANSITIVE = "transitive"


class BroadcastNNSearch(ArrivalQueueMixin):
    """One NN search over one broadcast channel, advanced step by step."""

    _DRAIN_KIND = NN

    def __init__(
        self,
        tree: RTree,
        tuner: ChannelTuner,
        query: Point,
        policy: PruningPolicy | None = None,
        start_time: float = 0.0,
    ) -> None:
        self.tree = tree
        self.tuner = tuner
        self.policy = policy or ExactPolicy()
        #: Trivial policies never prune, so the hot loop skips building
        #: their PruneContext entirely.
        self._policy_trivial = getattr(self.policy, "trivial", False)
        self.mode = SearchMode.POINT
        self.query: Optional[Point] = query
        self.start: Optional[Point] = None
        self.end: Optional[Point] = None

        self.upper_bound = math.inf
        self.best_point: Optional[Point] = None
        self.best_dist = math.inf
        #: page_id of the node currently witnessing the upper bound, if the
        #: bound comes from a MinMaxDist-style guarantee rather than a point.
        self._witness_page: Optional[int] = None

        tuner.advance_to(start_time)
        self._init_queue(tree.root)

    # ------------------------------------------------------------------
    # Distance metrics for the current mode
    # ------------------------------------------------------------------
    def _lower_bound(self, node: RTreeNode) -> float:
        if self.mode is SearchMode.POINT:
            return node.mbr.mindist(self.query)
        return min_trans_dist(self.start, node.mbr, self.end)

    def _guaranteed_bound(self, node: RTreeNode) -> float:
        if self.mode is SearchMode.POINT:
            return node.mbr.minmaxdist(self.query)
        return min_max_trans_dist(self.start, node.mbr, self.end)

    def _point_dist(self, pt: Point) -> float:
        if self.mode is SearchMode.POINT:
            return distance(self.query, pt)
        return distance(self.start, pt) + distance(pt, self.end)

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Process one queued node (prune it or download and expand it)."""
        node = self._pop_head()
        if self._lower_bound(node) > self.upper_bound:
            return  # exact pruning: provably cannot improve the answer
        if not self._policy_trivial and self.policy.should_prune(
            self._prune_context(node)
        ):
            return  # ANN pruning: unlikely to improve the answer

        self.tuner.download_index_page(node.page_id)
        if node.is_leaf:
            self._absorb_leaf(node)
        else:
            self._absorb_internal(node)

    def run_to_completion(self) -> None:
        self._run_until()

    def _prune_context(self, node: RTreeNode) -> PruneContext:
        return PruneContext(
            mbr=node.mbr,
            depth=self.tree.depth_of(node),
            tree_height=self.tree.height,
            upper_bound=self.upper_bound,
            query=self.query if self.mode is SearchMode.POINT else None,
            start=self.start,
            end=self.end,
            is_bound_witness=(node.page_id == self._witness_page),
            point_count=node.point_count,
        )

    def _absorb_leaf(self, node: RTreeNode) -> None:
        for pt in node.points:
            d = self._point_dist(pt)
            if d < self.best_dist:
                self.best_dist = d
                self.best_point = pt
        if self.best_dist < self.upper_bound:
            self.upper_bound = self.best_dist
            self._witness_page = None  # a concrete point witnesses the bound

    def _absorb_internal(self, node: RTreeNode) -> None:
        was_witness = node.page_id == self._witness_page
        best_child = None
        best_guarantee = math.inf
        for child in node.children:
            self._push(child)  # delayed pruning: push everything
            if child.point_count <= 0:
                # Empty subtree (degenerate packing): its MinMaxDist-style
                # guarantee promises a point that does not exist — taking
                # it would corrupt the upper bound and exact-prune the
                # subtrees holding the real answer.
                continue
            z = self._guaranteed_bound(child)
            if z < best_guarantee:
                best_guarantee = z
                best_child = child
        if best_child is None:
            # Every child subtree is empty (or the node is childless): no
            # guarantee to inherit.  If this node witnessed the bound, its
            # guarantee was void — rebuild from the best concrete point
            # and the surviving queue instead of crashing on the hand-off.
            if was_witness:
                self.upper_bound = self.best_dist
                self._witness_page = None
                self._rescan_queue_bounds()
            return
        if best_guarantee < self.upper_bound:
            self.upper_bound = best_guarantee
            self._witness_page = best_child.page_id
        elif was_witness and self._witness_page == node.page_id:
            # The downloaded node carried the bound's guarantee; hand the
            # witness role to the child that inherits it so ANN pruning can
            # never orphan the upper bound.
            self._witness_page = best_child.page_id

    # ------------------------------------------------------------------
    # Hybrid-NN mutations
    # ------------------------------------------------------------------
    def retarget(self, new_query: Point) -> None:
        """Case 2: replace the query point, keeping the remaining queue.

        The old best point (found w.r.t. the previous query) seeds the new
        upper bound after re-evaluation, and every queued MBR's MinMaxDist
        is scanned for an even tighter initial bound — the paper's "initial
        upper bound update".
        """
        if self.mode is not SearchMode.POINT:
            raise RuntimeError("retarget() only applies to point mode")
        self.query = new_query
        if self.best_point is not None:
            self.best_dist = distance(new_query, self.best_point)
        else:
            self.best_dist = math.inf
        self.upper_bound = self.best_dist
        self._witness_page = None
        self._rescan_queue_bounds()

    def switch_to_transitive(self, start: Point, end: Point) -> None:
        """Case 3: minimise ``dis(start, s) + dis(s, end)`` from here on."""
        if self.mode is SearchMode.TRANSITIVE:
            raise RuntimeError("search is already in transitive mode")
        self.mode = SearchMode.TRANSITIVE
        self.start = start
        self.end = end
        self.query = None
        if self.best_point is not None:
            self.best_dist = distance(start, self.best_point) + distance(
                self.best_point, end
            )
        else:
            self.best_dist = math.inf
        self.upper_bound = self.best_dist
        self._witness_page = None
        self._rescan_queue_bounds()

    def _rescan_queue_bounds(self) -> None:
        """Initial upper-bound update over every queued MBR (Section 4.2.3),
        in ascending page order.

        Guarantees only: each pop evaluates its own lower bound.  The
        transitive guarantee is :func:`corner_minmax_trans`, bit-identical
        to ``min_max_trans_dist``, behind the weak bound that proves it
        cannot beat the bound.
        """
        nodes = self._queued_nodes()
        point = self.mode is SearchMode.POINT
        q, p, r = self.query, self.start, self.end
        for node in nodes:
            if node.point_count <= 0:
                continue  # empty subtree: no point backs its guarantee
            mbr = node.mbr
            if point:
                z = mbr.minmaxdist(q)
            elif weak_trans_lower(p, mbr, r) >= self.upper_bound:
                continue
            else:
                z = corner_minmax_trans(p, mbr, r)
            if z < self.upper_bound:
                self.upper_bound = z
                self._witness_page = node.page_id

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def result(self) -> Tuple[Point, float]:
        """The best point found and its distance under the current mode."""
        if self.best_point is None:
            raise RuntimeError("search finished without finding any point")
        return self.best_point, self.best_dist
