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

On the kernel path the queue is the struct-of-arrays arrival frontier
(:mod:`repro.client.frontier`): bounds are pre-cached next to the queue
entries — fused whole-fan-out kernel calls above the dispatch floor,
certified cheap estimates below it (see
:func:`~repro.client.drain.weak_trans_lower` /
:func:`~repro.client.drain.certified_keep`: deflated under-estimates prove
prunes, inflated over-estimates prove keeps, and only the rounding-margin
band between them ever pays for the exact metric) — and Hybrid-NN mode
switches re-evaluate the whole queue in one kernel batch
(:meth:`_rescan_queue_bounds`).  Every
decision is certified identical to the scalar oracle
(``kernels.use_kernels(False)``), which remains the seed implementation.

:meth:`~BroadcastNNSearch.step` advances one queued node and is what a
scheduler interleaving several channels calls.  A search run alone to the
end — a search under a trivial policy on the frontier, in either mode —
skips the per-step dispatch: :meth:`~BroadcastNNSearch.run_to_completion`
runs :func:`repro.client.drain.drain`, one preorder stack walk over the
queue that replays the step loop's pop-time cascade and absorbs in both
metrics, bit-identical to the step loop, which stays the reference.
"""

from __future__ import annotations

import enum
import math
from typing import Dict, Optional, Tuple

import numpy as np

from repro.broadcast.tuner import ChannelTuner
from repro.client.arrival_queue import ArrivalQueueMixin
from repro.client.drain import (
    NN,
    _CERT_DEFLATE,
    certified_keep,
    corner_minmax_trans,
    weak_trans_lower,
)
from repro.client.policies import ExactPolicy, PruneContext, PruningPolicy
from repro.geometry import Point, distance, min_max_trans_dist, min_trans_dist
from repro.geometry import kernels
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
        #: Lower bounds precomputed in batch when a node's parent was
        #: expanded, keyed by page_id and stamped with the metric epoch —
        #: Hybrid-NN mode switches invalidate them wholesale by bumping the
        #: epoch instead of touching every entry.
        self._lb_cache: Dict[int, Tuple[int, float]] = {}
        self._metric_epoch = 0

        self._init_queue()
        tuner.advance_to(start_time)
        self._push(tree.root)

    # ------------------------------------------------------------------
    # Distance metrics for the current mode
    # ------------------------------------------------------------------
    def _lower_bound(self, node: RTreeNode) -> float:
        cached = self._lb_cache.get(node.page_id)
        if cached is not None and cached[0] == self._metric_epoch:
            return cached[1]
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

    def _batch_lower_eval(self, mbrs: np.ndarray) -> np.ndarray:
        """Frontier hook: transitive lower bounds for a whole MBR batch.

        Installed only in transitive mode: Lemma 1 costs ~25 scalar side
        tests per MBR, so one queue-wide kernel call wins from two lanes
        up.  The point metric stays scalar at pop time — it is a single
        C-level ``math.hypot``, which the exact vectorised hypot cannot
        beat below ~100 lanes regardless of the batching axis.
        """
        return kernels.min_trans_dist(self.start, mbrs, self.end)

    def _batch_threshold(self, leaf: bool) -> int:
        """Smallest batch worth a kernel call under the current metric.

        Point-mode kernels compete with one C-level ``math.hypot`` per
        element; the transitive kernels amortise Lemma 1-3's ~25 scalar
        side tests per MBR, so their thresholds differ per mode.
        """
        if self.mode is SearchMode.POINT:
            return kernels.min_batch_point()
        return kernels.min_batch_leaf() if leaf else kernels.min_batch()

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Process one queued node (prune it or download and expand it)."""
        node, lb, weak = self._pop_head_bound(self._metric_epoch)
        if not self._decide_keep(node, lb, weak):
            return

        self.tuner.download_index_page(node.page_id)
        if node.is_leaf:
            self._absorb_leaf(node)
        else:
            self._absorb_internal(node)

    def _decide_keep(
        self, node: RTreeNode, lb: Optional[float], weak: bool
    ) -> bool:
        """The pop-time pruning decision for one dequeued node."""
        if lb is None:
            if self._frontier is not None and self.mode is SearchMode.POINT:
                # Frontier bounds live in the frontier lanes, so a miss
                # here never has a dict entry either — go straight to the
                # one-hypot metric.
                lb = node.mbr.mindist(self.query)
            else:
                lb = self._lower_bound(node)
            weak = False

        if lb > self.upper_bound:
            return False  # exact pruning: provably cannot improve the answer
        if weak:
            # The weak bound could not prove the prune; certify the keep or
            # fall back to the exact metric for the borderline entries.
            if self.mode is SearchMode.POINT:
                # A weak point bound: MINDIST is one hypot, so the exact
                # test *is* the cheap resolution.
                if node.mbr.mindist(self.query) > self.upper_bound:
                    return False
            elif not certified_keep(
                self.start, node.mbr, self.end, self.upper_bound
            ):
                if self._lower_bound(node) > self.upper_bound:
                    return False
        if not self._policy_trivial and self.policy.should_prune(
            self._prune_context(node)
        ):
            return False  # ANN pruning: unlikely to improve the answer
        return True

    def run_to_completion(self) -> None:
        self._run_until()

    def _drains(self) -> bool:
        """The drain walks searches under a trivial policy on the
        frontier, in either metric; pruning policies step."""
        return self._frontier is not None and self._policy_trivial

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
        if kernels.enabled() and node.fanout >= self._batch_threshold(leaf=True):
            pts = node.points_array()
            if self.mode is SearchMode.POINT:
                dists = kernels.point_dists(self.query, pts)
            else:
                dists = kernels.trans_dists(self.start, pts, self.end)
            i = int(np.argmin(dists))
            d = float(dists[i])
            if d < self.best_dist:
                self.best_dist = d
                self.best_point = node.points[i]
        else:
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
        if kernels.enabled() and node.fanout >= self._batch_threshold(leaf=False):
            # One kernel pass over the whole fan-out: push every child with
            # its precomputed (cached) lower bound, then inherit the best
            # backed MinMaxDist-style guarantee via a masked argmin.
            mbrs = node.child_mbr_array()
            if self.mode is SearchMode.POINT:
                lower, guaranteed = kernels.point_bounds(self.query, mbrs)
            else:
                lower, guaranteed = kernels.trans_bounds(
                    self.start, mbrs, self.end
                )
            epoch = self._metric_epoch
            if self._frontier is not None:
                # delayed pruning: push everything, bounds pre-cached
                self._frontier.push_many(
                    node.children, lower, epoch, src=node
                )
            else:
                for child, lb in zip(node.children, lower.tolist()):
                    self._push(child)  # delayed pruning: push everything
                    self._lb_cache[child.page_id] = (epoch, lb)
            backed = np.where(
                node.child_count_array() > 0, guaranteed, math.inf
            )
            i = int(np.argmin(backed))
            if math.isfinite(backed[i]):
                best_guarantee = float(backed[i])
                best_child = node.children[i]
        elif self._frontier is not None:
            # Small fan-out on the frontier: cache a cheap certified lower
            # bound per child next to the queue entry, and let it also skip
            # guarantee evaluations that provably cannot tighten the best
            # (the guarantee always dominates the lower bound:
            # MinMaxDist >= MinDist, MinMaxTransDist >= MinTransDist).
            children = node.children
            epoch = self._metric_epoch
            if self.mode is SearchMode.POINT:
                # The exact one-hypot MinDist doubles as the pop-time
                # bound, so the pop never recomputes it.
                q = self.query
                lbs = [child.mbr.mindist(q) for child in children]
                self._frontier.push_many(children, lbs, epoch, src=node)
                for k, child in enumerate(children):
                    if child.point_count <= 0:
                        continue  # empty subtree: nothing backs a guarantee
                    if lbs[k] * _CERT_DEFLATE >= best_guarantee:
                        continue
                    z = child.mbr.minmaxdist(q)
                    if z < best_guarantee:
                        best_guarantee = z
                        best_child = child
            else:
                # Transitive: the weak two-hypot under-estimate prunes
                # ~99% of pops without touching Lemma 1.
                p, r = self.start, self.end
                lbs = [weak_trans_lower(p, child.mbr, r) for child in children]
                self._frontier.push_many(
                    children, lbs, epoch, weak=True, src=node
                )
                for k, child in enumerate(children):
                    if child.point_count <= 0:
                        continue  # empty subtree: nothing backs a guarantee
                    if lbs[k] >= best_guarantee:
                        continue
                    z = corner_minmax_trans(p, child.mbr, r)
                    if z < best_guarantee:
                        best_guarantee = z
                        best_child = child
        else:
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
        self._metric_epoch += 1  # cached lower bounds no longer apply
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
        self._metric_epoch += 1  # cached lower bounds no longer apply
        self.mode = SearchMode.TRANSITIVE
        self.start = start
        self.end = end
        self.query = None
        if self._frontier is not None:
            # Stepped pop-time misses (pruning policies, the reference
            # step loop; the drain computes its own bounds) now
            # batch-evaluate every pending queue entry in one Lemma 1
            # kernel call, whatever each node's fan-out was (arrival-tick
            # batching across the queue).
            self._frontier.lower_evaluator = self._batch_lower_eval
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
        """Initial upper-bound update over every queued MBR (Section 4.2.3).

        Both paths also refresh every queued entry's cached lower bound
        under the new metric epoch — the rescan touches every MBR anyway,
        so the pop-time delayed-pruning test stays a cache hit after a
        Hybrid-NN mode switch on the kernel *and* the scalar path.
        """
        front = self._frontier
        if front is not None:
            nodes = front.active_nodes()
        else:
            nodes = [node for _, _, node in self._queue]
        if not nodes:
            return
        epoch = self._metric_epoch
        if kernels.enabled() and len(nodes) >= self._batch_threshold(
            leaf=False
        ):
            # The queued rows come from the pack-time child-MBR caches
            # (frontier chunk refs) — no repacking of MBR namedtuples per
            # rescan.
            if front is not None:
                mbrs = front.active_mbrs()
            else:
                mbrs = kernels.as_mbr_array([n.mbr for n in nodes])
            counts = np.array([n.point_count for n in nodes], dtype=np.int64)
            if self.mode is SearchMode.POINT:
                lower, bounds = kernels.point_bounds(self.query, mbrs)
            else:
                lower, bounds = kernels.trans_bounds(self.start, mbrs, self.end)
            if front is not None:
                front.store_lower(range(len(nodes)), lower, epoch)
            else:
                for n, lb in zip(nodes, lower.tolist()):
                    self._lb_cache[n.page_id] = (epoch, lb)
            # Only subtrees holding at least one point back their
            # MinMaxDist-style guarantee (cf. _absorb_internal).
            backed = np.where(counts > 0, bounds, math.inf)
            i = int(np.argmin(backed))
            if math.isfinite(backed[i]) and float(backed[i]) < self.upper_bound:
                self.upper_bound = float(backed[i])
                self._witness_page = nodes[i].page_id
            return
        rows: list[int] = []
        lbs: list[float] = []
        for row, node in enumerate(nodes):
            if self.mode is SearchMode.POINT:
                lb = node.mbr.mindist(self.query)
            else:
                lb = min_trans_dist(self.start, node.mbr, self.end)
            if front is not None:
                rows.append(row)
                lbs.append(lb)
            else:
                self._lb_cache[node.page_id] = (epoch, lb)
            if node.point_count <= 0:
                continue  # empty subtree: no point backs its guarantee
            z = self._guaranteed_bound(node)
            if z < self.upper_bound:
                self.upper_bound = z
                self._witness_page = node.page_id
        if front is not None and rows:
            front.store_lower(rows, np.array(lbs, dtype=np.float64), epoch)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def result(self) -> Tuple[Point, float]:
        """The best point found and its distance under the current mode."""
        if self.best_point is None:
            raise RuntimeError("search finished without finding any point")
        return self.best_point, self.best_dist
