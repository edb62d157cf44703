"""Arrival frontier — the batched struct-of-arrays candidate queue.

The boxed-tuple heap of the original :class:`ArrivalQueueMixin` pays python
per entry three times over: one ``peek_index_arrival`` call per push, one
per lazy head refresh, and one scalar bound evaluation per pop.  At the
paper's small page geometries (64-byte pages, M = 3) the per-node fan-out
never reaches the geometry kernels' dispatch floor, so the whole client hot
path used to stay scalar.  This frontier restructures the queue around two
observations:

**Arrival order is cyclic page order.**  On a uniformly replicated (1, m)
channel the next arrival of page ``p`` at clock ``now`` is
``base + (p - base) % L`` with ``base = ceil(now - phase)`` and ``L`` the
super-page length — so "earliest next arrival" is simply the cyclic
successor of ``base % L`` among the queued page ids.  Page ids never
change, so the frontier keeps its entries **sorted by page id** and pops
with one bisect: no arrival is ever computed at push time, no head ever
goes stale, and ``next_event_time`` is one closed-form expression for the
head alone (bit-identical to the scalar peek: same integer arithmetic,
same final phase addition).  This replaces the heap's per-push peek and
per-pop head-normalisation chatter with O(log n) pointer work.

**Bounds live with the queue and batch across it, not the fan-out.**
Each entry carries an epoch-stamped lower-bound record next to its node:
exact bounds from a fused whole-fan-out kernel call (large fan-outs), and
certified *weak* under-estimates (see
``repro.client.drain.weak_trans_lower``) where one more kernel dispatch
would cost more than it saves — the dominant regime at 64-byte pages,
where a queue of ~(H-1)(M-1) entries receives only ~M-1 new stale
entries per arrival tick.  When a pop still finds no bound
under the current epoch and an evaluator is installed, one kernel call
evaluates **every** pending-unevaluated entry in the frontier at once,
regardless of how small each node's fan-out was.  A Hybrid-NN metric
switch invalidates every cached bound wholesale by bumping the epoch; the
stamps make that O(1).

Entry state is struct-of-arrays: parallel append-only per-slot lanes plus
the (page, slot) order lists.  The hot scalar lanes are plain python
lists — a list store is ~5x cheaper than a numpy scalar write, and at
R-tree queue sizes the lanes are only materialised as numpy arrays at
batch boundaries (pending-batch evaluation), where the kernels
want them.

The frontier is the kernel-path backend of :class:`ArrivalQueueMixin` for
uniformly replicated programs; the original heap remains in place as the
bit-identical scalar oracle (``kernels.use_kernels(False)`` /
``REPRO_NO_KERNELS=1``) and as the fallback for irregular layouts
(distributed indexing, which has no cyclic page order to exploit).

Searches drive a frontier through ``peek_arrival`` (their next event
time) and ``pop``; those, plus the pushes and the whole-queue
:meth:`~ArrivalFrontier.active_nodes` of Hybrid-NN's guarantee rescan, are
its whole API.
The drain walk (:func:`repro.client.drain.drain`) reads the order lists
directly.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.rtree.node import RTreeNode


class ArrivalFrontier:
    """Arrival-ordered candidate frontier with epoch-stamped bound lanes."""

    __slots__ = (
        "_tuner",
        "_phase",
        "_cycle",
        "_order_pages",
        "_order_slots",
        "_nodes",
        "_bounds",
        "_mbr_bases",
        "_mbr_chunks",
        "_version",
        "_peek_now",
        "_peek_version",
        "_peek_value",
        "_peek_head",
        "_push_ops",
        "_eval_guard",
        "max_size",
        "lower_evaluator",
    )

    def __init__(self, tuner) -> None:
        self._tuner = tuner
        channel = tuner.channel
        self._phase = channel.phase
        self._cycle = channel.program.super_page_length
        #: Cached child-MBR chunk per ``push_many`` (base slot -> the
        #: parent's contiguous ``(n, 4)`` array): pending-batch
        #: evaluations gather rows from these instead of re-packing MBR
        #: namedtuples into fresh arrays.
        self._mbr_bases: List[int] = []
        self._mbr_chunks: List[np.ndarray] = []
        #: Queued page ids in ascending order plus their parallel slots.
        self._order_pages: List[int] = []
        self._order_slots: List[int] = []
        #: Per-slot lanes (parallel, append-only): the queued node and its
        #: bound record ``(epoch, lower_bound, weak)`` or ``None``.  Slots
        #: are never recycled — a frontier lives for one search, so slot
        #: growth is bounded by the nodes the search visits, and skipping
        #: the free-list bookkeeping keeps pushes and pops branch-free.
        self._nodes: List[RTreeNode] = []
        self._bounds: List[Optional[Tuple[int, float, bool]]] = []
        self._version = 0
        self._peek_now = math.nan
        self._peek_version = -1
        self._peek_value = math.inf
        self._peek_head = 0
        #: Monotone count of push operations, and the (epoch, push-count)
        #: state as of which every queued record was known to carry a valid
        #: bound — lets :meth:`_eval_pending` skip its stale scan entirely
        #: when nothing new was queued since the last full evaluation.
        self._push_ops = 0
        self._eval_guard: Tuple[int, int] = (-2, -1)
        #: Largest queue size reached — the client's memory footprint.
        self.max_size = 0
        #: ``fn(mbrs) -> lower_bounds`` under the owner's current metric;
        #: installed by the search only while batching beats the scalar
        #: loop (transitive mode), consulted by the batched pop path.
        self.lower_evaluator: Optional[Callable[[np.ndarray], np.ndarray]] = (
            None
        )

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._order_pages)

    def finished(self) -> bool:
        """True when no candidates remain queued."""
        return not self._order_pages

    def push(
        self,
        node: RTreeNode,
        lb: Optional[float] = None,
        epoch: int = -1,
        weak: bool = False,
    ) -> None:
        """Queue one node; ``lb`` pre-caches its lower bound under ``epoch``.

        ``weak=True`` marks the bound as a certified *under*-estimate of
        the exact metric (it can prove a prune but never a keep); the pop
        result carries the flag back so the owner knows whether to verify.
        No arrival is computed — cyclic page order *is* arrival order, so
        queueing is one sorted insert plus the slot-lane writes.
        """
        nodes = self._nodes
        slot = len(nodes)
        nodes.append(node)
        self._bounds.append(None if lb is None else (epoch, lb, weak))
        page = node.page_id
        i = bisect_left(self._order_pages, page)
        self._order_pages.insert(i, page)
        self._order_slots.insert(i, slot)
        self._version += 1
        self._push_ops += 1
        if len(self._order_pages) > self.max_size:
            self.max_size = len(self._order_pages)

    def push_many(
        self,
        nodes,
        lbs=None,
        epoch: int = -1,
        weak: bool = False,
        src: Optional[RTreeNode] = None,
    ) -> None:
        """Queue a whole fan-out in one call (one version/footprint update).

        ``lbs`` pre-caches one lower bound per node under ``epoch`` —
        either the fused whole-fan-out kernel results (a float64 row) or
        the certified cheap estimates of the small-fan-out path (a list).
        ``nodes`` must be in ascending ``page_id`` order (an R-tree node's
        children always are: DFS preorder).  ``src``, when given, is the
        parent node whose **complete** fan-out is being queued: its cached
        child page/MBR arrays replace the per-child repacking both here
        and in later pending-batch evaluations.
        """
        if not len(nodes):
            return
        order_pages = self._order_pages
        order_slots = self._order_slots
        slot_nodes = self._nodes
        slot_bounds = self._bounds
        base_slot = len(slot_nodes)
        if src is not None:
            pages = src.child_page_list()
            self._mbr_bases.append(base_slot)
            self._mbr_chunks.append(src.child_mbr_array())
        else:
            pages = [node.page_id for node in nodes]
        slots = range(base_slot, base_slot + len(pages))
        slot_nodes.extend(nodes)
        if lbs is None:
            slot_bounds.extend([None] * len(pages))
        else:
            if isinstance(lbs, np.ndarray):
                lbs = lbs.tolist()  # plain floats: cheaper pop-time compares
            slot_bounds.extend([(epoch, lb, weak) for lb in lbs])
        # An expanded node's children occupy one gap of the sorted order:
        # their DFS-preorder ids ascend, and every page id strictly between
        # two siblings belongs to the earlier sibling's (unexpanded, hence
        # unqueued) subtree.  One bisect plus a slice splice inserts the
        # whole fan-out.  A search never breaks that invariant, but a
        # caller that queues a node and later the fan-out of one of its
        # ancestors does: those batches take per-item inserts.
        i = bisect_left(order_pages, pages[0])
        if i == len(order_pages) or order_pages[i] > pages[-1]:
            order_pages[i:i] = pages
            order_slots[i:i] = slots
        else:
            for page, slot in zip(pages, slots):
                j = bisect_left(order_pages, page)
                order_pages.insert(j, page)
                order_slots.insert(j, slot)
        self._version += 1
        self._push_ops += 1
        if len(order_pages) > self.max_size:
            self.max_size = len(order_pages)

    # ------------------------------------------------------------------
    # Cyclic-order head selection
    # ------------------------------------------------------------------
    def _head_index(self) -> int:
        """Order index of the truly-next entry at the current clock."""
        base = math.ceil(self._tuner.now - self._phase)
        i = bisect_left(self._order_pages, base % self._cycle)
        if i == len(self._order_pages):
            i = 0  # wrap: the earliest page of the next index copy
        return i

    def peek_arrival(self) -> float:
        """Arrival time of the truly-next queued page (inf when empty).

        Cached per (clock, queue-version) state: the scheduler peeks every
        unstepped search once per event, and nothing moved for those.  The
        head's order index is cached alongside, so the pop that usually
        follows a peek at the same state skips its bisect entirely.
        """
        if not self._order_pages:
            return math.inf
        now = self._tuner.now
        if now == self._peek_now and self._version == self._peek_version:
            return self._peek_value
        base = math.ceil(now - self._phase)
        i = bisect_left(self._order_pages, base % self._cycle)
        if i == len(self._order_pages):
            i = 0
        page = self._order_pages[i]
        value = base + (page - base) % self._cycle + self._phase
        self._peek_now = now
        self._peek_version = self._version
        self._peek_value = value
        self._peek_head = i
        return value

    # ------------------------------------------------------------------
    # Popping with lazily batched bounds
    # ------------------------------------------------------------------
    def pop(
        self, epoch: int = -1
    ) -> Tuple[RTreeNode, Optional[float], bool]:
        """Remove and return ``(next_node, lower_bound_or_None, weak)``.

        The bound is served from the epoch-stamped record when possible.
        On a miss, one kernel call evaluates **all** pending-unevaluated
        entries (the arrival-tick batch) provided an evaluator is installed
        and the batch is worthwhile; otherwise ``None`` is returned and the
        caller computes the single bound scalar — bit-identical either way.
        ``weak`` is True when the bound is a certified under-estimate (it
        can prove a prune, never a keep).
        """
        if not self._order_pages:
            raise RuntimeError("step() on a finished search")
        if (
            self._tuner.now == self._peek_now
            and self._version == self._peek_version
        ):
            # The scheduler peeked at this exact state just before
            # dispatching the step — reuse its head index.
            i = self._peek_head
        else:
            i = self._head_index()
        self._order_pages.pop(i)
        slot = self._order_slots.pop(i)
        self._version += 1
        node = self._nodes[slot]
        record = self._bounds[slot]
        lb: Optional[float] = None
        weak = False
        if record is not None and record[0] == epoch:
            lb = record[1]
            weak = record[2]
        elif self.lower_evaluator is not None:
            lb = self._eval_pending(node, epoch)
        return node, lb, weak

    def _eval_pending(self, popped: RTreeNode, epoch: int) -> Optional[float]:
        """Batch-evaluate every stale entry plus the popped node.

        One kernel call covers the whole pending-unevaluated set — the
        arrival-tick batch that makes the bound evaluation independent of
        any single node's fan-out.  Entries whose epoch-stamped bound is
        still valid are never re-evaluated, and the stale scan itself is
        skipped entirely when no push happened since the queue was last
        known fully stamped under this epoch (the ``_eval_guard`` state) —
        a pop can only remove entries, never un-stamp one.
        """
        if self._eval_guard == (epoch, self._push_ops):
            return None
        stale = [
            slot
            for slot in self._order_slots
            if (rec := self._bounds[slot]) is None or rec[0] != epoch
        ]
        if not stale:
            # Nothing pending besides the popped head: a one-lane kernel
            # call cannot beat the caller's scalar evaluation (the only
            # installed evaluator, the transitive metric, wins from two
            # lanes up), and the guard spares future scans.
            self._eval_guard = (epoch, self._push_ops)
            return None
        assert self.lower_evaluator is not None
        mbrs = np.empty((len(stale) + 1, 4), dtype=np.float64)
        for k, slot in enumerate(stale):
            mbrs[k] = self._mbr_row(slot, self._nodes[slot])
        mbrs[-1] = self._mbr_row(None, popped)
        values = self.lower_evaluator(mbrs)
        for slot, value in zip(stale, values.tolist()):
            self._bounds[slot] = (epoch, value, False)
        self._eval_guard = (epoch, self._push_ops)
        return float(values[-1])

    def _mbr_row(self, slot: Optional[int], node: RTreeNode):
        """One entry's MBR row, served from the cached parent chunk.

        ``push_many`` records (base slot, parent child-MBR array) chunk
        references, so a slot pushed as part of a complete fan-out reads
        its row straight out of the pack-time cache; slots pushed loose
        (the root, hand-built tests) fall back to the node's own MBR.
        """
        if slot is not None and self._mbr_bases:
            c = bisect_right(self._mbr_bases, slot) - 1
            if c >= 0:
                base = self._mbr_bases[c]
                chunk = self._mbr_chunks[c]
                if slot - base < chunk.shape[0]:
                    return chunk[slot - base]
        return np.asarray(node.mbr, dtype=np.float64)

    # ------------------------------------------------------------------
    # Whole-queue access (Hybrid-NN's initial upper-bound rescan)
    # ------------------------------------------------------------------
    def active_nodes(self) -> List[RTreeNode]:
        """The queued nodes, in cyclic page order."""
        nodes = []
        for slot in self._order_slots:
            node = self._nodes[slot]
            assert node is not None
            nodes.append(node)
        return nodes

    def store_lower(self, rows, values: np.ndarray, epoch: int) -> None:
        """Cache exact lower bounds for the given :meth:`active_nodes` rows."""
        vals = values.tolist()
        for k, row in enumerate(rows):
            self._bounds[self._order_slots[row]] = (epoch, vals[k], False)
        if len(vals) == len(self._order_slots):
            # A whole-queue store leaves every record stamped: pop-misses
            # under this epoch need no stale scan until the next push.
            self._eval_guard = (epoch, self._push_ops)


class FrontierArena:
    """Empty placeholder for a deleted columnar frontier backend.

    ``perfbench/spans.py`` is its only reader: it enumerates this class's
    public methods for the ``queue`` layer, and there are none.
    """
