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
exact bounds from a fused whole-fan-out kernel call (large fan-outs) or a
whole-queue rescan batch (Hybrid-NN mode switches), and certified *weak*
under-estimates (see ``repro.client.drain.weak_trans_lower``) where one
more kernel dispatch would cost more than it saves — the dominant regime at
64-byte pages, where a queue of ~(H-1)(M-1) entries receives only ~M-1
new stale entries per arrival tick.  When a pop still finds no bound
under the current epoch and an evaluator is installed, one kernel call
evaluates **every** pending-unevaluated entry in the frontier at once,
regardless of how small each node's fan-out was.  A Hybrid-NN metric
switch invalidates every cached bound wholesale by bumping the epoch; the
stamps make that O(1).

Entry state is struct-of-arrays: parallel append-only per-slot lanes plus
the (page, slot) order lists.  The hot scalar lanes are plain python
lists — a list store is ~5x cheaper than a numpy scalar write, and at
R-tree queue sizes the lanes are only materialised as numpy arrays at
batch boundaries (rescan / pending-batch evaluation), where the kernels
want them.

The frontier is the kernel-path backend of :class:`ArrivalQueueMixin` for
uniformly replicated programs; the original heap remains in place as the
bit-identical scalar oracle (``kernels.use_kernels(False)`` /
``REPRO_NO_KERNELS=1``) and as the fallback for irregular layouts
(distributed indexing, which has no cyclic page order to exploit).

**The columnar arena.**  One search's frontier holds ~(H-1)(M-1) entries —
far too few for numpy to beat python lists on any single operation.  A
*workload* of active searches holds tens of thousands, and the shared-scan
executor touches every one of them every round: one head selection per
search (the pairing ping-pong) plus one certified-prune walk per serve.
:class:`FrontierArena` therefore hoists the queued entries of **every**
registered search into one set of struct-of-arrays lanes — page id, node
id, lower bound, weak flag, epoch stamp, owner search id — addressed per
search by an (offset, length) segment.  Node ids index one columnar
:class:`NodeStore` (structure, MBRs, points, page ids of every covered
tree), the executor's single node representation.  Round execution
becomes three whole-workload array passes (cyclic arrival keys, head/survivor segmented
minima, certified prune-run consumption) plus O(1) python per *search*:
the driver pops a round's worth of certified prunes without ever touching
them one entry at a time.  An :class:`ArrivalFrontier` attached to an
arena (``attach`` happens at executor registration) transparently routes
its whole API — pushes, pops, rescans, ``pop_until`` — to its segment, so
the search code is backend-agnostic; standalone frontiers (the per-query
path, kNN/range/window) keep the list lanes above, which profiling shows
are the fastest single-search representation.  Searches drive a frontier
through ``peek_arrival`` (their next event time), ``pop`` and
``pop_until``; those, plus the pushes and rescans, are its whole API on
either backend.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.rtree.node import RTreeNode


#: Bit width of the entry-index field in the packed ``key << BITS | index``
#: comparison values of the arena's segmented argmin — supports 4M queued
#: entries per arena, far beyond any workload's live frontier total.
_IDX_BITS = 22
_IDX_MASK = (1 << _IDX_BITS) - 1
#: "No entry survives" sentinel for the packed comparisons (any real packed
#: value is far below it; its decoded key is far above any cyclic key).
_HUGE = np.int64(1) << np.int64(62)
#: Epoch sentinel for entries pushed without a bound record: never equal to
#: a search's metric epoch (epochs start at 0 and only grow).
_NO_EPOCH = -1


def _tree_store_struct(tree) -> tuple:
    """One tree's BFS-ordered structural node columns (cached).

    Returns ``(nodes, child0, lane_key, count, mbr, pt0, points)``:

    * ``nodes`` is the BFS node list — every internal node's children
      occupy one contiguous run, the property the arena's base-plus-intra
      flush arithmetic and the absorb lanes' child gathers need;
    * ``child0`` holds each internal node's first-child index (-1 for
      leaves) and ``pt0`` each leaf's first row in ``points`` (-1 for
      internal nodes);
    * ``lane_key`` packs the fan-out shape as ``(fanout << 2) |
      (is_leaf << 1)`` (the executor's absorb-lane keys);
    * ``count`` is each node's subtree point count, ``mbr`` its ``(4,)``
      float64 row and ``points`` the leaves' ``(2,)`` float64 point rows —
      the same float values the per-node ``child_count_array`` /
      ``child_mbr_array`` / ``points_array`` views hold, packed once for
      the whole tree without materialising those per-node caches.

    Structure never changes after packing, so the cache lives on the tree
    object for good; page ids are handled separately
    (:func:`_tree_store_pages`).
    """
    try:
        return tree._store_struct
    except AttributeError:
        pass
    order: List[RTreeNode] = [tree.root]
    child0: List[int] = []
    keys: List[int] = []
    pt0: List[int] = []
    n_points = 0
    i = 0
    while i < len(order):
        nd = order[i]
        if nd.is_leaf:
            child0.append(-1)
            keys.append((len(nd.points) << 2) | 2)
            pt0.append(n_points)
            n_points += len(nd.points)
        else:
            child0.append(len(order))
            keys.append(len(nd.children) << 2)
            pt0.append(-1)
            order.extend(nd.children)
        i += 1
    # Flat float iterators: several times faster than packing the MBR /
    # point namedtuples row by row, and the same float64 values.
    chain = itertools.chain.from_iterable
    struct = (
        order,
        np.array(child0, dtype=np.int64),
        np.array(keys, dtype=np.int64),
        np.array([nd.point_count for nd in order], dtype=np.int64),
        np.fromiter(
            chain(nd.mbr for nd in order), np.float64, 4 * len(order)
        ).reshape(-1, 4),
        np.array(pt0, dtype=np.int64),
        np.fromiter(
            chain(chain(nd.points) for nd in order if nd.is_leaf),
            np.float64,
            2 * n_points,
        ).reshape(-1, 2),
    )
    tree._store_struct = struct
    return struct


def _tree_store_pages(tree) -> np.ndarray:
    """The BFS-ordered page-id column of one tree (cached).

    Page ids bind the current broadcast layout, so — unlike the
    structural columns — this cache is part of the node store's
    **invalidation contract**: :meth:`repro.rtree.tree.RTree
    .assign_page_ids` resets it (alongside the per-node child-page
    views) whenever a program renumbers the tree.
    """
    pages = getattr(tree, "_store_pages", None)
    if pages is not None:
        return pages
    order = _tree_store_struct(tree)[0]
    pages = np.fromiter(
        (nd.page_id for nd in order), dtype=np.int64, count=len(order)
    )
    tree._store_pages = pages
    return pages


class NodeStore:
    """Columnar registry of every node a frontier arena can serve.

    The one node representation of the shared-scan executor.  Every node
    of every covered tree gets a *store id* (``nid``): BFS order per tree,
    trees concatenated in cover order — so each internal node's children
    are the contiguous run ``child0[nid] + arange(fanout)`` and each
    leaf's points the run ``pt0[nid] + arange(fanout)``.  The arena's
    ``_e_nid`` lane holds nids, which turns phase A's survivor handling
    (lane-key gathers, weak-point MINDIST checks, argsort binning) and the
    absorb lanes (child MBR / count / page and leaf point gathers,
    witness/upper-bound mirror updates) into whole-workload array passes.

    A :class:`FrontierArena` covers the tree of every frontier it
    registers, and the executor's set-at-a-time range pass the tree of
    every search it serves, so a store grows with its run and never needs
    building up front.  ``_store_nid`` stamps on the nodes are per-cover:
    a tree may sit at different offsets in different stores, so only one
    live store may cover a tree at a time (the executor builds one per
    run and shares it between the arena and the range pass).

    Invalidation contract: structure and geometry are immutable after
    packing and cache on the tree forever; the page column binds the
    broadcast layout and is dropped by ``RTree.assign_page_ids`` — a
    store covering a tree before a re-layout must not be reused afterwards.
    """

    __slots__ = (
        "nodes", "child0", "lane_key", "leaf_bit", "count", "page", "mbr",
        "pt0", "points", "all_backed", "_trees",
    )

    def __init__(self) -> None:
        self.nodes: List[RTreeNode] = []
        self.child0 = np.empty(0, dtype=np.int64)
        self.lane_key = np.empty(0, dtype=np.int64)
        #: Pre-split leaf flag (lane-key bit 1): the round's leaf-finish
        #: probe mask gathers this directly instead of re-masking keys.
        self.leaf_bit = np.empty(0, dtype=bool)
        self.count = np.empty(0, dtype=np.int64)
        self.page = np.empty(0, dtype=np.int64)
        self.mbr = np.empty((0, 4), dtype=np.float64)
        self.pt0 = np.empty(0, dtype=np.int64)
        self.points = np.empty((0, 2), dtype=np.float64)
        #: True while every internal node of every covered tree has only
        #: point-holding child subtrees (always, for the standard
        #: packers): the absorb lanes then skip the backed-guarantee masks.
        self.all_backed = True
        self._trees: dict = {}

    def cover(self, tree) -> None:
        """Append ``tree``'s nodes to the store (no-op once covered)."""
        if id(tree) in self._trees:
            return
        self._trees[id(tree)] = tree
        order, c0, keys, count, mbr, pt0, points = _tree_store_struct(tree)
        off = len(self.nodes)
        for i, nd in enumerate(order):
            nd._store_nid = off + i
        self.nodes.extend(order)
        if off:
            c0 = np.where(c0 >= 0, c0 + off, -1)
        n_pts = self.points.shape[0]
        if n_pts:
            pt0 = np.where(pt0 >= 0, pt0 + n_pts, -1)
        self.child0 = np.concatenate((self.child0, c0))
        self.lane_key = np.concatenate((self.lane_key, keys))
        self.leaf_bit = (self.lane_key & 2) != 0
        self.count = np.concatenate((self.count, count))
        self.page = np.concatenate((self.page, _tree_store_pages(tree)))
        self.mbr = np.concatenate((self.mbr, mbr))
        self.pt0 = np.concatenate((self.pt0, pt0))
        self.points = np.concatenate((self.points, points))
        # Every non-root node is some internal node's child.
        self.all_backed = self.all_backed and bool((count[1:] > 0).all())


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
        "_arena",
        "_sid",
        "max_size",
        "lower_evaluator",
    )

    def __init__(self, tuner) -> None:
        self._tuner = tuner
        channel = tuner.channel
        self._phase = channel.phase
        self._cycle = channel.program.super_page_length
        #: Columnar arena this frontier is attached to (``None`` when the
        #: frontier runs standalone on its own list lanes).
        self._arena: Optional["FrontierArena"] = None
        self._sid = -1
        #: Cached child-MBR chunk per ``push_many`` (base slot -> the
        #: parent's contiguous ``(n, 4)`` array): rescans and pending-batch
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
        arena = self._arena
        if arena is not None:
            sid = self._sid
            return int(arena._live[sid]) + int(arena._staged_cnt[sid])
        return len(self._order_pages)

    def finished(self) -> bool:
        """True when no candidates remain queued."""
        arena = self._arena
        if arena is not None:
            sid = self._sid
            return not arena._live[sid] and not arena._staged_cnt[sid]
        return not self._order_pages

    def footprint(self) -> int:
        """Largest queue size reached (the client's memory footprint).

        Attached frontiers track the peak in the arena's ``_maxsz`` lane,
        updated by one vector maximum per flush; entries staged since the
        last flush are covered by the current length (pushes only grow a
        queue, so the running peak is always one of the two).
        """
        arena = self._arena
        if arena is not None:
            return max(
                self.max_size,
                int(arena._maxsz[self._sid]),
                arena.len_attached(self),
            )
        return self.max_size

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
        if self._arena is not None:
            self._arena.stage(self, [node], None if lb is None else [lb],
                              epoch, weak, None)
            return
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
        and in later rescans.
        """
        if not len(nodes):
            return
        if self._arena is not None:
            self._arena.stage(self, nodes, lbs, epoch, weak, src)
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
        # ancestors does (test_frontier_arena.py's random interleavings):
        # those batches take per-item inserts.
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
        if self._arena is not None:
            return self._arena.peek_arrival_attached(self)
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
        if self._arena is not None:
            return self._arena.pop_attached(self, epoch)
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

    def pop_until(
        self,
        upper_bound: float,
        epoch: int,
        limit: float = math.inf,
        strict: bool = False,
    ) -> Optional[Tuple[RTreeNode, Optional[float], bool, float]]:
        """Pop and prune entries until one needs the caller; batch form.

        Consumes the truly-next entries in arrival order while each one's
        cached bound *proves* a prune — an exact or weak record under
        ``epoch`` with ``lb > upper_bound`` (a weak bound is a certified
        under-estimate, so it proves prunes, never keeps) — and its arrival
        lies within ``limit`` (``<=``, or ``<`` when ``strict``; the
        shared-scan driver passes the sibling search's next event time
        here, reproducing ``run_all``'s pair ping-pong tie rule).  Stops
        and returns ``(node, lb, weak, arrival)`` at the first entry the
        caller must handle: a keeper (exact ``lb <= upper_bound``), a weak
        bound that could not prove its prune, or a missing bound.  Returns
        ``None`` when the queue empties or the next arrival falls outside
        ``limit``.

        One call replaces a pop-per-prune driver round-trip: pruning pops
        never move the channel clock, so the cyclic-order base is computed
        once for the whole run.
        """
        if self._arena is not None:
            return self._arena.pop_until_attached(
                self, upper_bound, epoch, limit, strict
            )
        order_pages = self._order_pages
        if not order_pages:
            return None
        order_slots = self._order_slots
        nodes = self._nodes
        bounds = self._bounds
        cycle = self._cycle
        phase = self._phase
        base = math.ceil(self._tuner.now - phase)
        start = base % cycle
        while order_pages:
            i = bisect_left(order_pages, start)
            if i == len(order_pages):
                i = 0
            page = order_pages[i]
            arrival = base + (page - base) % cycle + phase
            if arrival > limit or (strict and arrival == limit):
                return None
            order_pages.pop(i)
            slot = order_slots.pop(i)
            self._version += 1
            record = bounds[slot]
            if record is not None and record[0] == epoch:
                lb = record[1]
                if lb > upper_bound:
                    continue  # certified prune (weak or exact)
                return nodes[slot], lb, record[2], arrival
            node = nodes[slot]
            if self.lower_evaluator is not None:
                lb = self._eval_pending(node, epoch)
                if lb is not None:
                    if lb > upper_bound:
                        continue  # exact prune from the batch evaluation
                    return node, lb, False, arrival
            return node, None, False, arrival
        return None

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
        if self._arena is not None:
            return self._arena.active_nodes_attached(self)
        nodes = []
        for slot in self._order_slots:
            node = self._nodes[slot]
            assert node is not None
            nodes.append(node)
        return nodes

    def active_mbrs(self) -> np.ndarray:
        """The queued nodes' MBR rows, aligned with :meth:`active_nodes`.

        Rows come from the cached pack-time child-MBR arrays (or the arena
        MBR lane) — no repacking of MBR namedtuples per rescan.
        """
        if self._arena is not None:
            return self._arena.active_mbrs_attached(self)
        slots = self._order_slots
        rows = np.empty((len(slots), 4), dtype=np.float64)
        for k, slot in enumerate(slots):
            rows[k] = self._mbr_row(slot, self._nodes[slot])
        return rows

    def store_lower(self, rows, values: np.ndarray, epoch: int) -> None:
        """Cache exact lower bounds for the given :meth:`active_nodes` rows."""
        if self._arena is not None:
            self._arena.store_lower_attached(self, rows, values, epoch)
            return
        vals = values.tolist()
        for k, row in enumerate(rows):
            self._bounds[self._order_slots[row]] = (epoch, vals[k], False)
        if len(vals) == len(self._order_slots):
            # A whole-queue rescan leaves every record stamped: pop-misses
            # under this epoch need no stale scan until the next push.
            self._eval_guard = (epoch, self._push_ops)


# ----------------------------------------------------------------------
# The shared columnar frontier arena
# ----------------------------------------------------------------------
class FrontierArena:
    """Struct-of-arrays store for the frontiers of many active searches.

    One arena serves one :class:`~repro.engine.shared_scan
    .SharedScanExecutor` run.  Queued entries of every registered search
    live in shared numpy lanes — page id, node id (into the arena's
    :class:`NodeStore`, which resolves nodes, MBRs and fan-outs), lower
    bound, weak flag, epoch stamp and owner search id — grouped per search
    into one contiguous ``(offset, length)`` segment.  The executor's round
    then runs as whole-workload array passes:

    * :meth:`begin_round` — cyclic arrival keys for every entry plus one
      segmented minimum: the head arrival of **every** search at once (the
      pairing ping-pong's ``t0``/``t1`` reads, previously one python peek
      per search per round);
    * :meth:`serve` — one certified prune mask over all queued entries
      (``stamped and lb > upper_bound`` under each owner's metric epoch)
      and one segmented minimum over the non-prunable entries: each served
      search's certified-prunable *run* is consumed as a mask write and
      its survivor comes back as O(1) scalars.  This is
      :meth:`ArrivalFrontier.pop_until` for the whole workload in a
      handful of numpy dispatches.

    Mutation is deferred and batched: pops tombstone entries (``dead``
    lane), pushes stage per-fan-out runs referencing the pack-time child
    arrays, and :meth:`flush` merges both into fresh compact lanes once
    per round with vectorised scatters.  Registration is append-only: a
    finished search keeps its (empty) segment and its slot in the
    per-search lanes until the arena is dropped, so the per-round passes
    scale with searches *ever registered* — the right trade for one
    executor run over one workload (the intended lifetime); a very
    long-lived arena over many generations of searches would want a
    retire-and-compact step here.  Between flushes, attached
    :class:`ArrivalFrontier` methods (the rare paths: re-steer rescans,
    scalar ``pop_until`` continuations after a failed certified keep,
    defensive pops) operate on the lanes directly, so every frontier
    behaviour is available in attached form, bit-identical to the
    standalone list lanes.
    """

    def __init__(self, store: Optional[NodeStore] = None) -> None:
        self._searches: List[object] = []
        #: The :class:`NodeStore` over every registered frontier's tree
        #: (``store``, when the owner shares one with its other serves).
        #: The ``_e_nid`` lane holds its node ids: a staged fan-out is
        #: ``child0[nid] + arange(n)``, attached pops resolve nodes and
        #: MBRs through its columns, and the executor's phase A and absorb
        #: lanes read survivors as pure array gathers.
        self._store = NodeStore() if store is None else store
        # Per-search state lanes (grown amortised; index = search id).
        cap = 64
        self._now = np.zeros(cap, dtype=np.float64)
        self._phase = np.zeros(cap, dtype=np.float64)
        self._cycle = np.ones(cap, dtype=np.int64)
        self._ub = np.full(cap, math.inf, dtype=np.float64)
        self._epoch = np.zeros(cap, dtype=np.int64)
        #: Mirror of each search's ``_witness_page`` (-1 when a concrete
        #: point, not a node guarantee, witnesses the upper bound) — lets
        #: the executor vectorise the witness hand-off tests of a whole
        #: absorb lane.
        self._wit = np.full(cap, -1, dtype=np.int64)
        #: Each search's ``(x, y)`` query point (point metric) and packed
        #: ``(sx, sy, ex, ey)`` transitive endpoints: a kernel lane gathers
        #: its whole query block with one fancy index.
        self._q = np.full((cap, 2), math.nan, dtype=np.float64)
        self._trans = np.full((cap, 4), math.nan, dtype=np.float64)
        self._live = np.zeros(cap, dtype=np.int64)
        #: Entries staged since the last flush, per search — replaces the
        #: per-frontier versioned counters, so lane staging can bump a
        #: whole absorb lane's counts with one scatter-add.
        self._staged_cnt = np.zeros(cap, dtype=np.int64)
        #: Mirror of each search's ``_point_bit`` (1 = point metric, 0 =
        #: transitive) — folds into the store's lane keys so phase A
        #: builds every survivor's absorb-lane key in one vector ``or``.
        self._pbit = np.zeros(cap, dtype=np.int64)
        #: Boolean view of the same bit: the weak-survivor split masks
        #: with it directly, skipping a per-round ``== 1`` pass.
        self._pbool = np.zeros(cap, dtype=bool)
        #: Mirror of each attached frontier's ``max_size`` footprint,
        #: updated by one masked vector maximum per flush.
        self._maxsz = np.zeros(cap, dtype=np.int64)
        # Entry lanes (compact, owner-grouped; rebuilt by flush()).
        self._m = 0
        self._e_page = np.empty(0, dtype=np.int64)
        self._e_nid = np.empty(0, dtype=np.int64)
        self._e_lb = np.empty(0, dtype=np.float64)
        #: Certified keep bound per entry: an inflated upper bound on the
        #: exact Lemma 1 value (Lemma 3 corner / centre estimates).  A
        #: weak survivor whose ``_e_ub`` sits at or below its owner's
        #: upper bound provably passes the exact pop-time keep test — the
        #: executor skips the scalar certification entirely.  ``inf``
        #: (single pushes, point lanes) just falls back to that scalar.
        self._e_ub = np.empty(0, dtype=np.float64)
        self._e_weak = np.empty(0, dtype=bool)
        self._e_epoch = np.empty(0, dtype=np.int64)
        self._e_owner = np.empty(0, dtype=np.int64)
        self._dead = np.empty(0, dtype=bool)
        self._n_dead = 0
        self._seg_start = np.zeros(1, dtype=np.int64)
        # Staged fan-out runs: (frontier, count, pages, base nid,
        # lbs-or-None, epoch, weak) — plus whole absorb lanes staged in
        # one call each: (sids, n, pages, base nids, lbs, epochs, weak,
        # ubs-or-None).
        self._staged: List[tuple] = []
        self._staged_lanes: List[tuple] = []
        self._dirty_adds = False
        # Mutation counter: invalidates the per-search sorted-order cache.
        self._ver = 0
        self._order_cache: Tuple[int, int, Optional[np.ndarray]] = (-1, -1, None)
        # Round state cached by begin_round() for the serve() that follows.
        self._r_key: Optional[np.ndarray] = None
        self._r_comp: Optional[np.ndarray] = None
        self._r_base: Optional[np.ndarray] = None
        self._r_occ: Optional[np.ndarray] = None
        self._r_offsets: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Registration and state sync
    # ------------------------------------------------------------------
    def register(self, search) -> int:
        """Attach one NN search's frontier to the arena; returns its id.

        The frontier's tree (its channel program's) joins the node store,
        and any entries already queued standalone (normally just the tree
        root) are imported as staged runs under their store ids; the
        frontier's own node-slot list is never consulted again.
        """
        f = search._frontier
        self._store.cover(f._tuner.channel.program.tree)
        sid = len(self._searches)
        self._searches.append(search)
        if sid >= self._now.shape[0]:
            self._grow_searches()
        self._now[sid] = search.tuner.now
        self._phase[sid] = f._phase
        self._cycle[sid] = f._cycle
        self._live[sid] = 0
        self._staged_cnt[sid] = 0
        self._maxsz[sid] = f.max_size
        search._arena_sid = sid
        # Import the standalone entries before flipping the backend.
        order_pages = f._order_pages
        order_slots = f._order_slots
        f._arena = self
        f._sid = sid
        for page, slot in zip(order_pages, order_slots):
            rec = f._bounds[slot]
            if rec is None:
                lbs, epoch, weak = None, _NO_EPOCH, False
            else:
                lbs, epoch, weak = (
                    np.array([rec[1]], dtype=np.float64), rec[0], rec[2]
                )
            base = f._nodes[slot]._store_nid
            self._staged.append(
                (f, 1, np.array([page], dtype=np.int64), base, lbs,
                 epoch, weak)
            )
            self._staged_cnt[sid] += 1
        f._order_pages = None  # the arena segment is the queue now
        f._order_slots = None
        self.sync(search)
        self._dirty_adds = True
        self._ver += 1
        return sid

    def _grow_searches(self) -> None:
        for name in ("_now", "_phase", "_cycle", "_ub", "_epoch", "_wit",
                     "_q", "_trans", "_live", "_staged_cnt", "_pbit",
                     "_pbool", "_maxsz"):
            old = getattr(self, name)
            new = np.empty((old.shape[0] * 2,) + old.shape[1:], dtype=old.dtype)
            new[: old.shape[0]] = old
            setattr(self, name, new)

    def sync(self, search) -> None:
        """Mirror one search's mutable serve state into the arena lanes.

        Called after every absorb (``upper_bound`` moves) and after every
        ``on_finish`` re-steer (metric epoch / query points move).  The
        vectorised round reads exclusively from these lanes.
        """
        sid = search._arena_sid
        self._ub[sid] = search.upper_bound
        self._epoch[sid] = search._metric_epoch
        pb = getattr(search, "_point_bit", 0)
        self._pbit[sid] = pb
        self._pbool[sid] = pb == 1
        wp = search._witness_page
        self._wit[sid] = -1 if wp is None else wp
        q = search.query
        if q is not None:
            self._q[sid] = (q.x, q.y)
        start = search.start
        if start is not None:
            end = search.end
            self._trans[sid] = (start.x, start.y, end.x, end.y)

    # ------------------------------------------------------------------
    # Staging and flushing
    # ------------------------------------------------------------------
    def stage(self, f: ArrivalFrontier, nodes, lbs, epoch, weak, src) -> None:
        """Queue one fan-out run; merged into the lanes at the next flush.

        O(1) python per *run*: the staged base is a store id run (a
        complete fan-out starts at the parent's first child; loose nodes
        stage as single-entry runs, since arbitrary nids need not be
        contiguous), the cached child page view is staged by reference,
        the bound row rides along as the kernel result array, and even the
        ``max_size`` footprint accounting is deferred to the flush (pushes
        only grow a queue, so the post-flush size dominates every
        intermediate one).
        """
        n = len(nodes)
        store = self._store
        if src is not None:
            base = int(store.child0[src._store_nid])
        elif n == 1:
            base = nodes[0]._store_nid
        else:  # pragma: no cover - no driver stages loose multi-pushes
            for i, nd in enumerate(nodes):
                self.stage(
                    f, [nd], None if lbs is None else [lbs[i]],
                    epoch, weak, None,
                )
            return
        pages = store.page[base:base + n]
        if lbs is None:
            run = (f, n, pages, base, None, _NO_EPOCH, False)
        else:
            run = (f, n, pages, base,
                   lbs if isinstance(lbs, np.ndarray)
                   else np.asarray(lbs, dtype=np.float64),
                   epoch, weak)
        self._staged.append(run)
        self._staged_cnt[f._sid] += n

    def stage_lane(self, sids: np.ndarray, kids: np.ndarray,
                   lbs: np.ndarray, weak: bool,
                   ubs: Optional[np.ndarray] = None) -> None:
        """Stage one absorb lane's fan-outs in a single call.

        ``k`` searches (arena ids ``sids``) each queue the ``n`` children
        of their expanded node — ``kids`` is the lane's ``(k, n)`` block
        of child store ids — with bounds from the lane's ``(k, n)`` kernel
        block (plus optional certified keep bounds ``ubs``) under each
        owner's current metric epoch.  One call replaces ``k`` separate
        ``push_many`` calls; the fan-out bases, child pages and epochs
        all come from store/arena column gathers, and the flush expands
        the lane into per-search runs with pure array arithmetic.
        """
        self._staged_cnt[sids] += kids.shape[1]
        self._staged_lanes.append(
            (sids, kids.shape[1], self._store.page[kids.ravel()],
             kids[:, 0], lbs.ravel(), self._epoch[sids], weak,
             None if ubs is None else ubs.ravel())
        )

    def len_attached(self, f: ArrivalFrontier) -> int:
        sid = f._sid
        return int(self._live[sid]) + int(self._staged_cnt[sid])

    def _fresh(self, f: ArrivalFrontier) -> None:
        """Flush when ``f`` has staged entries or unmerged registrations."""
        if self._dirty_adds or self._staged_cnt[f._sid]:
            self.flush()

    def flush(self) -> None:
        """Merge staged runs and drop tombstoned entries — compact lanes.

        One vectorised rebuild per executor round: surviving entries keep
        their per-owner order, each owner's staged run lands at its
        segment tail, and every lane is scattered in one fancy-index write
        (python cost is O(1) per *staged run*, not per entry).
        """
        staged = self._staged
        lanes = self._staged_lanes
        if (not staged and not lanes and self._n_dead == 0
                and not self._dirty_adds):
            return
        S = len(self._searches)
        n = self._m
        owner_old = self._e_owner[:n]
        alive_idx = np.flatnonzero(~self._dead[:n])
        counts_live = np.bincount(owner_old[alive_idx], minlength=S)
        counts_new = counts_live
        have_staged = bool(staged or lanes)
        if have_staged:
            # Normalise single runs and staged lanes into one run-level
            # view: per-run owner/count/base/epoch/weak arrays plus the
            # flat page and bound data in the same run order.
            sid_parts: List[np.ndarray] = []
            count_parts: List[np.ndarray] = []
            base_parts: List[np.ndarray] = []
            epoch_parts: List[np.ndarray] = []
            weak_parts: List[np.ndarray] = []
            page_parts: List[np.ndarray] = []
            lb_parts: List[np.ndarray] = []
            ub_parts: List[np.ndarray] = []
            if staged:
                fs, ns, pages_l, bases, lbs_l, epochs, weaks = map(
                    list, zip(*staged)
                )
                k1 = len(fs)
                sid_parts.append(np.fromiter(
                    (ft._sid for ft in fs), dtype=np.int64, count=k1
                ))
                count_parts.append(np.array(ns, dtype=np.int64))
                base_parts.append(np.array(bases, dtype=np.int64))
                epoch_parts.append(np.array(epochs, dtype=np.int64))
                weak_parts.append(np.array(weaks, dtype=bool))
                page_parts.extend(pages_l)
                lb_parts.extend(
                    v if v is not None else np.full(c, math.nan)
                    for v, c in zip(lbs_l, ns)
                )
                ub_parts.extend(np.full(c, math.inf) for c in ns)
            for (lsids, ln, lpages, lbases, llbs, lepochs, lweak,
                 lubs) in lanes:
                k = lsids.shape[0]
                sid_parts.append(lsids)
                count_parts.append(np.full(k, ln, dtype=np.int64))
                base_parts.append(lbases)
                epoch_parts.append(lepochs)
                weak_parts.append(np.full(k, lweak, dtype=bool))
                page_parts.append(lpages)
                lb_parts.append(llbs)
                ub_parts.append(
                    lubs if lubs is not None
                    else np.full(k * ln, math.inf)
                )
            st_sids = (sid_parts[0] if len(sid_parts) == 1
                       else np.concatenate(sid_parts))
            st_counts = (count_parts[0] if len(count_parts) == 1
                         else np.concatenate(count_parts))
            st_bases = (base_parts[0] if len(base_parts) == 1
                        else np.concatenate(base_parts))
            st_epochs = (epoch_parts[0] if len(epoch_parts) == 1
                         else np.concatenate(epoch_parts))
            st_weaks = (weak_parts[0] if len(weak_parts) == 1
                        else np.concatenate(weak_parts))
            counts_new = counts_live + np.bincount(
                st_sids, weights=st_counts, minlength=S
            ).astype(np.int64)
        seg = np.empty(S + 1, dtype=np.int64)
        seg[0] = 0
        np.cumsum(counts_new, out=seg[1:])
        m = int(seg[-1])
        if m >= (1 << _IDX_BITS):  # would corrupt the packed-key argmins
            raise RuntimeError(
                f"arena overflow: {m} queued entries exceed the "
                f"{1 << _IDX_BITS}-entry packed-index capacity"
            )
        e_page = np.empty(m, dtype=np.int64)
        e_nid = np.empty(m, dtype=np.int64)
        e_lb = np.empty(m, dtype=np.float64)
        e_ub = np.empty(m, dtype=np.float64)
        e_weak = np.empty(m, dtype=bool)
        e_epoch = np.empty(m, dtype=np.int64)
        if alive_idx.size:
            oa = owner_old[alive_idx]
            cb = np.empty(S, dtype=np.int64)
            cb[0] = 0
            np.cumsum(counts_live[:-1], out=cb[1:])
            dest = seg[:-1][oa] + (np.arange(alive_idx.size) - cb[oa])
            e_page[dest] = self._e_page[alive_idx]
            e_nid[dest] = self._e_nid[alive_idx]
            e_lb[dest] = self._e_lb[alive_idx]
            e_ub[dest] = self._e_ub[alive_idx]
            e_weak[dest] = self._e_weak[alive_idx]
            e_epoch[dest] = self._e_epoch[alive_idx]
        if have_staged:
            total = int(st_counts.sum())
            run_off = np.empty(st_counts.shape[0], dtype=np.int64)
            run_off[0] = 0
            np.cumsum(st_counts[:-1], out=run_off[1:])
            intra = np.arange(total) - np.repeat(run_off, st_counts)
            if np.unique(st_sids).shape[0] == st_sids.shape[0]:
                # One staged run per owner (every executor round): each
                # run lands at its segment tail in one vector expression.
                dest = np.repeat(
                    seg[:-1][st_sids] + counts_live[st_sids], st_counts
                ) + intra
            else:
                # Multiple runs per owner (imports of a pre-stepped
                # search, externally driven frontiers): place each run
                # after the owner's previously placed ones.
                dest = np.empty(total, dtype=np.int64)
                fill: dict = {}
                pos = 0
                for sid, cnt in zip(st_sids.tolist(), st_counts.tolist()):
                    off = fill.get(sid, 0)
                    fill[sid] = off + cnt
                    d0 = int(seg[sid]) + int(counts_live[sid]) + off
                    dest[pos:pos + cnt] = np.arange(d0, d0 + cnt)
                    pos += cnt
            e_page[dest] = (
                page_parts[0] if len(page_parts) == 1
                else np.concatenate(page_parts)
            )
            e_nid[dest] = np.repeat(st_bases, st_counts) + intra
            e_lb[dest] = (
                lb_parts[0] if len(lb_parts) == 1
                else np.concatenate(lb_parts)
            )
            e_ub[dest] = (
                ub_parts[0] if len(ub_parts) == 1
                else np.concatenate(ub_parts)
            )
            e_epoch[dest] = np.repeat(st_epochs, st_counts)
            e_weak[dest] = np.repeat(st_weaks, st_counts)
            # Footprint accounting, deferred from stage(): pushes only
            # grow a queue, so each frontier's largest size this flush
            # window is its post-flush size (counts_new) — one vector
            # maximum over every owner covers multiple staged runs per
            # frontier too.  (Import runs were already counted standalone;
            # their post-import size never exceeds that standalone peak,
            # so folding them in here cannot overcount.)
            self._maxsz[:S] = np.maximum(self._maxsz[:S], counts_new)
        self._e_page, self._e_nid = e_page, e_nid
        self._e_lb, self._e_weak, self._e_epoch = e_lb, e_weak, e_epoch
        self._e_ub = e_ub
        self._e_owner = np.repeat(np.arange(S, dtype=np.int64), counts_new)
        self._m = m
        self._dead = np.zeros(m, dtype=bool)
        self._n_dead = 0
        self._live[:S] = counts_new
        self._seg_start = seg
        self._staged = []
        self._staged_lanes = []
        self._staged_cnt[:S] = 0
        self._dirty_adds = False
        self._ver += 1

    # ------------------------------------------------------------------
    # The vectorised round: heads and batched pop_until
    # ------------------------------------------------------------------
    def begin_round(self) -> np.ndarray:
        """Head arrival of every registered search (inf when empty).

        One pass over all queued entries: cyclic arrival keys from the
        closed form (``base + (page - base) % L + phase``), then a
        segmented minimum per search.  The keys are cached for the
        :meth:`serve` call of the same round.
        """
        S = len(self._searches)
        n = self._m
        owner = self._e_owner
        base = np.ceil(self._now[:S] - self._phase[:S]).astype(np.int64)
        startk = base % self._cycle[:S]
        key = (self._e_page - startk[owner]) % self._cycle[owner]
        # Tie-break equal pages toward the newest entry (the standalone
        # frontier's sorted insert places newer equal pages first); lane
        # order is chronological per owner, so the reversed index wins.
        comp = (key << _IDX_BITS) | (
            _IDX_MASK - np.arange(n, dtype=np.int64)
        )
        if self._n_dead:
            comp = np.where(self._dead, _HUGE, comp)
        occ = self._live[:S] > 0
        offsets = self._seg_start[:-1][occ]
        heads = np.full(S, math.inf, dtype=np.float64)
        if offsets.size:
            head_comp = np.minimum.reduceat(comp, offsets)
            heads[occ] = (
                base[occ] + (head_comp >> _IDX_BITS)
            ).astype(np.float64) + self._phase[:S][occ]
        self._r_key = key
        self._r_comp = comp
        self._r_base = base
        self._r_occ = occ
        self._r_offsets = offsets
        return heads

    def serve(
        self,
        due: np.ndarray,
        limits: np.ndarray,
        stricts: np.ndarray,
    ) -> dict:
        """Batched ``pop_until`` for every due search of this round.

        Consumes each due search's certified-prunable run (entries whose
        epoch-stamped bound proves a prune, up to the first survivor and
        within the pairing limit) with one mask write, and returns the
        survivors as parallel arrays: entry index, arrival, page, node id,
        bounds, weak/stamped flags, plus the post-consumption live count.
        The caller finishes each serve in O(1): verify the survivor's keep
        (rare scalar work), download, and group it into the round's
        absorb lanes.  Must follow :meth:`begin_round` in the same round.
        """
        S = len(self._searches)
        owner = self._e_owner
        key = self._r_key
        comp = self._r_comp
        base = self._r_base
        limit_by = np.full(S, -math.inf, dtype=np.float64)
        limit_by[due] = limits
        strict_by = np.zeros(S, dtype=bool)
        strict_by[due] = stricts
        stamped = self._e_epoch == self._epoch[owner]
        prunable = stamped & (self._e_lb > self._ub[owner])
        npc = np.where(prunable, _HUGE, comp)
        sur_comp_by = np.full(S, _HUGE, dtype=np.int64)
        if self._r_offsets.size:
            sur_comp_by[self._r_occ] = np.minimum.reduceat(
                npc, self._r_offsets
            )
        arrival = (base[owner] + key).astype(np.float64) + self._phase[owner]
        lim_e = limit_by[owner]
        allowed = (arrival < lim_e) | (
            (arrival == lim_e) & ~strict_by[owner]
        )
        consumed = prunable & allowed & (
            key < (sur_comp_by >> _IDX_BITS)[owner]
        )
        cidx = np.flatnonzero(consumed)
        if cidx.size:
            self._dead[cidx] = True
            self._n_dead += cidx.size
            self._live[:S] -= np.bincount(owner[cidx], minlength=S)
            self._ver += 1
        sur_comp = sur_comp_by[due]
        has = sur_comp < _HUGE
        sidx = _IDX_MASK - (sur_comp & _IDX_MASK)
        sarr = (
            base[due] + (sur_comp >> _IDX_BITS)
        ).astype(np.float64) + self._phase[due]
        ok = has & ((sarr < limits) | ((sarr == limits) & ~stricts))
        # Actionable survivors are consumed (and their owners' clocks
        # advanced to arrival + 1) right here, in three vector writes —
        # the caller's python loop only performs the download bookkeeping.
        # The rare scalar fallbacks (failed certified keep, stale bounds)
        # re-sync the owner's clock from its tuner.
        kidx = sidx[ok]
        if kidx.size:
            kdue = due[ok]
            self._dead[kidx] = True
            self._n_dead += kidx.size
            self._live[:S] -= np.bincount(kdue, minlength=S)
            self._now[kdue] = sarr[ok] + 1.0
            self._ver += 1
        gidx = np.where(has, sidx, 0)
        # Vector views for the executor's row selection and the
        # TunerLedger round flush: actionable / finish-probe rows come from
        # flatnonzero over these, and the confirmed downloads' clock /
        # counter / event updates batch straight from them instead of being
        # re-derived row by row.
        return {
            "act": ok,
            "has": has,
            "live": self._live[due],
            "arrival": sarr,
            "page": self._e_page[gidx],
            "idx": sidx,
            "nid": self._e_nid[gidx],
            "lb": self._e_lb[gidx],
            "ub": self._e_ub[gidx],
            "weak": self._e_weak[gidx],
            "stamped": stamped[gidx],
        }

    def kill(self, sid: int, idx: int) -> None:
        """Tombstone one entry (a consumed survivor)."""
        self._dead[idx] = True
        self._n_dead += 1
        self._live[sid] -= 1
        self._ver += 1

    # ------------------------------------------------------------------
    # Attached-frontier operations (rare paths, full pop semantics)
    # ------------------------------------------------------------------
    def _alive_of(self, sid: int) -> np.ndarray:
        s0 = int(self._seg_start[sid])
        s1 = int(self._seg_start[sid + 1])
        if self._n_dead:
            return s0 + np.flatnonzero(~self._dead[s0:s1])
        return np.arange(s0, s1)

    def _keys_of(self, f: ArrivalFrontier, idxs: np.ndarray) -> np.ndarray:
        base = math.ceil(f._tuner.now - f._phase)
        return (self._e_page[idxs] - base % f._cycle) % f._cycle

    def peek_arrival_attached(self, f: ArrivalFrontier) -> float:
        self._fresh(f)
        idxs = self._alive_of(f._sid)
        if not idxs.size:
            return math.inf
        base = math.ceil(f._tuner.now - f._phase)
        key = int(self._keys_of(f, idxs).min())
        return base + key + f._phase

    def _node_of(self, e: int) -> RTreeNode:
        """The node queued at entry ``e``."""
        return self._store.nodes[int(self._e_nid[e])]

    def pop_attached(
        self, f: ArrivalFrontier, epoch: int
    ) -> Tuple[RTreeNode, Optional[float], bool]:
        """Attached :meth:`ArrivalFrontier.pop` semantics."""
        self._fresh(f)
        sid = f._sid
        idxs = self._alive_of(sid)
        if not idxs.size:
            raise RuntimeError("step() on a finished search")
        keys = self._keys_of(f, idxs)
        comp = (keys << _IDX_BITS) | (_IDX_MASK - idxs)
        e = int(idxs[int(np.argmin(comp))])
        self.kill(sid, e)
        node = self._node_of(e)
        lb: Optional[float] = None
        weak = False
        if int(self._e_epoch[e]) == epoch:
            lb = float(self._e_lb[e])
            weak = bool(self._e_weak[e])
        elif f.lower_evaluator is not None:
            lb = self._eval_stale_attached(f, e, epoch)
        return node, lb, weak

    def pop_until_attached(
        self,
        f: ArrivalFrontier,
        upper_bound: float,
        epoch: int,
        limit: float = math.inf,
        strict: bool = False,
    ) -> Optional[Tuple[RTreeNode, Optional[float], bool, float]]:
        """Attached :meth:`ArrivalFrontier.pop_until` semantics.

        The scalar reference walk over one segment — used by the
        executor's continuation after a failed certified keep (the
        vectorised :meth:`serve` already consumed up to that survivor)
        and by any external driver of an attached search.
        """
        self._fresh(f)
        sid = f._sid
        idxs = self._alive_of(sid)
        if not idxs.size:
            return None
        base = math.ceil(f._tuner.now - f._phase)
        keys = self._keys_of(f, idxs)
        order = np.argsort((keys << _IDX_BITS) | (_IDX_MASK - idxs))
        for t in order.tolist():
            e = int(idxs[t])
            arrival = base + int(keys[t]) + f._phase
            if arrival > limit or (strict and arrival == limit):
                return None
            self.kill(sid, e)
            if int(self._e_epoch[e]) == epoch:
                lb = float(self._e_lb[e])
                if lb > upper_bound:
                    continue  # certified prune (weak or exact)
                return (
                    self._node_of(e), lb,
                    bool(self._e_weak[e]), arrival,
                )
            node = self._node_of(e)
            if f.lower_evaluator is not None:
                lb = self._eval_stale_attached(f, e, epoch)
                if lb is not None:
                    if lb > upper_bound:
                        continue
                    return node, lb, False, arrival
            return node, None, False, arrival
        return None

    def _eval_stale_attached(
        self, f: ArrivalFrontier, popped_idx: int, epoch: int
    ) -> Optional[float]:
        """Attached ``_eval_pending``: batch-evaluate the stale entries."""
        idxs = self._alive_of(f._sid)
        stale = idxs[self._e_epoch[idxs] != epoch]
        if not stale.size:
            return None
        rows = self._store.mbr[
            np.append(self._e_nid[stale], self._e_nid[popped_idx])
        ]
        values = f.lower_evaluator(rows)
        self._e_lb[stale] = values[:-1]
        self._e_epoch[stale] = epoch
        self._e_weak[stale] = False
        self._ver += 1
        return float(values[-1])

    # ------------------------------------------------------------------
    # Whole-queue access for attached frontiers (re-steer rescans)
    # ------------------------------------------------------------------
    def _sorted_alive(self, f: ArrivalFrontier) -> np.ndarray:
        """Live entry indices of one search, sorted by page id.

        Page order is the standalone frontier's storage order, so rescans
        observe the exact iteration order of the oracle (argmin ties in
        the upper-bound scan resolve identically).
        """
        sid = f._sid
        ver, cached_sid, cached = self._order_cache
        if ver == self._ver and cached_sid == sid and cached is not None:
            return cached
        idxs = self._alive_of(sid)
        # Equal pages order newest-first, like the standalone frontier's
        # sorted insert (real searches queue each page at most once; this
        # matters only for externally driven degenerate frontiers).
        order = idxs[np.argsort(
            (self._e_page[idxs] << _IDX_BITS) | (_IDX_MASK - idxs)
        )]
        self._order_cache = (self._ver, sid, order)
        return order

    def active_nodes_attached(self, f: ArrivalFrontier) -> List[RTreeNode]:
        self._fresh(f)
        nodes = self._store.nodes
        return [nodes[nid] for nid in
                self._e_nid[self._sorted_alive(f)].tolist()]

    def active_mbrs_attached(self, f: ArrivalFrontier) -> np.ndarray:
        self._fresh(f)
        return self._store.mbr[self._e_nid[self._sorted_alive(f)]]

    def store_lower_attached(
        self, f: ArrivalFrontier, rows, values: np.ndarray, epoch: int
    ) -> None:
        self._fresh(f)
        order = self._sorted_alive(f)
        sel = order[np.asarray(rows, dtype=np.int64)]
        self._e_lb[sel] = values
        self._e_epoch[sel] = epoch
        self._e_weak[sel] = False
