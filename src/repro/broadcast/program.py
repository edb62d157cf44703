"""(1, m) broadcast program: index/data layout and cyclic arrival arithmetic.

A broadcast cycle consists of ``m`` super-pages, each carrying the **whole**
index (R-tree nodes in depth-first preorder — Section 6: "we arrange the
R-tree in a depth-first order in the broadcast channels") followed by a
``1/m`` fraction of the data pages:

``[ index | data chunk 0 | index | data chunk 1 | ... | index | chunk m-1 ]``

Pointers in the air index refer to arrival times, which this module computes
arithmetically — the cycle is never materialised, so 10^6-slot cycles cost
nothing.
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

from repro.broadcast.config import SystemParameters
from repro.rtree.tree import RTree


def expected_access_pages(index_pages: int, data_pages: int, m: int) -> float:
    """Expected access time (in pages) of a (1, m) layout.

    Half a super-page to reach the next index copy, then half a cycle to
    reach the wanted data page: ``(m + 1) / 2 * (index + data / m)``.
    Convex in ``m`` with minimum at ``m* = sqrt(data / index)``.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return (m + 1) * (index_pages + data_pages / m) / 2


def optimal_m(index_pages: int, data_pages: int) -> int:
    """The access-time-optimal replication factor for the (1, m) scheme.

    Imielinski et al. show the continuous optimum is
    ``m* = sqrt(data / index)`` — balancing index-replication overhead
    against the wait for the next index copy.  The best *integer* ``m`` is
    the argmin of the actual expected-access-time cost between ``floor(m*)``
    and ``ceil(m*)`` (rounding the square root can pick the worse side:
    e.g. index=4, data=25 has ``m* = 2.5`` where ``m = 3`` wins).  The cost
    is convex, so the better neighbour is the global integer optimum.
    Always at least 1.
    """
    if index_pages <= 0:
        raise ValueError("index must contain at least one page")
    if data_pages <= 0:
        return 1
    root = math.sqrt(data_pages / index_pages)
    lo = max(1, math.floor(root))
    hi = max(1, math.ceil(root))
    return min(
        (lo, hi), key=lambda m: (expected_access_pages(index_pages, data_pages, m), m)
    )


class BroadcastProgram:
    """The per-dataset broadcast layout and its arrival-time arithmetic.

    Building the program assigns ``page_id`` (depth-first preorder rank) to
    every R-tree node; the id doubles as the node's offset inside the index
    segment.  Data objects are laid out in leaf order, ``pages_per_object``
    consecutive pages each, and split into ``m`` equal chunks (the last
    chunk is padded with filler slots so every super-page has equal length).
    """

    #: Capability flag: every index page's replicas sit exactly one
    #: super-page apart, i.e. arrival order is cyclic page-id order — the
    #: property the client's drain walk exploits for its closed-form
    #: arrivals.  Irregular layouts
    #: (distributed indexing, broadcast-disk schedules) override this with
    #: False, which routes clients onto the position-table heap fallback.
    #: Declared by the generating :class:`~repro.broadcast.layout
    #: .BroadcastLayout` and mirrored here on the program it builds.
    has_cyclic_order = True
    #: Legacy alias of :attr:`has_cyclic_order` (pre-layout-seam name).
    uniform_index_replication = True

    def __init__(
        self,
        tree: RTree,
        params: SystemParameters | None = None,
        m: int | None = None,
    ) -> None:
        self.tree = tree
        self.params = params or SystemParameters()
        tree.assign_page_ids()
        self.index_length = tree.node_count()
        self.object_count = tree.size
        self.data_length = self.object_count * self.params.pages_per_object
        self.m = m if m is not None else optimal_m(self.index_length, self.data_length)
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        self.chunk_length = math.ceil(self.data_length / self.m) if self.data_length else 0
        #: Length of one [index | chunk] super-page.
        self.super_page_length = self.index_length + self.chunk_length
        #: Total cycle length in page slots (includes padding in the last chunk).
        self.cycle_length = self.m * self.super_page_length
        #: Cycle offsets of the ``m`` index-copy starts — the per-program
        #: arrival-position table.  Index page ``p`` is on air at offsets
        #: ``p + _super_offsets``; cached once so the per-query hot path
        #: never rebuilds position lists.
        self._super_offsets = np.arange(self.m, dtype=np.int64) * self.super_page_length

    # ------------------------------------------------------------------
    # Positions within one cycle
    # ------------------------------------------------------------------
    def index_page_positions(self, page_id: int) -> List[int]:
        """All cycle offsets at which index page ``page_id`` is on air."""
        return self.index_position_array(page_id).tolist()

    def index_position_array(self, page_id: int) -> np.ndarray:
        """All cycle offsets of index page ``page_id``, as a numpy array."""
        if not 0 <= page_id < self.index_length:
            raise ValueError(f"index page {page_id} out of range")
        return page_id + self._super_offsets

    def data_page_position(self, data_offset: int) -> int:
        """Cycle offset of the data page at stream offset ``data_offset``."""
        if not 0 <= data_offset < self.data_length:
            raise ValueError(f"data offset {data_offset} out of range")
        if self.chunk_length == 0:
            raise ValueError("program has no data pages")
        chunk, within = divmod(data_offset, self.chunk_length)
        return chunk * self.super_page_length + self.index_length + within

    def object_data_offsets(self, object_index: int) -> List[int]:
        """Data-stream offsets of all pages of object ``object_index``."""
        if not 0 <= object_index < self.object_count:
            raise ValueError(f"object {object_index} out of range")
        ppo = self.params.pages_per_object
        start = object_index * ppo
        return list(range(start, start + ppo))

    # ------------------------------------------------------------------
    # Arrival arithmetic
    # ------------------------------------------------------------------
    def next_arrival_at_positions(
        self, positions: Sequence[int] | np.ndarray, now: float
    ) -> float:
        """Earliest slot >= ``now`` whose cycle offset is in ``positions``.

        ``now`` is an absolute time on an un-shifted channel; phase shifts
        are applied by :class:`~repro.broadcast.channel.BroadcastChannel`.
        Accepts plain sequences or cached numpy offset arrays.
        """
        base = math.ceil(now)
        phase = base % self.cycle_length
        if isinstance(positions, np.ndarray):
            if positions.size == 0:
                raise ValueError("no broadcast positions supplied")
            return base + int(((positions - phase) % self.cycle_length).min())
        best = None
        for pos in positions:
            delta = (pos - phase) % self.cycle_length
            if best is None or delta < best:
                best = delta
        if best is None:
            raise ValueError("no broadcast positions supplied")
        return base + best

    def next_index_arrival(self, page_id: int, now: float) -> float:
        """Earliest arrival of index page ``page_id`` at or after ``now``.

        The ``m`` replicas of an index page sit exactly one super-page
        apart, so the earliest one is at delta ``(page_id - now) mod
        super_page_length`` — O(1), no position list needed.  This is the
        hottest call in the whole client stack (every queue push, peek and
        head refresh lands here).
        """
        if not 0 <= page_id < self.index_length:
            raise ValueError(f"index page {page_id} out of range")
        base = math.ceil(now)
        return base + (page_id - base) % self.super_page_length
