"""Partial index replication: the shared schedule of uneven air indexes.

Two established broadcast organisations replicate only a *subset* of the
index pages with every data chunk while airing the full index once per
cycle:

``[ full index | chunk 0 | subset | chunk 1 | ... | subset | chunk m-1 ]``

* **distributed indexing** (Imielinski, Viswanathan & Badrinath) picks the
  subset structurally — the top ``t`` tree levels
  (:class:`~repro.broadcast.distributed.DistributedBroadcastProgram`);
* **broadcast disks** (Acharya et al.) pick it by access frequency — the
  pages a skewed query population hammers
  (:class:`~repro.broadcast.disks.BroadcastDiskProgram`).

Both share every piece of the cycle arithmetic except *which* pages repeat,
so this module owns the common machinery: the shortened cycle, the cached
per-page arrival-position tables, and the data-page offsets around the
leading full-index copy.  Replica positions are uneven, so these layouts
have no cyclic page order (``has_cyclic_order = False``): clients skip
the drain walk's closed-form arrivals and step on the heap queue, which
consumes the cached position arrays through
:meth:`~repro.broadcast.program.BroadcastProgram.next_arrival_at_positions`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

import numpy as np

from repro.broadcast.config import SystemParameters
from repro.broadcast.program import BroadcastProgram
from repro.rtree.tree import RTree


class PartialReplicationProgram(BroadcastProgram):
    """A (1, m) program whose follower super-pages carry a page subset.

    Subclasses call :meth:`_layout_replicas` with the set of index pages
    to repeat per chunk; the full index (DFS preorder) always opens the
    cycle, so every page is on air at least once per cycle and page 0 (the
    root) keeps its offset-0 anchor.
    """

    #: Replica positions are uneven — no cyclic page order, no drain
    #: walk; clients use the cached arrival-position tables instead.
    uniform_index_replication = False
    has_cyclic_order = False

    def __init__(
        self,
        tree: RTree,
        params: SystemParameters | None = None,
        m: int | None = None,
    ) -> None:
        # Initialise the base layout first (assigns page ids, sizes, m).
        super().__init__(tree, params, m=m)

    def _layout_replicas(self, replicated_pages: Iterable[int]) -> None:
        """Fix the cycle around the given per-chunk replica subset.

        ``replicated_pages`` are the index pages repeated with chunks
        1..m-1; their per-chunk order is ascending page id (a DFS-preorder
        subsequence, so ancestors still precede descendants on air).
        """
        #: Per-chunk rank of each replicated page (ascending page order).
        self._replica_rank: Dict[int, int] = {
            page: rank
            for rank, page in enumerate(sorted(set(replicated_pages)))
        }
        for page in self._replica_rank:
            if not 0 <= page < self.index_length:
                raise ValueError(f"replicated page {page} out of range")
        self.replicated_index_length = len(self._replica_rank)
        #: Length of the leading super-page (full index + chunk).
        self._full_super = self.index_length + self.chunk_length
        #: Length of each follower super-page (replica subset + chunk).
        self._replica_super = self.replicated_index_length + self.chunk_length
        self.cycle_length = self._full_super + (self.m - 1) * self._replica_super
        #: Per-page arrival-position tables.  Positions are irregular (one
        #: full copy plus up to ``m - 1`` subset copies), so unlike the
        #: base class there is no closed form — cache one frozen offset
        #: array per page instead.
        self._position_arrays: List[np.ndarray] = [
            self._compute_positions(page_id)
            for page_id in range(self.index_length)
        ]

    def _compute_positions(self, page_id: int) -> np.ndarray:
        positions = [page_id]  # the full copy, in DFS order at cycle start
        rank = self._replica_rank.get(page_id)
        if rank is not None:
            for j in range(1, self.m):
                positions.append(
                    self._full_super + (j - 1) * self._replica_super + rank
                )
        arr = np.asarray(positions, dtype=np.int64)
        # The cached array itself is handed out by index_position_array;
        # freeze it so no caller can corrupt the arrival table in place.
        arr.setflags(write=False)
        return arr

    # ------------------------------------------------------------------
    def index_page_positions(self, page_id: int) -> List[int]:
        return self.index_position_array(page_id).tolist()

    def index_position_array(self, page_id: int) -> np.ndarray:
        if not 0 <= page_id < self.index_length:
            raise ValueError(f"index page {page_id} out of range")
        return self._position_arrays[page_id]

    def next_index_arrival(self, page_id: int, now: float) -> float:
        """Earliest arrival of index page ``page_id`` at or after ``now``.

        Replica positions are unevenly spaced here, so the base class's
        O(1) modular shortcut does not apply; scan the cached offset array.
        """
        return self.next_arrival_at_positions(self.index_position_array(page_id), now)

    def data_page_position(self, data_offset: int) -> int:
        if not 0 <= data_offset < self.data_length:
            raise ValueError(f"data offset {data_offset} out of range")
        if self.chunk_length == 0:
            raise ValueError("program has no data pages")
        chunk, within = divmod(data_offset, self.chunk_length)
        if chunk == 0:
            return self.index_length + within
        return (
            self._full_super
            + (chunk - 1) * self._replica_super
            + self.replicated_index_length
            + within
        )

    # ------------------------------------------------------------------
    def replication_overhead(self) -> float:
        """Index pages per cycle, relative to broadcasting the index once."""
        total = self.index_length + (self.m - 1) * self.replicated_index_length
        return total / self.index_length

    @classmethod
    def full_replication_overhead(cls, tree: RTree, m: int) -> float:
        """The (1, m) scheme's overhead, for comparison: exactly ``m``."""
        return float(m)
