"""Layout-agnostic air-index substrate.

The geometry kernels (:mod:`repro.geometry.kernels`) consume one *packed*
representation of an index node's fan-out — contiguous child-MBR /
subtree-count arrays for internal nodes, a contiguous point array for
leaves — regardless of which spatial partitioning produced the
node.  This package owns that representation (:mod:`repro.index.packed`)
and the non-R-tree air-index builders that emit it:

* :mod:`repro.index.grid` — a fixed-grid air index (cell-bucketed
  leaves packed upward in row-major cell order);
* :mod:`repro.index.quadtree` — a region-quadtree air index (recursive
  four-way subdivision, padded to a balanced page tree).

Both builders return plain :class:`~repro.rtree.tree.RTree` containers, so
the entire client stack — the drain walk, the arrival heap, the group
driver — works on them unchanged; only the broadcast layout
(:mod:`repro.broadcast.layout`) knows which backend built the index.

Submodule imports are deliberately explicit (``from repro.index.grid
import grid_pack``): the builders pack their pages with the level builder
of :mod:`repro.rtree.packing`, so this ``__init__`` does not import them
at package-import time.
"""

from repro.index.packed import (
    pack_child_counts,
    pack_child_mbrs,
    pack_points,
)

__all__ = [
    "pack_child_mbrs",
    "pack_child_counts",
    "pack_points",
]
