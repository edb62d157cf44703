"""Fixed-grid air index: cell-bucketed leaves packed into a page tree.

The classic alternative to a broadcast R-tree (Zheng et al.'s grid-based
air indexes): the region is cut into a ``G x G`` grid of equal cells, every
data point is bucketed into its cell, and the broadcast index enumerates
the cells in row-major order.  Here the grid is materialised as a balanced
page tree so the entire client stack (the drain walk, the arrival heap,
the shared-scan executor) works unchanged:

* each non-empty cell's points become one run of leaf pages (at most
  ``leaf_capacity`` points each, tight MBRs);
* leaves are packed upward level by level in row-major cell order, at most
  ``fanout`` children per directory page.

The difference from an R-tree is purely the *partitioning*: grid cells
ignore the data distribution, so cell MBRs of skewed data overlap badly
and directory pages prune worse — exactly the trade-off the air-index
matrix benchmark measures.  Directory MBRs are tight around their
contents (not the nominal cell rectangles), which only improves pruning
and keeps the structural invariants of :meth:`repro.rtree.tree
.RTree.validate` intact.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from repro.geometry import Point, Rect
from repro.rtree.packing import _coords, _leaf_level, _pack_levels, _validate
from repro.rtree.tree import RTree


def default_grid_cells(n_points: int, leaf_capacity: int) -> int:
    """Grid side length aiming at roughly one leaf page per cell."""
    return max(1, math.ceil(math.sqrt(math.ceil(n_points / leaf_capacity))))


def grid_pack(
    points: Sequence[Point],
    leaf_capacity: int,
    fanout: int,
    cells: Optional[int] = None,
) -> RTree:
    """Build a fixed-grid air index over ``points``.

    ``cells`` is the grid side length ``G`` (default: enough cells for
    roughly one leaf page per cell).  Points exactly on a cell boundary
    belong to the higher cell, and the last row/column absorbs the region
    edge, so every point lands in exactly one cell.  Within a cell, points
    keep ``(y, x)`` order so leaf runs are spatially coherent.
    """
    _validate(points, leaf_capacity, fanout)
    g = default_grid_cells(len(points), leaf_capacity) if cells is None else cells
    if g < 1:
        raise ValueError(f"grid must have at least one cell per side, got {g}")
    region = Rect.from_points(points)
    w = region.width or 1.0
    h = region.height or 1.0
    x, y = _coords(points)
    col = np.minimum(((x - region.xmin) / w * g).astype(np.int64), g - 1)
    row = np.minimum(((y - region.ymin) / h * g).astype(np.int64), g - 1)
    cell = row * g + col
    order = np.lexsort((x, y, cell))
    # Each non-empty cell starts a new run of leaves.
    firsts = np.flatnonzero(np.diff(cell[order], prepend=-1)).tolist()
    starts = [
        s
        for a, b in zip(firsts, [*firsts[1:], len(points)])
        for s in range(a, b, leaf_capacity)
    ]
    root = _pack_levels(_leaf_level(points, order.tolist(), starts), fanout)
    return RTree(
        root=root, leaf_capacity=leaf_capacity, fanout=fanout, size=len(points)
    )
