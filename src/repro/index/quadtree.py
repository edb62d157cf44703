"""Region-quadtree air index, padded to a balanced page tree.

The second classic air-index alternative: recursively split the region
into four equal quadrants until a cell's points fit one leaf page.  A raw
region quadtree is unbalanced (dense areas subdivide deeper), but the
whole client stack — the paper's DFS broadcast order, the delayed-pruning
queue bound, the packed fan-outs — assumes every leaf sits at
level 0.  The builder therefore *pads* shallow branches with single-child
directory pages until all branches reach the deepest quadrant's height.
Padding pages are real broadcast pages (they cost index slots and
downloads), which faithfully models the known weakness of hierarchical
space partitioning on air: skewed data buys deep, thin index chains.

Two page-capacity accommodations:

* a quadrant split produces up to four children, but the paper's 64-byte
  pages hold only ``M = 3`` entries — sibling quadrants are re-grouped
  into runs of at most ``fanout`` children, adding one directory level
  when ``fanout < 4``;
* directory MBRs are tight around their contents rather than the nominal
  quadrant rectangles (strictly better pruning, same structure), so
  :meth:`repro.rtree.tree.RTree.validate` invariants hold verbatim.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.geometry import Point, Rect
from repro.rtree.node import RTreeNode
from repro.rtree.packing import _leaf_level, _pack_levels, _runs, _validate
from repro.rtree.tree import RTree

#: Subdivision stops at this depth regardless of occupancy, so duplicate
#: (or near-duplicate) points cannot recurse forever; the overflowing cell
#: falls back to a run of chained leaf pages.
DEFAULT_MAX_DEPTH = 16


def quadtree_pack(
    points: Sequence[Point],
    leaf_capacity: int,
    fanout: int,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> RTree:
    """Build a region-quadtree air index over ``points``."""
    _validate(points, leaf_capacity, fanout)
    if max_depth < 1:
        raise ValueError(f"max_depth must be >= 1, got {max_depth}")
    region = Rect.from_points(points)
    root = _build(list(points), region, leaf_capacity, fanout, max_depth)
    return RTree(
        root=root, leaf_capacity=leaf_capacity, fanout=fanout, size=len(points)
    )


def _build(
    points: List[Point],
    cell: Rect,
    leaf_capacity: int,
    fanout: int,
    depth_left: int,
) -> RTreeNode:
    """One quadrant's balanced subtree."""
    if len(points) <= leaf_capacity or depth_left == 0 or not _splittable(cell):
        ordered = sorted(points, key=lambda p: (p.y, p.x))
        n = len(ordered)
        leaves = _leaf_level(ordered, range(n), _runs(n, leaf_capacity))
        return _pack_levels(leaves, fanout)
    midx = (cell.xmin + cell.xmax) / 2.0
    midy = (cell.ymin + cell.ymax) / 2.0
    quads: List[List[Point]] = [[], [], [], []]
    for p in points:
        quads[(2 if p.y >= midy else 0) + (1 if p.x >= midx else 0)].append(p)
    rects = (
        Rect(cell.xmin, cell.ymin, midx, midy),  # SW
        Rect(midx, cell.ymin, cell.xmax, midy),  # SE
        Rect(cell.xmin, midy, midx, cell.ymax),  # NW
        Rect(midx, midy, cell.xmax, cell.ymax),  # NE
    )
    children = [
        _build(q, r, leaf_capacity, fanout, depth_left - 1)
        for q, r in zip(quads, rects)
        if q
    ]
    if len(children) == 1:
        # Every point fell into one quadrant: no directory page is needed
        # (the recursion already narrowed the cell), and skipping it keeps
        # padding chains as short as the data allows.
        return children[0]
    # Sibling quadrants may have subdivided to different depths; pad the
    # shallow ones with single-child directory chains so the grouped
    # parent sees one uniform level (the balance invariant every client
    # component assumes).
    top = max(c.level for c in children)
    children = [_lift(c, top) for c in children]
    return _pack_levels(children, fanout)


def _lift(node: RTreeNode, level: int) -> RTreeNode:
    """Wrap ``node`` in single-child directory pages up to ``level``."""
    while node.level < level:
        node = RTreeNode.internal([node])
    return node


def _splittable(cell: Rect) -> bool:
    """False once a cell is too small for midpoints to separate points."""
    midx = (cell.xmin + cell.xmax) / 2.0
    midy = (cell.ymin + cell.ymax) / 2.0
    return (cell.xmin < midx < cell.xmax) or (cell.ymin < midy < cell.ymax)
