"""Bulk-loading (packing) algorithms for static R-trees.

The broadcast setting knows all points a priori and performs no updates, so
the paper builds the air index with a packing algorithm.  Three classic
packers are provided:

* :func:`str_pack` — Sort-Tile-Recursive (Leutenegger, Lopez, Edgington,
  ICDE'97), the paper's choice "to achieve the best performance";
* :func:`hilbert_pack` — Hilbert-sort packing (Kamel & Faloutsos, CIKM'93);
* :func:`nearest_x_pack` — Nearest-X / lowest-X packing (Roussopoulos &
  Leifker, SIGMOD'85).

All three produce balanced trees whose leaves hold at most ``leaf_capacity``
points and whose internal nodes hold at most ``fanout`` children.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from repro.geometry import Point, Rect
from repro.rtree.hilbert import hilbert_key_for
from repro.rtree.node import RTreeNode
from repro.rtree.tree import RTree

#: Hilbert curve resolution used for sorting (2^16 x 2^16 grid).
_HILBERT_ORDER = 16


def _chunks(seq: Sequence, size: int) -> list[list]:
    """Split ``seq`` into consecutive runs of at most ``size`` items."""
    return [list(seq[i : i + size]) for i in range(0, len(seq), size)]


def _pack_upward(nodes: list[RTreeNode], fanout: int, group: Callable) -> RTreeNode:
    """Repeatedly group ``nodes`` into parents until a single root remains.

    ``group`` arranges one level's nodes into lists of at most ``fanout``
    spatially-close siblings.
    """
    while len(nodes) > 1:
        nodes = [RTreeNode.internal(g) for g in group(nodes, fanout)]
    return nodes[0]


def _str_group_nodes(nodes: list[RTreeNode], fanout: int) -> list[list[RTreeNode]]:
    """One STR tiling pass over a level of nodes, keyed by MBR centers."""
    n = len(nodes)
    leaf_pages = math.ceil(n / fanout)
    slices = math.ceil(math.sqrt(leaf_pages))
    by_x = sorted(nodes, key=lambda nd: (nd.mbr.center.x, nd.mbr.center.y))
    slabs = _chunks(by_x, slices * fanout)
    groups: list[list[RTreeNode]] = []
    for slab in slabs:
        by_y = sorted(slab, key=lambda nd: (nd.mbr.center.y, nd.mbr.center.x))
        groups.extend(_chunks(by_y, fanout))
    return groups


def str_pack(points: Sequence[Point], leaf_capacity: int, fanout: int) -> RTree:
    """Build an STR-packed R-tree.

    Points are sorted by x, tiled into vertical slabs, each slab sorted by y
    and cut into leaf pages; upper levels repeat the same tiling over node
    centers.
    """
    _validate(points, leaf_capacity, fanout)
    n = len(points)
    leaf_pages = math.ceil(n / leaf_capacity)
    slices = math.ceil(math.sqrt(leaf_pages))
    by_x = sorted(points, key=lambda p: (p.x, p.y))
    leaves: list[RTreeNode] = []
    for slab in _chunks(by_x, slices * leaf_capacity):
        by_y = sorted(slab, key=lambda p: (p.y, p.x))
        leaves.extend(RTreeNode.leaf(run) for run in _chunks(by_y, leaf_capacity))
    root = _pack_upward(leaves, fanout, _str_group_nodes)
    return RTree(root=root, leaf_capacity=leaf_capacity, fanout=fanout, size=n)


def _linear_group_nodes(nodes: list[RTreeNode], fanout: int) -> list[list[RTreeNode]]:
    """Group a level by the existing order (used by linear-sort packers)."""
    return _chunks(nodes, fanout)


def hilbert_pack(points: Sequence[Point], leaf_capacity: int, fanout: int) -> RTree:
    """Build an R-tree by sorting points along the Hilbert curve."""
    _validate(points, leaf_capacity, fanout)
    region = Rect.from_points(points)
    w = region.width or 1.0
    h = region.height or 1.0

    def key(p: Point) -> int:
        return hilbert_key_for(
            _HILBERT_ORDER, (p.x - region.xmin) / w, (p.y - region.ymin) / h
        )

    ordered = sorted(points, key=key)
    leaves = [RTreeNode.leaf(run) for run in _chunks(ordered, leaf_capacity)]
    root = _pack_upward(leaves, fanout, _linear_group_nodes)
    return RTree(root=root, leaf_capacity=leaf_capacity, fanout=fanout, size=len(points))


def nearest_x_pack(points: Sequence[Point], leaf_capacity: int, fanout: int) -> RTree:
    """Build an R-tree by packing points in ascending x order (Nearest-X)."""
    _validate(points, leaf_capacity, fanout)
    ordered = sorted(points, key=lambda p: (p.x, p.y))
    leaves = [RTreeNode.leaf(run) for run in _chunks(ordered, leaf_capacity)]
    root = _pack_upward(leaves, fanout, _linear_group_nodes)
    return RTree(root=root, leaf_capacity=leaf_capacity, fanout=fanout, size=len(points))


_PACKERS: dict[str, Callable[[Sequence[Point], int, int], RTree]] = {
    "str": str_pack,
    "hilbert": hilbert_pack,
    "nearest_x": nearest_x_pack,
}


def build_rtree(
    points: Sequence[Point],
    leaf_capacity: int,
    fanout: int,
    method: str = "str",
) -> RTree:
    """Build a packed R-tree with the named packing ``method``.

    ``method`` is one of ``"str"`` (default, the paper's setting),
    ``"hilbert"`` or ``"nearest_x"``.
    """
    try:
        packer = _PACKERS[method]
    except KeyError:
        raise ValueError(
            f"unknown packing method {method!r}; choose from {sorted(_PACKERS)}"
        ) from None
    return packer(points, leaf_capacity, fanout)


def _validate(points: Sequence[Point], leaf_capacity: int, fanout: int) -> None:
    if not points:
        raise ValueError("cannot build an R-tree over an empty dataset")
    if leaf_capacity < 1:
        raise ValueError(f"leaf_capacity must be >= 1, got {leaf_capacity}")
    if fanout < 2:
        raise ValueError(f"fanout must be >= 2, got {fanout}")
