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

Orders are computed a whole level at a time on numpy arrays: STR tiles
every level with two ``lexsort`` calls over coordinates or MBR centres;
Hilbert (a stable ``argsort`` of the curve keys) and Nearest-X (one
``lexsort``) order only the points and pack upper levels in runs.  Both
sorts are stable, so ties keep the order a stable Python sort on the
same keys would give.  Each level's nodes are then built in one plain
loop, their MBRs taking Python ``min``/``max`` over the input's own float
objects, so node coordinates are shared with the points.
:func:`_leaf_level` and :func:`_pack_levels` are the one level builder;
the grid and quadtree air indexes (:mod:`repro.index`) build on them too.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Callable, Optional, Sequence

import numpy as np

from repro.geometry import Point, Rect
from repro.rtree.hilbert import hilbert_keys
from repro.rtree.node import RTreeNode
from repro.rtree.tree import RTree

#: Hilbert curve resolution used for sorting (2^16 x 2^16 grid).
_HILBERT_ORDER = 16

#: Four float64 arrays ``(xmin, ymin, xmax, ymax)``, one row per node.
Boxes = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _coords(points: Sequence[Point]) -> tuple[np.ndarray, np.ndarray]:
    """The points' x and y coordinates as two float64 arrays."""
    xy = np.fromiter(chain.from_iterable(points), float, 2 * len(points))
    return xy[0::2], xy[1::2]


def _tile_order(x: np.ndarray, y: np.ndarray, capacity: int) -> np.ndarray:
    """STR order of rows keyed by ``(x, y)``.

    Rows sorted by ``(x, y)`` are cut into vertical slabs of ``slices *
    capacity`` rows and each slab is sorted by ``(y, x)``: a stable sort
    by ``y`` alone, since a slab's rows already come in ``(x, y)`` order.
    A slab holds whole runs of ``capacity`` rows, so cutting the result
    into runs of ``capacity`` restarts the runs at every slab boundary.
    """
    n = len(x)
    slices = math.ceil(math.sqrt(math.ceil(n / capacity)))
    by_x = np.lexsort((y, x))
    slab = np.arange(n) // (slices * capacity)
    return by_x[np.lexsort((y[by_x], slab))]


def _leaf_level(
    points: Sequence[Point], order: Sequence[int], starts: Sequence[int]
) -> list[RTreeNode]:
    """One leaf per run of ``points`` taken in ``order``.

    Run ``i`` covers positions ``starts[i]`` up to ``starts[i + 1]`` (the
    last run up to the end), each with a tight MBR around its points.
    """
    ordered = [points[i] for i in order]
    leaves = []
    append = leaves.append
    for a, b in zip(starts, [*starts[1:], len(ordered)]):
        run = ordered[a:b]
        xs, ys = zip(*run)
        append(
            RTreeNode(Rect(min(xs), min(ys), max(xs), max(ys)), 0, [], run, None, b - a)
        )
    return leaves


def _pack_levels(
    nodes: list[RTreeNode], fanout: int, boxes: Optional[Boxes] = None
) -> RTreeNode:
    """Pack ``nodes`` into parents, level by level, until one root remains.

    Each parent takes a run of at most ``fanout`` consecutive nodes.
    With ``boxes`` (the nodes' MBR coordinates, row ``i`` for
    ``nodes[i]``) every level is first put in STR order by MBR centre,
    computed ``(xmin + xmax) / 2.0`` as :attr:`Rect.center` does;
    without, a level keeps the order it was built in.
    """
    while len(nodes) > 1:
        if boxes is not None:
            x0, y0, x1, y1 = boxes
            order = _tile_order((x0 + x1) / 2.0, (y0 + y1) / 2.0, fanout)
            nodes = [nodes[i] for i in order.tolist()]
            if len(nodes) > fanout:
                boxes = _run_boxes(
                    x0[order], y0[order], x1[order], y1[order],
                    np.arange(0, len(nodes), fanout),
                )
        level = nodes[0].level + 1
        parents = []
        append = parents.append
        for a in range(0, len(nodes), fanout):
            kids = nodes[a : a + fanout]
            xmins, ymins, xmaxs, ymaxs = zip(*[k.mbr for k in kids])
            append(
                RTreeNode(
                    Rect(min(xmins), min(ymins), max(xmaxs), max(ymaxs)),
                    level,
                    kids,
                    [],
                    None,
                    sum([k.point_count for k in kids]),
                )
            )
        nodes = parents
    return nodes[0]


def _run_boxes(
    xmin: np.ndarray, ymin: np.ndarray, xmax: np.ndarray, ymax: np.ndarray,
    starts: Sequence[int],
) -> Boxes:
    """The MBR of each run of rows, runs beginning at ``starts``."""
    return (
        np.minimum.reduceat(xmin, starts),
        np.minimum.reduceat(ymin, starts),
        np.maximum.reduceat(xmax, starts),
        np.maximum.reduceat(ymax, starts),
    )


def _runs(n: int, size: int) -> list[int]:
    """Start positions of consecutive runs of at most ``size`` of ``n`` items."""
    return list(range(0, n, size))


def str_pack(points: Sequence[Point], leaf_capacity: int, fanout: int) -> RTree:
    """Build an STR-packed R-tree.

    Points are sorted by x, tiled into vertical slabs, each slab sorted by y
    and cut into leaf pages; upper levels repeat the same tiling over node
    centers.
    """
    _validate(points, leaf_capacity, fanout)
    n = len(points)
    x, y = _coords(points)
    order = _tile_order(x, y, leaf_capacity)
    starts = _runs(n, leaf_capacity)
    leaves = _leaf_level(points, order.tolist(), starts)
    xs, ys = x[order], y[order]
    root = _pack_levels(leaves, fanout, _run_boxes(xs, ys, xs, ys, starts))
    return RTree(root=root, leaf_capacity=leaf_capacity, fanout=fanout, size=n)


def hilbert_pack(points: Sequence[Point], leaf_capacity: int, fanout: int) -> RTree:
    """Build an R-tree by sorting points along the Hilbert curve."""
    _validate(points, leaf_capacity, fanout)
    x, y = _coords(points)
    region = Rect.from_points(points)
    w = region.width or 1.0
    h = region.height or 1.0
    keys = hilbert_keys(
        _HILBERT_ORDER, (x - region.xmin) / w, (y - region.ymin) / h
    )
    order = np.argsort(keys, kind="stable")
    return _linear_tree(points, order, leaf_capacity, fanout)


def nearest_x_pack(points: Sequence[Point], leaf_capacity: int, fanout: int) -> RTree:
    """Build an R-tree by packing points in ascending x order (Nearest-X)."""
    _validate(points, leaf_capacity, fanout)
    x, y = _coords(points)
    return _linear_tree(points, np.lexsort((y, x)), leaf_capacity, fanout)


def _linear_tree(
    points: Sequence[Point], order: np.ndarray, leaf_capacity: int, fanout: int
) -> RTree:
    """Leaves are runs of ``points`` in ``order``; upper levels are runs too."""
    n = len(points)
    leaves = _leaf_level(points, order.tolist(), _runs(n, leaf_capacity))
    root = _pack_levels(leaves, fanout)
    return RTree(root=root, leaf_capacity=leaf_capacity, fanout=fanout, size=n)


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
