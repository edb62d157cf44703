"""The packed-index representation shared by every air-index backend.

One index node corresponds to one broadcast page; the vectorised geometry
kernels never look at the node objects themselves but at contiguous
per-fan-out arrays:

* ``(n, 4)`` float64 child MBRs and ``(n,)`` int64 subtree point counts
  for internal pages (Lemma 1–3 bounds, MinMaxDist guarantees);
* ``(n, 2)`` float64 points for leaf pages (distance rows, window masks).

These constructors used to live inline in :mod:`repro.rtree.node` and the
R-tree packers' finalisation epilogue, which silently tied the kernel
lanes to one index family.  They are layout-agnostic — any backend whose
pages expose ``children`` / ``points`` sequences (R-tree, fixed grid,
quadtree) emits the identical representation by calling the same
functions, so the kernels, the arrival frontier and the shared-scan
executor work unchanged on every backend.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def pack_child_mbrs(children: Sequence) -> np.ndarray:
    """Contiguous ``(n, 4)`` float64 array of the children's MBRs.

    An MBR is its ``(xmin, ymin, xmax, ymax)`` namedtuple, so one array
    construction over the MBR rows yields the kernel layout directly.
    """
    return np.array([c.mbr for c in children], dtype=np.float64).reshape(-1, 4)


def pack_child_counts(children: Sequence) -> np.ndarray:
    """Per-child subtree point counts, aligned with :func:`pack_child_mbrs`."""
    return np.array([c.point_count for c in children], dtype=np.int64)


def pack_points(points: Sequence) -> np.ndarray:
    """Contiguous ``(n, 2)`` float64 array of a leaf page's points."""
    return np.array(points, dtype=np.float64).reshape(-1, 2)


def prepare_packed_arrays(tree) -> "object":
    """Pack-time epilogue: eagerly build a tree's array-backed views.

    The contiguous child-MBR / leaf-point arrays feed the vectorised
    geometry kernels; building them here (once per index, whichever
    backend built it) keeps the first query of every workload off the cold
    path.  Index families whose fan-outs can never reach the kernel
    dispatch thresholds (e.g. the 64-byte-page geometry with M = 3) skip
    the eager pass — the node accessors stay lazy, so nothing breaks if a
    threshold is lowered at runtime.

    Returns ``tree`` so builders can tail-call it.
    """
    from repro.geometry import kernels

    if kernels.enabled():
        # min_batch() is the weakest dispatch gate per level (transitive
        # bounds for internals, window masks for leaves); levels that can
        # never reach it would build arrays no kernel ever reads.
        internal = tree.fanout >= kernels.min_batch()
        leaves = tree.leaf_capacity >= kernels.min_batch()
        if internal or leaves:
            tree.prepare_arrays(internal=internal, leaves=leaves)
    return tree
