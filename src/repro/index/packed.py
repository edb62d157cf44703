"""The packed-index representation shared by every air-index backend.

One index node corresponds to one broadcast page.  The array views of a
node's fan-out are built on demand by the node accessors:

* ``(n, 4)`` float64 child MBRs and ``(n,)`` int64 subtree point counts
  for internal pages;
* ``(n, 2)`` float64 points for leaf pages.

These constructors are layout-agnostic — any backend whose pages expose
``children`` / ``points`` sequences (R-tree, fixed grid, quadtree) emits
the identical representation by calling the same functions, which is
what the array kernels of :mod:`repro.geometry.kernels` read.  No search
reads them: the client walks flat node records
(:func:`repro.client.drain.walk_table`) and steps on the scalar metrics.
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

