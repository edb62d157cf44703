"""R-tree node structure.

One node corresponds to exactly one broadcast index page (Section 6 of the
paper).  Leaves store data points directly — in the air-index setting the
leaf page carries the point coordinates plus the arrival-time pointer of the
associated data object, so the client can evaluate distances without
touching the data segment.

Every node can also build an array-backed view of its fan-out, the input
of the vectorised geometry kernels (:mod:`repro.geometry.kernels`):
internal nodes a contiguous ``(n, 4)`` float64 array of their children's
MBRs (plus the children's subtree point counts), leaves an ``(n, 2)``
array of their points.  The arrays are built on first use and cached;
no search reads them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from repro.geometry import Point, Rect
from repro.index.packed import (
    pack_child_counts,
    pack_child_mbrs,
    pack_points,
)


@dataclass
class RTreeNode:
    """A node of a packed R-tree.

    Exactly one of ``children`` / ``points`` is non-empty: internal nodes
    hold child nodes, leaves hold data points.  ``level`` is 0 for leaves
    and grows toward the root.  ``page_id`` is assigned by the broadcast
    program builder when the tree is laid out on a channel.
    """

    mbr: Rect
    level: int
    children: list["RTreeNode"] = field(default_factory=list)
    points: list[Point] = field(default_factory=list)
    page_id: Optional[int] = None
    #: Number of data points in this node's subtree (used by the ANN
    #: pruning heuristic's containment-probability estimate).
    point_count: int = 0
    #: Cached ``(n, 4)`` float64 array of the children's MBRs (internal
    #: nodes) — the structure-of-arrays input of the vectorised kernels.
    _child_mbrs: Optional[np.ndarray] = field(
        default=None, repr=False, compare=False
    )
    #: Cached per-child subtree point counts, aligned with ``_child_mbrs``.
    _child_counts: Optional[np.ndarray] = field(
        default=None, repr=False, compare=False
    )
    #: Cached ``(n, 2)`` float64 array of the leaf's points.
    _points_arr: Optional[np.ndarray] = field(
        default=None, repr=False, compare=False
    )

    @property
    def is_leaf(self) -> bool:
        return self.level == 0

    @property
    def fanout(self) -> int:
        """Number of entries stored in this node."""
        return len(self.points) if self.is_leaf else len(self.children)

    @classmethod
    def leaf(cls, points: Sequence[Point]) -> "RTreeNode":
        """Build a leaf node with a tight MBR around ``points``."""
        if not points:
            raise ValueError("a leaf must hold at least one point")
        return cls(
            mbr=Rect.from_points(points),
            level=0,
            points=list(points),
            point_count=len(points),
        )

    @classmethod
    def internal(cls, children: Sequence["RTreeNode"]) -> "RTreeNode":
        """Build an internal node one level above its children."""
        if not children:
            raise ValueError("an internal node must have at least one child")
        levels = {c.level for c in children}
        if len(levels) != 1:
            raise ValueError(f"children must share one level, got {sorted(levels)}")
        return cls(
            mbr=Rect.union_of(c.mbr for c in children),
            level=children[0].level + 1,
            children=list(children),
            point_count=sum(c.point_count for c in children),
        )

    # ------------------------------------------------------------------
    # Array-backed fan-out views (inputs of the vectorised kernels)
    # ------------------------------------------------------------------
    def child_mbr_array(self) -> np.ndarray:
        """Contiguous ``(n, 4)`` float64 array of the children's MBRs."""
        arr = self._child_mbrs
        if arr is None:
            arr = pack_child_mbrs(self.children)
            self._child_mbrs = arr
        return arr

    def child_count_array(self) -> np.ndarray:
        """Per-child subtree point counts, aligned with the MBR rows."""
        arr = self._child_counts
        if arr is None:
            arr = pack_child_counts(self.children)
            self._child_counts = arr
        return arr

    def points_array(self) -> np.ndarray:
        """Contiguous ``(n, 2)`` float64 array of this leaf's points."""
        arr = self._points_arr
        if arr is None:
            arr = pack_points(self.points)
            self._points_arr = arr
        return arr

    def iter_preorder(self) -> Iterator["RTreeNode"]:
        """Depth-first preorder traversal — the broadcast layout order."""
        yield self
        for child in self.children:
            yield from child.iter_preorder()

    def iter_leaves(self) -> Iterator["RTreeNode"]:
        """All leaves under this node, in preorder."""
        if self.is_leaf:
            yield self
        else:
            for child in self.children:
                yield from child.iter_leaves()

    def subtree_size(self) -> int:
        """Number of nodes in the subtree rooted here (including self)."""
        return 1 + sum(c.subtree_size() for c in self.children)
