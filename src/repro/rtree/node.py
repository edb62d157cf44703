"""R-tree node structure.

One node corresponds to exactly one broadcast index page (Section 6 of the
paper).  Leaves store data points directly — in the air-index setting the
leaf page carries the point coordinates plus the arrival-time pointer of the
associated data object, so the client can evaluate distances without
touching the data segment.

Nodes are slotted: a 30,000-point tree at 64-byte pages holds about 7,500
of them, built by the bulk loaders of :mod:`repro.rtree.packing` and read
by the broadcast program builder and the drain's flat node records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from repro.geometry import Point, Rect


@dataclass(slots=True)
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

    def iter_preorder(self) -> Iterator["RTreeNode"]:
        """Depth-first preorder traversal — the broadcast layout order."""
        stack = [self]
        pop, push = stack.pop, stack.extend
        while stack:
            node = pop()
            yield node
            push(reversed(node.children))

    def iter_leaves(self) -> Iterator["RTreeNode"]:
        """All leaves under this node, in preorder."""
        stack = [self]
        pop, push = stack.pop, stack.extend
        while stack:
            node = pop()
            if node.level == 0:
                yield node
            else:
                push(reversed(node.children))

    def subtree_size(self) -> int:
        """Number of nodes in the subtree rooted here (including self)."""
        size = 0
        stack = [self]
        pop, push = stack.pop, stack.extend
        while stack:
            size += 1
            push(pop().children)
        return size
