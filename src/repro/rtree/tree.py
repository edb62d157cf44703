"""The packed R-tree container and structural validation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List

from repro.geometry import Point, Rect
from repro.rtree.node import RTreeNode


@dataclass
class RTree:
    """A bulk-loaded, read-only R-tree.

    ``height`` counts levels (a single-leaf tree has height 1) — the
    ``Rtree_height`` quantity of the paper's dynamic-alpha equation
    ``alpha = node_depth / Rtree_height * factor``.
    """

    root: RTreeNode
    leaf_capacity: int
    fanout: int
    size: int

    @property
    def height(self) -> int:
        return self.root.level + 1

    @property
    def mbr(self) -> Rect:
        return self.root.mbr

    def node_count(self) -> int:
        """Total number of nodes (== index pages when broadcast)."""
        return self.root.subtree_size()

    def leaf_count(self) -> int:
        return sum(1 for _ in self.root.iter_leaves())

    def iter_nodes(self) -> Iterator[RTreeNode]:
        """Depth-first preorder over all nodes — the broadcast order."""
        return self.root.iter_preorder()

    def iter_points(self) -> Iterator[Point]:
        """Every indexed point, in leaf (broadcast) order."""
        for leaf in self.root.iter_leaves():
            yield from leaf.points

    def depth_of(self, node: RTreeNode) -> int:
        """Levels below the root (root = 0, leaves = height - 1)."""
        return self.root.level - node.level

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants; raises :class:`AssertionError`.

        * every child MBR is contained in its parent's MBR and parents are
          tight unions of their children;
        * leaf MBRs tightly bound their points;
        * node capacities are respected;
        * all leaves sit at level 0 (balance);
        * the number of indexed points equals ``size``.
        """
        seen_points: List[Point] = []
        for node in self.iter_nodes():
            if node.is_leaf:
                assert node.points, "empty leaf"
                assert len(node.points) <= self.leaf_capacity, "leaf overflow"
                assert node.mbr == Rect.from_points(node.points), "loose leaf MBR"
                seen_points.extend(node.points)
            else:
                assert node.children, "empty internal node"
                assert len(node.children) <= self.fanout, "internal overflow"
                assert node.mbr == Rect.union_of(
                    c.mbr for c in node.children
                ), "loose internal MBR"
                for child in node.children:
                    assert child.level == node.level - 1, "unbalanced tree"
                    assert node.mbr.contains_rect(child.mbr), "child escapes parent"
        assert len(seen_points) == self.size, (
            f"indexed {len(seen_points)} points, expected {self.size}"
        )

    def assign_page_ids(self) -> None:
        """Number nodes 0..n-1 in depth-first preorder (broadcast layout)."""
        for i, node in enumerate(self.iter_nodes()):
            node.page_id = i
        # The drain's record table binds the numbering.
        self._walk_table = None

    def __getstate__(self) -> dict:
        # The drain's record table is rebuilt on a copy's first walk, so
        # a pickle leaves it out.
        state = self.__dict__.copy()
        state.pop("_walk_table", None)
        return state
