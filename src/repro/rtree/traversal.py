"""In-memory reference query algorithms over packed R-trees.

These are the disk/memory analogues of the broadcast-side searches: the
best-first NN of Hjaltason & Samet (TODS'99), a circle range search, and a
best-first *transitive* NN that minimises ``dis(p,s)+dis(s,r)`` using the
paper's MinTransDist metric.  The broadcast client in :mod:`repro.client`
must produce identical answers (at different page cost); the test suite
checks that equivalence, and the TNN oracle below is the ground truth for
every algorithm's correctness tests.

Every loop runs on the scalar metrics of :mod:`repro.geometry`, the seed
implementation: an oracle that shares no code path with the client's
certified bounds is the stronger check.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Iterable, List, Optional, Tuple

from repro.geometry import Circle, Point, Rect, distance, min_trans_dist
from repro.rtree.node import RTreeNode
from repro.rtree.tree import RTree


def _push_children_point(
    node: RTreeNode, query: Point, heap: list, counter
) -> None:
    """Push an internal node's children keyed by MINDIST."""
    for child in node.children:
        heapq.heappush(heap, (child.mbr.mindist(query), next(counter), child))


def best_first_nn(tree: RTree, query: Point) -> Tuple[Point, float]:
    """Exact nearest neighbor via best-first (priority queue on MINDIST)."""
    counter = itertools.count()
    heap: list[tuple[float, int, object]] = [(tree.root.mbr.mindist(query), next(counter), tree.root)]
    best: Optional[Point] = None
    best_dist = math.inf
    while heap:
        dist, _, item = heapq.heappop(heap)
        if dist > best_dist:
            break
        if isinstance(item, Point):
            best, best_dist = item, dist
            break
        node = item
        if node.is_leaf:
            for p in node.points:
                heapq.heappush(heap, (distance(query, p), next(counter), p))
        else:
            _push_children_point(node, query, heap, counter)
    if best is None:
        raise ValueError("NN search over an empty tree")
    return best, best_dist


def best_first_knn(tree: RTree, query: Point, k: int) -> List[Tuple[Point, float]]:
    """The k nearest neighbors in ascending distance order."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    counter = itertools.count()
    heap: list[tuple[float, int, object]] = [(tree.root.mbr.mindist(query), next(counter), tree.root)]
    out: List[Tuple[Point, float]] = []
    while heap and len(out) < k:
        dist, _, item = heapq.heappop(heap)
        if isinstance(item, Point):
            out.append((item, dist))
            continue
        node = item
        if node.is_leaf:
            for p in node.points:
                heapq.heappush(heap, (distance(query, p), next(counter), p))
        else:
            _push_children_point(node, query, heap, counter)
    return out


def range_search(tree: RTree, circle: Circle) -> List[Point]:
    """All indexed points within the (closed) circle."""
    result: List[Point] = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if not circle.intersects_rect(node.mbr):
            continue
        if node.is_leaf:
            result.extend(p for p in node.points if circle.contains_point(p))
        else:
            stack.extend(node.children)
    return result


def window_search(tree: RTree, window: Rect) -> List[Point]:
    """All indexed points inside the (closed) rectangular window."""
    result: List[Point] = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if not window.intersects_rect(node.mbr):
            continue
        if node.is_leaf:
            result.extend(p for p in node.points if window.contains_point(p))
        else:
            stack.extend(node.children)
    return result


def transitive_nn(tree: RTree, p: Point, r: Point) -> Tuple[Point, float]:
    """The point ``s`` in the tree minimising ``dis(p,s) + dis(s,r)``.

    Best-first on the MinTransDist lower bound (Definition 1) — the
    in-memory analogue of Hybrid-NN's Case 3 search.
    """
    counter = itertools.count()
    heap: list[tuple[float, int, object]] = [
        (min_trans_dist(p, tree.root.mbr, r), next(counter), tree.root)
    ]
    best: Optional[Point] = None
    best_dist = math.inf
    while heap:
        dist, _, item = heapq.heappop(heap)
        if dist > best_dist:
            break
        if isinstance(item, Point):
            best, best_dist = item, dist
            break
        node = item
        if node.is_leaf:
            for s in node.points:
                heapq.heappush(
                    heap, (distance(p, s) + distance(s, r), next(counter), s)
                )
        else:
            for child in node.children:
                heapq.heappush(
                    heap, (min_trans_dist(p, child.mbr, r), next(counter), child)
                )
    if best is None:
        raise ValueError("transitive NN search over an empty tree")
    return best, best_dist


def tnn_oracle(
    p: Point, s_tree: RTree, r_tree: RTree
) -> Tuple[Point, Point, float]:
    """Ground-truth TNN answer: the pair ``(s, r)`` minimising
    ``dis(p,s) + dis(s,r)``.

    Enumerates every ``s`` in ``s_tree`` (with an incremental lower-bound
    cutoff) and pairs it with its exact NN in ``r_tree``.  O(|S| log |R|)
    — fast enough to serve as the oracle in tests and the fail-rate table.
    """
    best_pair: Optional[Tuple[Point, Point]] = None
    best_dist = math.inf
    for s in s_tree.iter_points():
        d_ps = distance(p, s)
        if d_ps >= best_dist:
            continue
        r, d_sr = best_first_nn(r_tree, s)
        total = d_ps + d_sr
        if total < best_dist:
            best_dist = total
            best_pair = (s, r)
    if best_pair is None:
        raise ValueError("TNN oracle over empty datasets")
    return best_pair[0], best_pair[1], best_dist


def brute_force_tnn(
    p: Point, s_points: Iterable[Point], r_points: Iterable[Point]
) -> Tuple[Point, Point, float]:
    """Quadratic TNN join over raw point sets (small-instance ground truth)."""
    s_list = list(s_points)
    r_list = list(r_points)
    if not s_list or not r_list:
        raise ValueError("TNN requires non-empty datasets")
    best_pair = None
    best_dist = math.inf
    for s in s_list:
        d_ps = distance(p, s)
        if d_ps >= best_dist:
            continue
        for r in r_list:
            total = d_ps + distance(s, r)
            if total < best_dist:
                best_dist = total
                best_pair = (s, r)
    return best_pair[0], best_pair[1], best_dist
