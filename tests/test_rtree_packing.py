"""Tests for the three bulk-loading algorithms."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Point, Rect
from repro.index.grid import default_grid_cells, grid_pack
from repro.index.quadtree import _lift, _splittable, quadtree_pack
from repro.rtree import RTree, RTreeNode, build_rtree, hilbert_pack, nearest_x_pack, str_pack
from repro.rtree.hilbert import hilbert_key_for


def random_points(n, seed=0, side=1000.0):
    rng = random.Random(seed)
    return [Point(rng.random() * side, rng.random() * side) for _ in range(n)]


PACKERS = [str_pack, hilbert_pack, nearest_x_pack]


@pytest.mark.parametrize("packer", PACKERS)
def test_packer_valid_structure(packer):
    pts = random_points(500, seed=1)
    tree = packer(pts, leaf_capacity=6, fanout=3)
    tree.validate()
    assert tree.size == 500


@pytest.mark.parametrize("packer", PACKERS)
def test_packer_single_point(packer):
    tree = packer([Point(3, 4)], leaf_capacity=6, fanout=3)
    tree.validate()
    assert tree.height == 1
    assert tree.node_count() == 1


@pytest.mark.parametrize("packer", PACKERS)
def test_packer_exact_capacity(packer):
    # n == leaf_capacity -> single leaf root.
    pts = random_points(6, seed=2)
    tree = packer(pts, leaf_capacity=6, fanout=3)
    assert tree.height == 1


@pytest.mark.parametrize("packer", PACKERS)
def test_packer_preserves_points(packer):
    pts = random_points(237, seed=3)
    tree = packer(pts, leaf_capacity=5, fanout=4)
    assert sorted(tree.iter_points()) == sorted(pts)


@pytest.mark.parametrize("packer", PACKERS)
def test_packer_duplicate_points(packer):
    pts = [Point(1, 1)] * 20 + [Point(2, 2)] * 20
    tree = packer(pts, leaf_capacity=4, fanout=3)
    tree.validate()
    assert tree.size == 40


def test_tree_height_matches_paper_scale():
    """With 64-byte pages (leaf cap 6, fanout 3) a ~100k-point tree should
    be about 10 levels tall, as stated in Section 4.2.4 of the paper."""
    pts = random_points(100_000, seed=4, side=39_000.0)
    tree = str_pack(pts, leaf_capacity=6, fanout=3)
    assert 9 <= tree.height <= 11


def test_str_leaf_utilisation_high():
    pts = random_points(1000, seed=5)
    tree = str_pack(pts, leaf_capacity=8, fanout=4)
    leaves = list(tree.root.iter_leaves())
    mean_fill = sum(len(leaf.points) for leaf in leaves) / len(leaves)
    assert mean_fill >= 0.6 * 8


def test_build_rtree_dispatch():
    pts = random_points(50, seed=6)
    for method in ("str", "hilbert", "nearest_x"):
        tree = build_rtree(pts, 4, 3, method=method)
        tree.validate()


def test_build_rtree_unknown_method():
    with pytest.raises(ValueError, match="unknown packing method"):
        build_rtree([Point(0, 0)], 4, 3, method="bogus")


def test_empty_dataset_raises():
    with pytest.raises(ValueError):
        str_pack([], 4, 3)


def test_bad_capacity_raises():
    with pytest.raises(ValueError):
        str_pack([Point(0, 0)], 0, 3)
    with pytest.raises(ValueError):
        str_pack([Point(0, 0)], 4, 1)


def test_str_balanced_tree_depth_formula():
    pts = random_points(3_000, seed=7)
    tree = str_pack(pts, leaf_capacity=6, fanout=3)
    leaves = tree.leaf_count()
    # Height = 1 (leaf level) + levels needed to reduce leaves to one root.
    expected = 1 + math.ceil(math.log(leaves, 3))
    assert abs(tree.height - expected) <= 1


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=400),
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=2, max_value=8),
    st.randoms(),
)
def test_packers_always_valid(n, leaf_cap, fanout, rng):
    pts = [Point(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(n)]
    for packer in PACKERS:
        tree = packer(pts, leaf_capacity=leaf_cap, fanout=fanout)
        tree.validate()
        assert tree.size == n


# ----------------------------------------------------------------------
# The array-ordered packers build the trees of the plain Python packers
# ----------------------------------------------------------------------
# The reference packers below sort Python key tuples one level at a time
# and build every node through ``RTreeNode.leaf`` / ``RTreeNode.internal``.
# The library's packers must build the same tree node for node: the same
# groups, child order, MBR float objects and page ids.


def _ref_chunks(seq, size):
    return [list(seq[i : i + size]) for i in range(0, len(seq), size)]


def _ref_pack_upward(nodes, fanout, group):
    while len(nodes) > 1:
        nodes = [RTreeNode.internal(g) for g in group(nodes, fanout)]
    return nodes[0]


def _ref_str_group(nodes, fanout):
    slices = math.ceil(math.sqrt(math.ceil(len(nodes) / fanout)))
    by_x = sorted(nodes, key=lambda nd: (nd.mbr.center.x, nd.mbr.center.y))
    groups = []
    for slab in _ref_chunks(by_x, slices * fanout):
        by_y = sorted(slab, key=lambda nd: (nd.mbr.center.y, nd.mbr.center.x))
        groups.extend(_ref_chunks(by_y, fanout))
    return groups


def _ref_linear_group(nodes, fanout):
    return _ref_chunks(nodes, fanout)


def _ref_tree(root, points, leaf_capacity, fanout):
    return RTree(root=root, leaf_capacity=leaf_capacity, fanout=fanout,
                 size=len(points))


def ref_str_pack(points, leaf_capacity, fanout):
    slices = math.ceil(math.sqrt(math.ceil(len(points) / leaf_capacity)))
    by_x = sorted(points, key=lambda p: (p.x, p.y))
    leaves = []
    for slab in _ref_chunks(by_x, slices * leaf_capacity):
        by_y = sorted(slab, key=lambda p: (p.y, p.x))
        leaves.extend(RTreeNode.leaf(run) for run in _ref_chunks(by_y, leaf_capacity))
    root = _ref_pack_upward(leaves, fanout, _ref_str_group)
    return _ref_tree(root, points, leaf_capacity, fanout)


def _ref_linear_pack(ordered, points, leaf_capacity, fanout):
    leaves = [RTreeNode.leaf(run) for run in _ref_chunks(ordered, leaf_capacity)]
    root = _ref_pack_upward(leaves, fanout, _ref_linear_group)
    return _ref_tree(root, points, leaf_capacity, fanout)


def ref_hilbert_pack(points, leaf_capacity, fanout):
    region = Rect.from_points(points)
    w = region.width or 1.0
    h = region.height or 1.0

    def key(p):
        return hilbert_key_for(16, (p.x - region.xmin) / w, (p.y - region.ymin) / h)

    return _ref_linear_pack(sorted(points, key=key), points, leaf_capacity, fanout)


def ref_nearest_x_pack(points, leaf_capacity, fanout):
    ordered = sorted(points, key=lambda p: (p.x, p.y))
    return _ref_linear_pack(ordered, points, leaf_capacity, fanout)


def ref_grid_pack(points, leaf_capacity, fanout, cells=None):
    g = default_grid_cells(len(points), leaf_capacity) if cells is None else cells
    region = Rect.from_points(points)
    w = region.width or 1.0
    h = region.height or 1.0
    buckets = [[] for _ in range(g * g)]
    for p in points:
        col = min(int((p.x - region.xmin) / w * g), g - 1)
        row = min(int((p.y - region.ymin) / h * g), g - 1)
        buckets[row * g + col].append(p)
    leaves = []
    for bucket in buckets:
        bucket.sort(key=lambda p: (p.y, p.x))
        leaves.extend(RTreeNode.leaf(run) for run in _ref_chunks(bucket, leaf_capacity))
    root = _ref_pack_upward(leaves, fanout, _ref_linear_group)
    return _ref_tree(root, points, leaf_capacity, fanout)


def ref_quadtree_pack(points, leaf_capacity, fanout, max_depth=16):
    def build(pts, cell, depth_left):
        if len(pts) <= leaf_capacity or depth_left == 0 or not _splittable(cell):
            ordered = sorted(pts, key=lambda p: (p.y, p.x))
            leaves = [RTreeNode.leaf(run) for run in _ref_chunks(ordered, leaf_capacity)]
            return _ref_pack_upward(leaves, fanout, _ref_linear_group)
        midx = (cell.xmin + cell.xmax) / 2.0
        midy = (cell.ymin + cell.ymax) / 2.0
        quads = [[], [], [], []]
        for p in pts:
            quads[(2 if p.y >= midy else 0) + (1 if p.x >= midx else 0)].append(p)
        rects = (
            Rect(cell.xmin, cell.ymin, midx, midy),
            Rect(midx, cell.ymin, cell.xmax, midy),
            Rect(cell.xmin, midy, midx, cell.ymax),
            Rect(midx, midy, cell.xmax, cell.ymax),
        )
        children = [build(q, r, depth_left - 1) for q, r in zip(quads, rects) if q]
        if len(children) == 1:
            return children[0]
        top = max(c.level for c in children)
        children = [_lift(c, top) for c in children]
        return _ref_pack_upward(children, fanout, _ref_linear_group)

    root = build(list(points), Rect.from_points(points), max_depth)
    return _ref_tree(root, points, leaf_capacity, fanout)


PACKER_PAIRS = {
    "str": (str_pack, ref_str_pack),
    "hilbert": (hilbert_pack, ref_hilbert_pack),
    "nearest_x": (nearest_x_pack, ref_nearest_x_pack),
    "grid": (grid_pack, ref_grid_pack),
    "quadtree": (quadtree_pack, ref_quadtree_pack),
}


def _recursive_preorder(node):
    yield node
    for child in node.children:
        yield from _recursive_preorder(child)


def assert_same_tree(got, want, points):
    """Node for node: groups, child order, MBR floats and page ids."""
    got.validate()
    inputs = {id(c) for p in points for c in p}
    got.assign_page_ids()
    want.assign_page_ids()
    got_nodes = list(_recursive_preorder(got.root))
    want_nodes = list(_recursive_preorder(want.root))
    assert len(got_nodes) == len(want_nodes) == got.node_count()
    assert [id(n) for n in got.iter_nodes()] == [id(n) for n in got_nodes]
    for page, (g, w) in enumerate(zip(got_nodes, want_nodes)):
        assert g.page_id == w.page_id == page
        assert g.level == w.level
        assert all(a is b for a, b in zip(g.mbr, w.mbr))
        assert all(id(c) in inputs for c in g.mbr)
        assert len(g.children) == len(w.children)
        assert g.point_count == w.point_count
        assert len(g.points) == len(w.points)
        assert all(a is b for a, b in zip(g.points, w.points))
    assert [id(leaf) for leaf in got.root.iter_leaves()] == [
        id(n) for n in got_nodes if n.is_leaf
    ]


#: Few distinct values, so points, x and y and MBR centres tie often.
_tied = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 3.0])
_coord = st.one_of(
    _tied,
    _tied.map(lambda v: float(repr(v))),  # equal value, distinct object
    st.integers(-4, 4).map(lambda v: v / 2.0),
    st.floats(-50.0, 50.0, allow_nan=False),
)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(_coord, _coord), min_size=1, max_size=300),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=2, max_value=6),
    st.sampled_from(sorted(PACKER_PAIRS)),
)
def test_packers_build_the_reference_tree(coords, leaf_capacity, fanout, name):
    points = [Point(x, y) for x, y in coords]
    packer, reference = PACKER_PAIRS[name]
    assert_same_tree(
        packer(points, leaf_capacity, fanout),
        reference(points, leaf_capacity, fanout),
        points,
    )


@pytest.mark.parametrize("name", sorted(PACKER_PAIRS))
@pytest.mark.parametrize("leaf_capacity,fanout", [(6, 3), (23, 14)])
def test_packers_build_the_reference_tree_on_uniform_data(name, leaf_capacity, fanout):
    points = random_points(2_000, seed=8)
    packer, reference = PACKER_PAIRS[name]
    assert_same_tree(
        packer(points, leaf_capacity, fanout),
        reference(points, leaf_capacity, fanout),
        points,
    )


@pytest.mark.parametrize("name", sorted(PACKER_PAIRS))
@pytest.mark.parametrize("leaf_capacity,fanout", [(1, 2), (2, 3), (3, 2), (5, 6), (8, 4)])
def test_packers_build_the_reference_tree_on_heavy_ties(name, leaf_capacity, fanout):
    """Duplicates, tied x, y and centres, and signed zeros on a small lattice."""
    rng = random.Random(leaf_capacity * 10 + fanout)
    values = [0.0, -0.0, 1.0, 2.0, 3.0]
    points = [Point(rng.choice(values), rng.choice(values)) for _ in range(300)]
    packer, reference = PACKER_PAIRS[name]
    assert_same_tree(
        packer(points, leaf_capacity, fanout),
        reference(points, leaf_capacity, fanout),
        points,
    )


@pytest.mark.parametrize("cells", [1, 2, 5])
def test_grid_cells_build_the_reference_tree(cells):
    points = random_points(300, seed=9) + [Point(0.0, 0.0), Point(-0.0, 1000.0)]
    assert_same_tree(
        grid_pack(points, 4, 3, cells=cells),
        ref_grid_pack(points, 4, 3, cells=cells),
        points,
    )
