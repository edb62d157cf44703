"""Grid and quadtree air-index builders: structure and query equivalence.

Both alternative backends materialise their partitioning as a valid packed
R-tree container (tight MBRs, balanced levels, bounded fanout), so the
entire client stack — traversal, the drain walk, shared scan — runs on
them unchanged.  These tests pin that contract: ``validate()`` passes,
packed kernel arrays are present, and NN/kNN/range answers match brute
force on uniform and clustered datasets at the paper's fanouts.
"""

import math
import random

import pytest

from repro.datasets import gaussian_clusters, sized_uniform
from repro.geometry import Circle, Point
from repro.index.grid import default_grid_cells, grid_pack
from repro.index.quadtree import quadtree_pack
from repro.rtree.traversal import best_first_knn, best_first_nn, range_search


BUILDERS = {
    "grid": lambda pts, cap, fan: grid_pack(pts, cap, fan),
    "quadtree": lambda pts, cap, fan: quadtree_pack(pts, cap, fan),
}


def _datasets():
    return {
        "uniform": sized_uniform(400, seed=11),
        "clustered": gaussian_clusters(400, clusters=5, seed=12),
    }


@pytest.mark.parametrize("backend", sorted(BUILDERS))
@pytest.mark.parametrize("fanout", [3, 4, 8])
def test_backend_builds_valid_tree(backend, fanout):
    for name, pts in _datasets().items():
        tree = BUILDERS[backend](pts, 10, fanout)
        tree.validate()
        assert tree.size == len(pts)
        assert sorted(tree.iter_points()) == sorted(pts)


@pytest.mark.parametrize("backend", sorted(BUILDERS))
def test_backend_nn_matches_brute_force(backend):
    rng = random.Random(5)
    for pts in _datasets().values():
        tree = BUILDERS[backend](pts, 10, 4)
        for _ in range(25):
            q = Point(rng.uniform(-1000, 40000), rng.uniform(-1000, 40000))
            got, d = best_first_nn(tree, q)
            want = min(q.distance_to(p) for p in pts)
            assert math.isclose(d, want)
            assert math.isclose(q.distance_to(got), want)


@pytest.mark.parametrize("backend", sorted(BUILDERS))
def test_backend_knn_and_range_match_brute_force(backend):
    rng = random.Random(6)
    pts = sized_uniform(300, seed=13)
    tree = BUILDERS[backend](pts, 8, 4)
    for _ in range(10):
        q = Point(rng.uniform(0, 39000), rng.uniform(0, 39000))
        want = sorted(q.distance_to(p) for p in pts)[:7]
        got = [d for _, d in best_first_knn(tree, q, 7)]
        assert all(math.isclose(a, b) for a, b in zip(got, want))
        radius = rng.uniform(500, 5000)
        in_range = {p for p in pts if q.distance_to(p) <= radius}
        assert set(range_search(tree, Circle(q, radius))) == in_range


@pytest.mark.parametrize("backend", sorted(BUILDERS))
def test_backend_emits_packed_kernel_arrays(backend):
    """The packed-index representation the geometry kernels consume."""
    tree = BUILDERS[backend](sized_uniform(200, seed=14), 10, 4)
    internal = [n for n in tree.iter_nodes() if not n.is_leaf]
    leaves = [n for n in tree.iter_nodes() if n.is_leaf]
    for node in internal:
        mbrs = node.child_mbr_array()
        assert mbrs.shape == (len(node.children), 4)
        assert node.child_count_array().shape == (len(node.children),)
    for leaf in leaves:
        assert leaf.points_array().shape == (len(leaf.points), 2)


def test_default_grid_cells_scales_with_density():
    assert default_grid_cells(0, 10) == 1
    assert default_grid_cells(10, 10) == 1
    # ~100 leaves -> 10 x 10 cells
    assert default_grid_cells(1000, 10) == 10
    assert default_grid_cells(1001, 10) == 11


def test_grid_explicit_cells_override():
    pts = sized_uniform(200, seed=15)
    tree = grid_pack(pts, 10, 4, cells=3)
    tree.validate()
    assert sorted(tree.iter_points()) == sorted(pts)


def test_quadtree_duplicate_points_terminate():
    """Indivisible duplicates stop at max_depth instead of recursing."""
    pts = [Point(5.0, 5.0)] * 37 + [Point(9.0, 9.0)] * 3
    tree = quadtree_pack(pts, 4, 4, max_depth=6)
    tree.validate()
    assert tree.size == 40
    _, d = best_first_nn(tree, Point(5.1, 5.0))
    assert math.isclose(d, 0.1)


def test_single_point_and_tiny_datasets():
    for builder in BUILDERS.values():
        tree = builder([Point(1.0, 2.0)], 4, 4)
        tree.validate()
        assert list(tree.iter_points()) == [Point(1.0, 2.0)]
