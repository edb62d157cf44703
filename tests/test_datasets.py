"""Tests for the dataset generators."""

import math
import random

import pytest

from repro.datasets import (
    PAPER_REGION_SIDE,
    UNIF_EXPONENTS,
    city_like,
    density_of,
    expected_nn_distance,
    gaussian_clusters,
    post_like,
    scale_to_region,
    sized_uniform,
    unif_by_exponent,
    unif_size,
    uniform,
)
from repro.geometry import Point, Rect


def test_uniform_count_and_region():
    pts = uniform(500, seed=1)
    assert len(pts) == 500
    region = Rect(0, 0, PAPER_REGION_SIDE, PAPER_REGION_SIDE)
    assert all(region.contains_point(p) for p in pts)


def test_uniform_deterministic_by_seed():
    assert uniform(50, seed=7) == uniform(50, seed=7)
    assert uniform(50, seed=7) != uniform(50, seed=8)


@pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3])
@pytest.mark.parametrize(
    "region",
    [
        None,
        Rect(0, 0, 1, 1),
        Rect(-5.5, -0.0, 3.25, 1e-9),
        Rect(-1e6, 2.0, -1e6, 2.5),
    ],
)
def test_uniform_draws_random_uniform_stream(seed, region):
    """Bit for bit the stream of ``random.Random(seed).uniform``."""
    rng = random.Random(seed)
    box = region or Rect(0.0, 0.0, PAPER_REGION_SIDE, PAPER_REGION_SIDE)
    want = [
        (rng.uniform(box.xmin, box.xmax), rng.uniform(box.ymin, box.ymax))
        for _ in range(257)
    ]
    got = uniform(257, seed=seed, region=region)
    assert [(p.x.hex(), p.y.hex()) for p in got] == [
        (x.hex(), y.hex()) for x, y in want
    ]


def test_uniform_invalid_size():
    with pytest.raises(ValueError):
        uniform(0)


def test_unif_sizes_match_paper():
    """Section 6 lists the UNIF(E) cardinalities explicitly."""
    want = [152, 382, 960, 2411, 6055, 15210, 38206, 95969]
    got = [unif_size(e) for e in UNIF_EXPONENTS]
    # round() vs the paper's (unstated) truncation can differ by 1.
    for g, w in zip(got, want):
        assert abs(g - w) <= 2, (g, w)


def test_unif_by_exponent_sizes():
    pts = unif_by_exponent(-6.6, seed=2)
    assert len(pts) == unif_size(-6.6)


def test_sized_uniform():
    assert len(sized_uniform(2000, seed=3)) == 2000


def test_gaussian_clusters_in_region():
    region = Rect(0, 0, 100, 100)
    pts = gaussian_clusters(300, clusters=5, seed=4, region=region)
    assert len(pts) == 300
    assert all(region.contains_point(p) for p in pts)


def _gaussian_clusters_per_point_choices(n, clusters, seed, region, spread):
    """The generator as first written: ``choices`` rebuilds the cumulative
    weights for every point.  The oracle for the stream it must keep."""
    rng = random.Random(seed)
    centers = [
        (
            rng.uniform(region.xmin, region.xmax),
            rng.uniform(region.ymin, region.ymax),
        )
        for _ in range(clusters)
    ]
    weights = [1.0 / (rank + 1) for rank in range(clusters)]
    total = sum(weights)
    weights = [w / total for w in weights]
    points = []
    while len(points) < n:
        cx, cy = rng.choices(centers, weights=weights)[0]
        x = rng.gauss(cx, spread * region.width)
        y = rng.gauss(cy, spread * region.height)
        if region.xmin <= x <= region.xmax and region.ymin <= y <= region.ymax:
            points.append(Point(x, y))
    return points


@pytest.mark.parametrize("clusters", [1, 2, 7, 40])
@pytest.mark.parametrize("seed", [0, 3, 11])
def test_gaussian_clusters_keeps_the_per_point_choices_stream(seed, clusters):
    """Cumulative weights built once draw the same points, bit for bit,
    clipping rejections (a tight region) included."""
    for region, spread in (
        (Rect(0.0, 0.0, PAPER_REGION_SIDE, PAPER_REGION_SIDE), 0.03),
        (Rect(-5.0, 2.0, 95.0, 52.0), 0.4),
    ):
        got = gaussian_clusters(
            700, clusters, seed=seed, region=region, spread=spread
        )
        want = _gaussian_clusters_per_point_choices(
            700, clusters, seed, region, spread
        )
        assert [(p.x, p.y) for p in got] == [(p.x, p.y) for p in want]


def test_gaussian_clusters_validation():
    with pytest.raises(ValueError):
        gaussian_clusters(0, clusters=3)
    with pytest.raises(ValueError):
        gaussian_clusters(10, clusters=0)


def test_clustered_data_is_skewed():
    """Clustered data concentrates in few grid cells; uniform does not."""
    region = Rect(0, 0, 1000, 1000)
    clustered = gaussian_clusters(2000, clusters=4, seed=5, region=region, spread=0.02)
    flat = uniform(2000, seed=5, region=region)

    def occupancy(points, cells=10):
        filled = {
            (int(p.x / 1000 * cells * 0.999), int(p.y / 1000 * cells * 0.999))
            for p in points
        }
        return len(filled)

    assert occupancy(clustered) < occupancy(flat) * 0.8


def test_city_like_defaults():
    pts = city_like(n=1000, seed=1)
    assert len(pts) == 1000
    region = Rect(0, 0, PAPER_REGION_SIDE, PAPER_REGION_SIDE)
    assert all(region.contains_point(p) for p in pts)


def test_post_like_region():
    pts = post_like(n=1000, seed=1)
    region = Rect(0, 0, 1_000_000, 1_000_000)
    assert all(region.contains_point(p) for p in pts)


def test_scale_to_region():
    pts = [Point(0, 0), Point(10, 20)]
    scaled = scale_to_region(pts, Rect(0, 0, 100, 100))
    assert scaled[0] == Point(0, 0)
    assert scaled[1] == Point(100, 100)


def test_scale_to_region_empty_raises():
    with pytest.raises(ValueError):
        scale_to_region([], Rect(0, 0, 1, 1))


def test_density_of():
    region = Rect(0, 0, 10, 10)
    assert density_of(uniform(50, seed=1, region=region), region) == 0.5


def test_expected_nn_distance():
    # density 1 -> expected NN distance 0.5
    assert math.isclose(expected_nn_distance(100, 100.0), 0.5)
    with pytest.raises(ValueError):
        expected_nn_distance(0, 1.0)
