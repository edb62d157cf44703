"""Tests for the dataset generators."""

import math
import os
import pathlib
import random
import subprocess
import sys
from itertools import accumulate

import pytest

import repro
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
from repro.datasets.named import POST_REGION_SIDE
from repro.datasets.synthetic import _BLOCK, _draws
from repro.geometry import Point, Rect

PAPER_REGION = Rect(0.0, 0.0, PAPER_REGION_SIDE, PAPER_REGION_SIDE)


def _hex(points):
    return [(p.x.hex(), p.y.hex()) for p in points]


def _uniform_per_draw(n, seed, region):
    """``uniform`` one draw at a time: the stream oracle."""
    rnd = random.Random(seed).random
    x0, y0 = region.xmin, region.ymin
    dx, dy = region.xmax - x0, region.ymax - y0
    return [Point(x0 + dx * rnd(), y0 + dy * rnd()) for _ in range(n)]


def _gaussian_clusters_per_draw(n, clusters, seed, region, spread):
    """``gaussian_clusters`` one ``choices`` and two ``gauss`` calls per
    attempted point: the stream oracle."""
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
    cum_weights = list(accumulate(w / total for w in weights))
    sigma_x = spread * region.width
    sigma_y = spread * region.height
    points = []
    while len(points) < n:
        cx, cy = rng.choices(centers, cum_weights=cum_weights)[0]
        x = rng.gauss(cx, sigma_x)
        y = rng.gauss(cy, sigma_y)
        if region.xmin <= x <= region.xmax and region.ymin <= y <= region.ymax:
            points.append(Point(x, y))
    return points


def _scale_to_region_per_point(points, target):
    """``scale_to_region`` one point at a time: the arithmetic oracle."""
    src = Rect.from_points(points)
    sx = target.width / src.width if src.width else 0.0
    sy = target.height / src.height if src.height else 0.0
    return [
        Point(
            target.xmin + (p.x - src.xmin) * sx,
            target.ymin + (p.y - src.ymin) * sy,
        )
        for p in points
    ]


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


@pytest.mark.parametrize("m", [1, 2, 7, 1000])
@pytest.mark.parametrize("seed", [0, 5, 2**64 + 1])
def test_draws_are_the_random_stream(seed, m):
    """A block read is ``m`` calls of ``random()``, and leaves the
    generator where those calls would."""
    fast, slow = random.Random(seed), random.Random(seed)
    slow.random()  # an odd word offset into the state
    fast.random()
    got = _draws(fast, m).tolist()
    assert [x.hex() for x in got] == [slow.random().hex() for _ in range(m)]
    assert fast.getstate() == slow.getstate()


@pytest.mark.parametrize("seed", [1, 2])
def test_generators_keep_the_stream_at_benchmark_size(seed):
    """The calls the repository benchmark makes, against the oracles."""
    assert _hex(sized_uniform(30_000, seed=seed)) == _hex(
        _uniform_per_draw(30_000, seed, PAPER_REGION)
    )
    assert _hex(gaussian_clusters(30_000, clusters=12, seed=seed)) == _hex(
        _gaussian_clusters_per_draw(30_000, 12, seed, PAPER_REGION, 0.03)
    )


@pytest.mark.parametrize("n", [_BLOCK - 1, _BLOCK, _BLOCK + 1])
def test_generators_keep_the_stream_around_the_block_size(n):
    assert _hex(uniform(n, seed=3)) == _hex(_uniform_per_draw(n, 3, PAPER_REGION))
    # Spread 0.4 in a small region rejects about half the attempts, so
    # the kept points straddle a block edge at a different attempt.
    for region, spread in ((PAPER_REGION, 0.03), (Rect(-5.0, 2.0, 95.0, 52.0), 0.4)):
        assert _hex(
            gaussian_clusters(n, 5, seed=4, region=region, spread=spread)
        ) == _hex(_gaussian_clusters_per_draw(n, 5, 4, region, spread))


@pytest.mark.parametrize("seed", [0, 9])
def test_gaussian_clusters_keep_the_stream_in_edge_cases(seed):
    """One cluster (``choices`` still draws), and a rejection-heavy region."""
    region = Rect(-5.0, 2.0, 95.0, 52.0)
    for clusters, spread in ((1, 0.03), (1, 0.4), (12, 0.4)):
        assert _hex(
            gaussian_clusters(3_000, clusters, seed=seed, region=region, spread=spread)
        ) == _hex(_gaussian_clusters_per_draw(3_000, clusters, seed, region, spread))


def test_named_datasets_keep_the_stream():
    assert _hex(city_like(n=700, seed=101)) == _hex(
        _gaussian_clusters_per_draw(700, 12, 101, PAPER_REGION, 0.02)
    )
    post_region = Rect(0.0, 0.0, POST_REGION_SIDE, POST_REGION_SIDE)
    assert _hex(post_like(n=700, seed=202)) == _hex(
        _gaussian_clusters_per_draw(700, 60, 202, post_region, 0.03)
    )


def test_generators_do_not_import_numpy_random():
    """Importing numpy.random adds about 5.7 MB resident to a process
    that has only numpy loaded."""
    code = (
        "import sys, repro\n"
        "from repro.datasets import gaussian_clusters, uniform\n"
        "s = gaussian_clusters(300, clusters=4, seed=1)\n"
        "r = uniform(300, seed=2)\n"
        "repro.TNNEnvironment.build(s, r)\n"
        "assert 'numpy.random' not in sys.modules, 'numpy.random imported'\n"
    )
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    ))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


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


@pytest.mark.parametrize(
    "target",
    [Rect(0.0, 0.0, 39_000.0, 39_000.0), Rect(-3.5, 2.0, 5.0, 2.0), Rect(0, 0, 1, 1)],
)
def test_scale_to_region_matches_per_point_arithmetic(target):
    post = post_like(n=2_000, seed=5)
    for pts in (
        post,
        post + [Point(400, 3)],  # int coordinates, one of them the min
        [Point(1.0, y) for y in (0.5, 2.0, -4.0)],  # zero width
        [Point(-0.0, 1.0), Point(0.0, -0.0), Point(3.0, 2.0)],
    ):
        assert _hex(scale_to_region(pts, target)) == _hex(
            _scale_to_region_per_point(pts, target)
        )


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
