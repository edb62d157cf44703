"""Synthetic dataset generators (uniform and clustered)."""

from __future__ import annotations

import math
import random
from typing import List, Sequence

from repro.geometry import Point, Rect

#: Side length of the paper's synthetic region (39,000 x 39,000).
PAPER_REGION_SIDE = 39_000.0

#: Density exponents of the UNIF(E) series (Section 6: 10^-7.0 .. 10^-4.2).
UNIF_EXPONENTS = (-7.0, -6.6, -6.2, -5.8, -5.4, -5.0, -4.6, -4.2)


def uniform(
    n: int,
    seed: int = 0,
    region: Rect | None = None,
) -> List[Point]:
    """``n`` points uniform over ``region`` (default: the paper's square)."""
    if n < 1:
        raise ValueError(f"dataset size must be >= 1, got {n}")
    region = region or Rect(0.0, 0.0, PAPER_REGION_SIDE, PAPER_REGION_SIDE)
    # ``a + (b - a) * random()`` is what ``random.Random.uniform``
    # evaluates, so the stream is its stream, draw for draw.
    rnd = random.Random(seed).random
    x0, y0 = region.xmin, region.ymin
    dx, dy = region.xmax - x0, region.ymax - y0
    return [Point(x0 + dx * rnd(), y0 + dy * rnd()) for _ in range(n)]


def unif_size(exponent: float, side: float = PAPER_REGION_SIDE) -> int:
    """Cardinality of UNIF(exponent): ``round(10^E * side^2)``.

    Reproduces the paper's sizes 152, 382, 960, 2411, 6055, 15210, 38206
    and 95969 for E = -7.0 .. -4.2.
    """
    return max(1, round((10.0**exponent) * side * side))


def unif_by_exponent(
    exponent: float,
    seed: int = 0,
    side: float = PAPER_REGION_SIDE,
) -> List[Point]:
    """The UNIF(E) dataset: density ``10^E`` over a ``side x side`` square."""
    region = Rect(0.0, 0.0, side, side)
    return uniform(unif_size(exponent, side), seed=seed, region=region)


def sized_uniform(
    n: int,
    seed: int = 0,
    side: float = PAPER_REGION_SIDE,
) -> List[Point]:
    """The second synthetic series: a fixed-size uniform dataset."""
    return uniform(n, seed=seed, region=Rect(0.0, 0.0, side, side))


def gaussian_clusters(
    n: int,
    clusters: int,
    seed: int = 0,
    region: Rect | None = None,
    spread: float = 0.03,
) -> List[Point]:
    """``n`` points from a mixture of Gaussian clusters, clipped to region.

    Cluster centers are uniform over the region; each cluster's standard
    deviation is ``spread`` times the region side, giving heavily skewed,
    city-like point distributions.  Cluster weights follow a Zipf-ish
    1/rank profile so a few clusters dominate, as in real gazetteers.
    """
    if n < 1:
        raise ValueError(f"dataset size must be >= 1, got {n}")
    if clusters < 1:
        raise ValueError(f"cluster count must be >= 1, got {clusters}")
    region = region or Rect(0.0, 0.0, PAPER_REGION_SIDE, PAPER_REGION_SIDE)
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
    sigma_x = spread * region.width
    sigma_y = spread * region.height
    points: List[Point] = []
    while len(points) < n:
        cx, cy = rng.choices(centers, weights=weights)[0]
        x = rng.gauss(cx, sigma_x)
        y = rng.gauss(cy, sigma_y)
        if region.xmin <= x <= region.xmax and region.ymin <= y <= region.ymax:
            points.append(Point(x, y))
    return points


def scale_to_region(points: Sequence[Point], target: Rect) -> List[Point]:
    """Affinely rescale points so their MBR maps onto ``target``.

    The paper: "When datasets with different areas are used, they are
    scaled to the same area."
    """
    if not points:
        raise ValueError("cannot scale an empty dataset")
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


def density_of(points: Sequence[Point], region: Rect) -> float:
    """Points per unit area over ``region``."""
    if region.area <= 0:
        raise ValueError("region must have positive area")
    return len(points) / region.area


def expected_nn_distance(n: int, area: float) -> float:
    """Mean NN distance of a uniform point process (0.5 / sqrt(density)).

    Handy for sanity checks in tests and examples.
    """
    if n <= 0 or area <= 0:
        raise ValueError("n and area must be positive")
    return 0.5 / math.sqrt(n / area)
