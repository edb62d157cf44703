"""Synthetic dataset generators (uniform and clustered).

Stream contract: each generator returns, bit for bit, the points that
its per-draw definition on one ``random.Random(seed)`` would give.

* :func:`uniform` draws ``x0 + dx * random()`` then ``y0 + dy * random()``
  per point: the stream of ``Random.uniform(xmin, xmax)`` followed by
  ``Random.uniform(ymin, ymax)``.
* :func:`gaussian_clusters` draws the cluster centres with
  ``Random.uniform`` (x then y per cluster), then per attempted point one
  ``Random.choices(centres, cum_weights=...)`` and two ``Random.gauss``
  calls, x then y, keeping the attempts that land in the region.

Both read the generator in fixed blocks rather than one call at a time.
``getrandbits(64 * m)`` returns the 32-bit Mersenne Twister words that
``m`` calls of ``random()`` would consume, lowest word first, and
:func:`_draws` combines each pair with ``random()``'s own 53-bit formula,
which is exact in float64.  The additions and multiplications that follow
run in numpy, where IEEE-754 gives the same floats as Python's.  The
Box-Muller transform of ``gauss`` stays on ``math.cos``, ``sin``, ``log``
and ``sqrt``: numpy's vectorised sin, cos and log may differ from the C
library by an ulp on some CPUs and builds.  The generators do not use
``numpy.random``: importing it adds about 5.7 MB resident to a process
that has only numpy loaded.
"""

from __future__ import annotations

import math
import random
from functools import partial
from itertools import accumulate, chain
from typing import Iterator, List, Sequence

import numpy as np

from repro.geometry import Point, Rect

#: Side length of the paper's synthetic region (39,000 x 39,000).
PAPER_REGION_SIDE = 39_000.0

#: Density exponents of the UNIF(E) series (Section 6: 10^-7.0 .. 10^-4.2).
UNIF_EXPONENTS = (-7.0, -6.6, -6.2, -5.8, -5.4, -5.0, -4.6, -4.2)

_TWOPI = 2.0 * math.pi  # random.TWOPI

#: Points (``uniform``) or attempted points (``gaussian_clusters``) drawn
#: per block of the random stream.
_BLOCK = 2048

#: ``Point((x, y))`` without the Python-level ``__new__`` frame: the
#: same object ``Point(x, y)`` builds.
_new_point = partial(tuple.__new__, Point)


def _points(xy: np.ndarray) -> Iterator[Point]:
    """Points over the flat array ``x0, y0, x1, y1, ...``; one ``tolist``
    allocates each point's two floats side by side."""
    coords = iter(xy.tolist())
    return map(_new_point, zip(coords, coords))


def _draws(rng: random.Random, m: int) -> np.ndarray:
    """The next ``m`` values of ``rng.random()``, as float64.

    CPython's ``random()`` is ``(a >> 5) * 2**26 + (b >> 6)`` over two
    consecutive 32-bit words, scaled by ``2**-53``; ``getrandbits`` hands
    out the same words, the first drawn in the lowest 32 bits.
    """
    words = np.frombuffer(
        rng.getrandbits(64 * m).to_bytes(8 * m, "little"), dtype="<u4"
    )
    return ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) * (
        1.0 / 9007199254740992.0
    )


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
    # evaluates, so the stream is its stream, draw for draw.  Python
    # converts int bounds with float() before the float arithmetic.
    rng = random.Random(seed)
    x0, y0 = float(region.xmin), float(region.ymin)
    dx = float(region.xmax - region.xmin)
    dy = float(region.ymax - region.ymin)
    points: List[Point] = []
    for done in range(0, n, _BLOCK):
        u = _draws(rng, 2 * min(_BLOCK, n - done))
        u[0::2] *= dx
        u[0::2] += x0
        u[1::2] *= dy
        u[1::2] += y0
        points += _points(u)
    return points


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
    cum_weights = np.array(list(accumulate(w / total for w in weights)))
    # ``choices(centers, cum_weights=...)`` picks
    # ``bisect(cum_weights, random() * cum_total, 0, clusters - 1)``.
    cum_total = float(cum_weights[-1])
    last = clusters - 1
    cx = np.array([c[0] for c in centers])
    cy = np.array([c[1] for c in centers])
    sigma_x = spread * region.width
    sigma_y = spread * region.height
    x0, y0, x1, y1 = region
    log, sqrt, cos, sin = math.log, math.sqrt, math.cos, math.sin
    points: List[Point] = []
    while len(points) < n:
        # Three draws per attempt: the cluster, then the gauss pair.
        # ``gauss`` caches its second normal, so the y call draws none.
        u = _draws(rng, 3 * _BLOCK)
        pick = np.searchsorted(cum_weights, u[0::3] * cum_total, side="right")
        np.minimum(pick, last, out=pick)
        zx: List[float] = []
        zy: List[float] = []
        add_x, add_y = zx.append, zy.append
        for t, v in zip((u[1::3] * _TWOPI).tolist(), (1.0 - u[2::3]).tolist()):
            g2rad = sqrt(-2.0 * log(v))
            add_x(cos(t) * g2rad)
            add_y(sin(t) * g2rad)
        x = cx[pick] + np.array(zx) * sigma_x
        y = cy[pick] + np.array(zy) * sigma_y
        inside = (x0 <= x) & (x <= x1) & (y0 <= y) & (y <= y1)
        kept = np.stack((x, y), axis=1)[inside][: n - len(points)]
        points += _points(kept.ravel())
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
    # ``target.xmin + (p.x - src.xmin) * sx`` per point, in one pass.
    xy = np.fromiter(chain.from_iterable(points), np.float64, 2 * len(points))
    xs, ys = xy[0::2], xy[1::2]
    xs -= float(src.xmin)
    xs *= sx
    xs += float(target.xmin)
    ys -= float(src.ymin)
    ys *= sy
    ys += float(target.ymin)
    return list(_points(xy))


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
