"""Approximate-TNN-Search (Zheng, Lee and Lee), adapted to two channels.

No estimate traversal at all: the search radius comes from Equation 1,

    ``r_k(S) = ln(n) * sqrt(k / (pi * n))``  (unit square, n = |S|),

scaled to the datasets' region, with ``d = r_1(S) + r_1(R)``.  The filter
phase starts immediately on both channels — hence the best access time of
all algorithms — but the radius is only valid for uniformly distributed
data: on skewed datasets the circle may miss the true answer pair entirely
(the fail rates of Table 3), and even on uniform data it is unnecessarily
large, inflating tune-in time (Figure 11(d)).
"""

from __future__ import annotations

import math

from repro.broadcast import ChannelTuner
from repro.client.policies import PruningPolicy
from repro.core.base import EstimateStages, TNNAlgorithm
from repro.core.environment import TNNEnvironment
from repro.geometry import Point


def uniform_knn_radius(n: int, area: float, k: int = 1) -> float:
    """Equation 1, scaled from the unit square to a region of ``area``.

    For uniformly distributed points, a circle of this radius is expected
    to enclose at least ``k`` of the ``n`` points.
    """
    if n <= 0:
        raise ValueError(f"dataset size must be positive, got {n}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if area <= 0:
        raise ValueError(f"area must be positive, got {area}")
    return math.log(n) * math.sqrt(k / (math.pi * n)) * math.sqrt(area)


class ApproximateTNN(TNNAlgorithm):
    """Closed-form search radius; zero-cost estimate phase; may fail."""

    name = "approximate-tnn"

    def _estimate(
        self,
        env: TNNEnvironment,
        query: Point,
        tuner_s: ChannelTuner,
        tuner_r: ChannelTuner,
        policy_s: PruningPolicy,
        policy_r: PruningPolicy,
    ) -> EstimateStages:
        area = env.region.area
        radius = uniform_knn_radius(len(env.s_points), area) + uniform_knn_radius(
            len(env.r_points), area
        )
        return radius, None
        yield  # no estimate stage, but still a generator
