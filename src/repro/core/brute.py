"""Brute-force TNN: download everything, join locally.

The baseline sketched in Section 3.1: retrieve all objects from both
channels and evaluate every pair.  Implemented as an estimate phase that
costs nothing and returns an infinite search radius, so the shared filter
phase degenerates to a full scan of both broadcast indexes.
"""

from __future__ import annotations

import math

from repro.broadcast import ChannelTuner
from repro.client.policies import PruningPolicy
from repro.core.base import EstimateStages, TNNAlgorithm
from repro.core.environment import TNNEnvironment
from repro.geometry import Point


class BruteForceTNN(TNNAlgorithm):
    """Retrieve both datasets entirely and join (correct but wasteful)."""

    name = "brute-force"

    def _estimate(
        self,
        env: TNNEnvironment,
        query: Point,
        tuner_s: ChannelTuner,
        tuner_r: ChannelTuner,
        policy_s: PruningPolicy,
        policy_r: PruningPolicy,
    ) -> EstimateStages:
        return math.inf, None
        yield  # no estimate stage, but still a generator
