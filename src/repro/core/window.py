"""Window-Based-TNN-Search (Zheng, Lee and Lee), adapted to two channels.

Estimate phase (inherently sequential — its second NN query is rooted at
the result of the first):

1. ``s = p.NN(S)`` on channel 1;
2. ``r = s.NN(R)`` on channel 2, starting only after step 1 finished;
3. search radius ``d = dis(p,s) + dis(s,r)``.

The adaptation to the multi-channel device is in the *filter* phase, which
the shared base class already runs on both channels in parallel.  The
sequential estimate phase is exactly the deficiency (Section 3.2) that
Double-NN and Hybrid-NN remove.
"""

from __future__ import annotations

from repro.broadcast import ChannelTuner
from repro.client import BroadcastNNSearch, SearchGroup
from repro.client.policies import PruningPolicy
from repro.core.base import EstimateStages, TNNAlgorithm
from repro.core.environment import TNNEnvironment
from repro.geometry import Point


class WindowBasedTNN(TNNAlgorithm):
    """Sequential two-NN estimate; parallel filter."""

    name = "window-based"

    def _estimate(
        self,
        env: TNNEnvironment,
        query: Point,
        tuner_s: ChannelTuner,
        tuner_r: ChannelTuner,
        policy_s: PruningPolicy,
        policy_r: PruningPolicy,
    ) -> EstimateStages:
        first = BroadcastNNSearch(env.s_tree, tuner_s, query, policy_s)
        yield SearchGroup([first])
        s, _ = first.result()

        second = BroadcastNNSearch(
            env.r_tree, tuner_r, s, policy_r, start_time=tuner_s.now
        )
        yield SearchGroup([second])
        r, _ = second.result()

        radius = query.distance_to(s) + s.distance_to(r)
        return radius, (s, r)
