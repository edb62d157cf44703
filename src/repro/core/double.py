"""Double-NN-Search (Algorithm 1) — the paper's first new algorithm.

Both nearest-neighbor queries run from the query point ``p`` **in
parallel**, one per channel, starting the moment each channel's index root
flies by:

    ``s = p.NN(S)``  (channel 1)   ||   ``r = p.NN(R)``  (channel 2)

The search radius is ``d = dis(p,s) + dis(s,r)`` — note the second hop is
measured from ``s`` to ``r`` even though ``r`` was found from ``p``; the
pair (s, r) is a genuine candidate pair, so Theorem 1 guarantees the circle
contains the answer.  The parallel estimate removes Window-Based-TNN's
serialisation and cuts access time by 7-15% when the datasets have similar
sizes (Section 6.1.1).
"""

from __future__ import annotations

from repro.broadcast import ChannelTuner
from repro.client import BroadcastNNSearch, SearchGroup
from repro.client.policies import PruningPolicy
from repro.core.base import EstimateStages, TNNAlgorithm
from repro.core.environment import TNNEnvironment
from repro.geometry import Point


class DoubleNN(TNNAlgorithm):
    """Fully parallel estimate phase with two independent NN searches."""

    name = "double-nn"

    def _estimate(
        self,
        env: TNNEnvironment,
        query: Point,
        tuner_s: ChannelTuner,
        tuner_r: ChannelTuner,
        policy_s: PruningPolicy,
        policy_r: PruningPolicy,
    ) -> EstimateStages:
        nn_s = BroadcastNNSearch(env.s_tree, tuner_s, query, policy_s)
        nn_r = BroadcastNNSearch(env.r_tree, tuner_r, query, policy_r)
        yield SearchGroup([nn_s, nn_r])  # independent: order-free
        s, _ = nn_s.result()
        r, _ = nn_r.result()
        radius = query.distance_to(s) + s.distance_to(r)
        return radius, (s, r)
