"""Hybrid-NN-Search (Section 4.2) — the paper's second new algorithm.

Starts exactly like Double-NN: two parallel NN searches from ``p``.  The
moment one channel's search completes, its result re-steers the other so
the eventual pair gives a *smaller* search radius:

* **Case 1** — neither finished yet: behave like Double-NN.
* **Case 2** — channel 1 (dataset S) finishes first with ``s = p.NN(S)``:
  the channel-2 search swaps its query point from ``p`` to ``s`` and finds
  the nearest ``r`` to ``s`` over the remaining portion of R's tree —
  mimicking Window-Based-TNN's tighter radius without its serialisation.
* **Case 3** — channel 2 (dataset R) finishes first with ``r = p.NN(R)``:
  the channel-1 search switches metrics to transitive distance, pruning
  with MinTransDist and tightening with MinMaxTransDist (Algorithm 2), and
  returns the ``s`` minimising ``dis(p,s) + dis(s,r)`` over the remaining
  portion of S's tree.

Both re-steerings are sound because children are pushed un-pruned and all
pruning happens at pop time (the delayed-pruning adjustment of Section
4.2.4) — no subtree the *new* query needs was ever discarded.
"""

from __future__ import annotations

from repro.broadcast import ChannelTuner
from repro.client import BroadcastNNSearch, SearchGroup
from repro.client.policies import PruningPolicy
from repro.core.base import EstimateStages, TNNAlgorithm
from repro.core.environment import TNNEnvironment
from repro.geometry import Point


class HybridNN(TNNAlgorithm):
    """Parallel estimate with mid-flight re-steering (Cases 1-3)."""

    name = "hybrid-nn"

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
        steered = False

        def coordinator(finished_search) -> None:
            # Fires exactly when one channel's search completes — the only
            # moment a re-steer can trigger (a search finishes only by its
            # own step, so polling every step would be equivalent, just
            # slower).
            nonlocal steered
            if steered:
                return
            if finished_search is nn_s and not nn_r.finished():
                s, _ = nn_s.result()
                nn_r.retarget(s)  # Case 2
                steered = True
            elif finished_search is nn_r and not nn_s.finished():
                r, _ = nn_r.result()
                nn_s.switch_to_transitive(query, r)  # Case 3
                steered = True

        # Coupled: the finish of either channel re-steers the other, so
        # neither member may run past its sibling's next event (run_all's
        # schedule, which SearchGroup.run keeps in bounded runs).
        yield SearchGroup([nn_s, nn_r], coupled=True, on_finish=coordinator)
        s, _ = nn_s.result()
        r, _ = nn_r.result()
        radius = query.distance_to(s) + s.distance_to(r)
        return radius, (s, r)
