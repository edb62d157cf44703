"""Hybrid-style re-steering for chain TNN queries.

:class:`~repro.extensions.chain.ChainTNN` generalises Double-NN: all ``k``
NN searches run from the query point.  This module generalises **Hybrid-NN
Case 2** instead: whenever the search for hop ``i`` completes, the search
for hop ``i+1`` (if still running) is retargeted from ``p`` to the hop-i
result, so each leg of the seed route is measured from its actual
predecessor rather than from ``p`` — a tighter feasible route and
therefore a smaller filter radius.

Soundness is unchanged: the seed route is still a real route through one
object per dataset, so the Theorem 1 containment argument applies
verbatim.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.client import (
    BroadcastNNSearch,
    BroadcastRangeSearch,
    SearchGroup,
    run_all,
)
from repro.extensions.chain import (
    ChainEnvironment,
    ChainResult,
    _chain_join,
    _route_length,
)
from repro.geometry import Circle, Point


class HybridChainTNN:
    """Chain TNN with cascade re-steering of successive hops."""

    name = "hybrid-chain-tnn"

    def run(
        self,
        env: ChainEnvironment,
        query: Point,
        phases: Sequence[float] | None = None,
    ) -> ChainResult:
        tuners = env.tuners(phases)
        searches: List[BroadcastNNSearch] = [
            BroadcastNNSearch(tree, tuner, query)
            for tree, tuner in zip(env.trees, tuners)
        ]
        #: retargeted[i] is True once search i's query point was re-steered
        #: to the hop-(i-1) result.
        retargeted = [False] * env.k

        def coordinator(_stepped) -> None:
            for i in range(env.k - 1):
                nxt = searches[i + 1]
                if (
                    searches[i].finished()
                    and not nxt.finished()
                    and not retargeted[i + 1]
                ):
                    hop, _ = searches[i].result()
                    nxt.retarget(hop)
                    retargeted[i + 1] = True

        # The coordinator only ever acts on a finish transition (hop i
        # finishing unlocks re-steering hop i+1), so finish-driven
        # scheduling is equivalent to polling after every step.
        run_all(searches, on_finish=coordinator)
        hops = [s.result()[0] for s in searches]
        radius = _route_length(query, hops)
        estimate_finish = max(t.now for t in tuners)

        circle = Circle(query, radius)
        ranges = [
            BroadcastRangeSearch(tree, tuner, circle, start_time=estimate_finish)
            for tree, tuner in zip(env.trees, tuners)
        ]
        SearchGroup(ranges).run()

        route, dist = _chain_join(
            query,
            [rq.results for rq in ranges],
            seed_route=hops,
            seed_dist=radius,
        )
        return ChainResult(
            query=query,
            route=route,
            distance=dist,
            radius=radius,
            access_time=max(t.now for t in tuners),
            tune_in_time=sum(t.pages_downloaded for t in tuners),
            per_channel_tune_in=[t.pages_downloaded for t in tuners],
        )
