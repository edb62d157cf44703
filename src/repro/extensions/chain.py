"""Chain TNN: ``k > 2`` datasets on ``k`` channels, visited in order.

Extension 1 of the paper's roadmap.  The estimate phase runs ``k`` NN
searches from the query point in parallel (one per channel) and chains the
results into a feasible route whose length bounds the search radius; the
filter phase runs ``k`` parallel range queries and a layered min-plus
dynamic program finds the optimal chain among the candidates.

Radius soundness is the Theorem 1 argument applied per layer: for any
object ``o_i`` of the optimal chain, the prefix of the optimal route from
``p`` to ``o_i`` is at least ``dis(p, o_i)``, so every optimal object lies
within ``circle(p, d)`` for any feasible route length ``d``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from repro.broadcast import (
    BroadcastChannel,
    BroadcastProgram,
    ChannelTuner,
    SystemParameters,
)
from repro.client import BroadcastNNSearch, BroadcastRangeSearch, SearchGroup
from repro.geometry import Circle, Point, Rect, distance
from repro.rtree import RTree, build_rtree


@dataclass
class ChainEnvironment:
    """``k`` indexed datasets, one broadcast channel each."""

    datasets: List[List[Point]]
    trees: List[RTree]
    programs: List[BroadcastProgram]
    params: SystemParameters
    region: Rect

    @classmethod
    def build(
        cls,
        datasets: Sequence[Sequence[Point]],
        params: SystemParameters | None = None,
        m: int | None = None,
    ) -> "ChainEnvironment":
        if len(datasets) < 2:
            raise ValueError("a chain needs at least two datasets")
        params = params or SystemParameters()
        trees = [
            build_rtree(list(ds), params.leaf_capacity, params.internal_fanout)
            for ds in datasets
        ]
        programs = [BroadcastProgram(t, params, m=m) for t in trees]
        region = Rect.union_of([t.mbr for t in trees])
        return cls(
            datasets=[list(ds) for ds in datasets],
            trees=trees,
            programs=programs,
            params=params,
            region=region,
        )

    @property
    def k(self) -> int:
        return len(self.datasets)

    def tuners(self, phases: Sequence[float] | None = None) -> List[ChannelTuner]:
        """Fresh tuners, one per channel, without reception logs (no
        chain run reads one; the counters still count)."""
        phases = phases if phases is not None else [0.0] * self.k
        if len(phases) != self.k:
            raise ValueError(f"expected {self.k} phases, got {len(phases)}")
        return [
            ChannelTuner(BroadcastChannel(prog, phase=ph), record_log=False)
            for prog, ph in zip(self.programs, phases)
        ]

    def random_phases(self, rng: random.Random) -> List[float]:
        return [rng.uniform(0, prog.cycle_length) for prog in self.programs]

    def random_query_point(self, rng: random.Random) -> Point:
        return Point(
            rng.uniform(self.region.xmin, self.region.xmax),
            rng.uniform(self.region.ymin, self.region.ymax),
        )


@dataclass
class ChainResult:
    """Answer and cost metrics of one chain-TNN query."""

    query: Point
    route: List[Point]
    distance: float
    radius: float
    access_time: float
    tune_in_time: int
    per_channel_tune_in: List[int] = field(default_factory=list)


class ChainTNN:
    """Double-NN generalised to ``k`` channels."""

    name = "chain-tnn"

    def run(
        self,
        env: ChainEnvironment,
        query: Point,
        phases: Sequence[float] | None = None,
    ) -> ChainResult:
        tuners = env.tuners(phases)

        # Estimate: k parallel NN searches from the query point.
        searches = [
            BroadcastNNSearch(tree, tuner, query)
            for tree, tuner in zip(env.trees, tuners)
        ]
        SearchGroup(searches).run()
        hops = [s.result()[0] for s in searches]
        radius = _route_length(query, hops)
        estimate_finish = max(t.now for t in tuners)

        # Filter: k parallel range queries with the shared radius.
        circle = Circle(query, radius)
        ranges = [
            BroadcastRangeSearch(tree, tuner, circle, start_time=estimate_finish)
            for tree, tuner in zip(env.trees, tuners)
        ]
        SearchGroup(ranges).run()
        layers = [rq.results for rq in ranges]

        route, dist = _chain_join(query, layers, seed_route=hops, seed_dist=radius)
        return ChainResult(
            query=query,
            route=route,
            distance=dist,
            radius=radius,
            access_time=max(t.now for t in tuners),
            tune_in_time=sum(t.pages_downloaded for t in tuners),
            per_channel_tune_in=[t.pages_downloaded for t in tuners],
        )


def _route_length(p: Point, hops: Sequence[Point]) -> float:
    total = distance(p, hops[0])
    for a, b in zip(hops, hops[1:]):
        total += distance(a, b)
    return total


def _chain_join(
    p: Point,
    layers: Sequence[Sequence[Point]],
    seed_route: Sequence[Point],
    seed_dist: float,
) -> Tuple[List[Point], float]:
    """Layered min-plus DP over the candidate sets.

    Falls back to the seed route when any layer came back empty (cannot
    happen for the exact estimate, whose own hops lie inside the circle,
    but keeps the join total).
    """
    if any(not layer for layer in layers):
        return list(seed_route), seed_dist

    arrays = [np.asarray(layer, dtype=float) for layer in layers]
    cost = np.hypot(arrays[0][:, 0] - p.x, arrays[0][:, 1] - p.y)
    back: List[np.ndarray] = []
    for prev, cur in zip(arrays, arrays[1:]):
        dx = prev[:, 0:1] - cur[None, :, 0]
        dy = prev[:, 1:2] - cur[None, :, 1]
        step = np.sqrt(dx * dx + dy * dy) + cost[:, None]
        back.append(np.argmin(step, axis=0))
        cost = np.min(step, axis=0)

    end = int(np.argmin(cost))
    dist = float(cost[end])
    if dist >= seed_dist:
        return list(seed_route), seed_dist

    # Reconstruct the route backwards through the argmin tables.
    idx = end
    route_rev = [Point(*map(float, arrays[-1][idx]))]
    for layer_i in range(len(arrays) - 2, -1, -1):
        idx = int(back[layer_i][idx])
        route_rev.append(Point(*map(float, arrays[layer_i][idx])))
    return list(reversed(route_rev)), dist


def chain_oracle(p: Point, datasets: Sequence[Sequence[Point]]) -> Tuple[List[Point], float]:
    """Ground-truth optimal chain via DP over the *full* datasets."""
    if any(not ds for ds in datasets):
        raise ValueError("chain oracle requires non-empty datasets")
    return _chain_join(p, datasets, seed_route=[], seed_dist=float("inf"))
