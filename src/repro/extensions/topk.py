"""Top-k TNN: the k best pairs instead of only the minimum.

A natural generalisation beyond the paper: return the ``k`` pairs
``(s, r)`` with the smallest transitive distances (e.g. "give me three
good post-office/restaurant combinations to choose from").

Estimate-phase soundness: take the ``k`` nearest ``s_i`` to ``p``
(broadcast kNN on channel 1) and ``r_1 = p.NN(R)`` (channel 2, in
parallel).  The ``k`` pairs ``(s_i, r_1)`` are distinct, so the k-th best
overall total is at most ``D = max_i [ dis(p,s_i) + dis(s_i,r_1) ]``; by
the Theorem 1 argument every object of every top-k pair then lies inside
``circle(p, D)``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.client import (
    BroadcastKNNSearch,
    BroadcastNNSearch,
    BroadcastRangeSearch,
    SearchGroup,
)
from repro.core.environment import TNNEnvironment
from repro.geometry import Circle, Point, distance, transitive_distance


@dataclass
class TopKResult:
    """The k best pairs (ascending by transitive distance) plus metrics."""

    query: Point
    pairs: List[Tuple[Point, Point, float]]
    radius: float
    access_time: float
    tune_in_time: int

    @property
    def k(self) -> int:
        return len(self.pairs)


class TopKTNN:
    """Answer top-k TNN queries over the two broadcast channels."""

    name = "topk-tnn"

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k

    def run(
        self,
        env: TNNEnvironment,
        query: Point,
        phase_s: float = 0.0,
        phase_r: float = 0.0,
    ) -> TopKResult:
        tuner_s, tuner_r = env.tuners(phase_s, phase_r)

        knn_s = BroadcastKNNSearch(env.s_tree, tuner_s, query, self.k)
        nn_r = BroadcastNNSearch(env.r_tree, tuner_r, query)
        SearchGroup([knn_s, nn_r]).run()
        s_candidates = knn_s.results()
        r1, _ = nn_r.result()
        radius = max(
            distance(query, s) + distance(s, r1) for s, _ in s_candidates
        )
        estimate_finish = max(tuner_s.now, tuner_r.now)

        circle = Circle(query, radius)
        range_s = BroadcastRangeSearch(env.s_tree, tuner_s, circle, estimate_finish)
        range_r = BroadcastRangeSearch(env.r_tree, tuner_r, circle, estimate_finish)
        SearchGroup([range_s, range_r]).run()

        pairs = topk_join(query, range_s.results, range_r.results, self.k)
        return TopKResult(
            query=query,
            pairs=pairs,
            radius=radius,
            access_time=max(tuner_s.now, tuner_r.now),
            tune_in_time=tuner_s.pages_downloaded + tuner_r.pages_downloaded,
        )


def topk_join(
    p: Point,
    s_cands: Sequence[Point],
    r_cands: Sequence[Point],
    k: int,
) -> List[Tuple[Point, Point, float]]:
    """The k smallest-total pairs over the candidate sets, ascending.

    Vectorises the pairwise totals with numpy and keeps a k-bounded heap,
    pruning whole rows whose first hop already exceeds the current k-th
    best total.
    """
    if not s_cands or not r_cands:
        return []
    s_arr = np.asarray(s_cands, dtype=float)
    r_arr = np.asarray(r_cands, dtype=float)
    d_ps = np.hypot(s_arr[:, 0] - p.x, s_arr[:, 1] - p.y)
    order = np.argsort(d_ps)

    heap: List[Tuple[float, int, int]] = []  # max-heap via negated totals
    seq = 0
    for i in order:
        if len(heap) == k and d_ps[i] >= -heap[0][0]:
            break
        dx = s_arr[i, 0] - r_arr[:, 0]
        dy = s_arr[i, 1] - r_arr[:, 1]
        totals = d_ps[i] + np.hypot(dx, dy)
        for j in np.argsort(totals)[: k]:
            total = float(totals[j])
            if len(heap) < k:
                heapq.heappush(heap, (-total, seq, (int(i), int(j))))
                seq += 1
            elif total < -heap[0][0]:
                heapq.heapreplace(heap, (-total, seq, (int(i), int(j))))
                seq += 1
            else:
                break

    out = []
    for neg_total, _, (i, j) in sorted(heap, key=lambda e: -e[0]):
        out.append(
            (
                Point(float(s_arr[i, 0]), float(s_arr[i, 1])),
                Point(float(r_arr[j, 0]), float(r_arr[j, 1])),
                -neg_total,
            )
        )
    return out


def topk_oracle(
    p: Point,
    s_points: Sequence[Point],
    r_points: Sequence[Point],
    k: int,
) -> List[float]:
    """Ground truth: the k smallest transitive totals, ascending."""
    totals = sorted(
        transitive_distance(p, s, r) for s in s_points for r in r_points
    )
    return totals[:k]
