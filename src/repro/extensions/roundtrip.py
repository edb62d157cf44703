"""Round-trip TNN: minimise ``dis(p,s) + dis(s,r) + dis(r,p)``.

Extension 3 of the paper's roadmap: the user returns to the starting point
after visiting both object types (post office, restaurant, then home).
Estimate and filter mirror Double-NN; only the route-length functional and
the join objective change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.client import BroadcastNNSearch, BroadcastRangeSearch, SearchGroup
from repro.core.environment import TNNEnvironment
from repro.geometry import Circle, Point, distance


def roundtrip_length(p: Point, s: Point, r: Point) -> float:
    """The full tour length ``p -> s -> r -> p``."""
    return distance(p, s) + distance(s, r) + distance(r, p)


@dataclass
class RoundTripResult:
    """Answer and cost metrics of one round-trip TNN query."""

    query: Point
    s: Optional[Point]
    r: Optional[Point]
    distance: float
    radius: float
    access_time: float
    tune_in_time: int


class RoundTripTNN:
    """Double-NN estimate with a round-trip objective."""

    name = "roundtrip-tnn"

    def run(
        self,
        env: TNNEnvironment,
        query: Point,
        phase_s: float = 0.0,
        phase_r: float = 0.0,
    ) -> RoundTripResult:
        tuner_s, tuner_r = env.tuners(phase_s, phase_r, record_log=False)

        nn_s = BroadcastNNSearch(env.s_tree, tuner_s, query)
        nn_r = BroadcastNNSearch(env.r_tree, tuner_r, query)
        SearchGroup([nn_s, nn_r]).run()
        s0, _ = nn_s.result()
        r0, _ = nn_r.result()
        radius = roundtrip_length(query, s0, r0)
        estimate_finish = max(tuner_s.now, tuner_r.now)

        circle = Circle(query, radius)
        range_s = BroadcastRangeSearch(env.s_tree, tuner_s, circle, estimate_finish)
        range_r = BroadcastRangeSearch(env.r_tree, tuner_r, circle, estimate_finish)
        SearchGroup([range_s, range_r]).run()

        s, r, dist = _roundtrip_join(
            query, range_s.results, range_r.results, (s0, r0), radius
        )
        return RoundTripResult(
            query=query,
            s=s,
            r=r,
            distance=dist,
            radius=radius,
            access_time=max(tuner_s.now, tuner_r.now),
            tune_in_time=tuner_s.pages_downloaded + tuner_r.pages_downloaded,
        )


def _roundtrip_join(
    p: Point,
    s_cands: Sequence[Point],
    r_cands: Sequence[Point],
    seed_pair: Tuple[Point, Point],
    seed_dist: float,
) -> Tuple[Point, Point, float]:
    if not s_cands or not r_cands:
        return seed_pair[0], seed_pair[1], seed_dist
    s_arr = np.asarray(s_cands, dtype=float)
    r_arr = np.asarray(r_cands, dtype=float)
    d_ps = np.hypot(s_arr[:, 0] - p.x, s_arr[:, 1] - p.y)
    d_rp = np.hypot(r_arr[:, 0] - p.x, r_arr[:, 1] - p.y)
    dx = s_arr[:, 0:1] - r_arr[None, :, 0]
    dy = s_arr[:, 1:2] - r_arr[None, :, 1]
    totals = d_ps[:, None] + np.sqrt(dx * dx + dy * dy) + d_rp[None, :]
    i, j = divmod(int(np.argmin(totals)), len(r_arr))
    best = float(totals[i, j])
    if best >= seed_dist:
        return seed_pair[0], seed_pair[1], seed_dist
    return (
        Point(float(s_arr[i, 0]), float(s_arr[i, 1])),
        Point(float(r_arr[j, 0]), float(r_arr[j, 1])),
        best,
    )


def roundtrip_oracle(
    p: Point, s_points: Sequence[Point], r_points: Sequence[Point]
) -> Tuple[Point, Point, float]:
    """Ground-truth optimal round trip over the full datasets."""
    best: Tuple[Optional[Point], Optional[Point], float] = (None, None, math.inf)
    for s in s_points:
        for r in r_points:
            total = roundtrip_length(p, s, r)
            if total < best[2]:
                best = (s, r, total)
    if best[0] is None:
        raise ValueError("round-trip oracle requires non-empty datasets")
    return best  # type: ignore[return-value]
