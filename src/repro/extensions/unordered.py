"""Order-free TNN: visit one object of each type in whichever order wins.

Extension 2 of the paper's roadmap (the trip-planning-query flavour of
Li et al.): minimise over both visiting orders

    ``min( dis(p,s) + dis(s,r),  dis(p,r) + dis(r,s) )``.

The estimate runs the same two parallel NN searches as Double-NN; both
chainings of the NN results are feasible routes, and the smaller one is a
sound radius for the combined answer: the optimum is no longer than it,
and every optimal object lies within that distance of ``p`` regardless of
which order wins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.client import BroadcastNNSearch, BroadcastRangeSearch, SearchGroup
from repro.core.environment import TNNEnvironment
from repro.geometry import Circle, Point, distance


@dataclass
class UnorderedResult:
    """Answer, winning order and cost metrics of one order-free query."""

    query: Point
    s: Optional[Point]
    r: Optional[Point]
    #: "s-first" or "r-first".
    order: str
    distance: float
    radius: float
    access_time: float
    tune_in_time: int


class UnorderedTNN:
    """Double-NN estimate; join over both visiting orders."""

    name = "unordered-tnn"

    def run(
        self,
        env: TNNEnvironment,
        query: Point,
        phase_s: float = 0.0,
        phase_r: float = 0.0,
    ) -> UnorderedResult:
        tuner_s, tuner_r = env.tuners(phase_s, phase_r)

        nn_s = BroadcastNNSearch(env.s_tree, tuner_s, query)
        nn_r = BroadcastNNSearch(env.r_tree, tuner_r, query)
        SearchGroup([nn_s, nn_r]).run()
        s0, _ = nn_s.result()
        r0, _ = nn_r.result()
        d_sfirst = distance(query, s0) + distance(s0, r0)
        d_rfirst = distance(query, r0) + distance(r0, s0)
        radius = min(d_sfirst, d_rfirst)
        estimate_finish = max(tuner_s.now, tuner_r.now)

        circle = Circle(query, radius)
        range_s = BroadcastRangeSearch(env.s_tree, tuner_s, circle, estimate_finish)
        range_r = BroadcastRangeSearch(env.r_tree, tuner_r, circle, estimate_finish)
        SearchGroup([range_s, range_r]).run()

        seed = (s0, r0, "s-first" if d_sfirst <= d_rfirst else "r-first", radius)
        s, r, order, dist = _unordered_join(
            query, range_s.results, range_r.results, seed
        )
        return UnorderedResult(
            query=query,
            s=s,
            r=r,
            order=order,
            distance=dist,
            radius=radius,
            access_time=max(tuner_s.now, tuner_r.now),
            tune_in_time=tuner_s.pages_downloaded + tuner_r.pages_downloaded,
        )


def _directed_best(
    p: Point, first: Sequence[Point], second: Sequence[Point]
) -> Tuple[Optional[Point], Optional[Point], float]:
    """Best ``p -> first -> second`` route over the candidate sets."""
    if not first or not second:
        return None, None, math.inf
    f_arr = np.asarray(first, dtype=float)
    s_arr = np.asarray(second, dtype=float)
    d_pf = np.hypot(f_arr[:, 0] - p.x, f_arr[:, 1] - p.y)
    dx = f_arr[:, 0:1] - s_arr[None, :, 0]
    dy = f_arr[:, 1:2] - s_arr[None, :, 1]
    totals = d_pf[:, None] + np.sqrt(dx * dx + dy * dy)
    i, j = divmod(int(np.argmin(totals)), len(s_arr))
    return (
        Point(float(f_arr[i, 0]), float(f_arr[i, 1])),
        Point(float(s_arr[j, 0]), float(s_arr[j, 1])),
        float(totals[i, j]),
    )


def _unordered_join(p, s_cands, r_cands, seed):
    s0, r0, seed_order, seed_dist = seed
    sf_s, sf_r, sf_d = _directed_best(p, s_cands, r_cands)
    rf_r, rf_s, rf_d = _directed_best(p, r_cands, s_cands)
    best = (s0, r0, seed_order, seed_dist)
    if sf_d < best[3]:
        best = (sf_s, sf_r, "s-first", sf_d)
    if rf_d < best[3]:
        best = (rf_s, rf_r, "r-first", rf_d)
    return best


def unordered_oracle(
    p: Point, s_points: Sequence[Point], r_points: Sequence[Point]
) -> Tuple[str, float]:
    """Ground truth: the winning order and optimal route length."""
    _, _, sf = _directed_best(p, list(s_points), list(r_points))
    _, _, rf = _directed_best(p, list(r_points), list(s_points))
    return ("s-first", sf) if sf <= rf else ("r-first", rf)
