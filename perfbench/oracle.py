"""Exact answers from scipy's k-d tree, independent of repro's index code.

Checks compare distances, not identities, so two data points at the same
distance from a query are both right answers.  ``core/brute.py`` replays
whole broadcast cycles per query and is too slow at 30,000 points; this
oracle shares no code with the broadcast client, its R-tree or its
geometry kernels.  scipy is imported only here, after measuring, so it
never sits in the measured processes' memory.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from repro.engine.query import KNNRequest, NNRequest, RangeRequest

#: Relative tolerance of a distance comparison.  The client computes
#: distances with ``math.hypot``, the oracle with numpy; the two differ in
#: the last bits only.
REL_TOL = 1e-9


def _close(a, b) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return np.abs(a - b) <= REL_TOL * scale


class Dataset:
    """One channel's points as an array, a k-d tree and a membership set."""

    def __init__(self, points) -> None:
        self.xy = np.asarray(points, dtype=float).reshape(-1, 2)
        self.tree = cKDTree(self.xy)
        self.members = set(map(tuple, self.xy.tolist()))

    def contains_all(self, xy: np.ndarray) -> bool:
        return all(p in self.members for p in map(tuple, xy.tolist()))


class TNNOracle:
    """Exact TNN distance: min over s in S of |q - s| + NN_R(s)."""

    def __init__(self, env) -> None:
        self.s = Dataset(env.s_points)
        self.r = Dataset(env.r_points)
        self.d_r, _ = self.r.tree.query(self.s.xy)  # NN_R(s) for every s

    def distances(self, queries: np.ndarray) -> np.ndarray:
        s_xy = self.s.xy
        k = min(16, len(s_xy))
        d_k, i_k = self.s.tree.query(queries, k=k)
        d_k = d_k.reshape(len(queries), k)
        i_k = i_k.reshape(len(queries), k)
        # Any s nearer than the best route through the k nearest can still
        # win; none farther can, since |q - s| alone exceeds that route.
        bound = (d_k + self.d_r[i_k]).min(axis=1)
        balls = self.s.tree.query_ball_point(queries, bound * (1 + 1e-12))
        out = np.empty(len(queries))
        for j, idx in enumerate(balls):
            idx = np.asarray(idx, dtype=np.intp)
            diff = s_xy[idx] - queries[j]
            out[j] = (np.hypot(diff[:, 0], diff[:, 1]) + self.d_r[idx]).min()
        return out

    def wrong(self, queries: np.ndarray, expected: np.ndarray, rows: np.ndarray) -> int:
        """Rows ``s.x, s.y, r.x, r.y, distance`` that are not exact answers.

        A row is right when s is a point of S, r a point of R, the route
        q -> s -> r has the optimal length and so does the reported
        distance.  A NaN row (the query raised or found no pair) is wrong.
        """
        s, r, dist = rows[:, 0:2], rows[:, 2:4], rows[:, 4]
        route = np.hypot(*(s - queries).T) + np.hypot(*(r - s).T)
        ok = _close(route, expected) & _close(dist, expected)
        ok &= ~np.isnan(rows).any(axis=1)
        for i in np.flatnonzero(ok):
            if tuple(s[i]) not in self.s.members or tuple(r[i]) not in self.r.members:
                ok[i] = False
        return int(len(rows) - ok.sum())


class ClientOracle:
    """Expected answers of NN, kNN, range and window requests."""

    def __init__(self, env) -> None:
        self.data = {"s": Dataset(env.s_points), "r": Dataset(env.r_points)}

    def expected(self, req):
        data = self.data[req.channel]
        if isinstance(req, NNRequest):
            return np.atleast_1d(data.tree.query(req.point, k=1)[0])
        if isinstance(req, KNNRequest):
            k = min(req.k, len(data.xy))
            return np.atleast_1d(data.tree.query(req.point, k=k)[0])
        if isinstance(req, RangeRequest):
            idx = data.tree.query_ball_point(req.center, req.radius)
            return np.sort(np.hypot(*(data.xy[idx] - req.center).T))
        w = req.window
        inside = (
            (data.xy[:, 0] >= w.xmin) & (data.xy[:, 0] <= w.xmax)
            & (data.xy[:, 1] >= w.ymin) & (data.xy[:, 1] <= w.ymax)
        )
        return np.sort(data.xy[inside].view([("x", float), ("y", float)]).ravel())

    def wrong(self, requests, expected, answers) -> int:
        """Requests whose answer differs from the oracle's.

        NN, kNN and range answers are compared as sorted distances from
        the query point, windows as sets of points.  Every answer point
        must be a point of the dataset.
        """
        bad = 0
        for req, want, got in zip(requests, expected, answers):
            data = self.data[req.channel]
            if not data.contains_all(got):
                bad += 1
                continue
            if isinstance(req, (NNRequest, KNNRequest, RangeRequest)):
                center = req.center if isinstance(req, RangeRequest) else req.point
                dists = np.sort(np.hypot(*(got - center).T))
                ok = len(dists) == len(want) and bool(_close(dists, want).all())
            else:
                pts = np.sort(np.ascontiguousarray(got).view([("x", float), ("y", float)]).ravel())
                ok = len(pts) == len(want) and bool((pts == want).all())
            bad += not ok
        return bad
