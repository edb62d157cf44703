"""The four benchmark workloads: inputs, the measured call, answers, costs.

Each workload derives its queries, channel phases and channel faults from
the ``--seed`` argument, so one seed always gives the same inputs.  The
datasets are fixed per workload: a different point set per seed would
change the work a query needs far more than the code under test does
(cluster layouts alone moved mixed-batch throughput by a third).  A
workload's ``setup`` is what ``setup_s`` times (dataset generation, both
index packs and broadcast programs, query generation); ``run`` is the
measured call, and its ``Outcome`` packs the answers into plain arrays
that the oracle checks in the parent process once measuring is over.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.broadcast import SystemParameters, make_fault_model
from repro.core.double import DoubleNN
from repro.core.environment import TNNEnvironment
from repro.core.hybrid import HybridNN
from repro.core.window import WindowBasedTNN
from repro.datasets import gaussian_clusters, sized_uniform
from repro.engine import QueryEngine, QueryWorkload, SharedScanRunner
from repro.engine.query import KNNRequest, NNRequest, RangeRequest, WindowRequest
from repro.geometry import Point, Rect

#: Bytes per broadcast page for every workload: the small-page geometry
#: where the arrival frontier holds the most entries per query.
PAGE_CAPACITY = 64


@dataclass
class Setup:
    """A built environment plus the workload's generated inputs."""

    env: TNNEnvironment
    inputs: list
    seed: int
    #: Inputs per measured call (0: all of them).  Call ``k`` takes slice
    #: ``k`` of ``inputs``, cyclically, so a run of ``n_slices`` calls
    #: covers every input once.
    call_size: int = 0

    @property
    def n_slices(self) -> int:
        return -(-len(self.inputs) // self.call_size) if self.call_size else 1

    def call_range(self, k: int) -> range:
        if not self.call_size:
            return range(len(self.inputs))
        lo = (k % self.n_slices) * self.call_size
        return range(lo, min(lo + self.call_size, len(self.inputs)))


@dataclass
class Outcome:
    """What one measured call produced, in a form cheap to send back."""

    wall: float
    answers: list
    access: np.ndarray
    tune_in: np.ndarray
    latencies: Optional[List[float]] = None


def _tnn_pack(results) -> tuple:
    """(n, 5) rows ``s.x, s.y, r.x, r.y, distance`` plus cost columns;
    a query that raised or came back empty is a NaN row."""
    rows = np.full((len(results), 5), np.nan)
    access = np.full(len(results), np.nan)
    tune = np.full(len(results), np.nan)
    for i, res in enumerate(results):
        if res is None:
            continue
        access[i] = res.access_time
        tune[i] = res.tune_in_time
        if res.s is not None and res.r is not None:
            rows[i] = (res.s[0], res.s[1], res.r[0], res.r[1], res.distance)
    return rows, access, tune


class TNNWorkload:
    """TNN queries over two uniform datasets."""

    name = ""
    n_s = 30_000
    n_r = 30_000
    n_queries = 0
    call_size = 0
    workers = 0
    lossy = False
    closed_loop = False

    def setup(self, seed: int) -> Setup:
        s_points = sized_uniform(self.n_s, seed=1)
        r_points = sized_uniform(self.n_r, seed=2)
        loss = make_fault_model("gilbert-elliott", seed=seed) if self.lossy else None
        env = TNNEnvironment.build(
            s_points,
            r_points,
            params=SystemParameters(page_capacity=PAGE_CAPACITY),
            loss=loss,
        )
        queries = QueryWorkload(self.n_queries, seed=seed).queries(env)
        return Setup(env, queries, seed, self.call_size)

    def algorithm(self):
        raise NotImplementedError

    def run(self, setup: Setup, inputs: list, workers: Optional[int] = None) -> Outcome:
        """One ``SharedScanRunner.run_algorithm`` call over ``inputs``."""
        runner = SharedScanRunner(
            setup.env,
            QueryWorkload(len(inputs), seed=setup.seed),
            workers=self.workers if workers is None else workers,
            queries=inputs,
        )
        algo = self.algorithm()
        t0 = time.perf_counter()
        results = runner.run_algorithm(algo, record_log=False)
        wall = time.perf_counter() - t0
        rows, access, tune = _tnn_pack(results)
        return Outcome(wall, rows, access, tune)


class TNNBatch(TNNWorkload):
    """The headline page-major Hybrid-NN campaign."""

    name = "tnn_batch"
    n_queries = 1_000

    def algorithm(self):
        return HybridNN()


class TNNCampaignLossy(TNNWorkload):
    """A Double-NN campaign on a 2-worker pool over a bursty lossy channel."""

    name = "tnn_campaign_lossy"
    n_queries = 1_000
    workers = 2
    lossy = True

    def algorithm(self):
        return DoubleNN()


class TNNSingle(TNNWorkload):
    """One closed-loop client on the per-query path (paper Fig. 9 shape).

    3,000 distinct queries, so the latency tail is not set by the few
    slowest queries of a small set, in calls of 1,000: each call's
    host-speed factor is measured around it, and the host's speed moves
    within seconds.
    """

    name = "tnn_single"
    n_s = 10_000
    n_queries = 3_000
    call_size = 1_000
    closed_loop = True

    def run(self, setup: Setup, inputs: list, workers: Optional[int] = None,
            on_query=None) -> Outcome:
        """The closed loop: each query starts when the previous one ended.

        ``on_query(i)`` runs before query ``i``, outside its timed span:
        the benchmark times its host-speed reference there and tags spans
        with the query id.
        """
        engine = QueryEngine(setup.env)
        algos = (DoubleNN(), HybridNN(), WindowBasedTNN())
        clock = time.perf_counter
        results = []
        latencies = []
        t_start = clock()
        for i, (q, phase_s, phase_r) in enumerate(inputs):
            if on_query is not None:
                on_query(i)
            t0 = clock()
            try:
                res = engine.tnn(q, algos[i % 3], phase_s, phase_r)
            except Exception:  # a NaN answer row: counted as failed
                res = None
            latencies.append(clock() - t0)
            results.append(res)
        wall = clock() - t_start
        rows, access, tune = _tnn_pack(results)
        return Outcome(wall, rows, access, tune, latencies)


def _nearest(points: np.ndarray, centers: np.ndarray, chebyshev: bool) -> np.ndarray:
    """The nine smallest distances from each center to ``points``, sorted.

    Plain numpy: the measured process never imports the oracle's k-d
    tree, whose memory would count into peak RSS.  Points sit sorted by
    x; each center looks at the slab ``|x - cx| <= r``, doubling ``r``
    until nine points lie within distance ``r``.  Those nine are the
    nearest overall, since every point outside the slab is farther.
    """
    k = min(9, len(points))
    pts = points[np.argsort(points[:, 0])]
    xs = pts[:, 0]
    side = float(xs[-1] - xs[0]) or 1.0
    out = np.empty((len(centers), k))
    for j, (cx, cy) in enumerate(centers):
        r = side / 256
        while True:
            slab = pts[np.searchsorted(xs, cx - r):np.searchsorted(xs, cx + r, "right")]
            dx = np.abs(slab[:, 0] - cx)
            dy = np.abs(slab[:, 1] - cy)
            d = np.maximum(dx, dy) if chebyshev else np.hypot(dx, dy)
            near = d[d <= r]
            if len(near) >= k or len(slab) == len(pts):
                out[j] = np.sort(near if len(near) >= k else d)[:k]
                break
            r *= 2
    return out


class ClientMixed:
    """One ``QueryEngine.run_many`` batch of NN, kNN, range and window
    requests, in equal shares, over clustered data on both channels."""

    name = "client_mixed"
    n_points = 30_000
    n_requests = 2_000
    k = 8
    workers = 0
    lossy = False
    closed_loop = False

    def setup(self, seed: int) -> Setup:
        points = {
            "s": gaussian_clusters(self.n_points, clusters=12, seed=1),
            "r": gaussian_clusters(self.n_points, clusters=12, seed=2),
        }
        env = TNNEnvironment.build(
            points["s"], points["r"], params=SystemParameters(page_capacity=PAGE_CAPACITY)
        )
        side = env.region.xmax - env.region.xmin
        rng = random.Random(seed)
        specs = []
        for i in range(self.n_requests):
            channel = "s" if (i // 4) % 2 == 0 else "r"
            program = env.s_program if channel == "s" else env.r_program
            phase = rng.uniform(0, program.cycle_length)
            # Clients sit where the data is: a data point plus a small
            # offset, so no request probes an empty stretch of the map.
            base = rng.choice(points[channel])
            center = Point(base.x + rng.gauss(0.0, side * 0.002),
                           base.y + rng.gauss(0.0, side * 0.002))
            # Ranges and windows enclose this many points.
            specs.append((i % 4, channel, phase, center, rng.randint(3, 8)))
        # Ranges (kind 2) measure Euclidean distance, windows (kind 3)
        # Chebyshev distance: half the side of the square.
        gaps = {}
        for channel in ("s", "r"):
            for kind in (2, 3):
                rows = [i for i, sp in enumerate(specs) if sp[:2] == (kind, channel)]
                near = _nearest(
                    np.asarray(points[channel], dtype=float),
                    np.asarray([specs[i][3] for i in rows], dtype=float).reshape(-1, 2),
                    chebyshev=kind == 3,
                )
                gaps.update(zip(rows, near))
        requests = []
        for i, (kind, channel, phase, center, size) in enumerate(specs):
            if kind >= 2:
                # Halfway between the size-th and the next nearest point: no
                # data point sits on the boundary, so the answer is exact.
                near = gaps[i]
                h =float(near[size - 1] + near[size]) / 2
            if kind == 0:
                requests.append(NNRequest(center, phase, channel))
            elif kind == 1:
                requests.append(KNNRequest(center, self.k, phase, channel))
            elif kind == 2:
                requests.append(RangeRequest(center, h, phase, channel))
            else:
                window = Rect(center.x - h, center.y - h, center.x + h, center.y + h)
                requests.append(WindowRequest(window, phase, channel))
        return Setup(env, requests, seed)

    def run(self, setup: Setup, inputs: list, workers: Optional[int] = None) -> Outcome:
        engine = QueryEngine(setup.env)
        t0 = time.perf_counter()
        answers = engine.run_many(inputs, record_log=False)
        wall = time.perf_counter() - t0
        packed = [
            np.asarray([p for p, _ in a.answers], dtype=float).reshape(-1, 2)
            for a in answers
        ]
        access = np.asarray([a.access_time for a in answers], dtype=float)
        tune = np.asarray([a.tune_in for a in answers], dtype=float)
        return Outcome(wall, packed, access, tune)


WORKLOADS = {
    w.name: w for w in (TNNBatch(), TNNSingle(), ClientMixed(), TNNCampaignLossy())
}
