"""One facade over every query type the broadcast client supports.

:class:`QueryEngine` binds a :class:`~repro.core.environment.TNNEnvironment`
and exposes NN, kNN, range, window and TNN queries behind one object, so
callers (benchmarks, services, the batch runner) stop hand-wiring tuners,
channels and steppable searches for every request.  Single queries run
through the same substrate as batches — the per-program cached arrival
tables make the per-query setup cost a handful of attribute lookups.

Mixed client batches go through :meth:`QueryEngine.run_many`: requests are
declared as :class:`NNRequest` / :class:`KNNRequest` / :class:`RangeRequest`
/ :class:`WindowRequest` records and executed page-major by the shared-scan
executor (:mod:`repro.engine.shared_scan`), which serves every request per
page arrival and batches the geometry kernels across the batch.  Answers
are bit-identical to issuing each request through the corresponding
single-query method.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from repro.broadcast import BroadcastChannel, ChannelTuner
from repro.client import (
    BroadcastKNNSearch,
    BroadcastNNSearch,
    BroadcastRangeSearch,
    BroadcastWindowSearch,
    SearchGroup,
)
from repro.core.base import TNNAlgorithm
from repro.core.double import DoubleNN
from repro.core.environment import TNNEnvironment
from repro.core.result import TNNResult
from repro.engine.batch import SharedScanRunner
from repro.engine.shared_scan import SharedScanExecutor
from repro.engine.workload import QueryWorkload
from repro.geometry import Circle, Point, Rect


@dataclass(frozen=True)
class NNRequest:
    """One nearest-neighbour request for :meth:`QueryEngine.run_many`."""

    point: Point
    phase: float = 0.0
    channel: str = "s"


@dataclass(frozen=True)
class KNNRequest:
    """One k-nearest-neighbours request for :meth:`QueryEngine.run_many`."""

    point: Point
    k: int = 1
    phase: float = 0.0
    channel: str = "s"


@dataclass(frozen=True)
class RangeRequest:
    """One circular range request for :meth:`QueryEngine.run_many`."""

    center: Point
    radius: float = 0.0
    phase: float = 0.0
    channel: str = "s"


@dataclass(frozen=True)
class WindowRequest:
    """One rectangular window request for :meth:`QueryEngine.run_many`."""

    window: Rect
    phase: float = 0.0
    channel: str = "s"


ClientRequest = Union[NNRequest, KNNRequest, RangeRequest, WindowRequest]


@dataclass(frozen=True)
class ClientQueryAnswer:
    """Answer and cost accounting of one client-side broadcast query.

    ``answers`` is ``((point, distance), ...)`` ascending by distance for
    NN/kNN; for range queries the distance is to the query centre.
    """

    answers: Tuple[Tuple[Point, float], ...]
    access_time: float
    tune_in: int
    max_queue_size: int


class QueryEngine:
    """All supported query types over one two-channel environment."""

    def __init__(self, env: TNNEnvironment) -> None:
        self.env = env

    # ------------------------------------------------------------------
    # Channel plumbing
    # ------------------------------------------------------------------
    def _tuner(self, channel: str, phase: float) -> ChannelTuner:
        """A fresh tuner on one channel, under the environment's faults."""
        if channel == "s":
            program = self.env.s_program
        elif channel == "r":
            program = self.env.r_program
        else:
            raise ValueError(f"channel must be 's' or 'r', got {channel!r}")
        return ChannelTuner(
            BroadcastChannel(program, phase=phase), loss=self.env.loss
        )

    def _tree(self, channel: str):
        return self.env.s_tree if channel == "s" else self.env.r_tree

    # ------------------------------------------------------------------
    # Single-dataset queries
    # ------------------------------------------------------------------
    def nn(
        self, query: Point, phase: float = 0.0, channel: str = "s"
    ) -> ClientQueryAnswer:
        """Exact nearest neighbour of ``query`` on one channel."""
        search = self._build(NNRequest(query, phase, channel))
        search.run_to_completion()
        return self._finish(search)

    def knn(
        self, query: Point, k: int, phase: float = 0.0, channel: str = "s"
    ) -> ClientQueryAnswer:
        """The ``k`` nearest neighbours of ``query`` on one channel."""
        search = self._build(KNNRequest(query, k, phase, channel))
        search.run_to_completion()
        return self._finish(search)

    def range(
        self,
        center: Point,
        radius: float,
        phase: float = 0.0,
        channel: str = "s",
    ) -> ClientQueryAnswer:
        """All points within ``radius`` of ``center`` on one channel."""
        search = self._build(RangeRequest(center, radius, phase, channel))
        search.run_to_completion()
        return self._finish(search)

    def window(
        self, window: Rect, phase: float = 0.0, channel: str = "s"
    ) -> ClientQueryAnswer:
        """All points inside a closed rectangle on one channel.

        Window answers carry distance ``0.0`` (a window has no centre) in
        broadcast discovery order.
        """
        search = self._build(WindowRequest(window, phase, channel))
        search.run_to_completion()
        return self._finish(search)

    # ------------------------------------------------------------------
    # Mixed client batches (shared-scan executor)
    # ------------------------------------------------------------------
    def run_many(
        self,
        requests: Sequence["ClientRequest"],
        record_log: bool = True,
    ) -> List[ClientQueryAnswer]:
        """Answer a mixed NN/kNN/range/window batch through the shared scan.

        Every request gets its own tuner (its ``phase`` models when its
        client tuned in), and the shared-scan executor batches what it
        can: NN requests page-major, one round per page arrival tick
        with geometry kernels batched across the whole batch, and
        lossless range requests in set-at-a-time passes; kNN, window and
        faulty range requests each run alone (one drain walk on a
        frontier).  Answers come back in request order, bit-identical to
        the corresponding single-query methods.

        ``record_log=False`` skips every tuner's per-reception event log
        (answers, access times, tune-in counts and queue sizes are
        unaffected) — batch campaigns that never read traces save the
        per-download log appends.
        """
        searches = [self._build(req) for req in requests]
        if not record_log:
            for search in searches:
                search.tuner.record_log = False
        executor = SharedScanExecutor()
        for search in searches:
            executor.add(SearchGroup([search]))
        executor.run()
        return [self._finish(search) for search in searches]

    def _build(self, req: "ClientRequest"):
        """One steppable search (with its own tuner) for a client request."""
        tuner = self._tuner(req.channel, req.phase)
        tree = self._tree(req.channel)
        if isinstance(req, NNRequest):
            return BroadcastNNSearch(tree, tuner, req.point)
        if isinstance(req, KNNRequest):
            return BroadcastKNNSearch(tree, tuner, req.point, req.k)
        if isinstance(req, RangeRequest):
            return BroadcastRangeSearch(
                tree, tuner, Circle(req.center, req.radius)
            )
        if isinstance(req, WindowRequest):
            return BroadcastWindowSearch(tree, tuner, req.window)
        raise TypeError(f"unsupported client request: {req!r}")

    def _finish(self, search) -> ClientQueryAnswer:
        """The answer record of one completed search, uniform across kinds."""
        if isinstance(search, BroadcastNNSearch):
            point, dist = search.result()
            answers: Tuple[Tuple[Point, float], ...] = ((point, dist),)
        elif isinstance(search, BroadcastKNNSearch):
            answers = tuple(search.results())
        elif isinstance(search, BroadcastRangeSearch):
            center = search.circle.center
            answers = tuple(
                sorted(
                    ((p, center.distance_to(p)) for p in search.results),
                    key=lambda a: a[1],
                )
            )
        else:
            answers = tuple((p, 0.0) for p in search.results)
        tuner = search.tuner
        return ClientQueryAnswer(
            answers=answers,
            access_time=tuner.now,
            tune_in=tuner.pages_downloaded,
            max_queue_size=search.max_queue_size,
        )

    # ------------------------------------------------------------------
    # Transitive queries
    # ------------------------------------------------------------------
    def tnn(
        self,
        query: Point,
        algorithm: Optional[TNNAlgorithm] = None,
        phase_s: float = 0.0,
        phase_r: float = 0.0,
    ) -> TNNResult:
        """One transitive NN query (default algorithm: exact Double-NN)."""
        algo = algorithm if algorithm is not None else DoubleNN()
        return algo.run(self.env, query, phase_s, phase_r)

    def batch(
        self,
        workload: QueryWorkload,
        workers: Optional[int] = None,
    ) -> SharedScanRunner:
        """A :class:`SharedScanRunner` executing ``workload`` here."""
        return SharedScanRunner(self.env, workload, workers=workers)
