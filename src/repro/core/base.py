"""Shared machinery for TNN algorithms: the estimate-filter lifecycle."""

from __future__ import annotations

import abc
import math
from typing import Generator, Optional, Tuple

from repro.broadcast import ChannelTuner
from repro.client import BroadcastRangeSearch, SearchGroup
from repro.client.policies import ExactPolicy, PruningPolicy
from repro.core.ann import AnnOptimization
from repro.core.environment import TNNEnvironment
from repro.core.join import transitive_join
from repro.core.result import TNNResult
from repro.geometry import Circle, Point

#: :meth:`TNNAlgorithm._estimate`: yields the estimate's search groups and
#: returns the search radius with, for exact algorithms, the seed pair
#: that produced it.
EstimateStages = Generator[
    SearchGroup, None, Tuple[float, Optional[Tuple[Point, Point]]]
]


class TNNAlgorithm(abc.ABC):
    """Base class of all TNN query processors.

    Every algorithm has the paper's one shape, written once in
    :meth:`_stages`: an estimate phase (:meth:`_estimate`, the part
    subclasses implement), two parallel range queries, then the
    transitive join and the :class:`TNNResult` with the paper's metrics.
    Each stage is yielded as a :class:`~repro.client.SearchGroup`, and two
    callers run that one description through :meth:`run_stages`:
    :meth:`run` answers one query, and
    :func:`~repro.engine.shared_scan.execute_tnn_batch` serves a whole
    workload, one query after another.

    ``optimization`` plugs the ANN approximation into the estimate phase;
    ``include_data_retrieval`` additionally downloads the answer pair's
    data pages at the end (constant across algorithms, hence off by
    default — the paper measures query processing pages).
    """

    name: str = "tnn"

    def __init__(
        self,
        optimization: Optional[AnnOptimization] = None,
        include_data_retrieval: bool = False,
    ) -> None:
        self.optimization = optimization
        self.include_data_retrieval = include_data_retrieval

    # ------------------------------------------------------------------
    # Public entry point
    # ------------------------------------------------------------------
    def run(
        self,
        env: TNNEnvironment,
        query: Point,
        phase_s: float = 0.0,
        phase_r: float = 0.0,
    ) -> TNNResult:
        """Answer one TNN query issued at t=0 with the given channel phases.

        The tuners keep no reception log: no caller can reach them, and
        the result carries none.
        """
        tuner_s, tuner_r = env.tuners(phase_s, phase_r, record_log=False)
        return self.run_stages(env, query, tuner_s, tuner_r)

    def run_stages(
        self,
        env: TNNEnvironment,
        query: Point,
        tuner_s: ChannelTuner,
        tuner_r: ChannelTuner,
    ) -> TNNResult:
        """Answer one TNN query on the given tuners, stage by stage.

        Each stage runs to completion (:meth:`SearchGroup.run
        <repro.client.scheduler.SearchGroup.run>`) before the next is
        built.
        """
        stages = self._stages(env, query, tuner_s, tuner_r)
        try:
            while True:
                next(stages).run()
        except StopIteration as done:
            return done.value

    # ------------------------------------------------------------------
    # The lifecycle
    # ------------------------------------------------------------------
    def _stages(
        self,
        env: TNNEnvironment,
        query: Point,
        tuner_s: ChannelTuner,
        tuner_r: ChannelTuner,
    ) -> Generator[SearchGroup, None, TNNResult]:
        """One query's lifecycle: yield each stage's searches, return the result.

        The caller runs every yielded group to completion, honouring its
        ``coupled`` / ``on_finish`` contract, before resuming the generator.
        """
        policy_s, policy_r = self._policies(env)
        radius, seed_pair = yield from self._estimate(
            env, query, tuner_s, tuner_r, policy_s, policy_r
        )
        estimate_finish = max(tuner_s.now, tuner_r.now)
        estimate_pages = tuner_s.pages_downloaded + tuner_r.pages_downloaded

        # Filter: parallel range queries on both channels, then the join.
        circle = Circle(query, radius)
        range_s = BroadcastRangeSearch(env.s_tree, tuner_s, circle, estimate_finish)
        range_r = BroadcastRangeSearch(env.r_tree, tuner_r, circle, estimate_finish)
        yield SearchGroup([range_s, range_r])

        seed_bound = math.inf
        if seed_pair is not None:
            s0, r0 = seed_pair
            seed_bound = query.distance_to(s0) + s0.distance_to(r0)
        s, r, dist = transitive_join(
            query,
            range_s.results,
            range_r.results,
            initial_bound=seed_bound,
            initial_pair=seed_pair,
        )
        filter_pages = (
            tuner_s.pages_downloaded + tuner_r.pages_downloaded - estimate_pages
        )

        data_pages = 0
        if self.include_data_retrieval and s is not None and r is not None:
            before = tuner_s.data_pages + tuner_r.data_pages
            finish = max(tuner_s.now, tuner_r.now)
            tuner_s.advance_to(finish)
            tuner_r.advance_to(finish)
            tuner_s.download_object(env.s_object_of(s))
            tuner_r.download_object(env.r_object_of(r))
            data_pages = tuner_s.data_pages + tuner_r.data_pages - before

        return TNNResult(
            algorithm=self.name,
            query=query,
            s=s,
            r=r,
            distance=dist,
            radius=radius,
            access_time=max(tuner_s.now, tuner_r.now),
            tune_in_s=tuner_s.pages_downloaded,
            tune_in_r=tuner_r.pages_downloaded,
            estimate_pages=estimate_pages,
            filter_pages=filter_pages,
            estimate_finish=estimate_finish,
            data_pages=data_pages,
            failed=s is None or r is None,
        )

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def _policies(
        self, env: TNNEnvironment
    ) -> Tuple[PruningPolicy, PruningPolicy]:
        if self.optimization is None:
            return ExactPolicy(), ExactPolicy()
        return self.optimization.policies(env)

    @abc.abstractmethod
    def _estimate(
        self,
        env: TNNEnvironment,
        query: Point,
        tuner_s: ChannelTuner,
        tuner_r: ChannelTuner,
        policy_s: PruningPolicy,
        policy_r: PruningPolicy,
    ) -> EstimateStages:
        """Phase 1: yield the estimate's search groups, return the estimate.

        A generator even when it searches nothing: ``yield from`` over a
        plain ``(radius, seed_pair)`` tuple would yield its two items as
        groups.
        """
