"""Shared-scan batch executor: one driver for a whole query workload.

A broadcast channel is physically a *shared scan*: every client hears the
same cyclic page sequence, and each client's searches decide on their own
which pages to download.  :class:`SharedScanExecutor` takes every query's
stages (:class:`~repro.client.scheduler.SearchGroup`) and runs each one
through :meth:`SearchGroup.run <repro.client.scheduler.SearchGroup.run>`,
the code ``algorithm.run`` runs per query: its searches drain as a
preorder stack walk (:func:`repro.client.drain.drain`) wherever they can,
and step on the heap otherwise (layouts without cyclic page order).  A
query's next stage is taken as soon as the previous one completes.

Nothing is batched across queries: the per-query walk is cheap enough
that cross-query batches of NN and range searches (shared numpy lanes,
multi-query kernels) did not beat it end to end on any benchmark
workload, so every group runs the per-query code.

**Bit-identity contract.**  The per-query ``step()`` loop remains the
oracle: for every query, the executor produces the same answers, access
times, tune-in counts and max queue sizes, bit for bit.  Groups of
different queries share no state, so running them one after another in
any order gives each search exactly the step sequence ``run_all`` gives
it, and ``SearchGroup.run`` replays that sequence for one group.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.client.scheduler import SearchGroup
from repro.core.environment import TNNEnvironment
# Unused here; kept because perfbench's tracer wraps this binding.
from repro.core.join import transitive_join  # noqa: F401
from repro.core.result import TNNResult
from repro.geometry import Point


class SharedScanExecutor:
    """Runs many queries' search groups through the per-query driver.

    Add :class:`~repro.client.scheduler.SearchGroup` instances (their
    ``tag``, when set, must provide ``advance() -> Optional[SearchGroup]``
    — the query's continuation once the group completes, e.g. a TNN
    query's next lifecycle stage), then call :meth:`run`.
    """

    def add(self, group: Optional[SearchGroup]) -> None:
        """Run one group to completion, then each group its tag continues with."""
        while group is not None:
            group.run()
            group = group.tag.advance() if group.tag is not None else None

    def run(self) -> None:
        """Finish the workload.

        Every group already ran in :meth:`add`, so nothing is left here;
        callers keep the ``add`` ... ``run`` shape of a batch driver.
        """


# ----------------------------------------------------------------------
# TNN workloads: every query's lifecycle through one executor
# ----------------------------------------------------------------------
class _Lifecycle:
    """The executor's handle on one query's :meth:`TNNAlgorithm._stages`.

    :meth:`advance` resumes the generator once the previous stage's group
    completed and tags the next group with this handle, or stores the
    returned :class:`TNNResult` once the generator finishes.
    """

    __slots__ = ("stages", "result")

    def __init__(self, stages) -> None:
        self.stages = stages
        self.result: Optional[TNNResult] = None

    def advance(self) -> Optional[SearchGroup]:
        try:
            group = next(self.stages)
        except StopIteration as done:
            self.result = done.value
            return None
        group.tag = self
        return group


def execute_tnn_batch(
    env: TNNEnvironment,
    algorithm,
    queries: Sequence[Tuple[Point, float, float]],
    record_log: bool = True,
) -> List[TNNResult]:
    """Run a TNN workload through one executor; results in workload order.

    Any :class:`~repro.core.base.TNNAlgorithm` runs here: the executor
    drives each query's :meth:`~repro.core.base.TNNAlgorithm._stages`
    (estimate groups, the filter's two range searches, the join), the
    same lifecycle ``algorithm.run`` drives alone, so the returned
    :class:`TNNResult` stream is bit-identical to running
    ``algorithm.run(env, q, phase_s, phase_r)`` per query.  Pass
    ``record_log=False`` to skip per-tuner reception logs (counters and
    clocks still count) — for batch campaigns that never read traces.
    """
    jobs = []
    executor = SharedScanExecutor()
    for q, phase_s, phase_r in queries:
        tuner_s, tuner_r = env.tuners(phase_s, phase_r, record_log)
        job = _Lifecycle(algorithm._stages(env, q, tuner_s, tuner_r))
        jobs.append(job)
        executor.add(job.advance())
    executor.run()
    return [job.result for job in jobs]  # type: ignore[misc]
