"""Batch TNN execution: one driver for a whole query workload.

A broadcast channel is physically a *shared scan*: every client hears the
same cyclic page sequence, and each client's searches decide on their own
which pages to download.  :func:`execute_tnn_batch` answers a workload
query by query through :meth:`TNNAlgorithm.run_stages
<repro.core.base.TNNAlgorithm.run_stages>`, the stage loop ``algorithm.run``
runs: each stage's searches drain as a preorder stack walk
(:func:`repro.client.drain.drain`) wherever they can, and step on the heap
otherwise (layouts without cyclic page order).

Nothing is batched across queries: the per-query walk is cheap enough
that cross-query batches of NN and range searches (shared numpy lanes,
multi-query kernels) did not beat it end to end on any benchmark
workload, so every query runs the per-query code.

**Bit-identity contract.**  The per-query ``step()`` loop remains the
oracle: for every query, the batch produces the same answers, access
times, tune-in counts and max queue sizes, bit for bit.  Queries share no
state, so running them one after another gives each search exactly the
step sequence ``run_all`` gives it, and ``SearchGroup.run`` replays that
sequence for one stage.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.core.environment import TNNEnvironment
# Unused here; kept because perfbench's tracer wraps this binding.
from repro.core.join import transitive_join  # noqa: F401
from repro.core.result import TNNResult
from repro.geometry import Point


class SharedScanExecutor:
    """Placeholder for the deleted batch executor.

    Its only reader is ``perfbench/spans.py``, which wraps
    ``vars(SharedScanExecutor)["run"]``; nothing in the package calls it.
    """

    def run(self) -> None:
        """Do nothing."""


def execute_tnn_batch(
    env: TNNEnvironment,
    algorithm,
    queries: Sequence[Tuple[Point, float, float]],
    record_log: bool = True,
) -> List[TNNResult]:
    """Run a TNN workload query by query; results in workload order.

    Any :class:`~repro.core.base.TNNAlgorithm` runs here, each query on
    its own tuners through
    :meth:`~repro.core.base.TNNAlgorithm.run_stages`, so the returned
    :class:`TNNResult` stream is bit-identical to running
    ``algorithm.run(env, q, phase_s, phase_r)`` per query.  Pass
    ``record_log=False`` to skip per-tuner reception logs (counters and
    clocks still count) — for batch campaigns that never read traces.
    """
    return [
        algorithm.run_stages(env, q, *env.tuners(phase_s, phase_r, record_log))
        for q, phase_s, phase_r in queries
    ]
