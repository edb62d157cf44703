"""Workload generation and the per-configuration experiment runner.

Both classes are now thin wrappers over :mod:`repro.engine`:
:class:`QueryWorkload` is re-exported from
:mod:`repro.engine.workload`, and :class:`ExperimentRunner` delegates to
:class:`repro.engine.batch.SharedScanRunner`, which adds process-pool fan-out,
vectorised aggregation and cached oracle results while keeping this
historical API unchanged.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.base import TNNAlgorithm
from repro.core.environment import TNNEnvironment
from repro.core.result import TNNResult
from repro.engine.batch import SharedScanRunner
from repro.engine.workload import QueryWorkload
from repro.geometry import Point
from repro.sim.stats import ResultStats

__all__ = ["ExperimentRunner", "QueryWorkload"]


class ExperimentRunner:
    """Runs a set of algorithms over one environment and workload.

    Back-compat facade over :class:`~repro.engine.batch.SharedScanRunner`; new
    code should use the engine directly.
    """

    def __init__(
        self,
        env: TNNEnvironment,
        workload: QueryWorkload,
        workers: Optional[int] = None,
    ) -> None:
        self.env = env
        self.workload = workload
        self._batch = SharedScanRunner(env, workload, workers=workers)
        self._queries: List[Tuple[Point, float, float]] = self._batch.queries

    def run_algorithm(self, algorithm: TNNAlgorithm) -> List[TNNResult]:
        """All per-query results of one algorithm over the workload."""
        return self._batch.run_algorithm(algorithm)

    def run(self, algorithms: Mapping[str, TNNAlgorithm]) -> Dict[str, ResultStats]:
        """Summary statistics per algorithm name, on the shared workload."""
        return self._batch.run(algorithms)

    def compare_failures(
        self,
        candidate: TNNAlgorithm,
        reference: TNNAlgorithm,
        rel_tol: float = 1e-9,
    ) -> float:
        """Fraction of queries where ``candidate`` misses the true answer.

        ``reference`` must be an exact algorithm (Double-NN is the cheap
        choice); a query counts as failed when the candidate returns no
        pair or a strictly larger transitive distance.
        """
        return self._batch.compare_failures(candidate, reference, rel_tol=rel_tol)
