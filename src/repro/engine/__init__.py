"""Batched multi-query execution engine.

The substrate every bulk workload runs on:

* :class:`QueryWorkload` — a seeded batch of queries whose per-query state
  (point + channel phases) is derived up front, making every execution
  order reproducible;
* :class:`SharedScanRunner` — executes a workload in-process or fanned
  out over a supervised process pool, bit-identically, with vectorised
  aggregation and cached oracle results for failure-rate comparisons.
  Exact Double-NN / Hybrid-NN run page-major — one shared broadcast scan
  serves every query per page arrival, with geometry kernels batched
  across the workload (:mod:`repro.engine.shared_scan`); every other
  algorithm runs its own per-query ``algorithm.run``;
* :class:`QueryEngine` — one facade over NN / kNN / range / window / TNN
  queries on an environment, so callers stop hand-wiring tuners and
  searches; :meth:`QueryEngine.run_many` routes mixed client batches
  through the shared-scan executor.

``repro.sim.runner`` keeps the historical ``ExperimentRunner`` API as a
thin wrapper over this package.
"""

from repro.engine.batch import SharedScanRunner, default_workers
from repro.engine.query import (
    ClientQueryAnswer,
    ClientRequest,
    KNNRequest,
    NNRequest,
    QueryEngine,
    RangeRequest,
    WindowRequest,
)
from repro.engine.shared_scan import SharedScanExecutor, execute_tnn_batch
from repro.engine.workload import QueryWorkload

__all__ = [
    "SharedScanRunner",
    "SharedScanExecutor",
    "ClientQueryAnswer",
    "ClientRequest",
    "NNRequest",
    "KNNRequest",
    "RangeRequest",
    "WindowRequest",
    "QueryEngine",
    "QueryWorkload",
    "default_workers",
    "execute_tnn_batch",
]
