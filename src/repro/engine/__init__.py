"""Batched multi-query execution engine.

The substrate every bulk workload runs on:

* :class:`QueryWorkload` — a seeded batch of queries whose per-query state
  (point + channel phases) is derived up front, making every execution
  order reproducible;
* :class:`SharedScanRunner` — executes a workload in-process or fanned
  out over a supervised process pool, bit-identically, with vectorised
  aggregation and cached oracle results for failure-rate comparisons.
  Every algorithm runs through
  :func:`~repro.engine.shared_scan.execute_tnn_batch`, which drives each
  query's lifecycle with the stage loop per-query ``algorithm.run`` uses;
* :class:`QueryEngine` — one facade over NN / kNN / range / window / TNN
  queries on an environment, so callers stop hand-wiring tuners and
  searches; :meth:`QueryEngine.run_many` answers mixed client batches.

``repro.sim`` re-exports :class:`QueryWorkload` for its experiment
sweeps, which run on :class:`SharedScanRunner`.
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
from repro.engine.shared_scan import execute_tnn_batch
from repro.engine.workload import QueryWorkload

__all__ = [
    "SharedScanRunner",
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
