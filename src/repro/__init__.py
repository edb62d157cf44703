"""repro — Transitive Nearest-Neighbor queries over multi-channel wireless
broadcast.

A full reproduction of Zhang, Lee, Mitra and Zheng, *Processing Transitive
Nearest-Neighbor Queries in Multi-Channel Access Environments* (EDBT 2008):
packed R-tree air indexes, the (1, m) broadcast medium, the client-side
query processors (Window-Based, Approximate, Double-NN, Hybrid-NN) and the
ANN energy optimisation, plus the experiment harness that regenerates every
figure and table of the paper's evaluation.

Bulk workloads run through :mod:`repro.engine`: a :class:`QueryEngine`
facade over NN / kNN / range / TNN queries and a :class:`SharedScanRunner`
that executes whole seeded workloads — in-process or fanned out over a
process pool with bit-identical results — on top of cached broadcast
arrival tables and vectorised aggregation.

Quickstart::

    from repro import QueryEngine, TNNEnvironment, Point
    from repro.datasets import uniform

    env = TNNEnvironment.build(uniform(2000, seed=1), uniform(2000, seed=2))
    result = QueryEngine(env).tnn(Point(19500, 19500))
    print(result.pair, result.distance, result.access_time, result.tune_in_time)
"""

from repro.geometry import Point, Rect, Circle, Ellipse
from repro.broadcast import SystemParameters
from repro.core import (
    AnnOptimization,
    ApproximateTNN,
    BruteForceTNN,
    DoubleNN,
    HybridNN,
    TNNAlgorithm,
    TNNEnvironment,
    TNNResult,
    WindowBasedTNN,
)
from repro.engine import QueryEngine, QueryWorkload, SharedScanRunner

__version__ = "1.0.0"

__all__ = [
    "Point",
    "Rect",
    "Circle",
    "Ellipse",
    "SystemParameters",
    "TNNEnvironment",
    "TNNResult",
    "TNNAlgorithm",
    "AnnOptimization",
    "QueryEngine",
    "QueryWorkload",
    "SharedScanRunner",
    "BruteForceTNN",
    "WindowBasedTNN",
    "ApproximateTNN",
    "DoubleNN",
    "HybridNN",
    "__version__",
]
