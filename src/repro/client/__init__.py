"""Client-side broadcast query processing engine.

Implements the building blocks shared by every TNN algorithm:

* :class:`BroadcastNNSearch` — a *steppable* nearest-neighbor search over an
  air-indexed R-tree.  The candidate queue is ordered by **arrival time**
  (not MINDIST), because backtracking on a broadcast medium means waiting a
  whole index replica (Section 2.2 / Figure 3).  Children are pushed without
  pruning and filtered at pop time — the paper's *delayed pruning*
  adjustment (Section 4.2.4) that makes Hybrid-NN's mid-flight re-steering
  sound.  The search supports the two Hybrid-NN mutations: ``retarget``
  (Case 2: replace the query point) and ``switch_to_transitive`` (Case 3:
  hunt for the minimum transitive distance with MinTransDist /
  MinMaxTransDist).
* :class:`BroadcastRangeSearch` — the filter-phase circle query.
* pruning policies — exact search and the ANN approximation of Section 5
  (Heuristics 1 and 2, static and dynamic alpha).
* :func:`run_all` — a cooperative scheduler that interleaves steppable
  searches on multiple channels in simulated-time order via a
  lazy-invalidation event heap (O(log channels) per page arrival);
  :func:`run_all_scan` is the brute-force reference.
* :func:`~repro.client.drain.drain` — runs one frontier-backed search to
  completion, or up to a limit, as a single preorder stack walk,
  bit-identical to stepping it; every search's ``run_to_completion`` and
  each bounded run of a Hybrid-NN pair member call it.
* :class:`SearchGroup` — one query stage's searches and their scheduling
  contract; :meth:`SearchGroup.run` is the one driver of every stage that
  ``algorithm.run`` runs and the shared-scan executor does not batch.
* :class:`ArrivalFrontier` — the struct-of-arrays candidate queue behind
  every steppable search on the kernel path: arrivals refreshed per
  arrival tick and lower bounds evaluated in queue-wide kernel batches,
  so even 64-byte-page / M = 3 geometries clear the dispatch floor.
"""

from repro.client.policies import (
    AnnPolicy,
    ExactPolicy,
    PruneContext,
    dynamic_alpha,
    fixed_alpha,
)
from repro.client.frontier import ArrivalFrontier
from repro.client.search import BroadcastNNSearch, SearchMode
from repro.client.range_query import BroadcastRangeSearch
from repro.client.knn import BroadcastKNNSearch
from repro.client.window import BroadcastWindowSearch
from repro.client.scheduler import (
    SearchGroup,
    run_all,
    run_all_scan,
)

__all__ = [
    "ArrivalFrontier",
    "BroadcastNNSearch",
    "BroadcastKNNSearch",
    "BroadcastRangeSearch",
    "BroadcastWindowSearch",
    "SearchMode",
    "ExactPolicy",
    "AnnPolicy",
    "PruneContext",
    "fixed_alpha",
    "dynamic_alpha",
    "SearchGroup",
    "run_all",
    "run_all_scan",
]
