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
* :func:`run_all` — a cooperative scheduler that steps steppable searches
  on multiple channels in simulated-time order, one argmin scan per page
  arrival: the step-at-a-time reference.
* :func:`~repro.client.drain.drain` — runs one search on a layout with
  cyclic page order to completion, or up to a limit, as a single preorder
  stack walk, bit-identical to stepping it on the arrival heap; every
  search's ``run_to_completion`` and each bounded run of a coupled group's
  member call it, under the exact and the ANN pruning policies alike.
* :class:`SearchGroup` — one query stage's searches and their scheduling
  contract; :meth:`SearchGroup.run` is the one driver of every stage, for
  ``algorithm.run`` and batches alike, and replays :func:`run_all`'s
  schedule for coupled searches of any number.
"""

from repro.client.policies import (
    AnnPolicy,
    ExactPolicy,
    PruneContext,
    dynamic_alpha,
    fixed_alpha,
)
from repro.client.search import BroadcastNNSearch, SearchMode
from repro.client.range_query import BroadcastRangeSearch
from repro.client.knn import BroadcastKNNSearch
from repro.client.window import BroadcastWindowSearch
from repro.client.scheduler import (
    SearchGroup,
    run_all,
)

__all__ = [
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
]
