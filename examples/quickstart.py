"""Quickstart: answer one TNN query over a two-channel broadcast.

Builds two uniform datasets, lays them out as (1, m)-interleaved broadcast
programs, and answers a transitive nearest-neighbor query with each of the
paper's algorithms, printing the answer and the two cost metrics.  A
second section serves a mixed NN / kNN / range / window batch
(``QueryEngine.run_many``): every client request gets its own tuner and
runs to completion as a single query does.

Architecture note — one TNN lifecycle, run two ways.  Every algorithm
describes its stages once (``TNNAlgorithm._stages``): its estimate
searches (none for Approximate-TNN and Brute-Force-TNN, two parallel NN
searches for Double-NN, re-steered ones for Hybrid-NN, two sequential
ones for Window-Based), then the filter's two range searches, then the
transitive join and the optional data retrieval.  ``algorithm.run``, as
in this example's first section, drives one query's stages alone (each
member of an independent stage drained on its own, Hybrid-NN's
re-steered pair in alternating runs, each member drained up to its
sibling's next arrival); ``SharedScanRunner`` drives every query's
stages through that same stage loop (``TNNAlgorithm.run_stages``) and
group driver (``SearchGroup.run``), for every algorithm, ANN
optimisation and data retrieval alike, with bit-identical results.
Both are checked against the reference, every stage stepped by
``run_all``.

Architecture note — one queue and one tuner per search.  A search on a
layout with cyclic page order queues its R-tree candidates on its own
stack of flat node records, seeded with the root's, which the drain
below walks; a stopped walk keeps its stack, and the search's next
event time, queue footprint and Hybrid-NN rescans read it.  Every
``step()`` runs on the boxed-tuple arrival heap, the seed implementation
and the bit-identity reference: a search's first step moves its stack
onto the heap for good, and layouts without cyclic page order
(distributed indexing, broadcast-disk schedules) start there.  Every
search accounts its radio on its own ``ChannelTuner`` — clock,
page counters and a reception log, four scalars and a list — in a
single query and in a batch alike.  Nothing is batched across queries:
the per-query walk below is cheap enough that cross-query batches in
shared numpy lanes did not win end to end, so a batch runs every search
with the per-query code.

Architecture note — channel fault models and supervised pools.  The
unreliable medium lives behind the ``FaultModel`` seam
(``repro.broadcast.loss``): pass ``loss=`` to ``TNNEnvironment.build``
— i.i.d. ``PageLossModel``, bursty ``GilbertElliottLossModel``,
checksum-failing ``PageCorruptionModel``, or anything registered via
``register_fault_model`` (``available_fault_models()`` lists what is
installed; this script prints it, and
``benchmarks/profile_hot_path.py --help`` offers the same registry as
``--loss`` choices) — and every tuner retries failed receptions at
the page's next replica, counting erasures (``lost_pages``) apart from
corruption (``corrupt_pages``).  Every fault draw is one splitmix64
counter hash of (seed, slot), so Gilbert–Elliott fade states are
computed a chunk of whole windows at a time in one numpy pass, the
first time a slot in the chunk is asked about, and kept one byte per
slot in a bounded memo.
Faulty searches drain like lossless ones: the retry chain of a missed
page replays closed form (replicas
sit exactly one cycle apart), bit-identically to the per-query retry
loop.  One drain (``repro.client.drain``) empties a search in a
single pass: every ``run_to_completion`` of an NN search that never
stepped (under the exact policy or the ANN optimisation's, in the point
metric or, after Hybrid-NN's Case 3, the transitive one), and of every
kNN, range or window search, as in this example's first section, and
so every stage a batch runs through ``SearchGroup.run``.  Given a limit, the same walk stops before the
first page due after it and leaves the rest on its stack: each run of a
Hybrid-NN pair member ends at its sibling's next arrival.  Index pages are
numbered in DFS preorder, so a downloaded node's children fill the
pages right after it and cyclic page order is a stack order: the drain
walks one stack, smallest page on top, of flat node records — one plain
tuple per index page, built per tree on the first walk and cached on
it, each holding its children's records already reversed for the push
(the channel snaps its phase to 2^-20 slot, so after a download at
slot x the clock's cursor is exactly x + 1).
Each node is absorbed
before the next pop — an NN node with the strict offer loop or the
MINMAXDIST guarantee hand-off (in transitive mode the pop test runs a
certified MinTransDist cascade — a weak bound proves a prune, the
transitive distance through Lemma 1's own optimum point or a corner of
the MBR proves a keep, and Lemma 1 itself decides only the
rounding-margin band — and the guarantee is the corner MinMaxTransDist,
scanned from the current bound; an ANN policy then judges each kept
node), a kNN leaf with the exact scalar offer
loop, which admits on the k-th best, and a kNN internal node by
lowering the search's MAXDIST guarantee to the smallest MAXDIST among
its children holding k points (every point of a subtree lies in its
MBR); the smaller of the two prunes the very next pop, strictly, so
the answers are those of a k-th-best-only search from a subset of its
pages.  A range or window leaf runs an inline closed containment test.
The step-at-a-time ``step()`` loop stays the reference it is tested
against.

Architecture note — pluggable air-index backends.  Schedule generation
lives behind the ``BroadcastLayout`` seam (``repro.broadcast.layout``):
a layout object decides which air index is packed over the dataset
(R-tree, fixed grid, quadtree), which broadcast schedule its pages fly
in (uniform (1, m) interleave, distributed indexing, skew-aware
broadcast disks), and declares ``has_cyclic_order`` so the client stack
picks the right queue backend automatically.  Pass ``layout=`` to
``TNNEnvironment.build`` — e.g. ``make_layout("quadtree")`` or
``BroadcastDiskSchedule(hot_region=...)`` — and everything downstream
(queries, shared scan, sweeps) works unchanged; the final section below
answers the same batch on a grid air index.  New backends subclass
``BroadcastLayout`` and ``register_layout`` a factory; see
``benchmarks/bench_air_index_matrix.py`` for the backend x population
comparison matrix.

Architecture note — the supervised pool.  ``REPRO_WORKERS=N`` (or
``SharedScanRunner(..., workers=N)``) fans a workload over N worker
processes, cut into contiguous shards ordered by s-channel phase so each
worker's queries start near each other in the broadcast cycle.  A crashed
worker or a hung wave (``REPRO_SHARD_TIMEOUT``) makes the supervisor
rebuild the pool and reshard the failed slice, retrying with backoff
(``REPRO_SHARD_RETRIES`` / ``REPRO_SHARD_BACKOFF``) and rescuing what is
left serially in-process; shards are pure functions of their query
slice, so every path merges bit-identical results.

Run:  python examples/quickstart.py
"""

from repro import (
    ApproximateTNN,
    BruteForceTNN,
    DoubleNN,
    HybridNN,
    Point,
    SystemParameters,
    TNNEnvironment,
    WindowBasedTNN,
)
from repro.broadcast import available_fault_models, make_layout
from repro.datasets import uniform
from repro.engine import (
    KNNRequest,
    NNRequest,
    QueryEngine,
    RangeRequest,
    WindowRequest,
)
from repro.geometry import Rect


def main() -> None:
    # Channel 1 broadcasts S (say, post offices), channel 2 broadcasts R
    # (say, restaurants), both indexed by STR-packed R-trees.
    s_points = uniform(3_000, seed=1)
    r_points = uniform(3_000, seed=2)
    env = TNNEnvironment.build(
        s_points, r_points, SystemParameters(page_capacity=64)
    )
    print(
        f"Channel 1: |S| = {len(s_points)} points, "
        f"{env.s_program.index_length} index pages, "
        f"(1, {env.s_program.m}) interleaving, "
        f"cycle = {env.s_program.cycle_length} pages"
    )
    print(
        f"Channel 2: |R| = {len(r_points)} points, "
        f"{env.r_program.index_length} index pages, "
        f"(1, {env.r_program.m}) interleaving, "
        f"cycle = {env.r_program.cycle_length} pages"
    )

    # Mr. Smith stands at p and wants the post office + restaurant pair
    # minimising his total walk: dis(p, s) + dis(s, r).
    p = Point(19_500.0, 19_500.0)
    print(f"\nTNN query at p = ({p.x:.0f}, {p.y:.0f})\n")

    algorithms = [
        BruteForceTNN(),
        WindowBasedTNN(),
        ApproximateTNN(),
        DoubleNN(),
        HybridNN(),
    ]
    header = f"{'algorithm':<16} {'distance':>10} {'access':>8} {'tune-in':>8}"
    print(header)
    print("-" * len(header))
    for algo in algorithms:
        result = algo.run(env, p, phase_s=11.0, phase_r=37.0)
        print(
            f"{algo.name:<16} {result.distance:>10.1f} "
            f"{result.access_time:>8.0f} {result.tune_in_time:>8d}"
        )

    best = DoubleNN().run(env, p)
    s, r = best.pair
    print(
        f"\nAnswer: visit s = ({s.x:.0f}, {s.y:.0f}) "
        f"then r = ({r.x:.0f}, {r.y:.0f}); "
        f"total distance {best.distance:.1f}"
    )

    # A mixed bag of client queries, served in one call: each request
    # listens on its own tuner, from its own phase of the broadcast.
    engine = QueryEngine(env)
    requests = [
        NNRequest(p),
        KNNRequest(p, k=3, phase=120.0),
        RangeRequest(p, radius=900.0, phase=60.0, channel="r"),
        WindowRequest(Rect(19_000.0, 19_000.0, 20_000.0, 20_000.0)),
    ]
    answers = engine.run_many(requests)
    print("\nMixed client batch via QueryEngine.run_many:")
    for req, ans in zip(requests, answers):
        kind = type(req).__name__.replace("Request", "")
        print(
            f"  {kind:<7} {len(ans.answers):>3} answer(s), "
            f"access {ans.access_time:>7.0f}, tune-in {ans.tune_in:>3d}"
        )

    # Same batch, different physical layout: a fixed-grid air index via
    # the BroadcastLayout seam.  Query semantics (and the answers' point
    # sets) are layout-independent; only the cost metrics move.
    grid_env = TNNEnvironment.build(
        s_points,
        r_points,
        SystemParameters(page_capacity=64),
        layout=make_layout("grid"),
    )
    grid_answers = QueryEngine(grid_env).run_many(requests)
    print("\nSame batch on a grid air index (layout seam):")
    for req, ans in zip(requests, grid_answers):
        kind = type(req).__name__.replace("Request", "")
        print(
            f"  {kind:<7} {len(ans.answers):>3} answer(s), "
            f"access {ans.access_time:>7.0f}, tune-in {ans.tune_in:>3d}"
        )

    # The unreliable-channel seam is discoverable: any of these names can
    # be passed to make_fault_model(...) / TNNEnvironment.build(loss=...)
    # (profile_hot_path.py --loss offers the same registry).
    print(
        "\nRegistered channel fault models: "
        + ", ".join(available_fault_models())
    )


if __name__ == "__main__":
    main()
