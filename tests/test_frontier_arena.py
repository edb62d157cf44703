"""Property sweep: the columnar frontier arena vs the retained oracles.

The arena must be an invisible backend swap: an :class:`ArrivalFrontier`
attached to a :class:`FrontierArena` has to reproduce the standalone list
frontier — and therefore the boxed-tuple heap oracle behind it — operation
for operation: pop order, served bounds and weak flags, arrival values,
``max_size`` footprints, rescan views and epoch-stamp invalidation.  The
sweep drives a randomized interleaving of every queue operation against a
twin standalone frontier at both paper page geometries, plus end-to-end
randomized workloads through the executor (including mid-run Hybrid-NN
re-steering) and the distributed-layout fallback, where the arena must
stay out of the way entirely.
"""

import math
import random

import pytest

from repro.broadcast import (
    BroadcastChannel,
    BroadcastProgram,
    ChannelTuner,
    SystemParameters,
)
from repro.client import ArrivalFrontier
from repro.client.frontier import FrontierArena
from repro.core.environment import TNNEnvironment
from repro.core.double import DoubleNN
from repro.core.hybrid import HybridNN
from repro.datasets import sized_uniform
from repro.engine import SharedScanRunner
from repro.engine.shared_scan import execute_tnn_batch
from repro.geometry import Point, kernels


def make_tuner(n=300, seed=0, phase=0.0, capacity=64, m=2):
    rng = random.Random(seed)
    pts = [Point(rng.random() * 1000, rng.random() * 1000) for _ in range(n)]
    params = SystemParameters(page_capacity=capacity)
    from repro.rtree import str_pack

    tree = str_pack(pts, params.leaf_capacity, params.internal_fanout)
    program = BroadcastProgram(tree, params, m=m)
    return tree, lambda ph: ChannelTuner(BroadcastChannel(program, phase=ph))


class _Host:
    """Minimal search stand-in for arena registration."""

    def __init__(self, frontier, tuner):
        self._frontier = frontier
        self.tuner = tuner
        self.upper_bound = math.inf
        self._metric_epoch = 0
        self._witness_page = None
        self.query = None
        self.start = None
        self.end = None


@pytest.mark.parametrize("capacity", [64, 512])
@pytest.mark.parametrize("seed", range(6))
def test_attached_frontier_matches_standalone(capacity, seed):
    """Random op interleavings: attached and standalone twins stay equal."""
    rng = random.Random(1000 * capacity + seed)
    phase = rng.uniform(0, 50)
    tree, mk = make_tuner(seed=seed, phase=phase, capacity=capacity)
    tuner_a = mk(phase)
    tuner_b = mk(phase)
    fa = ArrivalFrontier(tuner_a)  # will be attached to the arena
    fb = ArrivalFrontier(tuner_b)  # standalone oracle twin
    arena = FrontierArena()
    arena.register(_Host(fa, tuner_a))

    nodes = [n for n in tree.root.iter_preorder() if not n.is_leaf]
    rng.shuffle(nodes)
    queued = 0
    epoch = 0
    for step in range(300):
        op = rng.random()
        if (op < 0.35 and nodes) or queued == 0:
            if not nodes:
                break
            node = nodes.pop()
            if rng.random() < 0.5 or not node.children:
                lb = rng.uniform(0, 10) if rng.random() < 0.8 else None
                weak = rng.random() < 0.5
                fa.push(node, lb, epoch, weak)
                fb.push(node, lb, epoch, weak)
                queued += 1
            else:
                lbs = [rng.uniform(0, 10) for _ in node.children]
                weak = rng.random() < 0.5
                fa.push_many(node.children, lbs, epoch, weak, src=node)
                fb.push_many(node.children, lbs, epoch, weak, src=node)
                queued += len(node.children)
        elif op < 0.45:
            epoch += 1  # stamp invalidation: records go stale
        elif op < 0.55:
            t = tuner_a.now + rng.uniform(0, 30)
            tuner_a.advance_to(t)
            tuner_b.advance_to(t)
        elif op < 0.7:
            assert fa.peek_arrival() == fb.peek_arrival()
        elif op < 0.85:
            arrival = fa.peek_arrival()
            assert arrival == fb.peek_arrival()
            got = fa.pop(epoch)
            want = fb.pop(epoch)
            assert got[0] is want[0]
            assert got[1:] == want[1:]
            queued -= 1
            t = arrival + 1.0
            tuner_a.advance_to(t)
            tuner_b.advance_to(t)
        else:
            ub = rng.uniform(0, 12)
            limit = (
                math.inf
                if rng.random() < 0.5
                else tuner_a.now + rng.uniform(0, 40)
            )
            strict = rng.random() < 0.5
            got = fa.pop_until(ub, epoch, limit, strict)
            want = fb.pop_until(ub, epoch, limit, strict)
            if want is None:
                assert got is None
            else:
                assert got[0] is want[0]
                assert got[1:] == want[1:]
            queued = len(fb)
        assert len(fa) == len(fb)
        assert fa.finished() == fb.finished()
        assert fa.footprint() == fb.footprint()
        # Whole-queue views agree (rescan order is page order).
        an = fa.active_nodes()
        bn = fb.active_nodes()
        assert [n.page_id for n in an] == [n.page_id for n in bn]
        if an and rng.random() < 0.2:
            import numpy as np

            assert (fa.active_mbrs() == fb.active_mbrs()).all()
            rows = sorted(rng.sample(range(len(an)), k=min(3, len(an))))
            vals = np.array([rng.uniform(0, 5) for _ in rows])
            fa.store_lower(rows, vals, epoch)
            fb.store_lower(rows, vals, epoch)


def test_footprint_accumulates_multiple_runs_per_flush():
    """Two staged fan-outs before one flush count toward one peak."""
    tree, mk = make_tuner()
    tuner_a, tuner_b = mk(0.0), mk(0.0)
    fa, fb = ArrivalFrontier(tuner_a), ArrivalFrontier(tuner_b)
    arena = FrontierArena()
    arena.register(_Host(fa, tuner_a))
    internals = [n for n in tree.root.iter_preorder() if not n.is_leaf][:3]
    for node in internals:  # several runs staged into the SAME flush
        fa.push_many(node.children, [0.0] * len(node.children), 0, src=node)
        fb.push_many(node.children, [0.0] * len(node.children), 0, src=node)
    arena.flush()
    assert fa.footprint() == fb.footprint()


def test_attached_max_size_counts_like_standalone():
    """Pushes after consumption reproduce the footprint peak exactly."""
    tree, mk = make_tuner()
    tuner_a, tuner_b = mk(0.0), mk(0.0)
    fa, fb = ArrivalFrontier(tuner_a), ArrivalFrontier(tuner_b)
    arena = FrontierArena()
    arena.register(_Host(fa, tuner_a))
    internals = [n for n in tree.root.iter_preorder() if not n.is_leaf][:6]
    for node in internals:
        fa.push_many(node.children, [0.0] * len(node.children), 0, src=node)
        fb.push_many(node.children, [0.0] * len(node.children), 0, src=node)
        arena.flush()  # footprint accounting happens at the flush
        assert fa.footprint() == fb.footprint()
        fa.pop(0)
        fb.pop(0)


def test_eval_pending_attached_batches_stale_entries():
    """A pop-time miss on the arena evaluates every stale entry at once."""
    tree, mk = make_tuner()
    tuner = mk(0.0)
    f = ArrivalFrontier(tuner)
    arena = FrontierArena()
    arena.register(_Host(f, tuner))
    root = tree.root
    calls = []

    def evaluator(mbrs):
        calls.append(mbrs.shape[0])
        return kernels.mindist(Point(0.0, 0.0), mbrs)

    f.lower_evaluator = evaluator
    f.push_many(root.children, [0.0] * len(root.children), epoch=0, src=root)
    n = len(root.children)
    node, lb, weak = f.pop(epoch=1)  # stale records
    assert lb is not None and not weak
    assert calls == [n]
    for _ in range(n - 1):
        _, lb, weak = f.pop(1)
        assert lb is not None and not weak
    assert calls == [n]  # the batch stamped everything


@pytest.mark.parametrize("capacity", [64, 512])
@pytest.mark.parametrize("algo_cls", [HybridNN, DoubleNN])
def test_randomized_workload_bit_identity(capacity, algo_cls):
    """Random workloads: arena executor == per-query, both geometries.

    Hybrid-NN covers mid-run re-steering (retarget / transitive switch on
    the attached frontiers); Double-NN covers the always-due solo rows.
    """
    params = SystemParameters(page_capacity=capacity)
    env = TNNEnvironment.build(
        sized_uniform(900, seed=5),
        sized_uniform(900, seed=6),
        params=params,
    )
    rng = random.Random(31 + capacity)
    queries = [
        (env.random_query_point(rng), *env.random_phases(rng))
        for _ in range(40)
    ]
    algo = algo_cls()
    with kernels.use_kernels(True):
        shared = execute_tnn_batch(env, algo, queries)
        per_query = [algo.run(env, q, ps, pr) for q, ps, pr in queries]
    assert shared == per_query


def test_distributed_layout_keeps_arena_empty():
    """Heap-backed searches (no cyclic order) never register in the arena."""
    env = TNNEnvironment.build(
        sized_uniform(600, seed=7),
        sized_uniform(600, seed=8),
        params=SystemParameters(page_capacity=64),
        distributed_levels=2,
    )
    rng = random.Random(9)
    queries = [
        (env.random_query_point(rng), *env.random_phases(rng))
        for _ in range(10)
    ]
    runner = SharedScanRunner(env, _FixedWorkload(queries), workers=0)
    algo = HybridNN()
    got = runner.run_algorithm(algo)
    want = [algo.run(env, q, ps, pr) for q, ps, pr in queries]
    assert got == want


class _FixedWorkload:
    """Adapter: a pre-drawn query list as a runner workload."""

    def __init__(self, queries):
        self._q = list(queries)

    def queries(self, env):
        return list(self._q)

    def __len__(self):
        return len(self._q)


# ----------------------------------------------------------------------
# Binned phase A over the node store vs the per-query oracle
# ----------------------------------------------------------------------
def _ab_queries(env, n, seed):
    rng = random.Random(seed)
    return [
        (env.random_query_point(rng), *env.random_phases(rng))
        for _ in range(n)
    ]


def _per_query_oracle(env, algo, queries):
    """The scalar per-query path: heap queues, no kernels, no arena."""
    with kernels.use_kernels(False):
        return [algo.run(env, q, ps, pr) for q, ps, pr in queries]


@pytest.mark.parametrize("capacity", [64, 512])
@pytest.mark.parametrize("algo_cls", [HybridNN, DoubleNN])
@pytest.mark.parametrize("seed", [0, 1])
def test_store_phase_a_matches_scalar_row_loop(capacity, algo_cls, seed):
    """Random workloads: binned phase A == the per-query scalar loop.

    The store path's whole-round array passes (automatic keeps, staged
    keep certificates, argsort-binned absorb lanes, leaf-finish probes)
    must reproduce the scalar per-query run result for result — answers,
    access times and tune-in counters all derive from the same per-row
    decisions, so any divergence surfaces here.
    """
    env = TNNEnvironment.build(
        sized_uniform(2000, seed=seed),
        sized_uniform(2000, seed=seed + 50),
        params=SystemParameters(page_capacity=capacity),
    )
    queries = _ab_queries(env, 40, seed + 100)
    algo = algo_cls()
    with kernels.use_kernels(True):
        store = execute_tnn_batch(env, algo, queries)
    assert store == _per_query_oracle(env, algo, queries)


def test_store_phase_a_coverage_spans_margin_paths(monkeypatch):
    """The A/B sweep's workload really exercises the residual branches.

    Guard against silently-green sweeps: this fixed-seed workload must
    drive rows through the unstamped residual scan, the weak transitive
    margin band with failing staged certificates, and the scalar
    serve continuations — while still matching the per-query oracle.
    """
    import numpy as np

    from repro.engine.shared_scan import SharedScanExecutor

    counts = {"resid": 0, "cert_fail": 0, "fallback": 0}
    orig_resolve = SharedScanExecutor._resolve_survivors
    orig_resume = SharedScanExecutor._resume_nn

    def spy_resolve(self, res, due, limits, stricts, second, ctx):
        act = res["act"]
        counts["resid"] += int((act & ~res["stamped"]).sum())
        weak = act & res["stamped"] & res["weak"]
        wj = np.flatnonzero(weak)
        if wj.size:
            counts["cert_fail"] += int(
                (res["ub"][wj] > self._arena._ub[due[wj]]).sum()
            )
        return orig_resolve(self, res, due, limits, stricts, second, ctx)

    def spy_resume(self, *args, **kwargs):
        counts["fallback"] += 1
        return orig_resume(self, *args, **kwargs)

    env = TNNEnvironment.build(
        sized_uniform(3000, seed=0),
        sized_uniform(3000, seed=50),
        params=SystemParameters(page_capacity=64),
    )
    queries = _ab_queries(env, 60, 0)
    algo = HybridNN()
    monkeypatch.setattr(SharedScanExecutor, "_resolve_survivors", spy_resolve)
    monkeypatch.setattr(SharedScanExecutor, "_resume_nn", spy_resume)
    with kernels.use_kernels(True):
        store = execute_tnn_batch(env, algo, queries)
    monkeypatch.undo()
    assert counts["resid"] > 0, "no unstamped residual rows exercised"
    assert counts["cert_fail"] > 0, "no failing staged certificates"
    assert counts["fallback"] > 0, "no scalar serve continuations"
    assert store == _per_query_oracle(env, algo, queries)


def test_weak_point_margin_tests_agree():
    """The two weak-point survivor tests are the same predicate.

    The per-query keep test proves a certified-weak point survivor with
    one scalar MINDIST, ``hypot(max(...), max(...)) > ub``; phase A
    batches the same rows through ``kernels.mindist_multi(...) <= ub``.
    Elementwise the verdicts must be complementary, including rows where
    the exact MINDIST ties the bound (constructed below).
    """
    import math as _math

    import numpy as np

    rng = random.Random(97)
    k = 400
    qx = np.array([rng.uniform(-100, 100) for _ in range(k)])
    qy = np.array([rng.uniform(-100, 100) for _ in range(k)])
    x0 = np.array([rng.uniform(-100, 100) for _ in range(k)])
    y0 = np.array([rng.uniform(-100, 100) for _ in range(k)])
    mbrs = np.column_stack((
        x0, y0,
        x0 + [rng.uniform(0, 40) for _ in range(k)],
        y0 + [rng.uniform(0, 40) for _ in range(k)],
    ))
    # Degenerate slivers: zero width / zero height / single point.
    mbrs[0, 2] = mbrs[0, 0]
    mbrs[1, 3] = mbrs[1, 1]
    mbrs[2, 2:] = mbrs[2, :2]
    d = kernels.mindist_multi(np.column_stack((qx, qy)), mbrs)
    ubs = np.array([rng.uniform(0, 60) for _ in range(k)])
    ubs[3] = d[3]  # exact tie: `<= ub` keeps, `> ub` must not prune
    ubs[4] = _math.nextafter(d[4], 0.0)  # just below: both must prune
    vec_keep = d <= ubs
    for j in range(k):
        scalar_prune = _math.hypot(
            max(mbrs[j, 0] - qx[j], 0.0, qx[j] - mbrs[j, 2]),
            max(mbrs[j, 1] - qy[j], 0.0, qy[j] - mbrs[j, 3]),
        ) > ubs[j]
        assert scalar_prune == (not vec_keep[j])


def test_node_store_columns_and_invalidation():
    """NodeStore columns mirror the trees; relayout drops the page cache.

    Structural columns (lane keys, leaf bits, child and point offsets,
    subtree counts, MBR and point rows) are layout-independent and hold
    exactly the per-node array views' values; the BFS page column binds
    the broadcast numbering, so :meth:`RTree.assign_page_ids` must
    invalidate its per-tree cache — the documented node-store
    invalidation contract.
    """
    import numpy as np

    from repro.client.frontier import (
        NodeStore,
        _tree_store_pages,
        _tree_store_struct,
    )

    tree, _ = make_tuner(n=400, seed=13)
    other, _ = make_tuner(n=300, seed=14)
    struct = _tree_store_struct(tree)
    pages = _tree_store_pages(tree)
    store = NodeStore()
    for t in (tree, other, tree):
        store.cover(t)  # a second cover of a tree is a no-op
    order = struct[0]
    assert len(order) == tree.node_count()
    assert len(store.nodes) == len(order) + other.node_count()
    assert store.all_backed
    for nd in store.nodes:
        i = nd._store_nid
        assert store.nodes[i] is nd
        assert store.count[i] == nd.point_count
        assert tuple(store.mbr[i]) == tuple(nd.mbr)
        assert store.leaf_bit[i] == nd.is_leaf
        assert store.page[i] == nd.page_id
        n = nd.fanout
        if nd.is_leaf:
            assert store.child0[i] == -1
            assert store.lane_key[i] == (n << 2) | 2
            rows = store.points[store.pt0[i] + np.arange(n)]
            assert np.array_equal(rows, nd.points_array())
        else:
            assert store.pt0[i] == -1
            assert store.lane_key[i] == n << 2
            kids = store.child0[i] + np.arange(n)
            assert all(
                store.nodes[k] is c for k, c in zip(kids, nd.children)
            )
            assert np.array_equal(store.mbr[kids], nd.child_mbr_array())
            assert np.array_equal(store.count[kids], nd.child_count_array())
            assert np.array_equal(store.page[kids], nd.child_page_array())
    # Renumbering the broadcast layout resets the page cache (and only
    # it): the next cover must observe the fresh numbering.
    tree.assign_page_ids()
    assert getattr(tree, "_store_pages", "missing") is None
    assert tree._store_struct is struct
    fresh = _tree_store_pages(tree)
    assert np.array_equal(
        fresh,
        np.array([nd.page_id for nd in order]),
    )
    assert pages is not fresh
