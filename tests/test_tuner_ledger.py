"""Tuner-ledger unit coverage and lossy tuners crossing the executor seam.

Two contracts under test:

* :class:`~repro.broadcast.tuner.TunerLedger` — attachment is
  backend-transparent: an attached tuner's public attributes, accounting
  methods and materialised ``log`` are bit-identical to the standalone
  scalar oracle, through attachment mid-life, vectorised round flushes
  and lane growth; the executor always attaches arena-served tuners.
* The shared-scan executor's lossy seam — a :class:`FaultModel` makes
  receptions fallible; lossy NN searches stay on the arena/ledger fast
  path (the round flush replays the retry-to-next-replica loop closed
  form), lossy drains book their attempts through ``record_index_run``,
  and both must stay bit-identical to the per-query oracle — results,
  ``lost_pages`` / ``corrupt_pages``, log events — across every fault
  model, loss seed, layout and tuner backend, also when sharing one
  executor run with lossless searches.
"""

import random
import zlib

import pytest

from repro.broadcast import (
    BroadcastChannel,
    BroadcastProgram,
    ChannelTuner,
    GilbertElliottLossModel,
    PageCorruptionModel,
    PageLossModel,
    SystemParameters,
    available_layouts,
    make_layout,
)
from repro.broadcast.tuner import (
    _KIND_DATA,
    _KIND_INDEX,
    _LedgerTuner,
    TunerLedger,
)
from repro.client import (
    BroadcastKNNSearch,
    BroadcastNNSearch,
    SearchGroup,
    arrival_queue,
    run_all,
)
from repro.core import DoubleNN, HybridNN, TNNEnvironment
from repro.datasets import sized_uniform
from repro.engine import execute_tnn_batch
from repro.engine.shared_scan import SharedScanExecutor
from repro.geometry import Point, kernels
from repro.rtree import str_pack

import numpy as np


# ----------------------------------------------------------------------
# Fixtures and helpers
# ----------------------------------------------------------------------
def _make_channel(n=120, seed=0, phase=0.0):
    rng = random.Random(seed)
    pts = [Point(rng.random() * 1000, rng.random() * 1000) for _ in range(n)]
    params = SystemParameters(page_capacity=64)
    tree = str_pack(pts, params.leaf_capacity, params.internal_fanout)
    program = BroadcastProgram(tree, params, m=2)
    return BroadcastChannel(program, phase=phase)


def _build_env(loss=None, distributed_levels=None, n=400):
    return TNNEnvironment.build(
        sized_uniform(n, seed=1),
        sized_uniform(n, seed=2),
        params=SystemParameters(page_capacity=64),
        distributed_levels=distributed_levels,
        loss=loss,
    )


LOSS = PageLossModel(rate=0.25, seed=11)


@pytest.fixture(scope="module")
def env_lossy():
    return _build_env(loss=LOSS)


@pytest.fixture(scope="module")
def env_lossless():
    return _build_env()


def _random_queries(env, n, seed=0):
    rng = random.Random(seed)
    return [
        (env.random_query_point(rng), *env.random_phases(rng))
        for _ in range(n)
    ]


def _stepped_per_query(env, algo, queries):
    """Each query's lifecycle with every stage driven by ``run_all``'s
    explicit ``step()`` calls — the reference of both ``algo.run`` and
    the executor's ``SearchGroup.run`` groups."""
    out = []
    for q, ps, pr in queries:
        stages = algo._stages(env, q, *env.tuners(ps, pr))
        try:
            while True:
                group = next(stages)
                run_all(group.searches, on_finish=group.on_finish)
        except StopIteration as done:
            out.append(done.value)
    return out


def _tuner_state(t):
    return (
        t.now,
        t.index_pages,
        t.data_pages,
        t.lost_pages,
        t.corrupt_pages,
        t.log,
    )


# ----------------------------------------------------------------------
# Ledger units: attachment
# ----------------------------------------------------------------------
def test_attach_moves_state_and_routes_attributes():
    t = ChannelTuner(_make_channel())
    t.record_index(3, 5.0)  # pre-attach scalar history
    ledger = TunerLedger()
    row = ledger.attach(t)
    assert type(t) is _LedgerTuner and row == 0
    # Reads route to the lanes, carrying the pre-attach state.
    assert t.now == 6.0 and t.index_pages == 1
    # Writes route to the lanes too.
    t.record_index(7, 10.0)
    assert ledger._now[row] == 11.0 and ledger._index[row] == 2
    # The materialised log is the pre-attach prefix plus arena events.
    assert t.log == [("index", 3, 5.0, True), ("index", 7, 10.0, True)]
    assert t.pages_downloaded == 2


def test_attach_idempotent_and_foreign_ledger_rejected():
    t = ChannelTuner(_make_channel())
    ledger = TunerLedger()
    assert ledger.attach(t) == ledger.attach(t) == 0
    assert len(ledger) == 1
    with pytest.raises(ValueError):
        TunerLedger().attach(t)


def test_lazy_log_materialisation_caches_per_arena_state():
    t = ChannelTuner(_make_channel())
    ledger = TunerLedger()
    ledger.attach(t)
    t.record_index(1, 0.0)
    first = t.log
    assert first is t.log  # cached: no new events since the read
    t.record_index(2, 3.0)
    second = t.log
    assert second is not first and len(second) == 2
    # The snapshot is detached from the arena: mutating it changes nothing.
    second.append("junk")
    t.record_index(5, 6.0)
    assert t.log[-1] == ("index", 5, 6.0, True) and "junk" not in t.log


# ----------------------------------------------------------------------
# Ledger units: vectorised flush vs the scalar oracle
# ----------------------------------------------------------------------
def test_flush_round_matches_scalar_record_index():
    ledger = TunerLedger()
    attached = [ChannelTuner(_make_channel(seed=i)) for i in range(3)]
    oracle = [ChannelTuner(_make_channel(seed=i)) for i in range(3)]
    rows = np.array([ledger.attach(t) for t in attached], dtype=np.int64)
    pages = np.array([5, 9, 2], dtype=np.int64)
    arrivals = np.array([10.0, 4.0, 7.5])
    ledger.flush_round(rows, pages, arrivals)
    for o, p, a in zip(oracle, pages.tolist(), arrivals.tolist()):
        o.record_index(p, a)
    for t, o in zip(attached, oracle):
        assert _tuner_state(t) == _tuner_state(o)
    # Empty rounds are a no-op.
    ledger.flush_round(np.empty(0, np.int64), pages[:0], arrivals[:0])
    assert ledger.event_count == 3


def test_flush_round_respects_record_log_rows():
    ledger = TunerLedger()
    noisy = ChannelTuner(_make_channel())
    quiet = ChannelTuner(_make_channel(), record_log=False)
    rows = np.array([ledger.attach(noisy), ledger.attach(quiet)])
    ledger.flush_round(rows, np.array([1, 2]), np.array([0.0, 5.0]))
    assert noisy.log == [("index", 1, 0.0, True)] and noisy.index_pages == 1
    assert quiet.log == [] and quiet.index_pages == 1  # counted, unlogged
    assert ledger.event_count == 1
    # All-quiet rounds skip the arena entirely.
    ledger.flush_round(rows[1:], np.array([3]), np.array([9.0]))
    assert ledger.event_count == 1 and quiet.now == 10.0


def test_record_index_run_matches_scalar_oracle():
    ledger = TunerLedger()
    attached = ChannelTuner(_make_channel())
    oracle = ChannelTuner(_make_channel())
    ledger.attach(attached)
    pages, arrivals = [3, 8, 1], [2.0, 6.0, 11.0]
    attached.record_index_run(pages, arrivals, 12.0)
    oracle.record_index_run(pages, arrivals, 12.0)
    assert _tuner_state(attached) == _tuner_state(oracle)
    # Empty runs record nothing.
    attached.record_index_run([], [], 12.0)
    assert ledger.event_count == 3


def test_faulty_record_index_run_matches_scalar_oracle():
    """A lossy drain's run — failed attempts ``ok=False``, lost / corrupt
    splits — books identically on both tuner backends, also for a row
    that records no log."""
    pages, arrivals = [3, 3, 3, 8, 1, 1], [2.0, 9.0, 16.0, 17.0, 19.0, 26.0]
    oks = [False, False, True, True, False, True]
    for record_log in (True, False):
        ledger = TunerLedger()
        attached = ChannelTuner(_make_channel(), record_log=record_log)
        oracle = ChannelTuner(_make_channel(), record_log=record_log)
        ledger.attach(attached)
        for t in (attached, oracle):
            t.record_index_run(pages, arrivals, 27.0, oks, 2, 1)
        assert _tuner_state(attached) == _tuner_state(oracle)
        assert oracle.lost_pages == 2 and oracle.corrupt_pages == 1
        assert oracle.index_pages == 6
        assert [e[3] for e in oracle.log] == (oks if record_log else [])


def test_event_chains_interleaved_across_rows():
    ledger = TunerLedger()
    a = ChannelTuner(_make_channel())
    b = ChannelTuner(_make_channel())
    ra, rb = ledger.attach(a), ledger.attach(b)
    ledger.append_event(ra, _KIND_INDEX, 1, 0.0, True)
    ledger.append_event(rb, _KIND_DATA, 7, 1.0, False)
    ledger.append_event(ra, _KIND_DATA, 2, 2.0, True)
    ledger.append_event(rb, _KIND_INDEX, 8, 3.0, True)
    assert ledger.events_of(ra) == [
        ("index", 1, 0.0, True),
        ("data", 2, 2.0, True),
    ]
    assert a.log == ledger.events_of(ra)
    assert b.log == [("data", 7, 1.0, False), ("index", 8, 3.0, True)]


def test_lane_and_arena_growth_preserve_state():
    ledger = TunerLedger()
    tuners = [ChannelTuner(_make_channel()) for _ in range(70)]
    for i, t in enumerate(tuners):
        row = ledger.attach(t)
        t.record_index_run(
            list(range(5)), [float(i * 5 + j) for j in range(5)], i * 5.0 + 5
        )
        assert row == i
    assert ledger.event_count == 350  # grew past both initial capacities
    for i, t in enumerate(tuners):
        assert t.index_pages == 5 and t.now == i * 5.0 + 5
        assert [e[2] for e in t.log] == [float(i * 5 + j) for j in range(5)]


def test_receive_paths_route_through_ledger_bit_identically():
    """download_index_page / download_object on an attached tuner — the
    scalar ``_receive`` retry loop writing through the row properties —
    match the standalone oracle, lossless and lossy."""
    for loss in (None, PageLossModel(rate=0.4, seed=3)):
        attached = ChannelTuner(_make_channel(phase=2.0), loss=loss)
        oracle = ChannelTuner(_make_channel(phase=2.0), loss=loss)
        TunerLedger().attach(attached)
        root = attached.channel.program.tree.root
        for t in (attached, oracle):
            t.download_index_page(root.page_id)
            t.download_index_page(root.children[0].page_id)
            t.download_object(0)
        assert _tuner_state(attached) == _tuner_state(oracle)
        if loss is not None:
            assert attached.lost_pages > 0  # the seed actually fades pages
            assert any(not ok for *_, ok in attached.log)


# ----------------------------------------------------------------------
# Lossy tuners crossing the executor seam
# ----------------------------------------------------------------------
def test_lossy_env_hands_out_lossy_tuners(env_lossy):
    ts, tr = env_lossy.tuners(1.0, 2.0)
    assert ts.loss is LOSS and tr.loss is LOSS


def test_lossy_nn_search_joins_the_arena(env_lossless):
    """Loss no longer demotes an NN search off the fast path: the round
    flush replays the retry chain, so lossy and clean NN searches share
    the arena, and the lossy sid is tracked for the faulty flush."""
    executor = SharedScanExecutor()
    lossy = BroadcastNNSearch(
        env_lossless.s_tree,
        ChannelTuner(BroadcastChannel(env_lossless.s_program), loss=LOSS),
        Point(500.0, 500.0),
    )
    clean = BroadcastNNSearch(
        env_lossless.s_tree,
        ChannelTuner(BroadcastChannel(env_lossless.s_program)),
        Point(500.0, 500.0),
    )
    lossy_group, clean_group = SearchGroup([lossy]), SearchGroup([clean])
    with kernels.use_kernels(True):
        executor.add(lossy_group)
        executor.add(clean_group)
    assert lossy_group in executor._arena_groups
    assert clean_group in executor._arena_groups
    assert lossy._arena_sid >= 0 and clean._arena_sid >= 0
    assert executor._any_lossy
    assert executor._sid_loss == {lossy._arena_sid: LOSS}


def test_fast_verdict_ignores_fault_model(env_lossless, monkeypatch):
    """Every frontier-backed search keeps its fast path under any fault
    model — ``add`` puts an NN search in the arena (the faulty round
    flush) and drains a kNN search at once — so the tuner's loss model
    never changes where a search goes; a heap-backed search steps."""
    drained = []
    drain = arrival_queue.drain

    def drain_spy(s, *args):
        drained.append(s)
        return drain(s, *args)

    monkeypatch.setattr(arrival_queue, "drain", drain_spy)
    executor = SharedScanExecutor()
    program = env_lossless.s_program
    query = Point(500.0, 500.0)
    with kernels.use_kernels(True):
        for loss in (None, LOSS, None):
            nn = BroadcastNNSearch(
                env_lossless.s_tree,
                ChannelTuner(BroadcastChannel(program), loss=loss),
                query,
            )
            knn = BroadcastKNNSearch(
                env_lossless.s_tree,
                ChannelTuner(BroadcastChannel(program), loss=loss),
                query,
                3,
            )
            nn_group = SearchGroup([nn])
            executor.add(nn_group)
            executor.add(SearchGroup([knn]))
            assert nn_group in executor._arena_groups
            assert drained[-1] is knn and knn.finished()
        heap_env = _build_env(loss=LOSS, distributed_levels=2)
        heap = BroadcastKNNSearch(
            heap_env.s_tree,
            ChannelTuner(BroadcastChannel(heap_env.s_program), loss=LOSS),
            query,
            3,
        )
        executor.add(SearchGroup([heap]))
        executor.run()
    assert heap._frontier is None and heap.finished()
    assert heap not in drained and len(drained) == 3


@pytest.mark.parametrize("use_kernels", [True, False])
@pytest.mark.parametrize("algo_cls", [DoubleNN, HybridNN])
def test_lossy_tnn_bit_identity(env_lossy, use_kernels, algo_cls):
    """Arena-capable env + loss: the whole workload, bit-identical."""
    queries = _random_queries(env_lossy, 10)
    algo = algo_cls()
    with kernels.use_kernels(use_kernels):
        # Without kernels every group runs through SearchGroup.run, the
        # code algo.run runs: the reference is the stepped lifecycle.
        want = (
            [algo.run(env_lossy, q, ps, pr) for q, ps, pr in queries]
            if use_kernels else _stepped_per_query(env_lossy, algo, queries)
        )
        got = execute_tnn_batch(env_lossy, algo, queries)
    assert got == want


def test_lossy_tnn_bit_identity_heap_backend():
    """Heap-backed frontiers (no cyclic page order) with loss on top."""
    env = _build_env(loss=LOSS, distributed_levels=2)
    queries = _random_queries(env, 6)
    algo = HybridNN()
    with kernels.use_kernels(True):
        want = _stepped_per_query(env, algo, queries)
        got = execute_tnn_batch(env, algo, queries)
    assert got == want


def _nn_search(env, query, phase, loss):
    tuner = ChannelTuner(
        BroadcastChannel(env.s_program, phase=phase), loss=loss
    )
    return BroadcastNNSearch(env.s_tree, tuner, query)


def test_mixed_lossy_and_arena_searches_share_one_run(env_lossless):
    """Lossy and lossless NN searches in the same executor run all ride
    the arena and each match the run_all oracle — results, counters,
    lost_pages and log events."""
    rng = random.Random(42)
    cycle = env_lossless.s_program.cycle_length
    specs = [
        (
            env_lossless.random_query_point(rng),
            rng.uniform(0, cycle),
            LOSS if i % 2 else None,
        )
        for i in range(12)
    ]
    oracle = [_nn_search(env_lossless, *spec) for spec in specs]
    shared = [_nn_search(env_lossless, *spec) for spec in specs]
    with kernels.use_kernels(True):
        for s in oracle:
            run_all([s])
        executor = SharedScanExecutor()
        for s in shared:
            executor.add(SearchGroup([s]))
        # Loss no longer splits the run: every NN search is arena-served.
        assert all(s._arena_sid >= 0 for s in shared)
        executor.run()
    for got, want in zip(shared, oracle):
        assert got.result() == want.result()
        assert _tuner_state(got.tuner) == _tuner_state(want.tuner)
    assert any(s.tuner.lost_pages > 0 for s in shared)  # loss engaged


# ----------------------------------------------------------------------
# Randomized lossy bit-identity sweep: fault models x layouts x backends
# ----------------------------------------------------------------------
#: (fault-model factory, label) pairs exercised by the sweep — i.i.d.
#: loss, bursty Gilbert-Elliott fades and detected corruption.
_SWEEP_FAULTS = [
    lambda seed: PageLossModel(rate=0.3, seed=seed),
    lambda seed: GilbertElliottLossModel(
        good_rate=0.02,
        bad_rate=0.7,
        p_good_bad=0.1,
        p_bad_good=0.3,
        seed=seed,
        regen=32,
    ),
    lambda seed: PageCorruptionModel(rate=0.25, seed=seed),
]


@pytest.mark.parametrize("layout", sorted(available_layouts()))
def test_lossy_bit_identity_sweep_across_layouts(layout):
    """Property sweep: for every registered layout and fault model, a
    randomized NN workload on the shared executor matches the per-query
    run_all oracle bit for bit — results, clocks, page counters,
    lost/corrupt splits and full reception logs — with the ledger on
    (arena path), the ledger off (forced-scalar arena) and kernels off
    (scalar heap oracle)."""
    env = TNNEnvironment.build(
        sized_uniform(240, seed=7),
        sized_uniform(240, seed=8),
        params=SystemParameters(page_capacity=64),
        layout=make_layout(layout),
    )
    # A stable per-layout seed (``hash`` of a str varies with
    # PYTHONHASHSEED): with it, both corruption searches of every layout
    # see corrupt pages, so the sanity checks below always bite.
    rng = random.Random(zlib.crc32(layout.encode()))
    cycle = env.s_program.cycle_length
    specs = []
    for i, fault in enumerate(_SWEEP_FAULTS):
        for seed in (rng.randrange(1 << 16), rng.randrange(1 << 16)):
            specs.append(
                (
                    env.random_query_point(rng),
                    rng.uniform(0, cycle),
                    fault(seed),
                )
            )
    oracle = [_nn_search(env, *spec) for spec in specs]
    for s in oracle:
        run_all([s])
    for use_kernels in (True, False):
        shared = [_nn_search(env, *spec) for spec in specs]
        with kernels.use_kernels(use_kernels):
            executor = SharedScanExecutor()
            for s in shared:
                executor.add(SearchGroup([s]))
            executor.run()
        for got, want in zip(shared, oracle):
            assert got.result() == want.result()
            assert _tuner_state(got.tuner) == _tuner_state(want.tuner)
    assert any(s.tuner.lost_pages > 0 for s in oracle)
    assert any(s.tuner.corrupt_pages > 0 for s in oracle)


@pytest.mark.parametrize(
    "loss",
    [
        PageLossModel(rate=0.35, seed=21),
        GilbertElliottLossModel(
            bad_rate=0.8, p_good_bad=0.15, p_bad_good=0.2, seed=9
        ),
        PageCorruptionModel(rate=0.3, seed=4),
    ],
    ids=["iid", "ge", "corruption"],
)
@pytest.mark.parametrize("algo_cls", [DoubleNN, HybridNN])
def test_faulty_tnn_campaign_bit_identity(loss, algo_cls):
    """Whole TNN campaigns under each fault model: the page-major batch
    (arena + ledger + faulty round flush) equals the per-query oracle."""
    env = _build_env(loss=loss, n=300)
    queries = _random_queries(env, 8)
    algo = algo_cls()
    with kernels.use_kernels(True):
        want = [algo.run(env, q, ps, pr) for q, ps, pr in queries]
        got = execute_tnn_batch(env, algo, queries)
    assert got == want
