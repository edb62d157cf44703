"""Tuner booking and lossy tuners through the group driver.

Two contracts under test:

* ``ChannelTuner.record_index_run`` — the drain's one booking call for a
  run of receptions — matches the scalar receive path.
* The lossy seam of batches — a :class:`FaultModel` makes receptions
  fallible; every group runs at once through
  ``SearchGroup.run``, whose drains replay the retry-to-next-replica loop
  closed form and book their attempts through ``record_index_run``.
  Every lossy run must stay bit-identical to the stepped per-query
  reference — results, ``lost_pages`` / ``corrupt_pages``, log events —
  across every fault model, loss seed, layout and search backend, also
  when sharing one batch with lossless searches.
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
from repro.geometry import Point
from repro.rtree import str_pack


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
    ``execute_tnn_batch``."""
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
# Drain booking vs the scalar receive path
# ----------------------------------------------------------------------
def test_record_index_run_matches_scalar_oracle():
    """One ``record_index_run`` call books a run of lossless receptions
    exactly like downloading the same pages one by one."""
    oracle = ChannelTuner(_make_channel(phase=2.0))
    booked = ChannelTuner(_make_channel(phase=2.0))
    root = oracle.channel.program.tree.root
    pages = [root.page_id, root.children[0].page_id, root.children[1].page_id]
    for p in pages:
        oracle.download_index_page(p)
    arrivals = [e[2] for e in oracle.log]
    booked.record_index_run(pages, arrivals, oracle.now)
    assert _tuner_state(booked) == _tuner_state(oracle)
    # Empty runs record nothing.
    booked.record_index_run([], [], booked.now)
    assert _tuner_state(booked) == _tuner_state(oracle)
    # A tuner without a log counts the same run and logs nothing.
    quiet = ChannelTuner(_make_channel(phase=2.0), record_log=False)
    quiet.record_index_run(pages, arrivals, oracle.now)
    assert _tuner_state(quiet) == _tuner_state(oracle)[:-1] + ([],)


# ----------------------------------------------------------------------
# Lossy tuners through SearchGroup.run
# ----------------------------------------------------------------------
def test_lossy_env_hands_out_lossy_tuners(env_lossy):
    ts, tr = env_lossy.tuners(1.0, 2.0)
    assert ts.loss is LOSS and tr.loss is LOSS


def _assert_ran_alone(s):
    """A search ``SearchGroup.run`` ran to completion: finished, on its
    own plain tuner."""
    assert type(s.tuner) is ChannelTuner
    assert s.finished()


def test_search_group_runs_lossy_nn_search_to_completion(env_lossless):
    """``SearchGroup.run`` runs a lossy NN group to completion (its drain
    replays the retry chains), and a clean NN group the same way."""
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
    SearchGroup([lossy]).run()
    _assert_ran_alone(lossy)
    assert lossy.tuner.lost_pages > 0  # loss engaged
    SearchGroup([clean]).run()
    _assert_ran_alone(clean)
    assert clean.tuner.lost_pages == 0


def test_search_group_drains_nn_search_whatever_its_fault_model(
    env_lossless, monkeypatch
):
    """``SearchGroup.run`` drains an NN search at once whatever its fault
    model, like a kNN search; a heap-backed search steps."""
    drained = []
    drain = arrival_queue.drain

    def drain_spy(s, *args):
        drained.append(s)
        return drain(s, *args)

    monkeypatch.setattr(arrival_queue, "drain", drain_spy)
    program = env_lossless.s_program
    query = Point(500.0, 500.0)
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
        SearchGroup([nn]).run()
        _assert_ran_alone(nn)
        assert drained[-1] is nn
        SearchGroup([knn]).run()
        assert drained[-1] is knn and knn.finished()
    heap_env = _build_env(loss=LOSS, distributed_levels=2)
    heap = BroadcastKNNSearch(
        heap_env.s_tree,
        ChannelTuner(BroadcastChannel(heap_env.s_program), loss=LOSS),
        query,
        3,
    )
    SearchGroup([heap]).run()
    assert not heap._drains() and heap.finished()
    assert heap not in drained and len(drained) == 6


@pytest.mark.parametrize("drained", [True, False])
@pytest.mark.parametrize("algo_cls", [DoubleNN, HybridNN])
def test_lossy_tnn_bit_identity(env_lossy, drained, algo_cls):
    """Cyclic env + loss: the whole workload, bit-identical to per-query
    ``algo.run``, whose stages drain (``drained``), and to the stages
    stepped on the heap by ``run_all``."""
    queries = _random_queries(env_lossy, 10)
    algo = algo_cls()
    if drained:
        want = [algo.run(env_lossy, q, ps, pr) for q, ps, pr in queries]
    else:
        want = _stepped_per_query(env_lossy, algo, queries)
    assert execute_tnn_batch(env_lossy, algo, queries) == want


def test_lossy_tnn_bit_identity_heap_backend():
    """Heap-backed searches (no cyclic page order) with loss on top."""
    env = _build_env(loss=LOSS, distributed_levels=2)
    queries = _random_queries(env, 6)
    algo = HybridNN()
    want = _stepped_per_query(env, algo, queries)
    got = execute_tnn_batch(env, algo, queries)
    assert got == want


def _nn_search(env, query, phase, loss):
    tuner = ChannelTuner(
        BroadcastChannel(env.s_program, phase=phase), loss=loss
    )
    return BroadcastNNSearch(env.s_tree, tuner, query)


def test_mixed_lossy_and_lossless_searches_share_one_run(env_lossless):
    """Lossy and lossless NN searches in one batch all drain through
    ``SearchGroup.run``, and each matches the run_all oracle — results,
    counters, lost_pages and log events."""
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
    for s in oracle:
        run_all([s])
    for s in shared:
        SearchGroup([s]).run()
        _assert_ran_alone(s)
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
    randomized NN workload matches the per-query run_all oracle bit for
    bit — results, clocks, page counters, lost/corrupt splits and full
    reception logs — through ``SearchGroup.run`` and through each
    search's own ``run_to_completion`` (a drain walk on a cyclic layout,
    the heap step loop on the others)."""
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
    for through_group in (True, False):
        shared = [_nn_search(env, *spec) for spec in specs]
        if through_group:
            for s in shared:
                SearchGroup([s]).run()
        else:
            for s in shared:
                s.run_to_completion()
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
    (every lossy group through ``SearchGroup.run``) equals the stepped
    per-query lifecycle."""
    env = _build_env(loss=loss, n=300)
    queries = _random_queries(env, 8)
    algo = algo_cls()
    want = _stepped_per_query(env, algo, queries)
    got = execute_tnn_batch(env, algo, queries)
    assert got == want
