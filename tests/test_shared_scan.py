"""Bit-identity A/B sweep and unit tests for batch execution.

The contract under test: a batch (:func:`~repro.engine.execute_tnn_batch`,
``SharedScanRunner``, ``QueryEngine.run_many``) must reproduce the
per-query path — answers, access times, tune-in counts, max queue sizes —
bit for bit, for every query type, at both the paper's page geometries,
against per-query runs that drain and against stages stepped on the heap,
including workloads whose queries straddle different channel phases.  The
runner-level reference is per-query ``algorithm.run``; the drain tests
step their reference searches explicitly, because ``run_to_completion``
runs the walk a batch runs.
"""

import math
from contextlib import contextmanager

import pytest

from repro.broadcast import (
    GilbertElliottLossModel,
    PageCorruptionModel,
    PageLossModel,
    SystemParameters,
    available_layouts,
    make_fault_model,
    make_layout,
)
from repro.client import (
    BroadcastKNNSearch,
    BroadcastNNSearch,
    BroadcastRangeSearch,
    BroadcastWindowSearch,
    SearchGroup,
    arrival_queue,
    run_all,
)
from repro.client.arrival_queue import ArrivalQueueMixin
from repro.core import (
    AnnOptimization,
    ApproximateTNN,
    BruteForceTNN,
    DoubleNN,
    HybridNN,
    TNNEnvironment,
    WindowBasedTNN,
)
from repro.core.environment import TNNEnvironment as _Env
from repro.datasets import sized_uniform
from repro.engine import (
    KNNRequest,
    NNRequest,
    QueryEngine,
    QueryWorkload,
    RangeRequest,
    SharedScanRunner,
    WindowRequest,
    execute_tnn_batch,
)
from repro.geometry import Circle, Point, Rect, kernels

import random


def _build_env(page_capacity, n=900):
    return TNNEnvironment.build(
        sized_uniform(n, seed=1),
        sized_uniform(n, seed=2),
        params=SystemParameters(page_capacity=page_capacity),
    )


@pytest.fixture(scope="module")
def env64():
    return _build_env(64)


@pytest.fixture(scope="module")
def env512():
    return _build_env(512)


def _random_queries(env, n, seed=0):
    rng = random.Random(seed)
    return [
        (env.random_query_point(rng), *env.random_phases(rng))
        for _ in range(n)
    ]


def _per_query(env, algo, queries):
    """The reference path: ``algo.run`` on every query."""
    return [algo.run(env, q, ps, pr) for q, ps, pr in queries]


def _stepped_per_query(env, algo, queries):
    """``algo.run`` with every stage driven by ``run_all``'s explicit
    ``step()`` calls (``algo.run`` drains independent stages instead)."""
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


def _straddling_queries(env, n, seed=1):
    """Queries spread evenly across both channels' cycle phases."""
    rng = random.Random(seed)
    cs = env.s_program.cycle_length
    cr = env.r_program.cycle_length
    return [
        (env.random_query_point(rng), i * cs / n, ((n - i) * cr / n) % cr)
        for i in range(n)
    ]


# ----------------------------------------------------------------------
# TNN workloads: shared scan vs per-query oracle
# ----------------------------------------------------------------------
@pytest.mark.parametrize("page_capacity", [64, 512])
@pytest.mark.parametrize("drained", [True, False])
@pytest.mark.parametrize("algo_cls", [DoubleNN, HybridNN])
def test_tnn_bit_identity(page_capacity, drained, algo_cls, env64, env512):
    """The batch against per-query ``algo.run`` (``drained``) or
    against the stages stepped on the heap by ``run_all``."""
    env = env64 if page_capacity == 64 else env512
    queries = _random_queries(env, 25)
    algo = algo_cls()
    want = (_per_query if drained else _stepped_per_query)(env, algo, queries)
    assert execute_tnn_batch(env, algo, queries) == want


@pytest.mark.parametrize("drained", [True, False])
def test_tnn_bit_identity_phase_straddling(env64, drained):
    """Queries at evenly spread phases of both cycles stay bit-identical,
    against drained per-query runs and heap-stepped stages."""
    queries = _straddling_queries(env64, 24)
    algo = HybridNN()
    want = (_per_query if drained else _stepped_per_query)(env64, algo,
                                                           queries)
    assert execute_tnn_batch(env64, algo, queries) == want


def test_shared_runner_matches_batch_runner(env64):
    workload = QueryWorkload(15, seed=3)
    queries = workload.queries(env64)
    shared = SharedScanRunner(env64, workload, workers=0)
    for algo_cls in (DoubleNN, HybridNN):
        assert shared.run_algorithm(algo_cls()) == _per_query(
            env64, algo_cls(), queries
        )


#: Every algorithm configuration the page-major lifecycle must reproduce.
_ALGORITHM_CONFIGS = {
    "double": DoubleNN,
    "hybrid": HybridNN,
    "window": WindowBasedTNN,
    "approximate": ApproximateTNN,
    "brute-force": BruteForceTNN,
    "double-ann": lambda: DoubleNN(optimization=AnnOptimization()),
    "hybrid-ann": lambda: HybridNN(optimization=AnnOptimization(1 / 150)),
    "window-ann": lambda: WindowBasedTNN(
        optimization=AnnOptimization(density_aware=False)
    ),
    "hybrid-data": lambda: HybridNN(include_data_retrieval=True),
    "approximate-data": lambda: ApproximateTNN(include_data_retrieval=True),
}

#: Fault family -> registry constructor arguments (None: lossless).
_TNN_FAULTS = {
    "lossless": None,
    "iid": ("iid", {"rate": 0.2, "seed": 3}),
    "gilbert-elliott": (
        "gilbert-elliott",
        {"bad_rate": 0.6, "p_good_bad": 0.1, "p_bad_good": 0.3, "seed": 5},
    ),
    "corruption": ("corruption", {"rate": 0.2, "seed": 7}),
}


@pytest.mark.parametrize("fault", list(_TNN_FAULTS))
@pytest.mark.parametrize("layout", available_layouts())
def test_every_algorithm_page_major_matches_per_query(layout, fault):
    """Every algorithm configuration — exact, approximate, brute force,
    ANN, with data retrieval — runs page-major through its one lifecycle,
    bit-identical to per-query ``algorithm.run`` on every layout and
    fault family.  Lossy groups run through ``SearchGroup.run``, the code
    ``algorithm.run`` runs, so faulty cells take the stepped lifecycle as
    reference."""
    spec = _TNN_FAULTS[fault]
    env = TNNEnvironment.build(
        sized_uniform(300, seed=1),
        sized_uniform(500, seed=2),
        params=SystemParameters(page_capacity=64),
        layout=make_layout(layout),
        loss=None if spec is None else make_fault_model(spec[0], **spec[1]),
    )
    queries = _random_queries(env, 12, seed=3)
    for name, make in _ALGORITHM_CONFIGS.items():
        algo = make()
        reference = _per_query if spec is None else _stepped_per_query
        want = reference(env, algo, queries)
        assert execute_tnn_batch(env, algo, queries) == want, name
        if algo.include_data_retrieval:
            assert any(r.data_pages > 0 for r in want), name


def test_shared_runner_pool_phase_sharding(env64):
    workload = QueryWorkload(13, seed=5)
    shared = SharedScanRunner(env64, workload)
    serial = shared.run_algorithm(HybridNN(), workers=0)
    pooled = shared.run_algorithm(HybridNN(), workers=2)
    assert pooled == serial
    # Shards cover the workload exactly once, ordered by s-phase.
    shards = shared._phase_shards(3)
    flat = [i for shard in shards for i in shard]
    assert sorted(flat) == list(range(len(workload.queries(env64))))
    phases = [workload.queries(env64)[i][1] for i in flat]
    assert phases == sorted(phases)


def test_shared_runner_run_summary(env64):
    from repro.sim.stats import summarize_batch

    workload = QueryWorkload(8, seed=6)
    queries = workload.queries(env64)
    shared = SharedScanRunner(env64, workload, workers=0)
    algos = {"double-nn": DoubleNN(), "hybrid-nn": HybridNN()}
    assert shared.run(algos) == {
        name: summarize_batch(_per_query(env64, algo, queries))
        for name, algo in algos.items()
    }


def test_distributed_layout_uses_per_query_path(env64):
    """Heap-backed searches (no cyclic page order) run through
    ``SearchGroup.run`` unchanged: the stepped lifecycle's results."""
    env = TNNEnvironment.build(
        sized_uniform(400, seed=1),
        sized_uniform(400, seed=2),
        params=SystemParameters(page_capacity=64),
        distributed_levels=2,
    )
    queries = _random_queries(env, 8)
    algo = HybridNN()
    want = _stepped_per_query(env, algo, queries)
    assert execute_tnn_batch(env, algo, queries) == want


# ----------------------------------------------------------------------
# Mixed client batches (QueryEngine.run_many)
# ----------------------------------------------------------------------
def _mixed_requests(env, n, seed=9):
    rng = random.Random(seed)
    out = []
    for i in range(n):
        p = env.random_query_point(rng)
        channel = "s" if rng.random() < 0.5 else "r"
        program = env.s_program if channel == "s" else env.r_program
        phase = rng.uniform(0, program.cycle_length)
        kind = i % 4
        if kind == 0:
            out.append(NNRequest(p, phase, channel))
        elif kind == 1:
            out.append(KNNRequest(p, 1 + i % 5, phase, channel))
        elif kind == 2:
            out.append(RangeRequest(p, rng.uniform(50, 2500), phase, channel))
        else:
            q = env.random_query_point(rng)
            out.append(
                WindowRequest(
                    Rect(
                        min(p.x, q.x), min(p.y, q.y), max(p.x, q.x), max(p.y, q.y)
                    ),
                    phase,
                    channel,
                )
            )
    return out


@pytest.mark.parametrize("page_capacity", [64, 512])
@pytest.mark.parametrize("drained", [True, False])
def test_run_many_bit_identity(page_capacity, drained, env64, env512):
    """``run_many`` against the single-query methods (``drained``) or
    against every request's search stepped on the heap."""
    env = env64 if page_capacity == 64 else env512
    engine = QueryEngine(env)
    requests = _mixed_requests(env, 32)
    got = engine.run_many(requests)
    want = []
    for r in requests:
        if not drained:
            want.append(_single_query(engine, r))
        elif isinstance(r, NNRequest):
            want.append(engine.nn(r.point, r.phase, r.channel))
        elif isinstance(r, KNNRequest):
            want.append(engine.knn(r.point, r.k, r.phase, r.channel))
        elif isinstance(r, RangeRequest):
            want.append(engine.range(r.center, r.radius, r.phase, r.channel))
        else:
            want.append(engine.window(r.window, r.phase, r.channel))
    assert got == want


def test_run_many_window_missing_root(env64):
    """A window outside the dataset is born finished and answers empty."""
    engine = QueryEngine(env64)
    outside = Rect(1e9, 1e9, 1e9 + 1, 1e9 + 1)
    answers = engine.run_many(
        [WindowRequest(outside), NNRequest(Point(100.0, 100.0))]
    )
    assert answers[0].answers == ()
    assert answers[0].tune_in == 0
    assert answers[1] == engine.nn(Point(100.0, 100.0))


def test_run_many_empty_batch(env64):
    assert QueryEngine(env64).run_many([]) == []


def test_run_many_nn_drains_one_walk_per_request(env64, monkeypatch):
    """run_many NN batches on both channels drain one walk per request.

    Every NN request of a batch spanning both channels' trees runs as one
    drain walk over its own tree; answers match the single-query method.
    """
    rng = random.Random(17)
    requests = []
    for i in range(48):
        channel = "s" if i % 2 else "r"
        program = env64.s_program if channel == "s" else env64.r_program
        requests.append(NNRequest(
            env64.random_query_point(rng),
            rng.uniform(0, program.cycle_length),
            channel,
        ))
    drained = _spy_drained(monkeypatch)
    engine = QueryEngine(env64)
    with _batch_run():
        got = engine.run_many(requests)
    want = [engine.nn(r.point, r.phase, r.channel) for r in requests]
    assert got == want
    assert len({id(s) for s in drained}) == len(drained) == len(requests)
    assert {id(s.tree) for s in drained} == {
        id(env64.s_tree), id(env64.r_tree)
    }


def test_client_queries_honour_the_env_fault_model():
    """QueryEngine tuners carry the environment's fault model.

    A lossy channel never changes an answer set, only when it arrives
    (window answers come in discovery order, so they compare as sets):
    every request answers as on the lossless twin, some wait longer, and
    ``run_many`` still matches the single-query methods.
    """

    def build(loss):
        return TNNEnvironment.build(
            sized_uniform(600, seed=1),
            sized_uniform(600, seed=2),
            params=SystemParameters(page_capacity=64),
            loss=loss,
        )

    lossy = QueryEngine(build(PageLossModel(rate=0.3, seed=3)))
    clean = QueryEngine(build(None))
    requests = _mixed_requests(lossy.env, 24)
    got = lossy.run_many(requests)
    ref = clean.run_many(requests)
    singles = [
        lossy.nn(r.point, r.phase, r.channel)
        for r in requests
        if isinstance(r, NNRequest)
    ]
    assert [sorted(a.answers) for a in got] == [
        sorted(a.answers) for a in ref
    ]
    assert all(a.access_time >= b.access_time for a, b in zip(got, ref))
    assert any(a.access_time > b.access_time for a, b in zip(got, ref))
    assert [a for a, r in zip(got, requests) if isinstance(r, NNRequest)] == (
        singles
    )


# ----------------------------------------------------------------------
# kNN drains: one serve per search, leaves absorbed inline and exactly
# ----------------------------------------------------------------------
def _lattice_env(page_capacity, loss=None):
    """A 20 x 20 lattice (every point twice) on the s channel."""
    lattice = [Point(10.0 * i, 10.0 * j) for i in range(20) for j in range(20)]
    return TNNEnvironment.build(
        lattice + lattice,
        sized_uniform(300, seed=5),
        params=SystemParameters(page_capacity=page_capacity),
        loss=loss,
    )


#: True while a test runs the batch: the step and drain spies record
#: only then, so the reference runs never count.
_serving = False


@contextmanager
def _batch_run():
    global _serving
    _serving = True
    try:
        yield
    finally:
        _serving = False


def _spy_finish_and_steps(monkeypatch):
    """Record each finished search's tuner log, lost and corrupt pages
    and (range / window) results in discovery order, and every per-query
    ``step()`` a kNN, range or window search takes in the batch run."""
    finished, stepped = [], []
    finish = QueryEngine._finish

    def finish_spy(self, search):
        found = search.results
        finished.append((
            list(search.tuner.log),
            search.tuner.lost_pages,
            search.tuner.corrupt_pages,
            list(found) if isinstance(found, list) else None,
        ))
        return finish(self, search)

    def spy(step):
        def step_spy(self):
            if _serving:
                stepped.append(self)
            return step(self)
        return step_spy

    monkeypatch.setattr(QueryEngine, "_finish", finish_spy)
    for cls in (BroadcastKNNSearch, BroadcastRangeSearch,
                BroadcastWindowSearch):
        monkeypatch.setattr(cls, "step", spy(cls.step))
    return finished, stepped


def _knn_cases(env, case):
    n = len(env.s_points)
    cycle = env.s_program.cycle_length
    if case == "tie-at-kth-bound":
        # (55, 55) sits mid-cell: 4 distinct lattice points (8 with the
        # duplicates) tie at the nearest distance, 8 more at the next.
        points = [Point(55.0, 55.0), Point(105.0, 45.0), Point(0.0, 0.0)]
        ks = (1, 2, 3, 7, 8, 9, 12, 23)
    elif case == "k-exceeds-dataset":
        points = [Point(55.0, 55.0), Point(123.4, 56.7)]
        ks = (n, n + 1, 3 * n)
    else:  # query outside the data region
        points = [Point(-500.0, -500.0), Point(1e4, 95.0), Point(95.0, -0.5)]
        ks = (1, 4, 30)
    return [
        KNNRequest(q, k, phase, "s")
        for i, q in enumerate(points)
        for k in ks
        for phase in ((17.0 * i + 3.5 * k) % cycle, _fractional_phase(i))
    ]


def _fractional_phase(i):
    """A phase at which an unsnapped float clock rounds past the next slot
    after a download at most of the first lap's index slots of the lattice
    env, at both page sizes (whole- and half-slot phases never round it)."""
    return 127.3 - 0.5 * i


def _step_to_end(search):
    """Drive ``search`` by explicit ``step()`` calls, the reference path
    (``run_to_completion`` runs the drain walk a batch runs)."""
    while not search.finished():
        search.step()
    return search


def _single_query(engine, r):
    """The per-query reference answer of one drain request: the search
    ``QueryEngine.knn`` / ``.range`` / ``.window`` would build, stepped."""
    return engine._finish(_step_to_end(engine._build(r)))


def _drain_vs_single(env, requests, monkeypatch):
    """``run_many`` vs stepped single-query searches on one request batch.

    Asserts equal answers, access times, tune-in counts and max queue
    sizes, and equal finish records (tuner logs event by event, lost
    pages, range / window results in discovery order); returns the
    answers, the finish records and the kNN / range / window searches
    that stepped in ``run_many``.
    """
    engine = QueryEngine(env)
    finished, stepped = _spy_finish_and_steps(monkeypatch)
    with _batch_run():
        got = engine.run_many(requests, record_log=True)
    records = finished[:]
    del finished[:]
    want = [_single_query(engine, r) for r in requests]
    assert got == want
    assert records == finished
    return got, records, stepped


@pytest.mark.parametrize("page_capacity", [64, 512])
@pytest.mark.parametrize(
    "case", ["tie-at-kth-bound", "k-exceeds-dataset", "query-outside-region"]
)
def test_knn_drain_bit_identical_to_single_query(case, page_capacity,
                                                 monkeypatch):
    """run_many's one-serve kNN drain vs per-query ``QueryEngine.knn``.

    Answers (points, distances and tie order), access times, tune-in
    counts, max queue sizes and the tuner logs event by event all match;
    no lossless kNN search steps.
    """
    env = _lattice_env(page_capacity)
    requests = _knn_cases(env, case)
    jumps = _spy_jumps(monkeypatch, (BroadcastKNNSearch,))
    got, records, stepped = _drain_vs_single(env, requests, monkeypatch)
    assert all(log for log, *_ in records)
    assert stepped == []
    assert jumps == []  # every download puts the cursor on the next slot
    if case == "tie-at-kth-bound":
        # The case really ties at the k-th bound: some answer's k-th
        # distance is shared by a point left out of it.
        ties = 0
        for r, a in zip(requests, got):
            d = sorted(q.distance_to(r.point) for q in env.s_points)
            ties += d[r.k - 1] == d[r.k]
        assert ties
    elif case == "k-exceeds-dataset":
        assert all(len(a.answers) == len(env.s_points) for a in got)


def _region_cases(case):
    """Range and window requests over the lattice (spans 0..190)."""
    if case == "radius-zero":
        # On a (doubled) lattice point, and between lattice points.
        circles = [(Point(50.0, 50.0), 0.0), (Point(55.0, 55.0), 0.0)]
        windows = [Rect(50.0, 50.0, 50.0, 50.0), Rect(55.0, 55.0, 55.0, 55.0)]
    elif case == "covering":
        circles = [(Point(95.0, 95.0), 1000.0), (Point(-50.0, 400.0), 1e4)]
        windows = [Rect(-10.0, -10.0, 500.0, 500.0), Rect(0.0, 0.0, 190.0, 190.0)]
    elif case == "misses-root":
        circles = [(Point(400.0, 400.0), 50.0), (Point(-20.0, 95.0), 19.5)]
        windows = [Rect(300.0, 300.0, 400.0, 400.0), Rect(-5.0, 0.0, -1.0, 190.0)]
    else:  # boundary: lattice points exactly on the circle / window edge
        circles = [(Point(0.0, 0.0), 10.0), (Point(95.0, 95.0), 45.0),
                   (Point(100.0, 100.0), 50.0)]
        windows = [Rect(20.0, 20.0, 60.0, 40.0), Rect(95.0, 0.0, 190.0, 95.0)]
    requests = []
    for i in range(4):
        for phase in (101.5 * i, _fractional_phase(i)):
            requests += [RangeRequest(c, r, phase, "s") for c, r in circles]
            requests += [WindowRequest(w, phase, "s") for w in windows]
    return requests


@pytest.mark.parametrize("page_capacity", [64, 512])
@pytest.mark.parametrize(
    "case", ["radius-zero", "covering", "misses-root", "boundary"]
)
def test_range_window_drain_bit_identical_to_single_query(
    case, page_capacity, monkeypatch
):
    """run_many's one-serve range / window drain vs ``QueryEngine.range``
    and ``.window``: the checks of the kNN drain test, plus results in
    discovery order; no lossless range or window search steps.
    """
    env = _lattice_env(page_capacity)
    jumps = _spy_jumps(
        monkeypatch, (BroadcastRangeSearch, BroadcastWindowSearch)
    )
    got, records, stepped = _drain_vs_single(
        env, _region_cases(case), monkeypatch
    )
    assert stepped == []
    if case == "misses-root":
        assert all(not a.answers for a in got)
    else:
        assert all(log for log, *_ in records)
    assert jumps == []
    if case == "covering":
        assert all(len(a.answers) == len(env.s_points) for a in got)
    elif case == "boundary":
        assert all(a.answers for a in got)


#: Fault family -> the fault model of the lossy drain tests.
_DRAIN_FAULTS = {
    "iid": lambda: PageLossModel(rate=0.3, seed=3),
    "gilbert-elliott": lambda: GilbertElliottLossModel(
        good_rate=0.05, bad_rate=0.7, p_good_bad=0.1, p_bad_good=0.3,
        seed=5, regen=32,
    ),
    "corruption": lambda: PageCorruptionModel(rate=0.3, seed=7),
}


def _lossy_drain_vs_single(fault, requests_of, monkeypatch):
    """``_drain_vs_single`` on the lattice under one fault family.

    Every search must drain and none may step; the faults must really
    engage — failed attempts logged ``ok=False``, counted as lost or
    corrupt by family — so the retry chains the drain replays are
    compared attempt by attempt.
    """
    env = _lattice_env(64, loss=_DRAIN_FAULTS[fault]())
    requests = requests_of(env)
    drained = _spy_drained(monkeypatch)
    got, records, stepped = _drain_vs_single(env, requests, monkeypatch)
    assert stepped == []
    assert len({id(s) for s in drained}) == len(drained) == len(requests)
    lost = sum(r[1] for r in records)
    corrupt = sum(r[2] for r in records)
    failed = sum(not ok for log, *_ in records for *_, ok in log)
    assert failed == lost + corrupt > 0
    if fault == "corruption":
        assert lost == 0
    else:
        assert corrupt == 0
    return got


@pytest.mark.parametrize("fault", sorted(_DRAIN_FAULTS))
def test_lossy_knn_drain_bit_identical_to_single_query(fault, monkeypatch):
    """Faulty kNN searches drain in one serve too, bit-identical to
    ``QueryEngine.knn``: answers (with tie order), access times, tune-in,
    max queue sizes, lost / corrupt splits and the full reception logs,
    failed attempts included."""
    _lossy_drain_vs_single(
        fault,
        lambda env: _knn_cases(env, "tie-at-kth-bound")
        + _knn_cases(env, "query-outside-region"),
        monkeypatch,
    )


@pytest.mark.parametrize("fault", sorted(_DRAIN_FAULTS))
def test_lossy_range_window_drain_bit_identical_to_single_query(
    fault, monkeypatch
):
    """Faulty range and window searches drain in one serve, with the
    checks of the lossy kNN drain test plus results in discovery order."""
    got = _lossy_drain_vs_single(
        fault,
        lambda env: _region_cases("boundary") + _region_cases("covering")
        + _region_cases("radius-zero"),
        monkeypatch,
    )
    assert any(a.answers for a in got)


# ----------------------------------------------------------------------
# Range searches in a batch
# ----------------------------------------------------------------------
@pytest.mark.parametrize("radius", [math.nan, -1.0, -0.5e-300])
def test_range_rejects_nan_and_negative_radius(env64, radius):
    """A NaN or negative radius is refused on every path alike; before,
    ``range`` downloaded nothing for NaN while ``run_many`` downloaded the
    whole index."""
    engine = QueryEngine(env64)
    center = Point(500.0, 500.0)
    with pytest.raises(ValueError, match="radius"):
        engine.range(center, radius)
    with pytest.raises(ValueError, match="radius"):
        engine.run_many([RangeRequest(center, radius)])


def _two_cycle_env(page_capacity, loss=None):
    """S and R of different sizes, so their super-pages differ in length."""
    env = TNNEnvironment.build(
        sized_uniform(1500, seed=11),
        sized_uniform(400, seed=12),
        params=SystemParameters(page_capacity=page_capacity),
        loss=loss,
    )
    assert env.s_program.super_page_length != env.r_program.super_page_length
    return env


def _pass_requests(env, seed=23):
    """Range requests on both channels: radius zero (on a data point and
    off it), circles that miss the root, circles that cover the region and
    random radii, each at a random phase."""
    rng = random.Random(seed)
    out = []
    for channel, points, program in (
        ("s", env.s_points, env.s_program),
        ("r", env.r_points, env.r_program),
    ):
        xs = [p.x for p in points]
        ys = [p.y for p in points]
        far = Point(max(xs) + 1e3, min(ys) - 1e3)
        circles = [(rng.choice(points), 0.0),
                   (env.random_query_point(rng), 0.0),
                   (far, 10.0),
                   (Point(min(xs) - 1.0, max(ys) + 1.0), 1e7)]
        circles += [(env.random_query_point(rng), rng.uniform(20.0, 400.0))
                    for _ in range(40)]
        for center, radius in circles:
            phase = rng.uniform(0, program.cycle_length)
            out.append(RangeRequest(center, radius, phase, channel))
    return out


def _spy_drained(monkeypatch):
    """Every search that drains in the batch run, once per walk."""
    drained = []
    drain = arrival_queue.drain

    def drain_spy(s, *args):
        if _serving:
            drained.append(s)
        return drain(s, *args)

    monkeypatch.setattr(arrival_queue, "drain", drain_spy)
    return drained


def _spy_jumps(monkeypatch, classes=(BroadcastRangeSearch,)):
    """Record the per-query steps (of searches of ``classes``) whose
    download leaves the cursor anywhere but on the next page slot.

    Returns ``(search, page)`` rows.  Only the per-query ``step`` is
    spied, so the rows describe the reference path whatever the batch
    does.
    """
    rows = []

    def spy(step):
        def step_spy(self):
            before = self.tuner.now
            n = self.tuner.index_pages
            step(self)
            if self.tuner.index_pages == n:
                return
            page = self.tuner.log[-1][1]
            base = math.ceil(before - self._phase)
            slot = base + (page - base) % self._cycle
            if math.ceil(self.tuner.now - self._phase) != slot + 1:
                rows.append((self, page))

        return step_spy

    for cls in classes:
        monkeypatch.setattr(cls, "step", spy(cls.step))
    return rows


@pytest.mark.parametrize("page_capacity", [64, 512])
def test_range_pass_bit_identical_to_single_query(page_capacity, monkeypatch):
    """run_many drains each lossless range search in one walk,
    bit-identical to ``QueryEngine.range``: answers and their order,
    access times, tune-in, max queue sizes and full reception logs, with
    S and R super-pages of different lengths in one batch.  No download
    of the stepped reference leaves the cursor past the next slot, and no
    search steps."""
    env = _two_cycle_env(page_capacity)
    requests = _pass_requests(env)
    drained = _spy_drained(monkeypatch)
    jumps = _spy_jumps(monkeypatch)
    got, records, stepped = _drain_vs_single(env, requests, monkeypatch)
    assert len({id(s) for s in drained}) == len(drained) == len(requests)
    assert stepped == []
    assert sum(a.tune_in for a in got) > 0
    assert any(not a.answers and a.tune_in == 0 for a in got)  # misses root
    assert max(len(a.answers) for a in got) == len(env.s_points)
    assert jumps == []


@pytest.mark.parametrize("algo_cls", [DoubleNN, HybridNN])
def test_tnn_filter_pass_bit_identical_to_per_query(algo_cls, monkeypatch):
    """execute_tnn_batch drains each filter search in one walk, and every
    one ends in the state of its per-query twin, stepped by ``run_all``:
    tuner log, clock, tune-in, max queue size and results in discovery
    order."""
    env = _two_cycle_env(64)
    queries = _random_queries(env, 80, seed=5)
    built = []
    init = BroadcastRangeSearch.__init__

    def init_spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(BroadcastRangeSearch, "__init__", init_spy)
    drained = _spy_drained(monkeypatch)
    jumps = _spy_jumps(monkeypatch)

    def states():
        out = {
            (id(s.tree), s.circle): (
                list(s.tuner.log),
                s.tuner.now,
                s.tuner.pages_downloaded,
                s.max_queue_size,
                list(s.results),
            )
            for s in built
        }
        assert len(out) == len(built) == 2 * len(queries)
        del built[:]
        return out

    algo = algo_cls()
    want = _stepped_per_query(env, algo, queries)
    want_states = states()
    with _batch_run():
        got = execute_tnn_batch(env, algo, queries, record_log=True)
    assert got == want
    assert states() == want_states
    ranges = [s for s in drained if type(s) is BroadcastRangeSearch]
    assert len({id(s) for s in ranges}) == len(ranges) == 2 * len(queries)
    assert jumps == []


@pytest.mark.parametrize("mixed", [False, True])
def test_range_pass_serves_shared_tuner_searches_in_group_order(
    mixed, monkeypatch
):
    """Searches on one tuner run one after the other in group order, each
    starting from the clock the previous one left, exactly like running
    them in sequence: ``SearchGroup.run`` drains each member once, in
    group order, whether the group holds range searches only or mixed
    kinds."""
    env = _two_cycle_env(64)
    engine = QueryEngine(env)

    def searches():
        tuner = engine._tuner("s", 17.3)
        out = [
            BroadcastRangeSearch(env.s_tree, tuner, Circle(c, r))
            for c, r in ((Point(300.0, 300.0), 150.0),
                         (Point(700.0, 200.0), 90.0),
                         (Point(250.0, 800.0), 120.0))
        ]
        if mixed:
            out.insert(1, BroadcastKNNSearch(
                env.s_tree, tuner, Point(500.0, 500.0), 6
            ))
        return out

    want = searches()
    for s in want:
        _step_to_end(s)
    drained = _spy_drained(monkeypatch)
    got = searches()
    with _batch_run():
        SearchGroup(list(got)).run()
    assert drained == got
    assert [engine._finish(s) for s in got] == [
        engine._finish(s) for s in want
    ]
    assert got[0].tuner.log == want[0].tuner.log


def _paired_searches(env, kind, n=30, seed=41):
    """``n`` pairs of kNN or window searches, one per channel, each on its
    own tuner.  The phases lie near 512, where an unsnapped float clock
    rounds past the next slot after many downloads."""
    engine = QueryEngine(env)
    rng = random.Random(seed)
    pairs = []
    for _ in range(n):
        pair = []
        for channel, tree in (("s", env.s_tree), ("r", env.r_tree)):
            tuner = engine._tuner(channel, rng.uniform(400.0, 520.0))
            q = env.random_query_point(rng)
            if kind == "knn":
                pair.append(
                    BroadcastKNNSearch(tree, tuner, q, rng.randint(1, 12))
                )
            else:
                w, h = rng.uniform(50.0, 1500.0), rng.uniform(50.0, 1500.0)
                pair.append(BroadcastWindowSearch(
                    tree, tuner, Rect(q.x - w, q.y - h, q.x + w, q.y + h)
                ))
        pairs.append(pair)
    return pairs


@pytest.mark.parametrize("kind", ["knn", "window"])
def test_paired_drain_groups_match_run_all(kind, monkeypatch):
    """Coupled kNN and window pairs through ``SearchGroup.run`` match ``run_all``
    on the same pair: answers (window results in discovery order), clock,
    tune-in, max queue size and the tuner log event by event.  The pair
    runs in alternating bounded drains, each member up to its sibling's
    next event, so later runs resume from a part-walked stack, never
    with queued pages on both sides of the cursor."""
    env = TNNEnvironment.build(
        sized_uniform(2000, seed=13),
        sized_uniform(2000, seed=14),
        params=SystemParameters(page_capacity=64),
    )
    engine = QueryEngine(env)
    starts = []
    drain = arrival_queue.drain

    def drain_spy(s, *args):
        if _serving:
            cursor = math.ceil(s.tuner.now - s._phase) % s._cycle
            stack = s._stack
            starts.append((
                s.tuner.index_pages > 0,
                bool(stack) and stack[-1][1] < cursor <= stack[0][1],
            ))
        return drain(s, *args)

    monkeypatch.setattr(arrival_queue, "drain", drain_spy)
    want = _paired_searches(env, kind)
    for pair in want:
        run_all(pair)
    got = _paired_searches(env, kind)
    with _batch_run():
        for pair in got:
            SearchGroup(pair, coupled=True).run()

    def state(s):
        return engine._finish(s), s.tuner.log

    assert [state(s) for pair in got for s in pair] == [
        state(s) for pair in want for s in pair
    ]
    assert any(stepped for stepped, _ in starts)
    assert not any(straddles for _, straddles in starts)


def test_lossy_range_searches_keep_the_drain(monkeypatch):
    """Faulty range searches still drain, one serve each, and still match
    the stepped per-query path; TNN filter searches included, next to the
    lossy estimate searches, which drain too."""
    env = _two_cycle_env(64, loss=PageLossModel(rate=0.2, seed=9))
    drained = _spy_drained(monkeypatch)
    queries = _random_queries(env, 12, seed=6)
    algo = DoubleNN()
    want = _stepped_per_query(env, algo, queries)
    with _batch_run():
        assert execute_tnn_batch(env, algo, queries) == want
    ranges = [s for s in drained if type(s) is BroadcastRangeSearch]
    assert len(ranges) == 2 * len(queries)
    assert len(drained) == 4 * len(queries)
    assert all(
        type(s) in (BroadcastRangeSearch, BroadcastNNSearch) for s in drained
    )
    del drained[:]
    requests = _pass_requests(env)[::6]
    _drain_vs_single(env, requests, monkeypatch)
    assert len({id(s) for s in drained}) == len(drained) == len(requests)


# ----------------------------------------------------------------------
# Multi-query kernels: every lane bit-identical to the single-query form
# ----------------------------------------------------------------------
def test_multi_query_kernels_bit_identical_to_single_query():
    import numpy as np

    rng = random.Random(42)
    k, n = 23, 5
    Q, P, E, MB, PTS = [], [], [], [], []
    for _ in range(k):
        Q.append((rng.uniform(-10, 10), rng.uniform(-10, 10)))
        P.append((rng.uniform(-10, 10), rng.uniform(-10, 10)))
        E.append((rng.uniform(-10, 10), rng.uniform(-10, 10)))
        rects = []
        for _ in range(n):
            x1, x2 = sorted((rng.uniform(-10, 10), rng.uniform(-10, 10)))
            y1, y2 = sorted((rng.uniform(-10, 10), rng.uniform(-10, 10)))
            if rng.random() < 0.2:
                x2 = x1  # degenerate side
            rects.append((x1, y1, x2, y2))
        MB.append(rects)
        PTS.append(
            [(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(n)]
        )
    # Exact-touch configurations (corner query, coincident pair).
    Q[0] = (MB[0][0][0], MB[0][0][1])
    P[1] = E[1]
    Qa, Pa, Ea = np.array(Q), np.array(P), np.array(E)
    Ma, Pt = np.array(MB), np.array(PTS)

    lo_m, gu_m = kernels.point_bounds_multi(Qa, Ma)
    md_m = kernels.mindist_multi(Qa, Ma)
    md1_m = kernels.mindist_multi(Qa, Ma[:, 0, :])
    tl_m, tu_m = kernels.trans_bounds_multi(Pa, Ma, Ea)
    pd_m = kernels.point_dists_multi(Qa, Pt)
    td_m = kernels.trans_dists_multi(Pa, Pt, Ea)
    deflate = 1.0 - 1e-9
    wp_m, ep_m = kernels.point_weak_bounds_multi(Qa, Ma, deflate)
    wt_m, et_m, _ = kernels.trans_weak_bounds_multi(Pa, Ma, Ea, deflate)
    pr_m = kernels.point_dists_raw(Qa, Pt)
    tr_m = kernels.trans_dists_raw(Pa, Pt, Ea)

    for i in range(k):
        q, p, e = Point(*Q[i]), Point(*P[i]), Point(*E[i])
        lo, gu = kernels.point_bounds(q, Ma[i])
        assert (lo == lo_m[i]).all() and (gu == gu_m[i]).all()
        assert (kernels.mindist(q, Ma[i]) == md_m[i]).all()
        assert md1_m[i] == kernels.mindist(q, Ma[i, 0:1])[0]
        tl, tu = kernels.trans_bounds(p, Ma[i], e)
        assert (tl == tl_m[i]).all() and (tu == tu_m[i]).all()
        assert (kernels.point_dists(q, Pt[i]) == pd_m[i]).all()
        assert (kernels.trans_dists(p, Pt[i], e) == td_m[i]).all()
        # Certified estimate lanes: deflated weak rows strictly
        # under-estimate the exact bounds; raw estimates sit within a
        # few ulp of the exact values (gate-only, never stored).
        assert (wp_m[i] <= kernels.mindist(q, Ma[i])).all()
        assert (wt_m[i] <= tl).all()
        assert (ep_m[i] <= gu * (1 + 1e-12)).all()
        assert (ep_m[i] >= gu * (1 - 1e-12)).all()
        assert (et_m[i] <= tu * (1 + 1e-12)).all()
        assert (et_m[i] >= tu * (1 - 1e-12)).all()
        assert (abs(pr_m[i] - pd_m[i]) <= 1e-12 * (1 + pd_m[i])).all()
        assert (abs(tr_m[i] - td_m[i]) <= 1e-12 * (1 + td_m[i])).all()


# ----------------------------------------------------------------------
# SearchGroup scheduling semantics
# ----------------------------------------------------------------------
class _ScriptedSearch(ArrivalQueueMixin):
    """A search type the batch code does not know: scripted event times on
    no stack, so ``run_to_completion`` steps it."""

    _stack = None

    def __init__(self, times):
        self.times = list(times)
        self.steps = 0

    def finished(self):
        return not self.times

    def next_event_time(self):
        return self.times[0] if self.times else math.inf

    def step(self):
        self.times.pop(0)
        self.steps += 1

    def run_to_completion(self):
        self._run_until()


def test_executor_drives_unknown_steppables_generically():
    s = _ScriptedSearch([1.0, 2.0, 3.0])
    SearchGroup([s]).run()
    assert s.steps == 3 and s.finished()


@pytest.mark.parametrize("coupled", [False, True])
def test_search_group_skips_born_finished_members(coupled):
    """A member finished before the group runs never steps and never sees
    ``on_finish``; every other member finishes once, and is told so."""
    done, live = _ScriptedSearch([]), _ScriptedSearch([1.0, 2.0])
    finished = []
    SearchGroup([done, live], coupled, finished.append).run()
    assert finished == [live]
    assert done.steps == 0 and live.steps == 2


# ----------------------------------------------------------------------
# The supervised pool runs every algorithm
# ----------------------------------------------------------------------
def test_batch_runner_pool_still_bit_identical(env64):
    """Window-Based TNN shards through the same pool."""
    workload = QueryWorkload(9, seed=12)
    runner = SharedScanRunner(env64, workload)
    algo = WindowBasedTNN()
    serial = runner.run_algorithm(algo, workers=0)
    assert serial == _per_query(env64, algo, workload.queries(env64))
    assert runner.run_algorithm(algo, workers=2) == serial


# ----------------------------------------------------------------------
# The arrival queue: next event time vs the page a pop serves
# ----------------------------------------------------------------------
def test_peek_arrival_matches_next_pop(env64):
    """The next event time is exactly the arrival of the page the next
    pop downloads, and no queued page arrives earlier: on the walk's
    stack before the first step and on the heap after it."""
    from repro.broadcast import BroadcastChannel, ChannelTuner

    tuner = ChannelTuner(BroadcastChannel(env64.s_program, phase=7.0))
    tuner.advance_to(123.0)
    search = BroadcastRangeSearch(env64.s_tree, tuner,
                                  Circle(Point(0.0, 0.0), 1e9))
    assert search._drains()
    while not search.finished():
        arrival = search.next_event_time()
        assert all(
            tuner.peek_index_arrival(n.page_id) >= arrival
            for n in search._queued_nodes()
        )
        search.step()  # the covering circle downloads every page
        assert tuner.log[-1][2] == arrival
    assert not search._drains()
    assert tuner.index_pages == len(list(env64.s_tree.iter_nodes()))
    assert search.next_event_time() == math.inf


# ----------------------------------------------------------------------
# Lossy TNN campaigns vs the stepped per-query lifecycle
# ----------------------------------------------------------------------
@pytest.mark.parametrize("loss_kwargs", [
    {"name": "iid", "rate": 0.25, "seed": 11},
    {"name": "ge", "bad_rate": 0.6, "p_good_bad": 0.1, "seed": 5},
])
@pytest.mark.parametrize("algo_cls", [DoubleNN, HybridNN])
def test_store_oracle_identity_under_loss(algo_cls, loss_kwargs):
    """Lossy channels: retry chains book bit-identically on both paths.

    Lossy groups drain through ``SearchGroup.run``,
    the code ``algo.run`` runs, so the reference is the stepped
    lifecycle: the drains' closed-form retry chains must match the
    tuner's scalar retry loop, which the loss-model determinism ties to
    the same retry sequence.
    """
    from repro.broadcast import make_fault_model

    kwargs = dict(loss_kwargs)
    loss = make_fault_model(kwargs.pop("name"), **kwargs)
    env = TNNEnvironment.build(
        sized_uniform(1500, seed=21),
        sized_uniform(1500, seed=22),
        params=SystemParameters(page_capacity=64),
        loss=loss,
    )
    queries = _random_queries(env, 30, seed=23)
    algo = algo_cls()
    store = execute_tnn_batch(env, algo, queries)
    assert store == _stepped_per_query(env, algo, queries)
