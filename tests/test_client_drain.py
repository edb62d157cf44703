"""The drain walk against the explicit ``step()`` loop.

``run_to_completion`` on a frontier-backed search runs one preorder stack
walk (:func:`repro.client.drain.drain`) instead of one ``step()`` per
queued node; so do the shared-scan executor's drain serves.  The step
loop stays the reference.  These tests run both routes on identical
searches — NN in point mode, kNN, range and window — over every layout
with cyclic page order, lossless and under each fault family, at
whole-slot phases and at phases where the float clock rounds past the
next slot, from a fresh start and part-stepped, and compare answers,
clock, index / lost / corrupt pages, ``max_queue_size`` and the tuner
log event by event.  ``algorithm.run``, which drains unpaired stages,
is checked against its stages stepped by ``run_all``.
"""

import math
import random

import pytest

from repro.broadcast import (
    BroadcastChannel,
    BroadcastProgram,
    ChannelTuner,
    SystemParameters,
    available_layouts,
    make_fault_model,
    make_layout,
)
from repro.client import (
    AnnPolicy,
    BroadcastKNNSearch,
    BroadcastNNSearch,
    BroadcastRangeSearch,
    BroadcastWindowSearch,
    run_all,
)
from repro.core import (
    ApproximateTNN,
    DoubleNN,
    HybridNN,
    TNNEnvironment,
    WindowBasedTNN,
)
from repro.datasets import sized_uniform
from repro.geometry import Circle, Point, Rect, kernels
from repro.rtree import str_pack
from repro.rtree.node import RTreeNode

_CYCLIC = [n for n in available_layouts() if make_layout(n).has_cyclic_order]

#: Fault family -> registry constructor arguments (None: lossless).
_FAULTS = {
    "lossless": None,
    "iid": ("iid", {"rate": 0.25, "seed": 3}),
    "gilbert-elliott": (
        "gilbert-elliott",
        {"bad_rate": 0.6, "p_good_bad": 0.1, "p_bad_good": 0.3, "seed": 5},
    ),
    "corruption": ("corruption", {"rate": 0.25, "seed": 7}),
}

#: Whole-slot phases, and phases at which many index downloads round the
#: float clock past the next slot.
_PHASES = (0.0, 211.0, 127.3, 63.9, 509.7)

_CLASSES = (
    BroadcastNNSearch, BroadcastKNNSearch, BroadcastRangeSearch,
    BroadcastWindowSearch,
)


#: Lattice spacing: lattice points tie exactly in distance from a cell
#: centre, and lattice MBR corners are data points.
_STEP = 1500.0


def _env(layout, fault, page_capacity):
    spec = _FAULTS[fault]
    loss = None if spec is None else make_fault_model(spec[0], **spec[1])
    lattice = [Point(_STEP * i, _STEP * j) for i in range(1, 25)
               for j in range(1, 25)]
    return TNNEnvironment.build(
        lattice + sized_uniform(150, seed=31),
        sized_uniform(200, seed=32),
        params=SystemParameters(page_capacity=page_capacity),
        layout=make_layout(layout),
        loss=loss,
    )


def _builders(env, seed=17):
    """Search constructors over the s channel, each taking a tuner."""
    rng = random.Random(seed)
    tree = env.s_tree
    out = []
    for _ in range(2):
        q = env.random_query_point(rng)
        out.append(lambda t, q=q: BroadcastNNSearch(tree, t, q))
        out.append(
            lambda t, q=q, k=rng.randint(1, 9): BroadcastKNNSearch(
                tree, t, q, k
            )
        )
        out.append(
            lambda t, c=Circle(q, rng.uniform(20.0, 400.0)):
            BroadcastRangeSearch(tree, t, c)
        )
        w, h = rng.uniform(20.0, 500.0), rng.uniform(20.0, 500.0)
        out.append(
            lambda t, r=Rect(q.x - w, q.y - h, q.x + w, q.y + h):
            BroadcastWindowSearch(tree, t, r)
        )
    # Lattice cell centres: four data points tie at the nearest distance.
    for c in (Point(4.5 * _STEP, 7.5 * _STEP), Point(9.5 * _STEP, 2.5 * _STEP)):
        out.append(lambda t, c=c: BroadcastNNSearch(tree, t, c))
        out.append(lambda t, c=c: BroadcastKNNSearch(tree, t, c, 3))
    # A Window-Based second search: it starts when the first one ends,
    # between two slots.
    q = env.random_query_point(rng)
    out.append(
        lambda t, q=q: BroadcastNNSearch(
            tree, t, q, start_time=t.now + 311.6
        )
    )
    # A point off the data region.
    out.append(lambda t: BroadcastNNSearch(tree, t, Point(-400.0, 5e3)))
    return out


def _step_to_end(search):
    """The reference route; returns how many of its downloads rounded the
    float clock past the next slot while the page there was queued."""
    f = search._frontier
    tuner = search.tuner
    jumps = 0
    while not search.finished():
        n = len(tuner.log)
        search.step()
        if f is None or len(tuner.log) == n:
            continue
        page = tuner.log[-1][1]
        if (math.ceil(tuner.now - f._phase) % f._cycle != page + 1
                and page + 1 in f._order_pages):
            jumps += 1
    return jumps


def _walk_to_end(search, monkeypatch):
    """The drain route: ``run_to_completion`` with ``step`` disabled."""
    def no_step(self):
        raise AssertionError("run_to_completion stepped")

    with monkeypatch.context() as m:
        for cls in _CLASSES:
            m.setattr(cls, "step", no_step)
        search.run_to_completion()


def _state(search):
    if isinstance(search, BroadcastNNSearch):
        answer = (search.best_point, search.best_dist, search.upper_bound,
                  search._witness_page)
    elif isinstance(search, BroadcastKNNSearch):
        answer = search.results()
    else:
        answer = list(search.results)
    tuner = search.tuner
    return (answer, tuner.now, tuner.index_pages, tuner.lost_pages,
            tuner.corrupt_pages, search.max_queue_size, list(tuner.log))


def _straddles(search):
    """Queued pages lie on both sides of the search's cursor."""
    f = search._frontier
    pages = f._order_pages
    cursor = math.ceil(search.tuner.now - f._phase) % f._cycle
    return bool(pages) and pages[0] < cursor <= pages[-1]


@pytest.mark.parametrize("page_capacity", [64, 512])
@pytest.mark.parametrize("fault", sorted(_FAULTS))
@pytest.mark.parametrize("layout", _CYCLIC)
def test_run_to_completion_matches_step_loop(layout, fault, page_capacity,
                                             monkeypatch):
    """NN, kNN, range and window searches, fresh and part-stepped: the
    drain reproduces the step loop's answers, clock, page counters, queue
    peak and tuner log."""
    env = _env(layout, fault, page_capacity)
    jumps = 0
    straddled = 0
    failed = 0
    cases = 0
    with kernels.use_kernels(True):
        for build in _builders(env):
            for phase in _PHASES:
                for prefix in (0, 1, 3, 9):
                    walked, stepped = (
                        build(ChannelTuner(
                            BroadcastChannel(env.s_program, phase=phase),
                            loss=env.loss,
                        ))
                        for _ in range(2)
                    )
                    assert walked._frontier is not None
                    for s in (walked, stepped):
                        for _ in range(prefix):
                            if not s.finished():
                                s.step()
                    straddled += prefix > 0 and _straddles(walked)
                    _walk_to_end(walked, monkeypatch)
                    jumps += _step_to_end(stepped)
                    assert _state(walked) == _state(stepped)
                    failed += sum(not e[3] for e in stepped.tuner.log)
                    cases += 1
    assert cases == len(_builders(env)) * len(_PHASES) * 4
    assert jumps  # a download rounds past a queued page's slot
    if page_capacity == 64:
        # Some part-stepped walk starts with queued pages on both sides of
        # its cursor (the 512-byte trees are too shallow in some cells).
        assert straddled
    # The faults engage: failed attempts are compared event by event.
    assert (failed > 0) == (fault != "lossless")


def test_nn_outside_the_walk_keeps_stepping(monkeypatch):
    """Transitive mode, pruning policies and the heap backend run the
    step loop in ``run_to_completion``."""
    env = _env("rtree", "lossless", 64)
    q = Point(400.0, 600.0)
    calls = []
    step = BroadcastNNSearch.step

    def step_spy(self):
        calls.append(self)
        step(self)

    monkeypatch.setattr(BroadcastNNSearch, "step", step_spy)
    searches = []
    with kernels.use_kernels(True):
        s = BroadcastNNSearch(env.s_tree, env.tuners()[0], q)
        s.step()
        s.switch_to_transitive(q, Point(900.0, 100.0))
        searches.append(s)
        searches.append(BroadcastNNSearch(
            env.s_tree, env.tuners()[0], q, AnnPolicy(alpha=0.5)
        ))
    with kernels.use_kernels(False):
        searches.append(BroadcastNNSearch(env.s_tree, env.tuners()[0], q))
    assert searches[2]._frontier is None
    for s in searches:
        del calls[:]
        s.run_to_completion()
        assert calls and set(map(id, calls)) == {id(s)}
        assert s.finished()


# ----------------------------------------------------------------------
# Empty internal nodes: the witness hand-off and the void-witness rescan
# ----------------------------------------------------------------------
def _empty_node_setup(q, n, seed, deep=False):
    """An STR tree over ``n`` random points plus a childless internal node
    whose MBR hugs ``q``: the root's last child, or (``deep``) the first
    child of the first level-2 node in page order, with ``q`` at the
    centre of that node's last child."""
    rng = random.Random(seed)
    pts = [Point(rng.random() * 1000, rng.random() * 1000) for _ in range(n)]
    params = SystemParameters(page_capacity=64)
    tree = str_pack(pts, params.leaf_capacity, params.internal_fanout)
    parent = tree.root
    if deep:
        while parent.level > 2:
            parent = parent.children[0]
        xmin, ymin, xmax, ymax = parent.children[-1].mbr
        q = Point((xmin + xmax) / 2.0, (ymin + ymax) / 2.0)
    empty = RTreeNode(mbr=Rect(q.x - 1, q.y - 1, q.x + 1, q.y + 1),
                      level=parent.level - 1)
    if deep:
        parent.children.insert(0, empty)
    else:
        parent.children.append(empty)
    program = BroadcastProgram(tree, params, m=2)
    tuner = ChannelTuner(BroadcastChannel(program, phase=0.0))
    return BroadcastNNSearch(tree, tuner, q), empty


def _rescans(search, monkeypatch):
    """Count ``search``'s ``_rescan_queue_bounds`` calls."""
    calls = []
    rescan = search._rescan_queue_bounds

    def spy():
        calls.append(1)
        rescan()

    monkeypatch.setattr(search, "_rescan_queue_bounds", spy)
    return calls


@pytest.mark.parametrize(
    "case", ["childless", "forced-witness", "poisoned", "void-witness"]
)
def test_empty_internal_nodes_walk_like_steps(case, monkeypatch):
    """The empty-internal-node cases of the NN search, on both routes
    from identical state: a childless node hugging the query, a forced
    void witness absorbed directly, a far query that a void guarantee
    would poison, and a void witness the walk itself downloads, which
    rebuilds the bound from the best point and the queue in ascending
    page order."""
    def setup():
        if case == "childless":
            return _empty_node_setup(Point(321, 654), 300, 3)
        if case == "forced-witness":
            s, empty = _empty_node_setup(Point(500, 500), 300, 5)
            s._witness_page = empty.page_id
            s._absorb_internal(empty)
            return s, empty
        if case == "poisoned":
            return _empty_node_setup(Point(5000, 5000), 600, 42)
        s, empty = _empty_node_setup(None, 300, 4, deep=True)
        f = s._frontier
        while f._order_pages[f._head_index()] != empty.page_id:
            s.step()
        s._witness_page = empty.page_id
        s.upper_bound = math.inf  # as if its guarantee had been void
        return s, empty

    with kernels.use_kernels(True):
        (walked, empty), (stepped, _) = setup(), setup()
        rescans = _rescans(stepped, monkeypatch)
        _walk_to_end(walked, monkeypatch)
        _step_to_end(stepped)
    assert _state(walked) == _state(stepped)
    assert walked.best_point is not None
    downloaded = {e[1] for e in stepped.tuner.log}
    if case in ("childless", "void-witness"):
        assert empty.page_id in downloaded
    if case == "void-witness":
        # The rebuilt bound prunes the page after the void node, which a
        # bound left at the best point (infinity here) would download.
        assert empty.page_id + 1 not in downloaded
    assert bool(rescans) == (case == "void-witness")


# ----------------------------------------------------------------------
# algorithm.run: unpaired stages drain, paired ones ping-pong
# ----------------------------------------------------------------------
def _stepped_run(algo, env, q, ps, pr):
    """``algo.run`` with every stage driven by ``run_all``'s steps."""
    stages = algo._stages(env, q, *env.tuners(ps, pr))
    try:
        while True:
            group = next(stages)
            run_all(group.searches, on_finish=group.on_finish)
    except StopIteration as done:
        return done.value


@pytest.mark.parametrize("fault", sorted(_FAULTS))
@pytest.mark.parametrize(
    "algo_cls", [DoubleNN, HybridNN, WindowBasedTNN, ApproximateTNN]
)
def test_algorithm_run_matches_stepped_stages(algo_cls, fault):
    """Each query's result (answer pair, distance, radius, access time,
    tune-in per channel and per phase) matches its stages stepped by
    ``run_all``, whole-slot and rounding phases alike."""
    env = _env("rtree", fault, 64)
    rng = random.Random(11)
    algo = algo_cls()
    with kernels.use_kernels(True):
        for i in range(12):
            q = env.random_query_point(rng)
            ps, pr = env.random_phases(rng)
            if i % 3 == 0:
                ps, pr = _PHASES[(i // 3) % len(_PHASES)], 127.3
            assert algo.run(env, q, ps, pr) == _stepped_run(
                algo, env, q, ps, pr
            )
