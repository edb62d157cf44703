"""The drain walk against the explicit ``step()`` loop on the heap.

``run_to_completion`` on a search that has not stepped runs one preorder
stack walk (:func:`repro.client.drain.drain`) over the search's own stack
of node records instead of one ``step()`` per queued node; batches run
the same walk.  Steps run on the arrival heap, the
reference: a search's first step moves its stack there for good.  These
tests run both routes on identical searches — NN in point mode and
switched to the transitive metric (Hybrid-NN's Case 3), under the exact
and the ANN pruning policies, kNN, range and window — over every layout
with cyclic page order, lossless and under each fault family, at
whole-slot and fractional phases, from a fresh start and after a prefix
of one-pop bounded walks, and compare answers, clock, index / lost /
corrupt pages, ``max_queue_size`` and the tuner log event by event.  At
every phase the channel's exact clock puts the cursor on slot ``x + 1``
after each download at slot ``x``, and no walk starts with queued pages
on both sides of its cursor.  A bounded walk (``drain(s, limit,
strict)``, each run of a coupled group's member) is checked against the
step loop with the same stopping rule, then both routes run on to the
end.  ``algorithm.run``, which drains independent stages and runs a
coupled one in bounded runs, is checked against its stages stepped by
``run_all``, and the coupled driver's schedule, for two to four members,
against ``run_all``'s on scripted arrival times.
"""

import functools
import math
import pickle
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
    SearchGroup,
    dynamic_alpha,
    run_all,
)
from repro.client.arrival_queue import ArrivalQueueMixin
from repro.client.drain import drain, walk_table
from repro.core import (
    AnnOptimization,
    ApproximateTNN,
    DoubleNN,
    HybridNN,
    TNNEnvironment,
    WindowBasedTNN,
)
from repro.datasets import sized_uniform
from repro.geometry import Circle, Point, Rect
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

#: Whole-slot phases, and fractional ones at which an unsnapped float
#: clock rounds past the next slot after many index downloads.
_PHASES = (0.0, 211.0, 127.3, 63.9, 509.7)

_CLASSES = (
    BroadcastNNSearch, BroadcastKNNSearch, BroadcastRangeSearch,
    BroadcastWindowSearch,
)


#: Lattice spacing: lattice points tie exactly in distance from a cell
#: centre, and lattice MBR corners are data points.
_STEP = 1500.0

#: The ANN pruning policies of the walk-vs-step cells.
_ANN_POLICIES = (AnnPolicy(dynamic_alpha(1.0)), AnnPolicy(0.4))


@functools.lru_cache(maxsize=None)
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
    # Closed containment: lattice points on the circle and the
    # rectangle's edges belong to the answer.
    out.append(lambda t: BroadcastRangeSearch(
        tree, t, Circle(Point(6 * _STEP, 6 * _STEP), _STEP)))
    out.append(lambda t: BroadcastWindowSearch(
        tree, t, Rect(3 * _STEP, 3 * _STEP, 5 * _STEP, 4 * _STEP)))
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
    # ANN pruning (paper Section 5): Equation 4's dynamic alpha and a
    # fixed one.
    ann_rng = random.Random(seed + 1)
    for policy in _ANN_POLICIES:
        q = env.random_query_point(ann_rng)
        out.append(
            lambda t, q=q, a=policy: BroadcastNNSearch(tree, t, q, a)
        )
    return out


def _transitive_builders(env, seed=23):
    """NN searches that switch to the transitive metric (Hybrid-NN Case
    3) once their step prefix has run: ``(build, (start, end))`` pairs,
    ``start`` the query point."""
    rng = random.Random(seed)
    tree = env.s_tree
    out = []
    for _ in range(2):
        q = env.random_query_point(rng)
        out.append((lambda t, q=q: BroadcastNNSearch(tree, t, q),
                    (q, env.random_query_point(rng))))
    # Mirror-image lattice points tie exactly in transitive distance.
    p, r = Point(4.5 * _STEP, 7.5 * _STEP), Point(4.5 * _STEP, 9.5 * _STEP)
    out.append((lambda t: BroadcastNNSearch(tree, t, p), (p, r)))
    # A round trip (end = start), and an end off the data region.
    out.append((lambda t: BroadcastNNSearch(tree, t, r), (r, r)))
    q = env.random_query_point(rng)
    out.append((lambda t, q=q: BroadcastNNSearch(tree, t, q),
                (q, Point(-400.0, 5e3))))
    # Heuristic 2's ellipse under a fixed alpha.
    q = env.random_query_point(rng)
    out.append((lambda t, q=q: BroadcastNNSearch(tree, t, q, _ANN_POLICIES[1]),
                (q, env.random_query_point(rng))))
    return out


def _cases(env):
    """Every builder with its metric switch (``None``: never switches)."""
    return [(build, None) for build in _builders(env)] + (
        _transitive_builders(env))


def _start(build, switch, tuner, prefix, walk=True):
    """Build a search, run its first ``prefix`` pops, then apply
    ``switch``.  ``walk``: each pop is a bounded walk up to the next
    arrival, which keeps the search on its stack; else one ``step()``."""
    search = build(tuner)
    for _ in range(prefix):
        if not search.finished():
            if walk:
                search._run_until(search.next_event_time())
            else:
                search.step()
    if switch is not None:
        search.switch_to_transitive(*switch)
    return search


def _skipped(search):
    """The cursor is not on the slot after the last download."""
    log = search.tuner.log
    if not log:
        return False
    cursor = math.ceil(search.tuner.now - search._phase)
    return (cursor - log[-1][1] - 1) % search._cycle != 0


def _step_to_end(search):
    """The reference route; returns how many of its downloads left the
    cursor anywhere but on the next slot."""
    tuner = search.tuner
    jumps = 0
    while not search.finished():
        n = len(tuner.log)
        search.step()
        if len(tuner.log) != n:
            jumps += _skipped(search)
    return jumps


def _no_step(self):
    raise AssertionError("the walk stepped")


def _walk_to_end(search, monkeypatch):
    """The drain route: ``run_to_completion`` with ``step`` disabled."""
    with monkeypatch.context() as m:
        for cls in _CLASSES:
            m.setattr(cls, "step", _no_step)
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
    stack = search._stack
    cursor = math.ceil(search.tuner.now - search._phase) % search._cycle
    return bool(stack) and stack[-1][1] < cursor <= stack[0][1]


@pytest.mark.parametrize("page_capacity", [64, 512])
@pytest.mark.parametrize("fault", sorted(_FAULTS))
@pytest.mark.parametrize("layout", _CYCLIC)
def test_run_to_completion_matches_step_loop(layout, fault, page_capacity,
                                             monkeypatch):
    """NN (point and transitive mode), kNN, range and window searches,
    fresh and part-walked: the drain reproduces the heap step loop's
    answers, clock, page counters, queue peak and tuner log."""
    env = _env(layout, fault, page_capacity)
    jumps = 0
    straddled = 0
    failed = 0
    cases = 0
    for build, switch in _cases(env):
        for phase in _PHASES:
            for prefix in (0, 1, 3, 9):
                walked, stepped = (
                    _start(build, switch, ChannelTuner(
                        BroadcastChannel(env.s_program, phase=phase),
                        loss=env.loss,
                    ), prefix, walk)
                    for walk in (True, False)
                )
                assert walked._drains()
                straddled += _straddles(walked)
                _walk_to_end(walked, monkeypatch)
                jumps += _step_to_end(stepped)
                assert _state(walked) == _state(stepped)
                failed += sum(not e[3] for e in stepped.tuner.log)
                cases += 1
    assert cases == len(_cases(env)) * len(_PHASES) * 4
    # The clock is exact: every download puts the cursor on the next
    # slot, so no walk starts with queued pages on both sides of it.
    assert jumps == straddled == 0
    # The faults engage: failed attempts are compared event by event.
    assert (failed > 0) == (fault != "lossless")


def test_walk_refuses_a_seed_that_straddles_the_cursor():
    """Queued pages on both sides of the cursor have no stack order: the
    walk raises instead of visiting them out of arrival order."""
    env = _env("rtree", "lossless", 64)
    tuner = ChannelTuner(BroadcastChannel(env.s_program, phase=0.0))
    search = BroadcastKNNSearch(env.s_tree, tuner, Point(9e3, 9e3), 5)
    for _ in range(3):
        search._run_until(search.next_event_time())
    stack = list(search._stack)
    tuner.now = float(stack[0][1])  # the cursor on the last queued page
    assert _straddles(search)
    with pytest.raises(RuntimeError, match="straddle"):
        drain(search)
    assert search._stack == stack


def test_nn_outside_the_walk_keeps_stepping(monkeypatch):
    """A search stepped once stays on the heap, under either policy and
    in either metric, and so does every search on a layout without
    cyclic page order: ``run_to_completion`` runs their step loop.  An
    ANN search that never stepped drains without one ``step()``."""
    env = _env("rtree", "lossless", 64)
    q = Point(400.0, 600.0)
    calls = []
    step = BroadcastNNSearch.step

    def step_spy(self):
        calls.append(self)
        step(self)

    monkeypatch.setattr(BroadcastNNSearch, "step", step_spy)
    searches = []
    for policy in (None, AnnPolicy(alpha=0.5)):
        s = BroadcastNNSearch(env.s_tree, env.tuners()[0], q, policy)
        s.step()
        s.switch_to_transitive(q, Point(900.0, 100.0))
        searches.append(s)
    heap_env = _env("rtree-distributed", "lossless", 64)
    searches.append(
        BroadcastNNSearch(heap_env.s_tree, heap_env.tuners()[0], q)
    )
    for s in searches:
        assert not s._drains()
        del calls[:]
        s.run_to_completion()
        assert calls and set(map(id, calls)) == {id(s)}
        assert s.finished() and not s._drains()
    ann = BroadcastNNSearch(env.s_tree, env.tuners()[0], q,
                            AnnPolicy(alpha=0.5))
    assert ann._drains()
    del calls[:]
    ann.run_to_completion()
    assert calls == [] and ann.finished() and ann._drains()


@pytest.mark.parametrize("fault", ["lossless", "iid"])
def test_unlogged_walk_books_like_logged_walk(fault, monkeypatch):
    """A walk on a tuner that keeps no log books the same clock, index
    pages and queue peak as on a logging one."""
    env = _env("rtree", fault, 64)
    for build, switch in _cases(env):
        for phase in (0.0, 127.3):
            logged, unlogged = (
                _start(build, switch, ChannelTuner(
                    BroadcastChannel(env.s_program, phase=phase),
                    loss=env.loss, record_log=record_log,
                ), 3)
                for record_log in (True, False)
            )
            _walk_to_end(logged, monkeypatch)
            _walk_to_end(unlogged, monkeypatch)
            assert _state(unlogged)[:6] == _state(logged)[:6]
            assert unlogged.tuner.log == [] != logged.tuner.log


# ----------------------------------------------------------------------
# The bounded walk: a run up to a limit, then on to the end
# ----------------------------------------------------------------------
def _step_until(search, limit, strict):
    """The reference bounded run: step while the next arrival is within
    ``limit`` (``<=``, or ``<`` when ``strict``)."""
    while not search.finished():
        t = search.next_event_time()
        if t > limit or (strict and t == limit):
            return
        search.step()


def _limits(search):
    """Stopping rules for ``search`` from the arrivals of the pops its
    step loop makes, ascending: a limit before the clock, limits at a
    queued arrival (strict and not) and between two arrivals; then, with
    the queue part drained, the first arrival again (already passed)."""
    start = search.tuner.now
    arrs = []
    while not search.finished():
        arrs.append(search.next_event_time())
        search.step()
    out = [(start - 1.0, False), (arrs[0], True)]
    for j in (len(arrs) // 3, (2 * len(arrs)) // 3):
        out += [(arrs[j], True), (arrs[j], False)]
        if j + 1 < len(arrs):
            out.append(((arrs[j] + arrs[j + 1]) / 2.0, False))
    # A strict stop at a time comes before the non-strict one.
    return sorted(out, key=lambda rule: (rule[0], not rule[1])) + [
        (arrs[0], False)
    ]


def _queue(search):
    """The queued pages, ascending, and the next arrival: read from the
    walk's stack or from the heap alike."""
    return ([n.page_id for n in search._queued_nodes()],
            search.next_event_time())


@pytest.mark.parametrize("page_capacity", [64, 512])
@pytest.mark.parametrize("fault", sorted(_FAULTS))
@pytest.mark.parametrize("layout", _CYCLIC)
def test_bounded_drain_matches_bounded_steps(layout, fault, page_capacity,
                                             monkeypatch):
    """A walk stopped at a limit leaves the step loop's exact state
    (answers, clock, page counters, tuner log, queue peak, queued pages
    and next arrival); the next bounded walk, and then a walk or a
    ``step()`` loop to the end, resume it."""
    env = _env(layout, fault, page_capacity)
    skipped_stops = 0
    no_pop = 0
    stops = 0
    for b, (build, switch) in enumerate(_cases(env)):
        for p, phase in enumerate(_PHASES):
            walked, stepped, ref = (
                _start(build, switch, ChannelTuner(
                    BroadcastChannel(env.s_program, phase=phase),
                    loss=env.loss,
                ), 0 if switch is None else 3, walk)
                for walk in (True, False, False)
            )
            assert walked._drains()
            for limit, strict in _limits(ref):
                before = _state(walked)
                with monkeypatch.context() as m:
                    for cls in _CLASSES:
                        m.setattr(cls, "step", _no_step)
                    walked._run_until(limit, strict)
                _step_until(stepped, limit, strict)
                assert _state(walked) == _state(stepped)
                assert _queue(walked) == _queue(stepped)
                no_pop += _state(walked) == before
                skipped_stops += _skipped(stepped)
                stops += not stepped.finished()
            if (b + p) % 2:
                _walk_to_end(walked, monkeypatch)
            else:
                _step_to_end(walked)
            _step_to_end(stepped)
            assert _state(walked) == _state(stepped)
    assert no_pop and stops
    assert skipped_stops == 0  # no stop finds the cursor past slot x + 1


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


#: The end point a ``-transitive`` case switches to, relative to its
#: query (Hybrid-NN Case 3 from the query itself).
_TRANSITIVE_END = (3.0, -2.0)


@pytest.mark.parametrize("case", [
    "childless", "forced-witness", "poisoned", "void-witness",
    "childless-transitive", "forced-witness-transitive",
    "poisoned-transitive", "void-witness-transitive",
])
def test_empty_internal_nodes_walk_like_steps(case, monkeypatch):
    """The empty-internal-node cases of the NN search, on both routes
    from identical state: a childless node hugging the query, a forced
    void witness absorbed directly, a far query that a void guarantee
    would poison, and a void witness the walk itself downloads, which
    rebuilds the bound from the best point and the queue in ascending
    page order.  The ``-transitive`` cases switch the search to the
    transitive metric first."""
    base, transitive = case.removesuffix("-transitive"), case.endswith(
        "-transitive")

    def switched(s):
        if transitive:
            q = s.query
            s.switch_to_transitive(q, Point(q.x + _TRANSITIVE_END[0],
                                            q.y + _TRANSITIVE_END[1]))
        return s

    def setup():
        if base == "childless":
            s, empty = _empty_node_setup(Point(321, 654), 300, 3)
            return switched(s), empty
        if base == "forced-witness":
            s, empty = _empty_node_setup(Point(500, 500), 300, 5)
            switched(s)
            s._witness_page = empty.page_id
            s._absorb_internal(empty)
            return s, empty
        if base == "poisoned":
            s, empty = _empty_node_setup(Point(5000, 5000), 600, 42)
            return switched(s), empty
        s, empty = _empty_node_setup(None, 300, 4, deep=True)
        while s._stack[-1][1] != empty.page_id:
            s._run_until(s.next_event_time())  # one pop
        switched(s)
        s._witness_page = empty.page_id
        s.upper_bound = math.inf  # as if its guarantee had been void
        return s, empty

    (walked, empty), (stepped, _) = setup(), setup()
    rescans = _rescans(stepped, monkeypatch)
    _walk_to_end(walked, monkeypatch)
    _step_to_end(stepped)
    assert _state(walked) == _state(stepped)
    assert walked.best_point is not None
    assert (walked.start is not None) == transitive
    downloaded = {e[1] for e in stepped.tuner.log}
    if base in ("childless", "void-witness"):
        assert empty.page_id in downloaded
    if base == "void-witness":
        # The rebuilt bound prunes the page after the void node, which a
        # bound left at the best point (infinity here) would download.
        assert empty.page_id + 1 not in downloaded
    assert bool(rescans) == (base == "void-witness")


# ----------------------------------------------------------------------
# algorithm.run: independent stages drain, a coupled pair runs in bounded runs
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


#: Channel phase pairs: equal phases put both channels' arrivals on one
#: grid, so a pair's next arrivals can tie; whole-slot and fractional.
_PAIR_PHASES = ((0.0, 211.0), (127.3, 127.3), (211.0, 0.0), (509.7, 509.7))


#: What :func:`_spy_pairs` counts.
_SEEN = ("retarget", "switch_to_transitive", "ties", "drains", "steps",
         "transitive_runs", "transitive_steps")


def _spy_pairs(m, seen):
    """Count Hybrid-NN's re-steers and the pair runs that start on an
    arrival tie (``ta == tb``: the first member runs to its own next
    arrival); record whether each bounded run drained; count the runs of
    searches in transitive mode (Case 3's survivor) and their steps."""
    for name in ("retarget", "switch_to_transitive"):
        def spy(self, *args, _name=name, _orig=getattr(BroadcastNNSearch,
                                                        name)):
            seen[_name] += 1
            _orig(self, *args)

        m.setattr(BroadcastNNSearch, name, spy)
    run_until = BroadcastNNSearch._run_until
    step = BroadcastNNSearch.step

    def run_until_spy(self, limit=math.inf, strict=False):
        if limit < math.inf:
            seen["drains" if self._drains() else "steps"] += 1
            seen["ties"] += not strict and self.next_event_time() == limit
        seen["transitive_runs"] += self.start is not None
        run_until(self, limit, strict)

    def step_spy(self):
        seen["transitive_steps"] += self.start is not None
        step(self)

    m.setattr(BroadcastNNSearch, "_run_until", run_until_spy)
    m.setattr(BroadcastNNSearch, "step", step_spy)


@pytest.mark.parametrize("fault", sorted(_FAULTS))
@pytest.mark.parametrize(
    "algo_cls", [DoubleNN, HybridNN, WindowBasedTNN, ApproximateTNN]
)
def test_algorithm_run_matches_stepped_stages(algo_cls, fault, monkeypatch):
    """Each query's result (answer pair, distance, radius, access time,
    tune-in per channel and per phase) matches its stages stepped by
    ``run_all``, whole-slot and fractional phases alike.  Hybrid-NN's pair
    runs on every layout with cyclic order and reaches both re-steers and
    an arrival tie between its members; the survivor of Case 3 drains in
    the transitive metric without one ``step()`` call."""
    hybrid = algo_cls is HybridNN
    algo = algo_cls()
    seen = dict.fromkeys(_SEEN, 0)
    # A faulty channel re-steers Hybrid-NN's pair in a few queries per
    # hundred, so its cells run enough queries to reach several.
    n_random = 48 if hybrid else 12
    for layout in _CYCLIC if hybrid else ["rtree"]:
        env = _env(layout, fault, 64)
        rng = random.Random(11)
        for i in range(n_random + len(_PAIR_PHASES)):
            q = env.random_query_point(rng)
            ps, pr = env.random_phases(rng)
            if i >= n_random:
                ps, pr = _PAIR_PHASES[i - n_random]
            elif i % 3 == 0:
                ps, pr = _PHASES[(i // 3) % len(_PHASES)], 127.3
            with monkeypatch.context() as m:
                _spy_pairs(m, seen)
                got = algo.run(env, q, ps, pr)
            assert got == _stepped_run(algo, env, q, ps, pr)
    if hybrid:
        assert seen["retarget"] and seen["switch_to_transitive"]
        assert seen["ties"] and seen["drains"] and not seen["steps"]
        assert seen["transitive_runs"] and not seen["transitive_steps"]
    else:
        assert seen["drains"] == seen["steps"] == 0


@pytest.mark.parametrize("case", ["heap-backend", "ann-policy"])
def test_stepping_hybrid_pairs_match_stepped_stages(case, monkeypatch):
    """A Hybrid-NN pair whose members cannot drain — heap backends on a
    layout without cyclic order, under the exact policy and under the
    ANN optimisation's — runs the bounded ``step()`` loop and matches
    ``run_all``."""
    env = _env("rtree-distributed", "lossless", 64)
    assert not env.s_program.has_cyclic_order
    if case == "heap-backend":
        algo = HybridNN()
    else:
        algo = HybridNN(AnnOptimization(factor=1 / 150, density_aware=False))
    seen = dict.fromkeys(_SEEN, 0)
    rng = random.Random(13)
    for i in range(12):
        q = env.random_query_point(rng)
        ps, pr = env.random_phases(rng)
        if i % 3 == 0:
            ps, pr = _PAIR_PHASES[(i // 3) % len(_PAIR_PHASES)]
        with monkeypatch.context() as m:
            _spy_pairs(m, seen)
            got = algo.run(env, q, ps, pr)
        assert got == _stepped_run(algo, env, q, ps, pr)
    assert seen["steps"] and not seen["drains"]
    assert seen["retarget"] and seen["switch_to_transitive"]
    assert seen["transitive_steps"]


class _FixedAlpha:
    """An ANN optimisation with one fixed alpha on both channels."""

    def __init__(self, alpha):
        self.alpha = alpha

    def policies(self, env):
        return AnnPolicy(self.alpha), AnnPolicy(self.alpha)


#: ANN configurations of the algorithm cells: Equation 4's dynamic alpha
#: and fixed alphas of 0 (no pruning) and above 0.
_ANN_CONFIGS = {
    "dynamic": lambda factor: AnnOptimization(factor=factor,
                                              density_aware=False),
    "fixed-0": lambda factor: _FixedAlpha(0.0),
    "fixed-0.4": lambda factor: _FixedAlpha(0.4),
}


def _run_stages(algo, env, q, ps, pr, stepped, monkeypatch):
    """One query's stages, each run by ``SearchGroup.run`` (no search may
    step) or, ``stepped``, by ``run_all`` on the heap.  Returns the
    result, every search's ``max_queue_size`` and both tuner logs."""
    tuners = env.tuners(ps, pr)
    stages = algo._stages(env, q, *tuners)
    queues = []
    try:
        while True:
            group = next(stages)
            if stepped:
                run_all(group.searches, on_finish=group.on_finish)
            else:
                with monkeypatch.context() as m:
                    for cls in _CLASSES:
                        m.setattr(cls, "step", _no_step)
                    group.run()
            queues += [s.max_queue_size for s in group.searches]
    except StopIteration as done:
        return done.value, queues, [list(t.log) for t in tuners]


@pytest.mark.parametrize("page_capacity", [64, 512])
@pytest.mark.parametrize("fault", sorted(_FAULTS))
def test_ann_algorithms_walk_like_heap_steps(fault, page_capacity,
                                             monkeypatch):
    """Double-NN, Window-Based and Hybrid-NN under the ANN optimisation
    (dynamic alpha, fixed alpha 0 and above 0) drain every stage without
    a step, and match their stages stepped on the heap: answers, access
    time, tune-in, every search's ``max_queue_size`` and both reception
    logs.  Alpha 0 answers like the exact algorithm; the others prune."""
    env = _env("rtree", fault, page_capacity)
    rng = random.Random(29)
    queries = [(env.random_query_point(rng), *env.random_phases(rng))
               for _ in range(10)]
    pruned = 0
    for algo_cls, factor in ((DoubleNN, 1.0), (WindowBasedTNN, 1.0),
                             (HybridNN, 1 / 150)):
        exact = algo_cls()
        for name, config in _ANN_CONFIGS.items():
            algo = algo_cls(optimization=config(factor))
            for q, ps, pr in queries:
                got = _run_stages(algo, env, q, ps, pr, False, monkeypatch)
                want = _run_stages(algo, env, q, ps, pr, True, monkeypatch)
                assert got == want
                ref = exact.run(env, q, ps, pr)
                if name == "fixed-0":
                    assert got[0] == ref
                else:
                    pruned += (got[0].tune_in_s + got[0].tune_in_r
                               < ref.tune_in_s + ref.tune_in_r)
    assert pruned


def test_ann_witness_hand_off_walks_like_steps(monkeypatch):
    """A downloaded node that witnesses the bound hands the witness to
    the child whose guarantee it inherits, which ANN pruning may then
    never drop: the walk hands it on like ``_absorb_internal``, in both
    metrics."""
    env = _env("rtree", "lossless", 64)
    handed = []
    absorb = BroadcastNNSearch._absorb_internal

    def absorb_spy(self, node):
        before = self._witness_page
        bound = self.upper_bound
        absorb(self, node)
        handed.append(before == node.page_id and self.upper_bound == bound
                      and self._witness_page not in (None, node.page_id))

    monkeypatch.setattr(BroadcastNNSearch, "_absorb_internal", absorb_spy)
    rng = random.Random(31)
    for i in range(40):
        q = env.random_query_point(rng)
        switch = (q, env.random_query_point(rng)) if i % 2 else None
        phase = rng.uniform(0, 500)
        for policy in _ANN_POLICIES:
            walked, stepped = (
                _start(lambda t: BroadcastNNSearch(env.s_tree, t, q, policy),
                       switch, ChannelTuner(BroadcastChannel(
                           env.s_program, phase=phase)), 2, walk)
                for walk in (True, False)
            )
            _walk_to_end(walked, monkeypatch)
            _step_to_end(stepped)
            assert _state(walked) == _state(stepped)
    assert any(handed)


def test_a_search_stepped_once_stays_on_the_heap(monkeypatch):
    """One ``step()`` moves a search's stack onto the heap for good:
    ``run_to_completion`` then steps it to the end, and every kind ends
    in the state of a search stepped throughout."""
    env = _env("rtree", "iid", 64)
    steps = []
    for cls in _CLASSES:
        def spy(self, _step=cls.step):
            steps.append(self)
            _step(self)

        monkeypatch.setattr(cls, "step", spy)
    for build, switch in _cases(env):
        once, ref = (
            _start(build, None, ChannelTuner(
                BroadcastChannel(env.s_program, phase=63.9), loss=env.loss,
            ), 0)
            for _ in range(2)
        )
        if once.finished():
            continue
        assert once._drains()
        once.step()
        ref.step()
        if switch is not None:
            once.switch_to_transitive(*switch)
            ref.switch_to_transitive(*switch)
        assert not once._drains() and once._stack is None
        del steps[:]
        once.run_to_completion()
        assert steps and set(map(id, steps)) == {id(once)}
        _step_to_end(ref)
        assert _state(once) == _state(ref)


class _Scripted(ArrivalQueueMixin):
    """A search whose pops arrive at scripted times; each pop is logged."""

    _stack = None  # the step branch of _run_until

    def __init__(self, name, times, log):
        self.name = name
        self.times = list(times)
        self.log = log

    def finished(self):
        return not self.times

    def next_event_time(self):
        return self.times[0] if self.times else math.inf

    def step(self):
        self.log.append((self.name, self.times.pop(0)))


def _scripted_schedule(driver, member_times):
    """The pop and finish log of scripted members under ``driver``.  Each
    finish re-steers the next unfinished member after it (cyclically): its
    next pop is dropped and the rest shift by half a slot."""
    log = []
    members = [
        _Scripted("abcd"[i], times, log) for i, times in enumerate(member_times)
    ]

    def on_finish(s):
        log.append(("finish", s.name))
        k = members.index(s)
        for other in members[k + 1:] + members[:k]:
            if not other.finished():
                other.times = [t + 0.5 for t in other.times[1:]]
                break

    driver(members, on_finish)
    return log


def _coupled(members, on_finish):
    SearchGroup(members, coupled=True, on_finish=on_finish).run()


@pytest.mark.parametrize("a_times, b_times", [
    ([1, 3, 5], [2, 5, 7]),  # a finishes at b's next arrival
    ([2, 6, 9], [1, 4, 6]),  # b finishes at a's next arrival
    ([1, 2, 8], [1, 3, 4]),  # a tie at the start
    ([1, 4, 5, 6], [2, 3, 9]),  # runs of several pops
    ([], [1, 2]),  # a member finished at construction
    ([], []),
])
def test_pair_driver_keeps_run_all_schedule(a_times, b_times):
    """A coupled pair pops and fires ``on_finish`` in ``run_all``'s
    order, ties to the first member included, when the finish re-steers
    the sibling (here: its next pop is dropped and the rest shift)."""
    expected = _scripted_schedule(run_all, [a_times, b_times])
    assert _scripted_schedule(_coupled, [a_times, b_times]) == expected


@pytest.mark.parametrize("member_times", [
    pytest.param([[1, 3, 4], [1, 3, 6]], id="2-ties-throughout"),
    pytest.param([[1, 4, 6], [1, 2, 7], [3, 5]], id="3-tie-first-middle"),
    pytest.param([[2, 6], [1, 3, 5], [3, 4, 9]], id="3-tie-middle-last"),
    pytest.param([[2, 2.5, 7], [], [1, 2, 3]], id="3-middle-born-finished"),
    pytest.param([[4, 5], [2, 4, 8], [1, 4, 6]], id="3-three-way-tie"),
    pytest.param(
        [[1, 3, 3.5, 9], [1, 2, 5], [2, 5, 6], [5, 7]], id="4-ties-each-side"
    ),
    pytest.param([[], [2, 4], [2, 3], [1, 6, 7]], id="4-first-born-finished"),
    pytest.param([[1, 2], [3], [], [1, 2, 3, 4]], id="4-early-finishes"),
    pytest.param([[], [], [], []], id="4-all-born-finished"),
])
def test_coupled_driver_keeps_run_all_schedule(member_times):
    """A coupled group of two to four members pops and fires
    ``on_finish`` in ``run_all``'s order: ties go to the lowest index,
    between the first and a middle member and between a middle and the
    last; a member finished at construction never sees ``on_finish``, nor
    does one a re-steer empties; each finish re-steers a sibling."""
    expected = _scripted_schedule(run_all, member_times)
    assert _scripted_schedule(_coupled, member_times) == expected
    born_finished = {"abcd"[i] for i, t in enumerate(member_times) if not t}
    finished = [name for kind, name in expected if kind == "finish"]
    assert len(set(finished)) == len(finished)
    assert not born_finished & set(finished)


# ----------------------------------------------------------------------
# The walk's record table: its layout and its cache contract
# ----------------------------------------------------------------------
def _table_env(layout):
    """A private environment: these tests renumber and pickle trees."""
    return TNNEnvironment.build(
        sized_uniform(400, seed=41),
        sized_uniform(100, seed=42),
        params=SystemParameters(page_capacity=64),
        layout=make_layout(layout),
    )


def _check_layout(tree, table):
    nodes = list(tree.iter_nodes())
    assert len(table) == len(nodes)
    for i, (rec, node) in enumerate(zip(table, nodes)):
        mbr, page, kids, backed, points, rec_node, count = rec
        assert page == i == node.page_id
        assert rec_node is node and mbr is node.mbr
        assert count == node.point_count
        if node.level:
            assert points is None
            assert [id(r) for r in kids] == [
                id(table[c.page_id]) for c in reversed(node.children)
            ]
            assert [id(r) for r in backed] == [
                id(table[c.page_id]) for c in node.children
                if c.point_count > 0
            ]
        else:
            assert kids is None and backed is None
            assert points is node.points  # the leaf's own list


def _walks_like_steps(env, monkeypatch):
    for build, switch in _cases(env):
        for phase in _PHASES:
            walked, stepped = (
                _start(build, switch, ChannelTuner(
                    BroadcastChannel(env.s_program, phase=phase)
                ), 1)
                for _ in range(2)
            )
            _walk_to_end(walked, monkeypatch)
            _step_to_end(stepped)
            assert _state(walked) == _state(stepped)


@pytest.mark.parametrize("layout", _CYCLIC)
def test_walk_table_records_follow_the_tree(layout):
    """Record ``i`` is page ``i``: its node's own MBR, its children's
    records reversed for the stack push and the point-holding ones in
    page order, a leaf's own point list and the subtree's point count.
    The table is built once and cached on the tree."""
    env = _table_env(layout)
    for tree in (env.s_tree, env.r_tree):
        table = walk_table(tree)
        _check_layout(tree, table)
        assert walk_table(tree) is table


@pytest.mark.parametrize("layout", _CYCLIC)
def test_renumbering_drops_the_walk_table(layout, monkeypatch):
    """``assign_page_ids`` drops the table; the rebuilt one has the same
    layout and drains bit-identically to the step loop."""
    env = _table_env(layout)
    _walks_like_steps(env, monkeypatch)
    old = walk_table(env.s_tree)
    env.s_tree.assign_page_ids()
    table = walk_table(env.s_tree)
    assert table is not old
    _check_layout(env.s_tree, table)
    _walks_like_steps(env, monkeypatch)
    assert walk_table(env.s_tree) is table


@pytest.mark.parametrize("layout", _CYCLIC)
def test_pickled_environment_drains_identically(layout, monkeypatch):
    """A pickle leaves the cached table out; the copy rebuilds it on its
    first walk and drains like the original's step loop."""
    env = _table_env(layout)
    _walks_like_steps(env, monkeypatch)
    assert env.s_tree._walk_table is not None
    copy = pickle.loads(pickle.dumps(env))
    assert getattr(copy.s_tree, "_walk_table", None) is None
    for (build, switch), (ref, ref_switch) in zip(_cases(copy),
                                                  _cases(env)):
        for phase in _PHASES:
            walked = _start(build, switch, ChannelTuner(
                BroadcastChannel(copy.s_program, phase=phase)
            ), 1)
            stepped = _start(ref, ref_switch, ChannelTuner(
                BroadcastChannel(env.s_program, phase=phase)
            ), 1)
            _walk_to_end(walked, monkeypatch)
            _step_to_end(stepped)
            assert _state(walked) == _state(stepped)
    _check_layout(copy.s_tree, walk_table(copy.s_tree))
