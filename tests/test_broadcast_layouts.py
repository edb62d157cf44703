"""BroadcastLayout seam: program invariants, capabilities and cache identity.

Every backend registered at the seam must produce a program that honours
the :class:`~repro.broadcast.program.BroadcastProgram` contract the client
stack is built on: every index page on air at least once per cycle, data
pages at distinct in-cycle slots disjoint from index slots,
``next_index_arrival`` consistent with the position tables and monotone in
``now``, and the ``has_cyclic_order`` capability mirrored between the
layout and the program it builds.  The sweep-cache tests pin the satellite
fix: cache keys carry the full layout identity, so two backends (or two
schedule parameterisations of one backend) never alias.
"""

import pytest

from repro.broadcast import SystemParameters
from repro.broadcast.disks import BroadcastDiskProgram, hot_index_pages
from repro.broadcast.layout import (
    BroadcastDiskSchedule,
    GridAirIndexLayout,
    QuadtreeAirIndexLayout,
    RTreeInterleavedLayout,
    available_layouts,
    make_layout,
)
from repro.core import TNNEnvironment
from repro.datasets import sized_uniform
from repro.geometry import Rect
from repro.sim.experiments import SweepCache


HOT = Rect(0.0, 0.0, 12000.0, 12000.0)

LAYOUTS = {
    "rtree": RTreeInterleavedLayout(),
    "rtree-distributed": RTreeInterleavedLayout(distributed_levels=2),
    "grid": GridAirIndexLayout(),
    "quadtree": QuadtreeAirIndexLayout(),
    "disk-rtree": BroadcastDiskSchedule(hot_region=HOT),
    "disk-grid": BroadcastDiskSchedule(base=GridAirIndexLayout(), hot_region=HOT),
}

PARAMS = SystemParameters()
POINTS = sized_uniform(350, seed=21)


def _program(name):
    layout = LAYOUTS[name]
    tree = layout.build_index(POINTS, PARAMS)
    return layout, layout.build_program(tree, PARAMS)


@pytest.mark.parametrize("name", sorted(LAYOUTS))
def test_capability_flag_mirrored(name):
    layout, program = _program(name)
    assert program.has_cyclic_order == layout.has_cyclic_order
    # Legacy alias stays in sync for old callers.
    assert program.uniform_index_replication == program.has_cyclic_order


@pytest.mark.parametrize("name", sorted(LAYOUTS))
def test_every_page_on_air_at_distinct_slots(name):
    """Index + data slots are in-range, collision-free, padding-only gaps."""
    _, program = _program(name)
    index_slots = set()
    for page in range(program.index_length):
        positions = program.index_position_array(page)
        assert positions.size >= 1
        assert (positions >= 0).all() and (positions < program.cycle_length).all()
        as_list = positions.tolist()
        assert as_list == sorted(set(as_list))
        index_slots.update(as_list)
    data_slots = {
        program.data_page_position(off) for off in range(program.data_length)
    }
    assert len(data_slots) == program.data_length
    assert all(0 <= s < program.cycle_length for s in data_slots)
    assert not (index_slots & data_slots)
    # Whatever the cycle doesn't carry is chunk padding, nothing else.
    padding = program.cycle_length - len(index_slots) - len(data_slots)
    assert padding == program.m * program.chunk_length - program.data_length


@pytest.mark.parametrize("name", sorted(LAYOUTS))
def test_next_index_arrival_matches_tables_and_is_monotone(name):
    _, program = _program(name)
    pages = [0, program.index_length // 2, program.index_length - 1]
    nows = [0.0, 0.4, 17.0, float(program.cycle_length - 1), 3.7 * program.cycle_length]
    for page in pages:
        positions = set(program.index_position_array(page).tolist())
        prev = None
        for now in sorted(nows):
            arrival = program.next_index_arrival(page, now)
            assert arrival >= now
            assert int(arrival) % program.cycle_length in positions
            # Consistency with the generic position-table arithmetic.
            assert arrival == program.next_arrival_at_positions(
                program.index_position_array(page), now
            )
            if prev is not None:
                assert arrival >= prev or now <= prev
            prev = arrival


_CYCLIC = [n for n in available_layouts() if make_layout(n).has_cyclic_order]


@pytest.mark.parametrize("page_capacity", [64, 512])
@pytest.mark.parametrize("name", _CYCLIC)
def test_cyclic_layouts_number_pages_in_preorder(name, page_capacity):
    """Every subtree spans pages ``[page, page + subtree size)`` and a
    node's first child sits at ``page + 1``: cyclic page order from any
    cursor is then a stack order, which the shared-scan drain walks, and
    a fan-out fills one gap of a sorted frontier, which
    ``ArrivalFrontier.push_many`` splices in one piece."""
    layout = make_layout(name)
    params = SystemParameters(page_capacity=page_capacity)
    tree = layout.build_index(POINTS, params)
    program = layout.build_program(tree, params)

    def span(node):
        """Check ``node``'s subtree; return its size."""
        size = 1
        for child in node.children:
            assert child.page_id == node.page_id + size
            size += span(child)
        return size

    assert tree.root.page_id == 0
    assert span(tree.root) == program.index_length
    assert any(len(node.children) > 1 for node in tree.iter_nodes())


def test_hot_index_pages_ancestor_closed():
    layout = RTreeInterleavedLayout()
    tree = layout.build_index(POINTS, PARAMS)
    hot = set(hot_index_pages(tree, HOT))
    assert 0 in hot
    parent_of = {}
    for node in tree.iter_nodes():
        for child in node.children:
            parent_of[child.page_id] = node.page_id
    for page in hot:
        while page in parent_of:
            page = parent_of[page]
            assert page in hot


def test_disk_program_degenerate_hot_sets():
    tree = RTreeInterleavedLayout().build_index(POINTS, PARAMS)
    cold = BroadcastDiskProgram(tree, PARAMS, hot_pages=())
    assert cold.hot_index_length == 0
    # Index airs once per cycle; every page still reachable.
    assert all(
        cold.index_position_array(p).size == 1 for p in range(cold.index_length)
    )
    full = BroadcastDiskProgram(tree, PARAMS, hot_pages=range(tree.node_count()))
    assert full.replication_overhead() == full.m


def test_registry_round_trip():
    names = available_layouts()
    assert {"rtree", "rtree-distributed", "grid", "quadtree", "disk"} <= set(names)
    assert make_layout("grid", cells=4) == GridAirIndexLayout(cells=4)
    assert make_layout("rtree-distributed").distributed_levels == 2
    with pytest.raises(ValueError, match="unknown broadcast layout"):
        make_layout("btree")


def test_layout_and_legacy_args_conflict():
    with pytest.raises(ValueError, match="not both"):
        TNNEnvironment.build(
            POINTS, POINTS, layout=GridAirIndexLayout(), distributed_levels=2
        )


# ----------------------------------------------------------------------
# Sweep-cache identity (the satellite fix)
# ----------------------------------------------------------------------
def test_sweep_cache_keys_carry_layout_identity():
    """Same dataset + page geometry, different backends: no aliasing."""
    cache = SweepCache()
    s, r = sized_uniform(220, seed=22), sized_uniform(220, seed=23)
    envs = {
        name: cache.build(s, r, layout=layout)
        for name, layout in LAYOUTS.items()
    }
    programs = [id(env.s_program) for env in envs.values()]
    assert len(set(programs)) == len(programs)
    # Schedule-parameter differences must also keep distinct entries —
    # the old (dataset, page_size, m) key would have collapsed these.
    a = cache.build(s, r, layout=BroadcastDiskSchedule(hot_region=HOT))
    b = cache.build(
        s, r, layout=BroadcastDiskSchedule(hot_region=Rect(0, 0, 500.0, 500.0))
    )
    assert a.s_program is not b.s_program
    assert (
        cache.build(s, r, layout=RTreeInterleavedLayout(distributed_levels=1))
        .s_program
        is not cache.build(
            s, r, layout=RTreeInterleavedLayout(distributed_levels=2)
        ).s_program
    )


def test_sweep_cache_still_reuses_identical_layouts():
    cache = SweepCache()
    s, r = sized_uniform(220, seed=22), sized_uniform(220, seed=23)
    first = cache.build(s, r, layout=QuadtreeAirIndexLayout())
    second = cache.build(s, r, layout=QuadtreeAirIndexLayout())
    assert first.s_program is second.s_program
    assert first.s_tree is second.s_tree
    # An interleaved and a disk schedule over the same base index share
    # the packed tree (index_key) while keeping distinct programs.
    disk = cache.build(s, r, layout=BroadcastDiskSchedule(hot_region=HOT))
    base = cache.build(s, r, layout=RTreeInterleavedLayout())
    assert disk.s_tree is base.s_tree
    assert disk.s_program is not base.s_program
