"""Tests for BroadcastChannel phase shifts and ChannelTuner accounting."""

import random

from repro.broadcast import (
    BroadcastChannel,
    BroadcastProgram,
    ChannelTuner,
    SystemParameters,
)
from repro.geometry import Point
from repro.rtree import str_pack


def make_program(n=80, seed=0, m=2, capacity=64):
    rng = random.Random(seed)
    pts = [Point(rng.random() * 1000, rng.random() * 1000) for _ in range(n)]
    params = SystemParameters(page_capacity=capacity)
    tree = str_pack(pts, params.leaf_capacity, params.internal_fanout)
    return BroadcastProgram(tree, params, m=m)


def test_zero_phase_matches_program():
    prog = make_program()
    ch = BroadcastChannel(prog, phase=0.0)
    assert ch.next_index_arrival(0, 0.0) == prog.next_index_arrival(0, 0.0)
    assert ch.next_index_arrival(7, 3.0) == prog.next_index_arrival(7, 3.0)


def test_phase_shifts_arrivals():
    prog = make_program()
    ch = BroadcastChannel(prog, phase=10.0)
    # Root (offset 0) first airs at t=10.
    assert ch.next_root_arrival(0.0) == 10.0
    assert ch.next_root_arrival(10.0) == 10.0


def test_phase_wraps_modulo_cycle():
    prog = make_program()
    ch = BroadcastChannel(prog, phase=prog.cycle_length + 5.0)
    assert ch.phase == 5.0


def test_data_arrival_with_phase():
    prog = make_program()
    ch = BroadcastChannel(prog, phase=3.0)
    expected = prog.data_page_position(0) + 3.0
    assert ch.next_data_arrival(0, 0.0) == expected


def test_download_object_contiguous():
    prog = make_program(capacity=256)  # 4 pages per object
    ch = BroadcastChannel(prog, phase=0.0)
    start = float(prog.data_page_position(0))
    finish, pages = ch.download_object(0, 0.0)
    assert pages == prog.params.pages_per_object
    # Object 0 sits at the start of chunk 0: contiguous slots.
    assert finish == start + pages


def test_download_object_straddling_chunk_waits():
    """An object crossing a chunk boundary must wait out the index copy."""
    prog = make_program(n=33, m=4, capacity=256)
    ppo = prog.params.pages_per_object
    # Find an object whose pages straddle two chunks.
    straddler = None
    for obj in range(prog.object_count):
        offs = prog.object_data_offsets(obj)
        if {off // prog.chunk_length for off in offs} != {offs[0] // prog.chunk_length}:
            straddler = obj
            break
    if straddler is None:  # layout happened to align; nothing to check
        return
    ch = BroadcastChannel(prog, phase=0.0)
    first = ch.next_data_arrival(prog.object_data_offsets(straddler)[0], 0.0)
    finish, pages = ch.download_object(straddler, 0.0)
    assert pages == ppo
    # Total elapsed exceeds the contiguous ppo slots because of the gap.
    assert finish - first > ppo


def test_tuner_accounting():
    prog = make_program()
    tuner = ChannelTuner(BroadcastChannel(prog, phase=0.0))
    assert tuner.pages_downloaded == 0
    t1 = tuner.download_index_page(0)
    assert t1 == 1.0
    assert tuner.index_pages == 1
    t2 = tuner.download_index_page(1)
    assert t2 == 2.0
    tuner.download_object(0)
    assert tuner.data_pages == prog.params.pages_per_object
    assert tuner.pages_downloaded == 2 + prog.params.pages_per_object


def test_tuner_dozing_is_free():
    prog = make_program()
    tuner = ChannelTuner(BroadcastChannel(prog, phase=0.0))
    tuner.advance_to(500.0)
    assert tuner.now == 500.0
    assert tuner.pages_downloaded == 0
    tuner.advance_to(100.0)  # cannot move backwards
    assert tuner.now == 500.0


def test_tuner_missed_page_costs_waiting_not_energy():
    prog = make_program(m=2)
    tuner = ChannelTuner(BroadcastChannel(prog, phase=0.0))
    tuner.advance_to(5.0)  # page 2 of the first index copy already aired
    tuner.download_index_page(2)
    assert tuner.index_pages == 1
    assert tuner.now == prog.super_page_length + 2 + 1


def test_receive_returns_int_attempt_count():
    """_receive_at counts attempts (int), while download_* returns finish
    time."""
    prog = make_program()
    tuner = ChannelTuner(BroadcastChannel(prog, phase=0.0))
    attempts = tuner._receive_at(
        tuner.channel.next_index_arrival, 0, "index", 0
    )
    assert attempts == 1 and isinstance(attempts, int)
    finish = tuner.download_index_page(1)
    assert isinstance(finish, float) and finish == tuner.now
    # Every log entry is a (kind, ref, arrival, ok) tuple.
    assert all(
        isinstance(e, tuple) and len(e) == 4 and isinstance(e[3], bool)
        for e in tuner.log
    )
