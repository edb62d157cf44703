"""The channel clock, slot by slot.

A client that downloads the page in slot ``x`` can receive the page in
slot ``x + 1``.  :class:`~repro.broadcast.BroadcastChannel` snaps its
phase to a multiple of 2^-20 slot, so every clock sum is exact and the
cursor ``ceil(now - phase)`` after that download is ``x + 1``.  These
tests walk every slot of a few small programs through a real
:class:`~repro.broadcast.ChannelTuner`, at phases where an unsnapped float
clock rounds past the next slot and at random ones.
"""

import functools
import math
import random
from fractions import Fraction

import pytest

from repro.broadcast import (
    BroadcastChannel,
    BroadcastProgram,
    ChannelTuner,
    SystemParameters,
)
from repro.core import TNNEnvironment
from repro.datasets import sized_uniform
from repro.geometry import Point
from repro.rtree import str_pack


@functools.lru_cache(maxsize=None)
def _program(name):
    """A toy cycle, or the s program of the 20 x 20 lattice (every point
    twice) at 64- or 512-byte pages."""
    if name == "toy":
        points = [Point(float(i % 5), float(i // 5)) for i in range(15)]
        return BroadcastProgram(
            str_pack(points, leaf_capacity=3, fanout=3), m=3
        )
    lattice = [Point(10.0 * i, 10.0 * j) for i in range(20) for j in range(20)]
    return TNNEnvironment.build(
        lattice + lattice,
        sized_uniform(300, seed=5),
        params=SystemParameters(page_capacity=int(name)),
    ).s_program


def _phases(length):
    """Whole, half and fractional phases (several of them round an
    unsnapped float clock past the next slot), one just below the cycle
    length, a negative one and 20 seeded random ones."""
    rng = random.Random(length)
    fixed = [0.0, 0.5, 127.3, 509.5, 509.7, 1021.4, 1021.5, length - 1e-9,
             -3.7]
    return fixed + [rng.uniform(-length, 2.0 * length) for _ in range(20)]


def _pages(program):
    """``(is_index, page or data offset)`` per slot of one cycle (these
    programs' last chunks hold no padding)."""
    out = []
    for slot in range(program.cycle_length):
        copy, k = divmod(slot, program.super_page_length)
        if k < program.index_length:
            out.append((True, k))
        else:
            out.append((False, copy * program.chunk_length + k
                        - program.index_length))
    return out


@pytest.mark.parametrize("name", ["toy", "64", "512"])
def test_every_download_is_followed_by_the_next_slot(name):
    """After the download at slot ``x`` the page in slot ``x + 1`` arrives
    at ``x + 1 + phase``, at every slot of the cycle (the last one wraps
    to the next cycle's root), and the snapped phase lies in ``[0, L)``
    within 2^-21 slot of ``phase`` modulo ``L`` and snaps to itself."""
    program = _program(name)
    length = program.cycle_length
    pages = _pages(program)
    for raw in _phases(length):
        channel = BroadcastChannel(program, raw)
        phase = channel.phase
        assert 0.0 <= phase < length
        off = (Fraction(phase) - Fraction(raw)) % length
        assert min(off, length - off) <= Fraction(1, 2**21)
        assert BroadcastChannel(program, phase).phase == phase
        tuner = ChannelTuner(channel, record_log=False)
        peek = tuner.peek_index_arrival
        download = tuner.download_index_page
        next_data = channel.next_data_arrival
        receive = tuner._receive_at  # one data page, as download_object
        tuner.now = phase - 0.5
        late = []  # slots whose page arrives anywhere but at x + phase
        for x, (is_index, ref) in enumerate(pages + [(True, 0)]):
            if is_index:
                if peek(ref) != x + phase:
                    late.append(x)
                download(ref)
            else:
                receive(next_data, ref, "data", ref)
                if tuner.now != x + phase + 1.0:
                    late.append(x)
        assert late == [], raw
        assert math.ceil(tuner.now - phase) == length + 1


@pytest.mark.parametrize("phase", [math.nan, math.inf, -math.inf])
def test_non_finite_phase_is_rejected(phase):
    with pytest.raises(ValueError, match="phase"):
        BroadcastChannel(_program("toy"), phase)
