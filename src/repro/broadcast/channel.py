"""A broadcast channel: a program endlessly on air with a phase offset."""

from __future__ import annotations

import math

from repro.broadcast.program import BroadcastProgram


class BroadcastChannel:
    """One wireless channel cycling a :class:`BroadcastProgram`.

    ``phase`` shifts the whole program in time: the page at cycle offset 0
    is on air at absolute times ``phase + k * cycle_length``.  Each query in
    the evaluation draws a random phase per channel, reproducing the paper's
    "two random numbers ... simulate the waiting time to get the two roots".

    The channel owns the clock's number format: ``phase`` is snapped, in
    integer arithmetic, to the multiple of 2^-20 slot nearest to it
    modulo the cycle, in ``[0, cycle_length)``.  Every clock sum below
    2^33 slots (an integer slot plus the phase, plus one) is then exact,
    so after a download at slot ``x`` the cursor ``ceil(now - phase)`` is
    ``x + 1`` on every path that computes it.
    """

    def __init__(self, program: BroadcastProgram, phase: float = 0.0) -> None:
        if not math.isfinite(phase):
            raise ValueError(f"channel phase must be finite, got {phase!r}")
        self.program = program
        length = program.cycle_length
        self.phase = (
            (round(math.fmod(phase, length) * 2**20) % (length << 20)) / 2**20
            if length else 0.0
        )

    @property
    def cycle_length(self) -> int:
        return self.program.cycle_length

    def next_index_arrival(self, page_id: int, now: float) -> float:
        """Earliest arrival of index page ``page_id`` at or after ``now``."""
        return (
            self.program.next_index_arrival(page_id, now - self.phase) + self.phase
        )

    def next_root_arrival(self, now: float) -> float:
        """Earliest arrival of the R-tree root (page 0) at or after ``now``."""
        return self.next_index_arrival(0, now)

    def next_data_arrival(self, data_offset: int, now: float) -> float:
        """Earliest arrival of one data page at or after ``now``."""
        pos = self.program.data_page_position(data_offset)
        return (
            self.program.next_arrival_at_positions([pos], now - self.phase)
            + self.phase
        )

    def download_object(self, object_index: int, now: float) -> tuple[float, int]:
        """Download every page of a data object starting at/after ``now``.

        Returns ``(finish_time, pages_downloaded)``.  Pages are fetched in
        stream order; consecutive pages are usually adjacent slots but an
        object that straddles a chunk boundary waits out the interleaved
        index copy, which the arrival arithmetic handles naturally.
        """
        t = now
        pages = 0
        for off in self.program.object_data_offsets(object_index):
            arrival = self.next_data_arrival(off, t)
            t = arrival + 1.0
            pages += 1
        return t, pages
