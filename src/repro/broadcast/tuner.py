"""Client-side tuner: the per-channel clock and energy accounting.

The tuner is the client's radio on one channel.  It records every page
downloaded (tune-in time — the paper's proxy for energy) and the clock
position reached (access time).  Between downloads the client is dozing, so
only explicit ``download_*`` calls consume energy.

An optional :class:`~repro.broadcast.loss.FaultModel` makes receptions
fallible: a lost (or corrupt — a detected bad decode) page still costs the
listening energy (it counts toward tune-in) but the client must wait for
the page's next replica, stretching access time.  Losses and corruptions
are counted separately (``lost_pages`` / ``corrupt_pages``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import List, Optional

from repro.broadcast.channel import BroadcastChannel
from repro.broadcast.loss import FAULT_LOST, FaultModel


@dataclass
class ChannelTuner:
    """Tracks time and pages downloaded on one broadcast channel."""

    channel: BroadcastChannel
    loss: Optional[FaultModel] = None
    now: float = 0.0
    index_pages: int = 0
    data_pages: int = 0
    #: Reception attempts that failed (subsets of the page counters
    #: above): pages never decoded vs pages decoded wrong (a detected
    #: bad checksum) — both force a wait for the next replica.
    lost_pages: int = 0
    corrupt_pages: int = 0
    #: ``(kind, ref, arrival, ok)`` reception events for trace tooling.
    log: list[tuple] = field(default_factory=list)
    #: Batch campaigns that never read traces set this False to skip the
    #: log appends entirely (the counters still count).
    record_log: bool = True

    @property
    def pages_downloaded(self) -> int:
        """Total tune-in time on this channel, in pages."""
        return self.index_pages + self.data_pages

    def advance_to(self, t: float) -> None:
        """Doze until absolute time ``t`` (no energy cost)."""
        if t > self.now:
            self.now = t

    def _receive_at(self, next_arrival, arg, kind: str, ref: int) -> int:
        """Attempt receptions until one succeeds.

        Returns the number of reception attempts made (an ``int >= 1``,
        counting the final successful one).  ``next_arrival(arg, t)`` maps
        a time to the page's next on-air slot; it is a long-lived bound
        method (for example ``channel.next_data_arrival``) with the page
        selector passed as ``arg``, so callers looping over many pages
        never allocate a closure per page.  Every attempt (successful or
        lost) keeps the radio active for one slot, advances the clock past
        it, and is appended to ``log`` as a ``(kind, ref, arrival, ok)``
        event for trace tooling.
        """
        # NOTE: the client's drain walk inlines this success path for
        # lossless tuners (``now = arrival + 1.0``, one page counted, one
        # ``(kind, ref, arrival, True)`` log entry), and for faulty tuners
        # replays the whole retry chain closed form (``retry_chain``);
        # both book through ``record_index_run`` — see
        # repro/client/drain.py.  Any change to the accounting here must
        # be mirrored there to preserve the bit-identity contract.
        loss = self.loss
        attempts = 0
        while True:
            arrival = next_arrival(arg, self.now)
            self.now = arrival + 1.0
            attempts += 1
            fault = 0 if loss is None else loss.classify(arrival)
            if self.record_log:
                self.log.append((kind, ref, arrival, fault == 0))
            if fault == 0:
                return attempts
            if fault == FAULT_LOST:
                self.lost_pages += 1
            else:
                self.corrupt_pages += 1

    def record_index_run(self, pages: List[int], arrivals: List[float],
                         now: float, oks: Optional[List[bool]] = None,
                         lost: int = 0, corrupt: int = 0) -> None:
        """A drained run of index reception attempts.

        The drain walk pops a whole traversal per call; it collects every
        reception attempt's ``(page, arrival)`` in plain lists and
        accounts for the run in one call — one clock write, one counter
        add, one log extend instead of per-pop attribute writes.  A faulty
        tuner's drain also passes each attempt's ``ok`` flag (``None``:
        every attempt succeeded) and the failures split by kind.
        """
        self.now = now
        self.index_pages += len(pages)
        if lost or corrupt:
            self.lost_pages += lost
            self.corrupt_pages += corrupt
        if self.record_log:
            self.log.extend(
                ("index", p, a, o)
                for p, a, o in zip(
                    pages, arrivals, repeat(True) if oks is None else oks
                )
            )

    def download_index_page(self, page_id: int) -> float:
        """Wait for and download one index page; returns the finish time."""
        attempts = self._receive_at(
            self.channel.next_index_arrival, page_id, "index", page_id
        )
        self.index_pages += attempts
        return self.now

    def peek_index_arrival(self, page_id: int) -> float:
        """Arrival time of an index page if requested now (no download)."""
        return self.channel.next_index_arrival(page_id, self.now)

    def download_object(self, object_index: int) -> float:
        """Download all pages of a data object; returns the finish time."""
        # The per-offset closure this loop used to rebuild
        # (``lambda t, off=off: ...``) is hoisted: the channel's bound
        # method is looked up once and each offset rides along as the
        # _receive_at argument.
        next_data = self.channel.next_data_arrival
        for off in self.channel.program.object_data_offsets(object_index):
            attempts = self._receive_at(next_data, off, "data", object_index)
            self.data_pages += attempts
        return self.now


class TunerLedger:
    """Placeholder for a deleted columnar tuner backend.

    ``perfbench/spans.py`` is its only reader: it wraps these two names
    for the ``download`` layer.  Nothing calls them.
    """

    def flush_round(self, *args) -> None:
        raise AssertionError("the tuner ledger was removed")

    def flush_round_faulty(self, *args) -> None:
        raise AssertionError("the tuner ledger was removed")
