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

**The columnar tuner ledger.**  A single query's tuner is four scalars and
a list — the cheapest possible representation.  A *workload* of thousands
of concurrent tuners, each receiving one page per shared-scan round, pays
python attribute-write and tuple-allocation cost per download; profiling
(``BENCH_profile_hot_path.json``) measured that per-download bookkeeping as
the dominant share of the shared hot path once queues and geometry were
vectorised.  :class:`TunerLedger` therefore hoists attached tuners' state
into shared struct-of-arrays lanes — per-tuner ``now`` / ``index_pages`` /
``data_pages`` / ``lost_pages`` plus one packed ``(kind, ref, arrival,
ok)`` event arena replacing the per-tuner tuple logs — and the shared-scan
executor updates all of them with **one vectorised pass per round**
(:meth:`TunerLedger.flush_round`), alongside the
:class:`~repro.client.frontier.FrontierArena` flush.

Attachment is backend-transparent, the same contract
:class:`~repro.client.frontier.ArrivalFrontier` honours for its arena:
:meth:`TunerLedger.attach` swaps the instance onto the
:class:`_LedgerTuner` subclass, whose properties route every read and
write of the public attributes to the ledger lanes, and whose accounting
methods append to the event arena instead of the tuple list.  Standalone
tuners keep today's plain scalars — bit for bit the oracle — at plain
attribute speed (no property indirection is ever paid off-ledger).
Every tuner the executor serves through its arena is attached for the
run; tuners driven per query (``TNNAlgorithm.run``, heap-backed searches)
stay standalone, so the standalone dataclass is the reference the ledger
is tested against.

``ChannelTuner.log`` on an attached tuner materialises lazily from the
event arena: each row keeps a chain of its own events (``prev`` indices),
so one tuner's log gathers in time order proportional to *its* events.
Trace tooling (:mod:`repro.sim.trace`) sees tuples identical to the
scalar oracle's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import List, Optional

import numpy as np

from repro.broadcast.channel import BroadcastChannel
from repro.broadcast.loss import FAULT_LOST, FaultModel

#: Event-kind codes of the packed event arena.
_KIND_INDEX = 0
_KIND_DATA = 1
_KIND_NAMES = ("index", "data")


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
    #: log list/event-arena appends entirely (the counters still count).
    record_log: bool = True

    @property
    def pages_downloaded(self) -> int:
        """Total tune-in time on this channel, in pages."""
        return self.index_pages + self.data_pages

    def advance_to(self, t: float) -> None:
        """Doze until absolute time ``t`` (no energy cost)."""
        if t > self.now:
            self.now = t

    def _receive(self, next_arrival, kind: str, ref: int) -> int:
        """Attempt receptions until one succeeds.

        Returns the number of reception attempts made (an ``int >= 1``,
        counting the final successful one).  ``next_arrival(t)`` maps a
        time to the page's next on-air slot.  Every attempt (successful or
        lost) keeps the radio active for one slot, advances the clock past
        it, and is appended to ``log`` as a ``(kind, ref, arrival, ok)``
        event for trace tooling.
        """
        # NOTE: the shared-scan executor's serve loops and the client's
        # drain walk inline this success path for lossless tuners (``now
        # = arrival + 1.0``, one page counted, one ``(kind, ref, arrival,
        # True)`` log entry — batched through the TunerLedger when
        # attached), and for faulty tuners both the executor's round
        # flush and the drain replay the whole retry chain closed form
        # (``retry_chain``), booked through
        # ``TunerLedger.flush_round_faulty`` or ``record_index_run`` — see
        # repro/engine/shared_scan.py and repro/client/drain.py.  Any
        # change to the accounting here must be mirrored there to
        # preserve the bit-identity contract.
        loss = self.loss
        attempts = 0
        while True:
            arrival = next_arrival(self.now)
            self.now = arrival + 1.0
            attempts += 1
            fault = 0 if loss is None else loss.classify(arrival)
            self._record_event(kind, ref, arrival, fault == 0)
            if fault == 0:
                return attempts
            if fault == FAULT_LOST:
                self.lost_pages += 1
            else:
                self.corrupt_pages += 1

    def _receive_at(self, next_arrival, arg, kind: str, ref: int) -> int:
        """:meth:`_receive` with the page selector passed as ``arg``.

        ``next_arrival(arg, t)`` is a long-lived bound method (for example
        ``channel.next_data_arrival``), so callers looping over many pages
        never allocate a closure per page — the per-page variable rides
        along as a plain argument.  Accounting is identical to
        :meth:`_receive`.
        """
        loss = self.loss
        attempts = 0
        while True:
            arrival = next_arrival(arg, self.now)
            self.now = arrival + 1.0
            attempts += 1
            fault = 0 if loss is None else loss.classify(arrival)
            self._record_event(kind, ref, arrival, fault == 0)
            if fault == 0:
                return attempts
            if fault == FAULT_LOST:
                self.lost_pages += 1
            else:
                self.corrupt_pages += 1

    # ------------------------------------------------------------------
    # Accounting primitives (overridden lane-for-lane by _LedgerTuner)
    # ------------------------------------------------------------------
    def _record_event(self, kind: str, ref: int, arrival: float,
                      ok: bool) -> None:
        """Append one reception event (no-op under ``record_log=False``)."""
        if self.record_log:
            self.log.append((kind, ref, arrival, ok))

    def record_index(self, page_id: int, arrival: float) -> None:
        """One successful lossless index reception — the inlined
        ``_receive`` success path used by the shared-scan serve loops."""
        self.now = arrival + 1.0
        self.index_pages += 1
        if self.record_log:
            self.log.append(("index", page_id, arrival, True))

    def record_index_run(self, pages: List[int], arrivals: List[float],
                         now: float, oks: Optional[List[bool]] = None,
                         lost: int = 0, corrupt: int = 0) -> None:
        """A drained run of index reception attempts.

        The executor's kNN/range/window drains pop whole traversals per
        serve; they collect every reception attempt's ``(page, arrival)``
        in plain lists and account for the run in one call — one clock
        write, one counter add, one log extend (or one event-arena append
        when attached) instead of per-pop attribute writes.  A faulty
        tuner's drain also passes each attempt's ``ok`` flag (``None``:
        every attempt succeeded) and the failures split by kind — the
        event layout of :meth:`TunerLedger.flush_round_faulty`.
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


# ----------------------------------------------------------------------
# The columnar tuner ledger
# ----------------------------------------------------------------------
class TunerLedger:
    """Struct-of-arrays state lanes + packed event arena for many tuners.

    One ledger serves one shared-scan executor run.  Each attached tuner
    owns one *row* of the per-tuner lanes (``now``, ``index_pages``,
    ``data_pages``, ``lost_pages``, ``record_log``) and a chain of events
    in the shared arena (``kind`` / ``ref`` / ``arrival`` / ``ok`` lanes
    plus a ``prev`` index lane linking each row's events newest-first).

    The executor's hot path calls :meth:`flush_round` once per round with
    the round's confirmed index downloads — owner rows, page ids and
    arrivals straight from the :class:`~repro.client.frontier
    .FrontierArena` serve — and the ledger advances every clock, counter
    and event lane vectorised.  The rare scalar continuations (failed
    certified keeps, lossy retries) write their row through the attached
    tuner's own methods, so per-tuner event order stays chronological: a
    tuner receives at most one index page per round, and scalar writes of
    round *n* land before the vectorised flush of round *n*.

    Rows are append-only for the ledger's lifetime (one executor run —
    the same trade :class:`~repro.client.frontier.FrontierArena` makes);
    an attached tuner stays attached, its public attributes reading the
    row's lanes.
    """

    def __init__(self) -> None:
        cap = 64
        self._now = np.zeros(cap, dtype=np.float64)
        self._index = np.zeros(cap, dtype=np.int64)
        self._data = np.zeros(cap, dtype=np.int64)
        self._lost = np.zeros(cap, dtype=np.int64)
        self._corrupt = np.zeros(cap, dtype=np.int64)
        self._rec = np.ones(cap, dtype=bool)
        #: Arena index of each row's newest event (-1: none yet).
        self._last = np.full(cap, -1, dtype=np.int64)
        self._rows = 0
        # The packed event arena.
        ecap = 256
        self._ev_kind = np.zeros(ecap, dtype=np.int8)
        self._ev_ref = np.zeros(ecap, dtype=np.int64)
        self._ev_arrival = np.zeros(ecap, dtype=np.float64)
        self._ev_ok = np.ones(ecap, dtype=bool)
        #: Previous event of the same row (-1 terminates the chain) — one
        #: extra lane write per event buys O(own events) log
        #: materialisation per tuner instead of an O(all events) scan.
        self._ev_prev = np.full(ecap, -1, dtype=np.int64)
        self._ev_n = 0

    def __len__(self) -> int:
        return self._rows

    @property
    def event_count(self) -> int:
        """Total events recorded across every attached tuner."""
        return self._ev_n

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------
    def attach(self, tuner: ChannelTuner) -> int:
        """Move one tuner's state into ledger lanes; returns its row.

        Idempotent: a tuner already attached to *this* ledger keeps its
        row.  Events already in the tuner's scalar ``log`` stay where
        they are as the materialisation prefix — attachment at any point
        of a tuner's life preserves its full event history.
        """
        if type(tuner) is _LedgerTuner:
            if tuner._ledger is self:
                return tuner._row
            raise ValueError("tuner is attached to a different ledger")
        row = self._rows
        if row >= self._now.shape[0]:
            self._grow_rows()
        d = tuner.__dict__
        self._now[row] = d["now"]
        self._index[row] = d["index_pages"]
        self._data[row] = d["data_pages"]
        self._lost[row] = d["lost_pages"]
        self._corrupt[row] = d["corrupt_pages"]
        self._rec[row] = d["record_log"]
        self._last[row] = -1
        self._rows = row + 1
        d["_ledger"] = self
        d["_row"] = row
        d["_log_cache"] = None
        tuner.__class__ = _LedgerTuner
        return row

    def _grow_rows(self) -> None:
        for name in ("_now", "_index", "_data", "_lost", "_corrupt",
                     "_rec", "_last"):
            old = getattr(self, name)
            new = np.empty(old.shape[0] * 2, dtype=old.dtype)
            if name == "_last":
                new[old.shape[0]:] = -1
            new[: old.shape[0]] = old
            setattr(self, name, new)

    def _grow_events(self, need: int) -> None:
        cap = self._ev_kind.shape[0]
        while cap < need:
            cap *= 2
        for name in ("_ev_kind", "_ev_ref", "_ev_arrival", "_ev_ok",
                     "_ev_prev"):
            old = getattr(self, name)
            new = np.empty(cap, dtype=old.dtype)
            new[: old.shape[0]] = old
            setattr(self, name, new)

    # ------------------------------------------------------------------
    # Event recording
    # ------------------------------------------------------------------
    def append_event(self, row: int, kind: int, ref: int, arrival: float,
                     ok: bool) -> None:
        """Record one event for one row (the scalar fallback path)."""
        if not self._rec[row]:
            return
        i = self._ev_n
        if i + 1 > self._ev_kind.shape[0]:
            self._grow_events(i + 1)
        self._ev_kind[i] = kind
        self._ev_ref[i] = ref
        self._ev_arrival[i] = arrival
        self._ev_ok[i] = ok
        self._ev_prev[i] = self._last[row]
        self._last[row] = i
        self._ev_n = i + 1

    def append_run(self, row: int, kind: int, refs, arrivals,
                   oks=None) -> None:
        """Record a chronological run of events for one row (``oks``:
        each event's ok flag; ``None`` when every event succeeded)."""
        if not self._rec[row]:
            return
        k = len(refs)
        if k == 0:
            return
        base = self._ev_n
        if base + k > self._ev_kind.shape[0]:
            self._grow_events(base + k)
        end = base + k
        self._ev_kind[base:end] = kind
        self._ev_ref[base:end] = refs
        self._ev_arrival[base:end] = arrivals
        self._ev_ok[base:end] = True if oks is None else oks
        self._ev_prev[base] = self._last[row]
        if k > 1:
            self._ev_prev[base + 1:end] = np.arange(base, end - 1)
        self._last[row] = end - 1
        self._ev_n = end

    def flush_round(self, rows: np.ndarray, pages: np.ndarray,
                    arrivals: np.ndarray) -> None:
        """One vectorised pass over a round's confirmed index downloads.

        ``rows`` must be distinct (the executor serves each search at
        most once per round, and one tuner backs at most one live
        search): every row's clock moves to ``arrival + 1.0``, its index
        counter increments, and — for rows recording logs — one
        ``("index", page, arrival, True)`` event joins the arena with the
        per-row chains updated in one scatter.
        """
        k = rows.shape[0]
        if k == 0:
            return
        self._now[rows] = arrivals + 1.0
        self._index[rows] += 1
        if self._rec[rows].all():
            erows, epages, earrs = rows, pages, arrivals
        else:
            keep = self._rec[rows]
            if not keep.any():
                return
            erows = rows[keep]
            epages = pages[keep]
            earrs = arrivals[keep]
        base = self._ev_n
        k = erows.shape[0]
        if base + k > self._ev_kind.shape[0]:
            self._grow_events(base + k)
        end = base + k
        idx = np.arange(base, end, dtype=np.int64)
        self._ev_kind[base:end] = _KIND_INDEX
        self._ev_ref[base:end] = epages
        self._ev_arrival[base:end] = earrs
        self._ev_ok[base:end] = True
        self._ev_prev[base:end] = self._last[erows]
        self._last[erows] = idx
        self._ev_n = end

    def flush_round_faulty(
        self,
        rows: np.ndarray,
        pages: np.ndarray,
        attempts: np.ndarray,
        finals: np.ndarray,
        lost: np.ndarray,
        corrupt: np.ndarray,
        ev_arrivals: np.ndarray,
    ) -> None:
        """:meth:`flush_round` for rows whose download may have retried.

        A faulty tuner's retry chain on a cyclic frontier re-attempts the
        same page exactly one index replica later each time; the executor
        resolves each row's chain against its fault model closed-form and
        hands the results here: ``attempts`` (>= 1) counts every
        reception including the final successful one, ``finals`` is each
        row's successful arrival, ``lost`` / ``corrupt`` split the
        ``attempts - 1`` failures by fault kind, and ``ev_arrivals``
        concatenates every row's per-attempt arrival slots (row-major,
        chronological — ``attempts.sum()`` values, bit-exact to the slots
        the scalar ``_receive`` loop would visit).

        One vectorised pass books the whole round: clocks move to
        ``final + 1.0``, the index counters gain ``attempts``, the fault
        counters gain their splits, and — for rows recording logs — each
        row's full attempt chain joins the event arena in chronological
        order (failures ``ok=False``, the final success ``ok=True``) with
        the per-row ``prev`` chains linked across the run.
        """
        k = rows.shape[0]
        if k == 0:
            return
        self._now[rows] = finals + 1.0
        self._index[rows] += attempts
        self._lost[rows] += lost
        self._corrupt[rows] += corrupt
        keep = self._rec[rows]
        if keep.all():
            erows, epages, eatt, earr = rows, pages, attempts, ev_arrivals
        else:
            if not keep.any():
                return
            erows = rows[keep]
            epages = pages[keep]
            eatt = attempts[keep]
            earr = ev_arrivals[np.repeat(keep, attempts)]
        total = int(eatt.sum())
        base = self._ev_n
        if base + total > self._ev_kind.shape[0]:
            self._grow_events(base + total)
        end = base + total
        ends = base + np.cumsum(eatt)
        starts = ends - eatt
        # Intra-run attempt number of every event: 0..attempts-1 per row.
        intra = np.arange(total, dtype=np.int64) - np.repeat(
            starts - base, eatt
        )
        self._ev_kind[base:end] = _KIND_INDEX
        self._ev_ref[base:end] = np.repeat(epages, eatt)
        self._ev_arrival[base:end] = earr
        self._ev_ok[base:end] = intra == np.repeat(eatt - 1, eatt)
        prev = np.arange(base - 1, end - 1, dtype=np.int64)
        prev[starts - base] = self._last[erows]
        self._ev_prev[base:end] = prev
        self._last[erows] = ends - 1
        self._ev_n = end

    # ------------------------------------------------------------------
    # Materialisation
    # ------------------------------------------------------------------
    def events_of(self, row: int) -> List[tuple]:
        """One row's events as scalar-oracle tuples, in time order."""
        idxs: List[int] = []
        prev = self._ev_prev
        e = int(self._last[row])
        while e >= 0:
            idxs.append(e)
            e = int(prev[e])
        if not idxs:
            return []
        idxs.reverse()
        sel = np.array(idxs, dtype=np.int64)
        kinds = self._ev_kind[sel].tolist()
        refs = self._ev_ref[sel].tolist()
        arrs = self._ev_arrival[sel].tolist()
        oks = self._ev_ok[sel].tolist()
        names = _KIND_NAMES
        return [
            (names[k], r, a, o)
            for k, r, a, o in zip(kinds, refs, arrs, oks)
        ]


class _LedgerTuner(ChannelTuner):
    """A :class:`ChannelTuner` attached to a :class:`TunerLedger`.

    :meth:`TunerLedger.attach` swaps an instance onto this class; every
    public attribute routes to the owner's ledger row, so search code,
    result constructors and trace tooling stay backend-agnostic — the
    same transparency contract :class:`~repro.client.frontier
    .ArrivalFrontier` honours when attached to a
    :class:`~repro.client.frontier.FrontierArena`.  Scalars written by
    the dataclass ``__init__`` remain in ``__dict__``, shadowed by these
    properties.
    """

    _ledger: TunerLedger
    _row: int

    @property
    def now(self) -> float:
        return float(self._ledger._now[self._row])

    @now.setter
    def now(self, value: float) -> None:
        self._ledger._now[self._row] = value

    @property
    def index_pages(self) -> int:
        return int(self._ledger._index[self._row])

    @index_pages.setter
    def index_pages(self, value: int) -> None:
        self._ledger._index[self._row] = value

    @property
    def data_pages(self) -> int:
        return int(self._ledger._data[self._row])

    @data_pages.setter
    def data_pages(self, value: int) -> None:
        self._ledger._data[self._row] = value

    @property
    def lost_pages(self) -> int:
        return int(self._ledger._lost[self._row])

    @lost_pages.setter
    def lost_pages(self, value: int) -> None:
        self._ledger._lost[self._row] = value

    @property
    def corrupt_pages(self) -> int:
        return int(self._ledger._corrupt[self._row])

    @corrupt_pages.setter
    def corrupt_pages(self, value: int) -> None:
        self._ledger._corrupt[self._row] = value

    @property
    def record_log(self) -> bool:
        return bool(self._ledger._rec[self._row])

    @record_log.setter
    def record_log(self, value: bool) -> None:
        self._ledger._rec[self._row] = value

    @property
    def log(self) -> list:
        """The materialised event log (pre-attach prefix + arena events).

        Lazy and cached per arena state: re-materialised only when this
        row gained events since the last read.  The returned list is a
        snapshot — appends to it do not reach the arena (the accounting
        methods below are the write path while attached).
        """
        ledger = self._ledger
        row = self._row
        d = self.__dict__
        cached = d["_log_cache"]
        last = int(ledger._last[row])
        if cached is not None and cached[0] == last:
            return cached[1]
        log = d["log"] + ledger.events_of(row)
        d["_log_cache"] = (last, log)
        return log

    # ------------------------------------------------------------------
    # Accounting primitives, routed to the lanes
    # ------------------------------------------------------------------
    def _record_event(self, kind: str, ref: int, arrival: float,
                      ok: bool) -> None:
        self._ledger.append_event(
            self._row,
            _KIND_INDEX if kind == "index" else _KIND_DATA,
            ref, arrival, ok,
        )

    def record_index(self, page_id: int, arrival: float) -> None:
        ledger = self._ledger
        row = self._row
        ledger._now[row] = arrival + 1.0
        ledger._index[row] += 1
        ledger.append_event(row, _KIND_INDEX, page_id, arrival, True)

    def record_index_run(self, pages, arrivals, now: float, oks=None,
                         lost: int = 0, corrupt: int = 0) -> None:
        ledger = self._ledger
        row = self._row
        ledger._now[row] = now
        ledger._index[row] += len(pages)
        if lost or corrupt:
            ledger._lost[row] += lost
            ledger._corrupt[row] += corrupt
        ledger.append_run(row, _KIND_INDEX, pages, arrivals, oks)
