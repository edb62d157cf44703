"""Cooperative scheduler for steppable searches on parallel channels.

A mobile device tuned into multiple channels advances each channel's search
as its pages arrive.  :func:`run_all` interleaves any number of steppable
searches in simulated-time order, stepping whichever search would download
the earliest page next — this is what "the two NN queries are processed in
parallel" (Algorithm 1, line 3) means operationally.  An optional callback
fires after every step so a coordinator (Hybrid-NN) can react the moment
one channel finishes.  :func:`run_all` is the step-at-a-time reference:
:meth:`SearchGroup.run`, the driver of every stage the shared scan does
not batch, runs an independent stage one member at a time and Hybrid-NN's
pair on the same schedule in bounded runs, each member run up to its
sibling's next event, and is tested against it.

:func:`run_all` keeps the unfinished searches in a lazy-invalidation event
heap — O(log channels) per simulated page arrival — so one client can
interleave many channels (the async channel tuners of the roadmap).  Keys
are revalidated at pop time, which absorbs ``after_step`` callbacks that
mutate *other* searches (Hybrid-NN's re-steering): a mutated search is
simply re-keyed the next time it reaches the top.  The one requirement is
the natural one for simulated time — a search's ``next_event_time`` never
moves below the event times already dispatched (it can only grow as the
channel clock advances).  :func:`run_all_scan`, the original O(channels)
argmin scan, stays as the brute-force reference oracle for the property
tests.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Optional, Protocol, Sequence


class Steppable(Protocol):
    """Anything the scheduler can drive (NN and range searches qualify)."""

    def finished(self) -> bool:  # pragma: no cover - protocol
        ...

    def next_event_time(self) -> float:  # pragma: no cover - protocol
        ...

    def step(self) -> None:  # pragma: no cover - protocol
        ...


def run_all(
    searches: Sequence[Steppable],
    after_step: Optional[Callable[[Steppable], None]] = None,
    on_finish: Optional[Callable[[Steppable], None]] = None,
) -> None:
    """Drive all searches to completion in simulated-time order.

    At every iteration the unfinished search with the earliest next page
    arrival is stepped once (ties broken by position in ``searches``, like
    the scan reference).  ``after_step(search)`` runs after each step and
    ``on_finish(search)`` after the step that completes a search; either
    may mutate the *other* searches (Hybrid-NN's re-steering) before
    scheduling continues.  Finish-driven coordinators should prefer
    ``on_finish`` — it lets the scheduler skip the per-event re-peek of
    searches no callback could have touched.
    """
    if len(searches) == 1:
        s = searches[0]
        if s.finished():
            return
        while not s.finished():
            s.step()
            if after_step is not None:
                after_step(s)
        if on_finish is not None:
            on_finish(s)
        return
    if len(searches) == 2:
        # The paper's own workload shape (two channels) dominates; skip
        # the heap and ping-pong on two floats.  A finished search's
        # next_event_time is inf, which retires it from the comparison.
        a, b = searches
        ta = a.next_event_time()
        tb = b.next_event_time()
        while True:
            stepped = a if ta <= tb else b  # tie: first search, like scan
            if stepped is a:
                if ta == math.inf:
                    return
                a.step()
            else:
                b.step()
            fired = False
            if after_step is not None:
                after_step(stepped)
                fired = True
            if on_finish is not None and stepped.finished():
                on_finish(stepped)
                fired = True
            if not fired:
                if stepped is a:
                    ta = a.next_event_time()
                else:
                    tb = b.next_event_time()
                continue
            # A callback may have re-steered either search: refresh both,
            # exactly like the scan reference's per-event argmin.
            ta = a.next_event_time()
            tb = b.next_event_time()
    heap = [
        (s.next_event_time(), i)
        for i, s in enumerate(searches)
        if not s.finished()
    ]
    heapq.heapify(heap)
    while heap:
        t, i = heap[0]
        search = searches[i]
        if search.finished():
            heapq.heappop(heap)
            continue
        current = search.next_event_time()
        if current != t:
            # Stale key (a callback touched this search since it was
            # filed): re-key and re-examine the heap.
            heapq.heapreplace(heap, (current, i))
            continue
        search.step()
        if after_step is not None:
            after_step(search)
        if search.finished():
            heapq.heappop(heap)
            if on_finish is not None:
                on_finish(search)
        else:
            heapq.heapreplace(heap, (search.next_event_time(), i))


def run_all_scan(
    searches: Sequence[Steppable],
    after_step: Optional[Callable[[Steppable], None]] = None,
    on_finish: Optional[Callable[[Steppable], None]] = None,
) -> None:
    """Reference scheduler: argmin scan over all searches per event.

    O(channels) per simulated page arrival.  Kept as the oracle the event
    heap is property-tested against; prefer :func:`run_all`.
    """
    while True:
        # Inline argmin over unfinished searches: this loop runs once per
        # simulated page arrival, so no per-iteration list/lambda allocation.
        nxt = None
        best = None
        for s in searches:
            if s.finished():
                continue
            t = s.next_event_time()
            if best is None or t < best:
                best = t
                nxt = s
        if nxt is None:
            return
        nxt.step()
        if after_step is not None:
            after_step(nxt)
        if on_finish is not None and nxt.finished():
            on_finish(nxt)


def _run_pair(a, b, on_finish) -> None:
    """Run a paired group's two searches to completion in simulated time.

    The same schedule as :func:`run_all`'s two-member ping-pong, one run
    per turn instead of one step per event: ``a`` is due while its next
    arrival ``ta <= tb`` and runs until its next page arrives after
    ``tb``; ``b`` runs while its next arrival is strictly before ``ta``.
    Before the first finish the members share no state, so a
    frontier-backed member under a trivial policy drains each run in one
    walk (:meth:`~repro.client.arrival_queue.ArrivalQueueMixin._run_until`).
    ``on_finish`` fires after the run that finishes a member and may
    re-steer the other, which then runs unbounded: it drains after a
    retarget and after a switch to the transitive metric alike.
    """
    ta = a.next_event_time()
    tb = b.next_event_time()
    while True:
        if ta <= tb:  # tie: the first search, like run_all
            if ta == math.inf:
                return
            a._run_until(tb)
            ran = a
        else:
            b._run_until(ta, strict=True)
            ran = b
        if on_finish is not None and ran.finished():
            on_finish(ran)
        ta = a.next_event_time()
        tb = b.next_event_time()


class SearchGroup:
    """One query stage's searches and the contract that schedules them.

    A ``SearchGroup`` carries the per-query scheduling contract that
    :func:`run_all` enforces; :meth:`run` drives the group alone, and the
    shared-scan executor (:mod:`repro.engine.shared_scan`) batches the
    groups it can across many queries and runs the rest through
    :meth:`run`:

    * ``paired=True`` — exactly **two** members, coupled through an
      ``on_finish`` callback that mutates the sibling (Hybrid-NN's
      re-steering), so only the member :func:`run_all` would step next
      may run, and only while its next event stays before the sibling's
      (at or before it for the first member): :meth:`run` runs it that
      far in one bounded run (a drain walk on a frontier), and the
      executor's arena serves it one download per round.  A sibling must
      never advance past the finisher's completion event, or it would
      process a page under the wrong metric.
    * ``paired=False`` — the members are mutually independent (no callback
      observes another member: Double-NN's estimate phase, the filter
      phase's two range queries, any single-search query).  A driver may
      run them in any order and interleaving: each member's own step
      sequence — and therefore every answer, access time, tune-in count
      and queue size — is the same as under :func:`run_all`.

    Members are arrival-queue searches
    (:class:`~repro.client.arrival_queue.ArrivalQueueMixin`): :meth:`run`
    calls their ``run_to_completion`` and bounded ``_run_until``.

    ``on_finish(search)`` fires once per member, directly after the run
    or serve that finishes it — the same moment :func:`run_all` fires
    it.  ``tag`` is the owner's cookie (the executor stores its job
    there).

    ``pending`` is the members still running.  The driver owns it: the
    executor removes a member right after the serve that finishes it, so
    group bookkeeping costs one ``finished()`` probe per serve instead of
    a per-round sweep over every member of every group, and :meth:`run`
    empties it.  Members already finished at construction never enter it
    (and, matching :func:`run_all`, never see ``on_finish``).

    Finish events are backend-transparent with respect to the tuners: an
    ``on_finish`` coordinator that reads ``search.tuner.now`` or the page
    counters sees the same values whether the tuner holds scalars or is
    attached to a :class:`~repro.broadcast.tuner.TunerLedger` — attached
    tuners route those attributes to their ledger rows, which the
    executor flushes before any finish probe of the same round fires.
    """

    __slots__ = ("searches", "pending", "paired", "on_finish", "tag")

    def __init__(
        self,
        searches: Sequence[Steppable],
        paired: bool = False,
        on_finish: Optional[Callable[[Steppable], None]] = None,
        tag: object = None,
    ) -> None:
        self.searches = list(searches)
        if paired and len(self.searches) != 2:
            raise ValueError(
                f"a paired group holds exactly two searches, "
                f"got {len(self.searches)}"
            )
        self.pending = [s for s in self.searches if not s.finished()]
        self.paired = paired
        self.on_finish = on_finish
        self.tag = tag

    def run(self) -> None:
        """Run every member to completion under the group's contract.

        An unpaired group runs each pending member alone through its
        ``run_to_completion`` (the drain walk on a frontier) and fires
        ``on_finish`` right after it.  A paired group runs in
        :func:`_run_pair`'s alternating bounded runs, because a member's
        finish re-steers its sibling.
        """
        on_finish = self.on_finish
        if self.paired:
            _run_pair(*self.searches, on_finish)
        else:
            for search in self.pending:
                search.run_to_completion()
                if on_finish is not None:
                    on_finish(search)
        self.pending = []

    def finished(self) -> bool:
        """True when every member has run to completion."""
        return not self.pending
