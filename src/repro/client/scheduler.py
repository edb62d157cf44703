"""Cooperative scheduler for steppable searches on parallel channels.

A mobile device tuned into multiple channels advances each channel's search
as its pages arrive.  :func:`run_all` interleaves any number of steppable
searches in simulated-time order, stepping whichever search would download
the earliest page next — this is what "the two NN queries are processed in
parallel" (Algorithm 1, line 3) means operationally.  An ``on_finish``
callback fires after the step that completes a search, so a coordinator
(Hybrid-NN) can re-steer the others the moment one channel finishes.

:func:`run_all` is the step-at-a-time reference, an argmin scan over the
searches per simulated page arrival.  :meth:`SearchGroup.run`, the driver
of every stage, per query and in batches, replays its schedule in bounded
runs and is tested against it.
"""

from __future__ import annotations

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
    on_finish: Optional[Callable[[Steppable], None]] = None,
) -> None:
    """Drive all searches to completion in simulated-time order.

    At every iteration the unfinished search with the earliest next page
    arrival is stepped once, ties broken by position in ``searches``.
    ``on_finish(search)`` runs after the step that completes a search and
    may mutate the *other* searches (Hybrid-NN's re-steering) before
    scheduling continues.  Searches finished before the call never see it.
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
        if on_finish is not None and nxt.finished():
            on_finish(nxt)


class SearchGroup:
    """One query stage's searches and the contract that schedules them.

    :meth:`run` drives the group alone, per query (``algorithm.run``) and
    in batches (:func:`~repro.engine.shared_scan.execute_tnn_batch`):

    * ``coupled=True`` — the members are coupled through an ``on_finish``
      callback that mutates the others (Hybrid-NN's and the hybrid
      chain's re-steering), so only the member :func:`run_all` would step
      next may run, and only while it stays that member.  A member must
      never advance past another's completion event, or it would process
      a page under the wrong query or metric.  Members listen on their
      own tuners, so running one never moves another's next event.
    * ``coupled=False`` — the members are mutually independent (no callback
      observes another member: Double-NN's estimate phase, the filter
      phase's two range queries, any single-search query).  A driver may
      run them in any order and interleaving: each member's own step
      sequence — and therefore every answer, access time, tune-in count
      and queue size — is the same as under :func:`run_all`.

    Members are arrival-queue searches
    (:class:`~repro.client.arrival_queue.ArrivalQueueMixin`): :meth:`run`
    calls their ``run_to_completion`` and bounded ``_run_until``.

    ``on_finish(search)`` fires once per member, directly after the run
    that finishes it — the same moment :func:`run_all` fires it.  Members
    already finished when the group runs never see it.
    """

    __slots__ = ("searches", "coupled", "on_finish")

    def __init__(
        self,
        searches: Sequence[Steppable],
        coupled: bool = False,
        on_finish: Optional[Callable[[Steppable], None]] = None,
    ) -> None:
        self.searches = list(searches)
        self.coupled = coupled
        self.on_finish = on_finish

    def run(self) -> None:
        """Run every member to completion under the group's contract.

        An independent group runs each unfinished member alone through
        its ``run_to_completion`` (one drain walk on the walk's stack) and
        fires ``on_finish`` right after it.

        A coupled group runs in turns.  Each turn the member
        :func:`run_all` would step next — the earliest next event, ties to
        the lowest index — runs for as long as it stays that member: while
        its next event lies before ``lower``, the earliest among
        lower-index members, and at or before ``higher``, the earliest
        among higher-index members.  That is up to ``lower`` exclusive
        when ``lower <= higher``, else up to ``higher`` inclusive, in one
        bounded run (a drain walk where the member drains).  The other
        members do not move meanwhile, and ``on_finish`` can fire only
        when the running member finishes, after its run, so the turns
        replay :func:`run_all`'s steps exactly.  A finished member's next
        event is ``inf``: it never runs again.
        """
        searches, on_finish = self.searches, self.on_finish
        if not self.coupled:
            for search in searches:
                if not search.finished():
                    search.run_to_completion()
                    if on_finish is not None:
                        on_finish(search)
            return
        inf = math.inf
        while True:
            # One pass: ``best`` is the earliest event so far, ``lower``
            # the earliest before its member, ``higher`` after it.
            best = lower = higher = inf
            for search in searches:
                t = search.next_event_time()
                if t < best:
                    lower, best, higher, ran = best, t, inf, search
                elif t < higher:
                    higher = t
            if best == inf:
                return
            if lower <= higher:
                ran._run_until(lower, True)
            else:
                ran._run_until(higher)
            if on_finish is not None and ran.finished():
                on_finish(ran)
