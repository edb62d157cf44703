"""The drain: one frontier-backed search run to completion in one walk.

A search's :meth:`step` pops one queued node in cyclic page order, prunes
it or downloads and absorbs it.  :func:`drain` replays that whole step
sequence in one loop, bit for bit, for NN (point mode, trivial policy),
kNN, range and window searches on an
:class:`~repro.client.frontier.ArrivalFrontier` — to completion, or up
to a limit on the next page's arrival, handing the unvisited entries
back to the frontier.  Every search's ``run_to_completion`` calls it
where it applies
(:meth:`~repro.client.arrival_queue.ArrivalQueueMixin._drains`), and so
do the bounded runs that drive Hybrid-NN's pair
(:meth:`~repro.client.arrival_queue.ArrivalQueueMixin._run_until`, each
member up to its sibling's next arrival).  Both run under
:meth:`~repro.client.scheduler.SearchGroup.run`, which ``algorithm.run``
and the shared-scan executor share; the explicit ``step()`` loop stays
the reference.

Index pages are numbered in DFS preorder
(:meth:`~repro.rtree.tree.RTree.assign_page_ids`), so a downloaded node's
children fill the pages right after it and no other queued entry lies
among them: cyclic page order from the cursor is a stack order.  The walk
keeps two plain node lists — this lap's entries, smallest page on top,
and the next lap's, ascending — pushes each expanded fan-out reversed, and
defers only the page one slot on when the float clock rounds past it.
"""

from __future__ import annotations

import math
from heapq import heappush, heapreplace
from operator import attrgetter
from typing import List, Optional, Tuple

from repro.broadcast.loss import FAULT_LOST

#: Search kinds :func:`drain` walks (each search class's ``_DRAIN_KIND``).
NN, KNN, RANGE, WINDOW = "nn", "knn", "range", "window"

_by_page = attrgetter("page_id")


def retry_chain(model, slot0: int, cycle: int, phase: float,
                ev_arr: List[float]) -> Tuple[float, int, int]:
    """Replay one faulty index download's retry loop closed form.

    Replicas of an index page on a cyclic frontier sit exactly one cycle
    apart, so attempt ``n`` of a chain whose first attempt falls on
    integer slot ``slot0`` arrives at ``float(slot0 + n * cycle) +
    phase`` — the same single rounding the scalar channel arithmetic
    performs.  Each attempt is classified by ``model`` until one
    succeeds, exactly like ``ChannelTuner._receive``; every attempt's
    arrival is appended to ``ev_arr``.  Returns ``(final arrival, lost,
    corrupt)``: the successful arrival and the failures split by kind.
    """
    lost = corrupt = 0
    while True:
        arrival = float(slot0) + phase
        ev_arr.append(arrival)
        fault = model.classify(arrival)
        if fault == 0:
            return arrival, lost, corrupt
        if fault == FAULT_LOST:
            lost += 1
        else:
            corrupt += 1
        slot0 += cycle


def drain(s, limit: float = math.inf, strict: bool = False) -> None:
    """Run search ``s`` as one preorder stack walk, to completion or to
    ``limit``.

    ``s`` is frontier-backed (standalone, not in an arena); an NN search
    is in point mode with a trivial policy.  Seeding splits the
    frontier's queued entries at the cursor ``ceil(now - phase) %
    cycle``.  Before each pop a bounded walk (finite ``limit``) computes
    the top entry's arrival and stops when it lies past ``limit`` (at
    ``limit`` too when ``strict``) — the step loop's stopping rule
    (``_run_until``), which reproduces :func:`~repro.client.run_all`'s
    two-member tie rule.  A stopped walk writes its unvisited entries
    back to the frontier in ascending page order, so ``step()``,
    ``next_event_time()``, a rescan or a later walk resume from the
    state the step loop would have left.  A pop prunes on the exact
    MINDIST against the search's own bound: the NN upper bound, the kNN
    k-th best or the range radius (a window search filters its children
    at push time instead).  A download books at the cursor's closed-form
    arrival, or replays its retry chain on a faulty tuner
    (:func:`retry_chain`; a retry moves the clock by whole cycles, so the
    cursor stays put), and every attempt books in one
    ``record_index_run`` call.  Each node is absorbed before the next
    pop:

    * NN: a leaf runs the strict-``<`` offer loop; an internal node takes
      the best MINMAXDIST guarantee over its children holding points and
      hands the witness on like ``_absorb_internal``, rescanning the
      queue in ascending page order when a void witness is downloaded;
    * kNN: the scalar offer loop (``_offer_known``), the bound kept at
      the k-th best; only the order of the sequence numbers breaks ties,
      so a rejected offer takes none;
    * range and window: the search's own ``_absorb_leaf``.
    """
    f = s._frontier
    cycle = f._cycle
    fphase = f._phase
    hyp = math.hypot
    kind = s._DRAIN_KIND
    nn = kind is NN
    knn = kind is KNN
    window = kind is WINDOW
    if nn:
        query = s.query
        qx, qy = query
        bound = s.upper_bound
        best_d = s.best_dist
        best_pt = s.best_point
        witness = s._witness_page
    elif knn:
        qx, qy = s.query
        k = s.k
        best = s._best
        seq = s._offer_seq
        bound = s.bound
    elif window:
        wx0, wy0, wx1, wy1 = s.window
    else:
        center = s.circle.center
        qx = center.x
        qy = center.y
        bound = s.circle.radius
    tuner = s.tuner
    loss = tuner.loss
    # Reception attempts collect here and book in one record_index_run
    # call — one clock write, one counter add, one log/event-arena extend,
    # on either tuner backend.
    pages_dl: List[int] = []
    arrs: List[float] = []
    oks: Optional[List[bool]] = None if loss is None else []
    lost = corrupt = 0
    now = tuner.now
    pops = 0
    bounded = limit < math.inf
    base = math.ceil(now - fphase)
    queued = [f._nodes[j] for j in f._order_slots]  # ascending pages
    lap = [n for n in reversed(queued) if n.page_id >= base % cycle]
    later = [n for n in queued if n.page_id < base % cycle]
    del f._order_pages[:]
    del f._order_slots[:]
    peak = f.max_size
    while True:
        if not lap:
            if not later:
                break
            later.reverse()
            lap, later = later, []
        if bounded:
            page = lap[-1].page_id
            arrival = base + (page - base) % cycle + fphase
            if arrival > limit or (strict and arrival == limit):
                # Stop before the pop: the unvisited entries go back to
                # the emptied frontier, ascending (later < lap).
                later.extend(reversed(lap))
                f.push_many(later)
                break
        node = lap.pop()
        pops += 1
        if not window:
            # Inline Rect.mindist with its max terms as conditionals: the
            # same hypot, since at most one term is positive and hypot
            # drops the sign of a zero.  circle.intersects_rect is
            # mindist <= radius.
            xmin, ymin, xmax, ymax = node.mbr
            dx = xmin - qx if xmin > qx else (
                qx - xmax if qx > xmax else 0.0)
            dy = ymin - qy if ymin > qy else (
                qy - ymax if qy > ymax else 0.0)
            if hyp(dx, dy) > bound:
                continue
        page = node.page_id
        if loss is None:
            arrival = base + (page - base) % cycle + fphase
            pages_dl.append(page)
            arrs.append(arrival)
        else:
            arrival, nl, nc = retry_chain(
                loss, base + (page - base) % cycle, cycle, fphase, arrs
            )
            pages_dl.extend([page] * (nl + nc + 1))
            oks.extend([False] * (nl + nc))
            oks.append(True)
            lost += nl
            corrupt += nc
        now = arrival + 1.0
        if node.level != 0:
            if window:
                # Rect.intersects_rect, children in reverse page order.
                for child in reversed(node.children):
                    xmin, ymin, xmax, ymax = child.mbr
                    if not (xmin > wx1 or xmax < wx0
                            or ymin > wy1 or ymax < wy0):
                        lap.append(child)
            else:
                lap.extend(reversed(node.children))
            if len(lap) + len(later) > peak:
                peak = len(lap) + len(later)
            if nn:
                # _absorb_internal: the first strictly best guarantee of a
                # child that holds points, Rect.minmaxdist inlined.
                best_child = None
                best_g = math.inf
                for child in node.children:
                    if child.point_count > 0:
                        xmin, ymin, xmax, ymax = child.mbr
                        cx = (xmin + xmax) / 2.0
                        cy = (ymin + ymax) / 2.0
                        z = hyp(qx - (xmin if qx <= cx else xmax),
                                qy - (ymin if qy >= cy else ymax))
                        d = hyp(qx - (xmin if qx >= cx else xmax),
                                qy - (ymin if qy <= cy else ymax))
                        if d < z:
                            z = d
                        if z < best_g:
                            best_g = z
                            best_child = child
                if best_child is None:
                    if witness == page:
                        # The downloaded node witnessed the bound, but no
                        # child backs a guarantee: rebuild the bound from
                        # the best point and the queue, like
                        # _rescan_queue_bounds.
                        bound = best_d
                        witness = None
                        for n in sorted(lap + later, key=_by_page):
                            if n.point_count > 0:
                                z = n.mbr.minmaxdist(query)
                                if z < bound:
                                    bound = z
                                    witness = n.page_id
                elif best_g < bound:
                    bound = best_g
                    witness = best_child.page_id
                elif witness == page:
                    witness = best_child.page_id
        elif nn:
            for pt in node.points:
                d = hyp(qx - pt.x, qy - pt.y)
                if d < best_d:
                    best_d = d
                    best_pt = pt
            if best_d < bound:
                bound = best_d
                witness = None  # a concrete point witnesses the bound
        elif knn:
            for pt in node.points:
                d = hyp(qx - pt.x, qy - pt.y)
                if d < bound or len(best) < k:
                    if len(best) < k:
                        heappush(best, (-d, next(seq), pt))
                    else:
                        heapreplace(best, (-d, next(seq), pt))
                    if len(best) == k:
                        bound = -best[0][0]
        else:
            s._absorb_leaf(node)
        base = math.ceil(now - fphase)
        if (base % cycle != page + 1 and lap
                and lap[-1].page_id == page + 1):
            # The float clock rounded past slot x + 1 (past the lap's end
            # it passes over page 0, the root: never queued here).
            later.append(lap.pop())
    tuner.record_index_run(pages_dl, arrs, now, oks, lost, corrupt)
    if nn:
        s.upper_bound = bound
        s.best_dist = best_d
        s.best_point = best_pt
        s._witness_page = witness
    f.max_size = peak
    f._version += pops
