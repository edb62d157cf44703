"""The drain: one search run to completion in one walk.

A search's :meth:`step` pops one queued node in arrival order, prunes it
or downloads and absorbs it.  :func:`drain` replays that whole step
sequence in one loop, bit for bit, for every search on a layout with
cyclic page order that has not stepped: NN in the point metric or, after
Hybrid-NN's Case 3, the transitive one, under the exact policy or the ANN
optimisation's pruning policy (paper Section 5), and kNN, range and
window searches — to completion, or up to a limit on the next page's
arrival, leaving the unvisited records on the search's stack.  Every
search's ``run_to_completion`` calls it where it applies
(:meth:`~repro.client.arrival_queue.ArrivalQueueMixin._drains`), and so
do the bounded runs that drive a coupled group such as Hybrid-NN's pair
(:meth:`~repro.client.arrival_queue.ArrivalQueueMixin._run_until`, each
member up to the others' next arrival).  Both run under
:meth:`~repro.client.scheduler.SearchGroup.run`, which ``algorithm.run``
and batches share; the explicit ``step()`` loop, on the arrival heap,
stays the reference.

Index pages are numbered in DFS preorder
(:meth:`~repro.rtree.tree.RTree.assign_page_ids`), so a downloaded node's
children fill the pages right after it and no other queued entry lies
among them: cyclic page order from the cursor is a stack order.  A search
keeps one stack, smallest page on top, seeded with the root, and after a
download at slot ``x`` the walk moves its cursor to slot ``x + 1``,
which the channel's exact clock
(:class:`~repro.broadcast.channel.BroadcastChannel`) makes the step
loop's cursor too.

The stack holds flat node records, not the
:class:`~repro.rtree.node.RTreeNode` objects the step loop reads: one
plain tuple per index node, in a table indexed by page id, built the
first time a search on the tree is queued and cached on the tree
(:func:`walk_table`).  A pop unpacks its record in one statement — MBR,
page, children's records already reversed for the push, the children
that back an NN guarantee, the leaf's point list, the node, the
subtree's point count — instead of loading dataclass attributes and
calling ``reversed()`` per expansion.

In the transitive metric (Hybrid-NN's Case 3 survivor) a pop settles on
certified bounds, not on Lemma 1's ~25 side tests: a deflated weak bound
(:func:`weak_trans_lower`, inlined with per-axis exits before its
hypots) proves a prune, and an inflated transitive distance through a
point of the MBR (:func:`certified_keep`: Lemma 1's own optimum point
clamped into it, else its best corner) proves a keep.  Only the
entries inside the 1e-9 margin band between them reach the scalar
``min_trans_dist``: 58 of 59,407 transitive pops in one 1,000-query
``tnn_batch`` call (seed 1).  A guarantee scan starts from the bound, so
Lemma 3 runs only for children whose weak bound is below it, and two
opposite corners at or above the bound settle it without the other two.
"""

from __future__ import annotations

import math
from heapq import heappush, heapreplace
from typing import List, Optional, Tuple

from repro.broadcast.loss import FAULT_LOST
from repro.client.policies import PruneContext
from repro.geometry import min_max_trans_dist, min_trans_dist

#: Search kinds :func:`drain` walks (each search class's ``_DRAIN_KIND``;
#: an NN search with a ``start`` point is in the transitive metric).
NN, KNN, RANGE, WINDOW = "nn", "knn", "range", "window"

#: Certification margins for the cheap transitive bound estimates.  The
#: weak estimate, the transitive distances through points of the MBR and
#: the scalar Lemma 1 evaluation each carry a few ulp (~1e-15 relative)
#: of rounding slack while the distances are not tiny against the
#: coordinates; a 1e-9 margin buries that by six orders of magnitude, so a
#: deflated under-estimate or an inflated over-estimate that decides the
#: prune test decides it exactly like the scalar oracle.  Entries inside
#: the margin band fall back to the exact metric.
_CERT_DEFLATE = 1.0 - 1e-9
_CERT_INFLATE = 1.0 + 1e-9


def weak_trans_lower(start, mbr, end) -> float:
    """Certified under-estimate of the transitive Lemma 1 bound.

    ``dis(p,s) + dis(s,r) >= MinDist(p, M) + MinDist(r, M)`` for any
    ``s`` in ``M``; the deflation absorbs the few-ulp rounding slack
    between this estimate and the scalar Lemma 1 value, so ``weak >
    bound`` certifies the exact scalar test would have pruned too.  Two
    hypots instead of Lemma 1's ~25 side tests.  ``Rect.mindist`` is
    inlined with its max terms as conditionals: the same hypots, since at
    most one term per axis is positive and hypot drops the sign of a zero.
    """
    sx, sy = start
    ex, ey = end
    xmin, ymin, xmax, ymax = mbr
    dx = xmin - sx if xmin > sx else (sx - xmax if sx > xmax else 0.0)
    dy = ymin - sy if ymin > sy else (sy - ymax if sy > ymax else 0.0)
    fx = xmin - ex if xmin > ex else (ex - xmax if ex > xmax else 0.0)
    fy = ymin - ey if ymin > ey else (ey - ymax if ey > ymax else 0.0)
    return (math.hypot(dx, dy) + math.hypot(fx, fy)) * _CERT_DEFLATE


def certified_keep(start, mbr, end, bound: float) -> bool:
    """Certified over-estimate test: provably *not* prunable.

    Two tiers of upper bounds on Lemma 1, each the transitive distance
    through a point of the MBR and each inflated by the rounding margin:

    1. through Lemma 1's own optimum point, clamped into the MBR
       (:func:`_optimum_trans`; two hypots per candidate);
    2. through the best corner (eight hypots; Lemma 1's case-3 candidate
       set, where the first tier has none).

    Either one falling at or below ``bound`` certifies that the exact
    scalar test would have kept the entry — no Lemma 1 evaluation needed.
    The optimum is the minimum over the MBR, so another point of it (its
    centre, say) would certify nothing these two miss, up to rounding.
    """
    sx, sy = start
    ex, ey = end
    xmin, ymin, xmax, ymax = mbr
    u = _optimum_trans(sx, sy, ex, ey, xmin, ymin, xmax, ymax)
    if u * _CERT_INFLATE <= bound:
        return True
    hyp = math.hypot
    t = min(
        hyp(sx - xmin, sy - ymin) + hyp(xmin - ex, ymin - ey),
        hyp(sx - xmax, sy - ymin) + hyp(xmax - ex, ymin - ey),
        hyp(sx - xmax, sy - ymax) + hyp(xmax - ex, ymax - ey),
        hyp(sx - xmin, sy - ymax) + hyp(xmin - ex, ymax - ey),
    )
    return t * _CERT_INFLATE <= bound


def _optimum_trans(sx, sy, ex, ey, xmin, ymin, xmax, ymax) -> float:
    """The transitive distance through Lemma 1's optimum point of the MBR,
    clamped into it; ``inf`` when the optimum is a vertex.

    Case 2 (``p`` and ``r`` strictly outside one side): the optimum lies
    where the segment from ``p`` to ``r``'s mirror image crosses the
    side, which divides it in the ratio of their distances to the side's
    line.  Case 1 (segment ``p r`` meets the MBR): the middle of the
    segment clipped to the MBR.  Otherwise (case 3) the corner tier
    covers the optimum.  Each candidate is clamped into the MBR, so its
    transitive distance bounds Lemma 1 from above however the candidate
    was rounded.
    """
    hyp = math.hypot
    best = math.inf
    if sx < xmin and ex < xmin:
        a = xmin - sx
        y = sy + (ey - sy) * (a / (a + (xmin - ex)))
        y = ymin if y < ymin else (ymax if y > ymax else y)
        best = hyp(sx - xmin, sy - y) + hyp(xmin - ex, y - ey)
    elif sx > xmax and ex > xmax:
        a = sx - xmax
        y = sy + (ey - sy) * (a / (a + (ex - xmax)))
        y = ymin if y < ymin else (ymax if y > ymax else y)
        best = hyp(sx - xmax, sy - y) + hyp(xmax - ex, y - ey)
    if sy < ymin and ey < ymin:
        a = ymin - sy
        x = sx + (ex - sx) * (a / (a + (ymin - ey)))
        x = xmin if x < xmin else (xmax if x > xmax else x)
        u = hyp(sx - x, sy - ymin) + hyp(x - ex, ymin - ey)
        if u < best:
            best = u
    elif sy > ymax and ey > ymax:
        a = sy - ymax
        x = sx + (ex - sx) * (a / (a + (ey - ymax)))
        x = xmin if x < xmin else (xmax if x > xmax else x)
        u = hyp(sx - x, sy - ymax) + hyp(x - ex, ymax - ey)
        if u < best:
            best = u
    if best < math.inf:
        return best
    # Case 1: clip the segment's parameter range [0, 1] to the MBR
    # (Liang-Barsky) and take the middle of what is left.
    lo, hi = 0.0, 1.0
    for s0, d, m0, m1 in ((sx, ex - sx, xmin, xmax),
                          (sy, ey - sy, ymin, ymax)):
        if d == 0.0:
            if s0 < m0 or s0 > m1:
                return math.inf
            continue
        t0 = (m0 - s0) / d
        t1 = (m1 - s0) / d
        if t0 > t1:
            t0, t1 = t1, t0
        if t0 > lo:
            lo = t0
        if t1 < hi:
            hi = t1
    if lo > hi:
        return math.inf
    t = (lo + hi) / 2.0
    x = sx + (ex - sx) * t
    y = sy + (ey - sy) * t
    x = xmin if x < xmin else (xmax if x > xmax else x)
    y = ymin if y < ymin else (ymax if y > ymax else y)
    return hyp(sx - x, sy - y) + hyp(x - ex, y - ey)


def corner_minmax_trans(start, mbr, end) -> float:
    """Lemma 3 via shared corner distances — half the hypot count.

    ``min_max_trans_dist`` is ``min`` over the four CCW sides of ``max``
    over the side's two endpoints of the corner transitive distance; the
    scalar helper in :mod:`repro.geometry.transitive` recomputes each
    corner for both adjacent sides.  Evaluating the four corners once and
    replaying the same max/min order is bit-identical (identical hypot
    calls, identical sums) at 8 hypots instead of 16.  Used by the
    rescan of a search on the walk's stack, and inlined in the walk, so
    the scalar oracle stays the seed implementation.
    """
    sx, sy = start
    ex, ey = end
    xmin, ymin, xmax, ymax = mbr
    hyp = math.hypot
    t0 = hyp(sx - xmin, sy - ymin) + hyp(xmin - ex, ymin - ey)
    t1 = hyp(sx - xmax, sy - ymin) + hyp(xmax - ex, ymin - ey)
    t2 = hyp(sx - xmax, sy - ymax) + hyp(xmax - ex, ymax - ey)
    t3 = hyp(sx - xmin, sy - ymax) + hyp(xmin - ex, ymax - ey)
    return min(max(t0, t1), max(t1, t2), max(t2, t3), max(t3, t0))


def retry_chain(model, slot0: int, cycle: int, phase: float,
                ev_arr: List[float]) -> Tuple[int, int]:
    """Replay one faulty index download's retry loop closed form.

    Replicas of an index page on a cyclic layout sit exactly one cycle
    apart, so attempt ``n`` of a chain whose first attempt falls on
    integer slot ``slot0`` arrives at ``float(slot0 + n * cycle) +
    phase``, as the scalar channel arithmetic computes it.  Each attempt
    is classified by ``model`` until one succeeds, exactly like
    ``ChannelTuner._receive_at``; every attempt's arrival is appended to
    ``ev_arr``, the successful one last.  Returns ``(lost, corrupt)``:
    the failures split by kind.
    """
    lost = corrupt = 0
    while True:
        arrival = float(slot0) + phase
        ev_arr.append(arrival)
        fault = model.classify(arrival)
        if fault == 0:
            return lost, corrupt
        if fault == FAULT_LOST:
            lost += 1
        else:
            corrupt += 1
        slot0 += cycle


def walk_table(tree) -> list:
    """The drain's flat node records of ``tree``, indexed by page id
    (cached on the tree).

    One plain tuple per index node, ``(mbr, page, kids, backed, points,
    node, count)``:

    * ``mbr`` and ``page`` are the node's own ``Rect`` and page id;
    * ``kids`` holds the children's records in reverse page order, ready
      for the stack push, and ``backed`` in page order those of the
      children whose subtrees hold points — the candidates of an NN
      search's guarantee (both ``None`` for a leaf; a childless internal
      node has empty ones);
    * ``points`` is the leaf's own point list, not a copy (``None`` for
      an internal node);
    * ``node`` is the :class:`~repro.rtree.node.RTreeNode`, for a
      search's first step, which moves its stack onto the heap, and for
      an ANN policy's node depth;
    * ``count`` is the subtree's point count, which decides whether the
      node backs an NN or a kNN search's guarantee.

    Built the first time a search on the tree is queued.  The records bind
    the page numbering, so :meth:`~repro.rtree.tree.RTree.assign_page_ids`
    drops the table, and a pickled tree leaves it out.
    """
    table = getattr(tree, "_walk_table", None)
    if table is not None:
        return table
    nodes = list(tree.iter_nodes())
    table = [None] * len(nodes)
    # Reverse preorder: every child's record exists before its parent's.
    for node in reversed(nodes):
        page = node.page_id
        if node.level:
            recs = [table[c.page_id] for c in node.children]
            backed = tuple([r for r in recs if r[6] > 0])
            table[page] = (node.mbr, page, tuple(reversed(recs)), backed,
                           None, node, node.point_count)
        else:
            table[page] = (node.mbr, page, None, None, node.points, node,
                           node.point_count)
    tree._walk_table = table
    return table


def drain(s, limit: float = math.inf, strict: bool = False) -> None:
    """Run search ``s`` as one preorder stack walk, to completion or to
    ``limit``.

    ``s`` holds the walk's stack
    (:meth:`~repro.client.arrival_queue.ArrivalQueueMixin._drains`): flat
    node records of its tree (:func:`walk_table`), smallest page on top,
    seeded with the root's.
    Its pages lie all at or past the cursor ``ceil(now - phase) % cycle``
    or all before it (a fresh root); a stack on both sides of the cursor
    raises ``RuntimeError``.  Each pop unpacks one record in one
    statement, and an expansion pushes the record's ready-reversed
    children.  Before each pop a bounded walk (finite ``limit``) computes
    the top entry's arrival and stops when it lies past ``limit`` (at
    ``limit`` too when ``strict``) — the step loop's stopping rule
    (``_run_until``), which reproduces :func:`~repro.client.run_all`'s
    tie rule in a coupled group.  A stopped walk leaves its unvisited records on
    the stack, so ``step()``, ``next_event_time()``, a rescan or a later
    walk resume from the state the step loop would have left.  A pop
    prunes against the search's own bound — the NN upper bound, the kNN
    prune bound or the range radius (a window search filters its children
    at push time instead) — on the exact MINDIST, or in transitive mode on
    a certified cascade: :func:`weak_trans_lower` (inlined; a per-axis
    term sum already past the bound prunes before the hypots) proves a
    prune, :func:`certified_keep`'s two tiers prove a keep, and the scalar
    ``min_trans_dist`` decides the entries neither settles.  An NN search
    under a pruning policy (the ANN optimisation of Section 5) then asks
    ``policy.should_prune`` about each kept entry, with the
    :class:`~repro.client.policies.PruneContext` its step would build.  A
    download books at the cursor's closed-form arrival and moves the
    cursor to the next slot (the channel's clock is exact); on a faulty
    tuner that first attempt is classified inline, and only a failed one
    replays its retry chain from the next replica (:func:`retry_chain`; a
    retry moves the clock by whole cycles, so the cursor stays put in the
    cycle).  Every attempt books in one ``record_index_run`` call.  Each
    node is absorbed before the next pop:

    * NN: a leaf runs the strict-``<`` offer loop on ``dis(q, p)``, or on
      ``dis(start, p) + dis(p, end)`` in transitive mode; an internal
      node takes the first strictly best guarantee (MINMAXDIST, or
      :func:`corner_minmax_trans` behind the inlined weak bound and the
      two opposite corners' test) over its children holding points,
      scanning from the bound unless the node witnesses it, and hands the
      witness on like ``_absorb_internal``, rebuilding the bound from the
      stack in ascending page order when a void witness is downloaded;
    * kNN: a leaf runs the scalar offer loop (``_offer``), which
      admits on the k-th best alone; only the order of the sequence
      numbers breaks ties, so a rejected offer takes none.  An internal
      node lowers the MAXDIST guarantee to the smallest ``Rect.maxdist``
      among its children holding ``k`` points, like ``_push_children``.
      The pop prunes on the smaller of the two, so a pruned subtree
      holds only points farther than ``k`` known ones;
    * range and window: a leaf appends its points in leaf order that lie
      in the closed circle (``dis(center, p) <= radius``) or the closed
      rectangle, as the search's own ``_absorb_leaf`` does.
    """
    stack = s._stack
    cycle = s._cycle
    phase = s._phase
    hyp = math.hypot
    deflate = _CERT_DEFLATE
    # math.dist takes the hypot of the per-axis differences: the same
    # float as the step loop's hypot(qx - x, qy - y), without unpacking.
    dist = math.dist
    kind = s._DRAIN_KIND
    trans = kind is NN and s.start is not None
    nn = kind is NN and not trans
    knn = kind is KNN
    window = kind is WINDOW
    # ANN pruning (a non-trivial NN policy): asked after the exact keep.
    ann = (nn or trans) and not s._policy_trivial
    if nn or trans:
        bound = s.upper_bound
        best_d = s.best_dist
        best_pt = s.best_point
        witness = s._witness_page
        if nn:
            query = s.query
            qx, qy = query
        else:
            start = s.start
            end = s.end
            sx, sy = start
            ex, ey = end
        if ann:
            should_prune = s.policy.should_prune
            depth_of = s.tree.depth_of
            height = s.tree.height
            ctx_query, ctx_start, ctx_end = s.query, s.start, s.end
    elif knn:
        query = s.query
        qx, qy = query
        k = s.k
        best = s._best
        seq = s._offer_seq
        # Offers admit on the k-th best; pops prune on the smaller of it
        # and the MAXDIST guarantee.
        kth = s.bound
        guar = s._guarantee
        bound = kth if kth < guar else guar
    else:
        found = s.results.append
        if window:
            wx0, wy0, wx1, wy1 = s.window
        else:
            query = s.circle.center
            qx, qy = query
            bound = s.circle.radius
    tuner = s.tuner
    loss = tuner.loss
    # Reception attempts collect here and book in one record_index_run
    # call — one clock write, one counter add, one log extend.
    pages_dl: List[int] = []
    arrs: List[float] = []
    oks: Optional[List[bool]] = None if loss is None else []
    lost = corrupt = 0
    bounded = limit < math.inf
    base = math.ceil(tuner.now - phase)
    if stack and stack[-1][1] < base % cycle <= stack[0][1]:
        raise RuntimeError(
            f"queued pages {stack[-1][1]}..{stack[0][1]} straddle the "
            f"cursor {base % cycle}"
        )
    peak = s._max_queue
    while stack:
        if bounded:
            page = stack[-1][1]
            arrival = base + (page - base) % cycle + phase
            if arrival > limit or (strict and arrival == limit):
                break  # stop before the pop: the stack stays as it is
        mbr, page, kids, backed, points, node, count = stack.pop()
        if trans:
            # _decide_keep's cascade: the weak bound proves a prune, the
            # certified keep a keep, and Lemma 1 decides the rest.
            # weak_trans_lower is inlined; a hypot is at least each of its
            # terms, so one term per point already past the bound proves
            # the prune without a hypot.
            xmin, ymin, xmax, ymax = mbr
            dx = xmin - sx if xmin > sx else (sx - xmax if sx > xmax else 0.0)
            fx = xmin - ex if xmin > ex else (ex - xmax if ex > xmax else 0.0)
            if (dx + fx) * deflate > bound:
                continue
            dy = ymin - sy if ymin > sy else (sy - ymax if sy > ymax else 0.0)
            fy = ymin - ey if ymin > ey else (ey - ymax if ey > ymax else 0.0)
            if (dy + fy) * deflate > bound or (
                    (hyp(dx, dy) + hyp(fx, fy)) * deflate > bound) or (
                    not certified_keep(start, mbr, end, bound)
                    and min_trans_dist(start, mbr, end) > bound):
                continue
        elif not window:
            # Inline Rect.mindist with its max terms as conditionals: the
            # same hypot, since at most one term is positive and hypot
            # drops the sign of a zero.  circle.intersects_rect is
            # mindist <= radius.  hypot(dx, dy) is at least dx and dy, so
            # a term past the bound prunes without the hypot.
            xmin, ymin, xmax, ymax = mbr
            dx = xmin - qx if xmin > qx else (
                qx - xmax if qx > xmax else 0.0)
            if dx > bound:
                continue
            dy = ymin - qy if ymin > qy else (
                qy - ymax if qy > ymax else 0.0)
            if dy > bound or hyp(dx, dy) > bound:
                continue
        if ann and should_prune(PruneContext(
                mbr, depth_of(node), height, bound, ctx_query, ctx_start,
                ctx_end, witness == page, count)):
            continue  # ANN pruning: unlikely to improve the answer
        slot = base + (page - base) % cycle
        arrival = slot + phase
        pages_dl.append(page)
        arrs.append(arrival)
        if loss is not None:
            # Most first attempts succeed; a failed one replays its
            # retry chain from the next replica.
            fault = loss.classify(arrival)
            if fault:
                if fault == FAULT_LOST:
                    lost += 1
                else:
                    corrupt += 1
                nl, nc = retry_chain(
                    loss, slot + cycle, cycle, phase, arrs
                )
                pages_dl.extend([page] * (nl + nc + 1))
                oks.extend([False] * (nl + nc + 1))
                lost += nl
                corrupt += nc
                slot += (nl + nc + 1) * cycle
            oks.append(True)
        base = slot + 1
        if kids is not None:
            if window:
                # Rect.intersects_rect, children in reverse page order.
                for child in kids:
                    xmin, ymin, xmax, ymax = child[0]
                    if not (xmin > wx1 or xmax < wx0
                            or ymin > wy1 or ymax < wy0):
                        stack.append(child)
            else:
                stack.extend(kids)
            if len(stack) > peak:
                peak = len(stack)
            if nn or trans:
                # _absorb_internal: the first strictly best guarantee of a
                # child that holds points.  Only a guarantee below the
                # bound can move the bound or the witness, so unless this
                # node witnesses the bound the scan starts from it: the
                # first strict minimum below the bound is the same child
                # with the same value.
                best_child = None
                best_g = math.inf if witness == page else bound
                if nn:
                    for child in backed:
                        # Rect.minmaxdist, inlined.
                        xmin, ymin, xmax, ymax = child[0]
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
                else:
                    for child in backed:
                        # A weak bound (inlined, with the pop's per-axis
                        # exits) that meets the best proves the guarantee
                        # cannot beat it.
                        xmin, ymin, xmax, ymax = child[0]
                        dx = xmin - sx if xmin > sx else (
                            sx - xmax if sx > xmax else 0.0)
                        fx = xmin - ex if xmin > ex else (
                            ex - xmax if ex > xmax else 0.0)
                        if (dx + fx) * deflate >= best_g:
                            continue
                        dy = ymin - sy if ymin > sy else (
                            sy - ymax if sy > ymax else 0.0)
                        fy = ymin - ey if ymin > ey else (
                            ey - ymax if ey > ymax else 0.0)
                        if (dy + fy) * deflate >= best_g or (
                                (hyp(dx, dy) + hyp(fx, fy)) * deflate
                                >= best_g):
                            continue
                        # corner_minmax_trans, inlined: every side holds
                        # one of the opposite corners t0 and t2, so both
                        # sums at or above the best put every side's max
                        # there too, without the other two corners.
                        t0 = hyp(sx - xmin, sy - ymin) + hyp(xmin - ex,
                                                             ymin - ey)
                        t2 = hyp(sx - xmax, sy - ymax) + hyp(xmax - ex,
                                                             ymax - ey)
                        if t0 >= best_g and t2 >= best_g:
                            continue
                        t1 = hyp(sx - xmax, sy - ymin) + hyp(xmax - ex,
                                                             ymin - ey)
                        t3 = hyp(sx - xmin, sy - ymax) + hyp(xmin - ex,
                                                             ymax - ey)
                        z = min(max(t0, t1), max(t1, t2), max(t2, t3),
                                max(t3, t0))
                        if z < best_g:
                            best_g = z
                            best_child = child
                if best_child is None:
                    if witness == page:
                        # The downloaded node witnessed the bound, but no
                        # child backs a guarantee: rebuild the bound from
                        # the best point and the stack (ascending pages),
                        # like _rescan_queue_bounds.
                        bound = best_d
                        witness = None
                        for rec in reversed(stack):
                            if rec[6] > 0:
                                z = (rec[0].minmaxdist(query) if nn else
                                     min_max_trans_dist(start, rec[0], end))
                                if z < bound:
                                    bound = z
                                    witness = rec[1]
                elif best_g < bound:
                    bound = best_g
                    witness = best_child[1]
                elif witness == page:
                    witness = best_child[1]
            elif knn:
                # The MAXDIST guarantee: a child holding k points holds k
                # within Rect.maxdist (inlined) of the query.  Its x term
                # alone meeting the guarantee proves no improvement.
                for child in kids:
                    if child[6] >= k:
                        xmin, ymin, xmax, ymax = child[0]
                        dx = qx - xmin
                        z = xmax - qx
                        if z > dx:
                            dx = z
                        if dx >= guar:
                            continue
                        dy = qy - ymin
                        z = ymax - qy
                        if z > dy:
                            dy = z
                        z = hyp(dx, dy)
                        if z < guar:
                            guar = z
                if guar < bound:
                    bound = guar
        elif nn:
            for pt in points:
                d = dist(query, pt)
                if d < best_d:
                    best_d = d
                    best_pt = pt
            if best_d < bound:
                bound = best_d
                witness = None  # a concrete point witnesses the bound
        elif trans:
            for pt in points:
                d = dist(start, pt) + dist(pt, end)
                if d < best_d:
                    best_d = d
                    best_pt = pt
            if best_d < bound:
                bound = best_d
                witness = None
        elif knn:
            for pt in points:
                d = dist(query, pt)
                if d < kth or len(best) < k:
                    if len(best) < k:
                        heappush(best, (-d, next(seq), pt))
                    else:
                        heapreplace(best, (-d, next(seq), pt))
                    if len(best) == k:
                        kth = -best[0][0]
            if kth < bound:
                bound = kth
        elif window:
            # The closed tests of Rect/Circle.contains_point, inlined:
            # calling the search's own _absorb_leaf cost 4% of
            # tnn_single's throughput (10 pairs, 2-vCPU host).
            for pt in points:
                x, y = pt
                if wx0 <= x <= wx1 and wy0 <= y <= wy1:
                    found(pt)
        else:
            for pt in points:
                if dist(query, pt) <= bound:
                    found(pt)
    # The last attempt succeeded: the clock stands one slot after it.
    now = arrs[-1] + 1.0 if arrs else tuner.now
    tuner.record_index_run(pages_dl, arrs, now, oks, lost, corrupt)
    if nn or trans:
        s.upper_bound = bound
        s.best_dist = best_d
        s.best_point = best_pt
        s._witness_page = witness
    elif knn:
        s._guarantee = guar
    s._max_queue = peak
