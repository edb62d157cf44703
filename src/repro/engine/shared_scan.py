"""Shared-scan batch executor: page-major execution of a query workload.

A broadcast channel is physically a *shared scan*: every client hears the
same cyclic page sequence.  The per-query path replays the whole broadcast
cycle once per query — a 1,000-query workload decodes the same pages and
pays the same kernel dispatches 1,000 times over.  This module flips the
loop to **page-major** order:

* every query's stages (:class:`~repro.client.scheduler.SearchGroup`)
  are handed to one :class:`SharedScanExecutor`; its NN searches join a
  columnar arena, and the executor repeatedly runs *rounds*;
* each round serves, for every active query, the one NN search
  :func:`~repro.client.scheduler.run_all` would step next (paired
  ping-pong for Hybrid-NN's callback-coupled estimate searches, every
  unfinished member for independent ones): the search pops its
  arrival-frontier head, applies
  its pop-time pruning decision on the cached bound, and downloads the page
  when it survives — all per-query work, but a few hundred nanoseconds
  each;
* the expensive part — the Lemma 1–3 bounds and leaf distances of every
  node expanded this round — is then evaluated in a handful of
  **multi-query kernel calls** (:func:`repro.geometry.kernels
  .point_bounds_multi` and friends): one ``(k, 2)`` query block against one
  ``(k, n, 4)`` child-MBR / ``(k, n, 2)`` point block, grouped by (metric,
  node kind, fan-out).  At the paper's 64-byte page geometry (M = 3) a
  single query never reaches the kernel dispatch floor; ``k`` queries
  expanding nodes on the same round clear it together, so the fixed
  per-ufunc cost amortises across the *workload* instead of one fan-out.

Because the geometry kernels are elementwise, a round batches expansions of
*different* pages just as well as same-page fan-outs — the round is the
arrival tick of the shared scan, not a single page's bucket, which is
strictly more batching than per-page grouping.

Lossless range searches on a frontier (the TNN filter phase's two
circle queries, ``run_many`` range requests) queue for a
**set-at-a-time pass**: up to ``_RANGE_BATCH`` of them walk the node
store level by level together, one exact multi-query MINDIST call per
level deciding every prune, and each download's slot follows in closed
form from the drain's clock.  Those two shapes are all the executor
batches.  Every other group — kNN, window and faulty range searches,
heap backends, pruning policies, anything else — runs the moment it is
added, through :meth:`SearchGroup.run
<repro.client.scheduler.SearchGroup.run>`: the code ``algorithm.run``
runs per query, whose searches drain as a preorder stack walk
(:func:`repro.client.drain.drain`) wherever they can.

**Bit-identity contract.**  The per-query ``step()`` loop remains the
oracle: for every query, the executor produces the same answers, access
times, tune-in counts and max queue sizes, bit for bit.  The contract
holds by construction:

* each search's *step sequence* is exactly the one ``run_all`` produces —
  groups encode ``run_all``'s ordering rules, and searches in different
  groups share no state, so interleaving across queries is free;
* each step's *values* are exactly the per-query values — exact
  multi-query kernels replay the scalar operation order per lane (the
  exact vectorised hypot is bit-identical to ``math.hypot``), while the
  transitive lanes run raw-hypot *certified estimates* whose deflated
  margins can only decide provably-identical outcomes (prunes, skipped
  guarantee scans) with every stored value still computed by the exact
  scalar metrics; the absorb lanes replay the per-query absorb logic
  (``_absorb_internal`` / ``_absorb_leaf``) on the batched rows, the range
  pass's slots replay the drain's cursor, and the inlined page download
  replays the tuner's arrival arithmetic;
* everything that cannot batch runs the per-query code itself:
  sub-threshold lanes take the search's scalar absorb, and every group
  outside the arena and the range pass runs through ``SearchGroup.run``
  (under ``REPRO_NO_KERNELS=1`` every search is heap-backed, so every
  group does).  A search's backend is fixed when it is built: one with
  an :class:`~repro.client.frontier.ArrivalFrontier` can batch, one on
  the heap steps itself;
* a fault model sends every group it touches through ``SearchGroup.run``.
  A faulty tuner's retry chain is irregular (a missed page's next
  replica is one cycle later, per attempt), so batching it buys nothing:
  lossy searches of every type drain there, replaying each chain closed
  form through :func:`~repro.client.drain.retry_chain` and booking every
  attempt in the drain's one ``record_index_run`` call.  The arena and
  the range pass serve lossless searches only, and every arena search's
  tuner books into the executor's :class:`~repro.broadcast.tuner
  .TunerLedger`.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.broadcast.tuner import TunerLedger
from repro.client.drain import _CERT_DEFLATE, _CERT_INFLATE
from repro.client.frontier import FrontierArena, NodeStore
from repro.client.range_query import BroadcastRangeSearch
from repro.client.scheduler import SearchGroup
from repro.client.search import BroadcastNNSearch
from repro.core.environment import TNNEnvironment
# Unused here; kept because perfbench's tracer wraps this binding.
from repro.core.join import transitive_join  # noqa: F401
from repro.core.result import TNNResult
from repro.geometry import Point, kernels

#: Smallest same-shape survivor lane worth one multi-query kernel call.
#: Below it the per-search scalar absorb (itself adaptive) is cheaper than
#: array packing plus dispatch; results are identical either way, so this
#: is purely a performance dial.
_MIN_LANE = 4

#: Range searches per set-at-a-time pass.  Big enough that every kernel
#: call of the pass spans thousands of rows; small enough that a pass's
#: entry arrays stay small (one pass over all 2,000 filter searches of a
#: 1,000-query TNN campaign raised its peak RSS from 66 to 95 MB).
_RANGE_BATCH = 128


def _sid_append(arr: np.ndarray, i: int, value: int) -> np.ndarray:
    """Write ``value`` at index ``i`` of a grown int64 scratch array."""
    if i >= arr.shape[0]:
        new = np.empty(max(64, 2 * (i + 1)), dtype=np.int64)
        new[: arr.shape[0]] = arr
        arr = new
    arr[i] = value
    return arr


# ----------------------------------------------------------------------
# The round-based executor
# ----------------------------------------------------------------------
class SharedScanExecutor:
    """Drives many queries' searches through one page-major loop.

    Add :class:`~repro.client.scheduler.SearchGroup` instances (their
    ``tag``, when set, must provide ``advance() -> Optional[SearchGroup]``
    — the query's continuation once the group completes, e.g. a TNN
    query's next lifecycle stage), then :meth:`run` to completion.

    Two shapes batch, chosen per group by what its searches' pop-time
    prune test reads:

    * **lossless NN searches** — the prune bound (``upper_bound``)
      evolves at every absorb, so a serve is one ``pop_until`` run:
      consume certified-prunable entries, stop at the first survivor,
      download it, and defer its expansion to the round's multi-query
      kernel batch.  Every such search joins the columnar
      :class:`~repro.client.frontier.FrontierArena`, whose
      :class:`~repro.client.frontier.NodeStore` is the executor's one node
      representation: phase A serves every due search in whole-workload
      array passes and hands the survivors to the absorb lanes as store
      ids.  Hybrid pairs pass the sibling's next event time as the pop
      limit (``run_all``'s ping-pong tie rule); independent searches run
      unlimited.
    * **lossless range searches on a frontier** — the prune test reads
      only the fixed radius, so the searches queue and
      :meth:`_serve_range_batch` runs ``_RANGE_BATCH`` of them to
      completion in one array pass (level-by-level MINDIST prunes,
      closed-form slots, booking per search), once a batch fills or no NN
      search is left in the arena.

    Every other group (kNN and window searches, any search on a faulty
    tuner, heap backends — among them every search built under
    ``REPRO_NO_KERNELS=1`` — non-trivial pruning policies, NN searches
    grouped with other types, born-finished groups) runs in :meth:`add`
    through :meth:`SearchGroup.run
    <repro.client.scheduler.SearchGroup.run>`, the per-query driver: its
    searches drain wherever they can, and the query's next stage is added
    right after.
    """

    def __init__(self) -> None:
        #: The run's one node store, shared by the arena and the range
        #: pass (a tree may have only one live cover).
        self._store = NodeStore()
        #: Range searches waiting for the set-at-a-time pass, as
        #: ``(group, search)`` rows in queue order.
        self._range_queue: List[tuple] = []
        #: Groups whose members all serve through the columnar arena.
        self._arena_groups: List[SearchGroup] = []
        self._arena: Optional[FrontierArena] = None
        #: Columnar tuner state for arena-served searches: clocks, page
        #: counters and the packed event arena, updated with one
        #: vectorised pass per round.  Created with the arena.
        self._ledger: Optional[TunerLedger] = None
        #: Arena sid -> ledger row of the owning search's tuner.
        self._sid_row = np.empty(0, dtype=np.int64)
        #: The round's confirmed serve downloads, held until the arena
        #: flush point and then written to the ledger in one pass.
        self._flush_pending: Optional[tuple] = None
        #: Persistent serve structures for the arena round: live pairs as
        #: ``(group, s0, s1)`` rows, everything else as ``(group, s)``
        #: always-due rows — updated incrementally on finish events, so no
        #: per-round reclassification pass is needed.  The parallel sid
        #: arrays (``_pa`` / ``_pb`` / ``_solo_sids``) mirror the rows
        #: under the same incremental swap-removal, so no per-round
        #: ``np.fromiter`` rebuild happens either; the due/limits/stricts
        #: vectors of each round assemble into grown scratch buffers.
        self._pairs: List[tuple] = []
        self._pair_index: dict = {}
        self._solos: List[tuple] = []
        self._solo_index: dict = {}
        self._pa = np.empty(0, dtype=np.int64)
        self._pb = np.empty(0, dtype=np.int64)
        self._solo_sids = np.empty(0, dtype=np.int64)
        self._due_buf = np.empty(0, dtype=np.int64)
        self._lim_buf = np.empty(0, dtype=np.float64)
        self._strict_buf = np.empty(0, dtype=bool)
        #: The scratch buffers' solo tail (always-due sids, inf limits,
        #: non-strict) only changes when the group membership does, so
        #: rounds in between skip rewriting it.
        self._tail_dirty = True
        #: Cached length-n views over the scratch buffers; recut only
        #: when the row count (or the buffers) change.
        self._round_views: Optional[tuple] = None
        #: Live point-query members among the arena rows.  All-transitive
        #: rounds (the TNN common case) skip the weak-row point split and
        #: the point-bit lane-key OR entirely while it is zero.
        self._n_point = 0

    def add(self, group: Optional[SearchGroup]) -> None:
        """Take one group: batch it, or run it now and take its successor.

        Only the two batched shapes wait for :meth:`run`; every other
        group — born-finished ones included — runs to completion here
        through :meth:`SearchGroup.run`, the per-query driver, and the
        group its ``tag`` continues with is taken next.
        """
        while group is not None:
            pending = group.pending
            if pending:
                if all(
                    type(s) is BroadcastNNSearch
                    and s._frontier is not None
                    and s._policy_trivial
                    and s.tuner.loss is None
                    for s in pending
                ):
                    break
                if (not group.paired or len(pending) == 1) and all(
                    self._takes_range_pass(s) for s in pending
                ):
                    self._range_queue.extend((group, s) for s in pending)
                    return
            group.run()
            group = group.tag.advance() if group.tag is not None else None
        if group is None:
            return
        # Fast lossless NN searches join the shared columnar arena: their
        # frontiers' queued entries move into one set of numpy lanes
        # and the round serves them with whole-workload array passes.
        if self._arena is None:
            self._arena = FrontierArena(self._store)
            self._ledger = TunerLedger()
        ledger = self._ledger
        for s in pending:
            if getattr(s, "_arena_sid", -1) < 0:
                self._arena.register(s)
                # Hoist the tuner's scalars into ledger lanes; the
                # attach is idempotent, so a tuner shared across
                # phases keeps its row (and its event history).
                self._sid_row = _sid_append(
                    self._sid_row, s._arena_sid, ledger.attach(s.tuner)
                )
        self._arena_groups.append(group)
        self._tail_dirty = True
        for s in pending:
            if getattr(s, "_point_bit", 0):
                self._n_point += 1
        if group.paired and len(pending) > 1:
            i = len(self._pairs)
            self._pair_index[id(group)] = i
            self._pairs.append((group, pending[0], pending[1]))
            self._pa = _sid_append(self._pa, i, pending[0]._arena_sid)
            self._pb = _sid_append(self._pb, i, pending[1]._arena_sid)
        else:
            for s in pending:
                i = len(self._solos)
                self._solo_index[id(s)] = i
                self._solos.append((group, s))
                self._solo_sids = _sid_append(
                    self._solo_sids, i, s._arena_sid
                )

    def run(self) -> None:
        while self._arena_groups or self._range_queue:
            self._round()

    # ------------------------------------------------------------------
    def _round(self) -> None:
        #: Survivors of the round's scalar serve continuations (phase-A
        #: rows the exact test pruned after all), as ``(sid, nid)``
        #: pairs; they join phase A's kept rows in the absorb lanes.
        resumed: List[Tuple[int, int]] = []
        #: Searches verified finished by their serve, with their groups.
        probe: List[Tuple[SearchGroup, object]] = []
        ctx = (resumed, probe)
        lanes = self._arena_phase_a(ctx) if self._arena_groups else None
        if lanes:
            self._absorb_nn_lanes(lanes)
        # No arena flush here: the probe loop's re-steer rescans flush on
        # demand (attached ops mask tombstones and check staged counts),
        # and the next round's phase A flushes before its vector passes —
        # one rebuild per round instead of two.
        if self._flush_pending is not None:
            # The ledger flush rides alongside the arena flush: one
            # vectorised pass moves every confirmed download's clock,
            # counter and log event — and it lands before the finish
            # probes below, whose advance() continuations read the
            # tuners' access times and page counts.
            res, rej, due = self._flush_pending
            self._flush_pending = None
            confirmed = res["act"]
            if rej:
                confirmed = confirmed.copy()
                confirmed[rej] = False
            conf = np.flatnonzero(confirmed)
            if conf.size:
                self._ledger.flush_round(
                    self._sid_row[due[conf]],
                    res["page"][conf],
                    res["arrival"][conf],
                )
        if self._range_queue:
            # Full batches serve as soon as they fill; the rest once no
            # NN search is left to queue more filter searches behind them.
            self._serve_ranges(probe, not self._arena_groups)

        # Finish bookkeeping: every probe entry was verified finished by
        # its serve (an emptied queue never refills).  on_finish fires
        # directly after the serve (and deferred absorb) that completed a
        # search — before any member of the same group is served again —
        # which is exactly run_all's on_finish moment.
        completed: Optional[List[SearchGroup]] = None
        arena = self._arena
        for g, s in probe:
            g.pending.remove(s)
            if arena is not None and getattr(s, "_arena_sid", -1) >= 0:
                self._retire_arena_member(g, s)
            if g.on_finish is not None:
                g.on_finish(s)
                if arena is not None:
                    # The callback may have re-steered a sibling (new
                    # metric epoch, query point, upper bound): mirror
                    # every member's serve state back into the lanes.
                    for m in g.searches:
                        if getattr(m, "_arena_sid", -1) >= 0:
                            arena.sync(m)
            if not g.pending:
                if completed is None:
                    completed = [g]
                else:
                    completed.append(g)
        if completed is not None:
            self._arena_groups = [g for g in self._arena_groups if g.pending]
            for g in completed:
                if g.tag is not None:
                    self.add(g.tag.advance())

    def _retire_arena_member(self, g: SearchGroup, s) -> None:
        """Drop a finished arena search from the persistent serve rows.

        A finished pair member demotes its group to an always-due solo row
        for the surviving sibling; a finished solo row is swap-removed.
        """
        self._tail_dirty = True
        if getattr(s, "_point_bit", 0):
            self._n_point -= 1
        i = self._pair_index.pop(id(g), None)
        if i is not None:
            pairs = self._pairs
            row = pairs[i]
            last = pairs.pop()
            if last[0] is not g:
                pairs[i] = last
                self._pair_index[id(last[0])] = i
                n = len(pairs)
                self._pa[i] = self._pa[n]
                self._pb[i] = self._pb[n]
            sibling = row[2] if row[1] is s else row[1]
            j = len(self._solos)
            self._solo_index[id(sibling)] = j
            self._solos.append((g, sibling))
            self._solo_sids = _sid_append(
                self._solo_sids, j, sibling._arena_sid
            )
        else:
            j = self._solo_index.pop(id(s))
            solos = self._solos
            last = solos.pop()
            if last[1] is not s:
                solos[j] = last
                self._solo_index[id(last[1])] = j
                self._solo_sids[j] = self._solo_sids[len(solos)]

    def _arena_phase_a(self, ctx) -> Optional[tuple]:
        """Serve every arena group's due member through batched lanes.

        One :meth:`FrontierArena.begin_round` pass yields every search's
        head arrival (the pairing ping-pong reads), one
        :meth:`FrontierArena.serve` pass consumes every due search's
        certified-prunable run and hands back its survivor, and
        :meth:`_resolve_survivors` finishes every serve with whole-round
        array passes; the absorb lanes come back as store-id arrays.
        """
        arena = self._arena
        arena.flush()  # merge registrations staged since the last round
        heads = arena.begin_round()
        n_pairs = len(self._pairs)
        n_solo = len(self._solos)
        n = n_pairs + n_solo
        views = self._round_views
        if views is None or views[0].shape[0] != n:
            if self._due_buf.shape[0] < n:
                # Grown scratch: the round's due/limits/stricts assembly
                # writes into these reused views instead of concatenating
                # three fresh arrays every round.
                cap = max(64, 2 * n)
                self._due_buf = np.empty(cap, dtype=np.int64)
                self._lim_buf = np.empty(cap, dtype=np.float64)
                self._strict_buf = np.empty(cap, dtype=bool)
                self._tail_dirty = True
            # The length-n views only change with the membership, so the
            # long stretches of rounds in between reuse them as-is.
            views = (
                self._due_buf[:n],
                self._lim_buf[:n],
                self._strict_buf[:n],
            )
            self._round_views = views
        due, limits, stricts = views
        if self._tail_dirty:
            # The solo tail is membership-static: rewrite it only after a
            # register / retire / regrow touched the rows behind it.
            due[n_pairs:] = self._solo_sids[:n_solo]
            limits[n_pairs:] = math.inf
            stricts[n_pairs:] = False
            self._tail_dirty = False
        if n_pairs:
            pa = self._pa[:n_pairs]
            pb = self._pb[:n_pairs]
            ta = heads[pa]
            tb = heads[pb]
            # One mask drives the whole pair assembly; ties go to the
            # first member (tb < ta is False), same as ``ta <= tb``.
            second: Optional[np.ndarray] = tb < ta
            dp = due[:n_pairs]
            np.copyto(dp, pa)
            np.copyto(dp, pb, where=second)
            # The limit is always the *other* member's head, i.e. the
            # larger of the two (on ties both equal the maximum).
            np.maximum(ta, tb, out=limits[:n_pairs])
            stricts[:n_pairs] = second
        else:
            second = None
        res = arena.serve(due, limits, stricts)
        return self._resolve_survivors(res, due, limits, stricts, second, ctx)

    def _resolve_survivors(
        self, res, due, limits, stricts, second, ctx
    ) -> Optional[tuple]:
        """Finish every phase-A serve with whole-round array passes.

        Automatic keeps, weak point survivors (one vectorised exact
        MINDIST), staged keep certificates and the leaf-finish probes all
        resolve from store/arena column gathers, and the absorb lanes
        come back as one argsort-sorted ``(keys, sids, nids, cuts)``
        segment pack.  Python touches only the residual rows — stale
        bounds, failed certificates, margin-band survivors; a row the
        exact test prunes after all resumes its serve through
        :meth:`_resume_nn`, and the survivor found there joins the pack.
        Every decision is exactly the per-query
        ``_decide_keep`` verdict (the weak-point check runs
        :func:`~repro.geometry.kernels.mindist_multi`, whose ``maximum``
        chain and hypot reproduce ``max`` / ``math.hypot`` exactly).
        """
        arena = self._arena
        store = arena._store
        resumed, probe = ctx
        pairs = self._pairs
        solos = self._solos
        n_pairs = len(pairs)
        act = res["act"]
        nid = res["nid"]
        stamped = res["stamped"]
        live = res["live"]
        # Epoch-stale bounds are rare; a clean round skips the stamped
        # masking (and the residual scan) entirely.
        stamp_clean = bool(stamped.all())
        act_stamped = act if stamp_clean else act & stamped
        weak_rows = act_stamped & res["weak"]
        #: Rows kept by the vector classification (grown below): the
        #: weak subset of the stamped keeps clears via xor (it is a
        #: subset, so this is exactly ``act & stamped & ~weak``).
        keep = act_stamped ^ weak_rows
        rej: List[int] = []
        second_l = None

        def member_of(j):
            # Serve row -> (group, search); pairs first, then solos.
            nonlocal second_l
            if j < n_pairs:
                row = pairs[j]
                if second_l is None:
                    second_l = second.tolist()
                return row[0], row[2] if second_l[j] else row[1]
            return solos[j - n_pairs]

        due_list = limits_list = stricts_list = None

        def fallback(j):
            # Scalar continuation of a rejected serve: re-sync the owner
            # clock (serve() has not moved it) and resume through the
            # one-search path.  Most rounds reject nothing, so the row
            # lists materialise lazily.
            nonlocal due_list, limits_list, stricts_list
            if due_list is None:
                due_list = due.tolist()
                limits_list = limits.tolist()
                stricts_list = stricts.tolist()
            g, s = member_of(j)
            rej.append(j)
            arena._now[due_list[j]] = s.tuner.now
            self._resume_nn(g, s, limits_list[j], stricts_list[j], ctx)

        wj = np.flatnonzero(weak_rows)
        if wj.size:
            wsids = due[wj]
            if self._n_point:
                point = arena._pbool[wsids]
                n_pt = int(point.sum())
            else:
                # No live point members -> every weak row is transitive;
                # skip the split gathers.
                point = None
                n_pt = 0
            if n_pt:
                # Certified-weak point survivors: one exact vectorised
                # MINDIST resolves the whole margin band (cf.
                # _decide_keep's weak point branch; fast-eligible
                # policies are trivial).
                pj = wj if n_pt == wj.size else wj[point]
                psids = wsids if n_pt == wj.size else wsids[point]
                d = kernels.mindist_multi(
                    arena._q[psids],
                    store.mbr[nid[pj]],
                )
                ok = d <= arena._ub[psids]
                if ok.all():
                    keep[pj] = True
                else:
                    keep[pj[ok]] = True
                    for j in pj[~ok].tolist():
                        fallback(j)
            if n_pt < wj.size:
                # Weak transitive survivors: the staged keep certificate
                # against the current bound proves most keeps; the rest
                # batch one exact Lemma 1 pass.  The scalar path's
                # centre/corner certificates (certified_keep) are upper
                # bounds on the exact value, so they can never flip the
                # exact test's verdict — replaying only the exact bound
                # (bit-identical per kernel contract) decides the same.
                tj = wj if n_pt == 0 else wj[~point]
                tsids = wsids if n_pt == 0 else wsids[~point]
                ub_t = arena._ub[tsids]
                cert = res["ub"][tj] <= ub_t
                if cert.all():
                    keep[tj] = True
                else:
                    # Weak rows enter with keep False, so scattering the
                    # certificate verdicts directly marks the passes.
                    keep[tj] = cert
                    sub = ~cert
                    rows = tj[sub]
                    rsids = tsids[sub]
                    rub = ub_t[sub]
                    fb = res["lb"][rows] > rub
                    if fb.any():
                        # Stale-bound prunes are rare (a handful per
                        # campaign); keep their gathers off the hot path.
                        for j in rows[fb].tolist():
                            fallback(j)
                        ok2 = ~fb
                        crows = rows[ok2]
                        csids = rsids[ok2]
                        cub = rub[ok2]
                    else:
                        crows, csids, cub = rows, rsids, rub
                    if crows.size:
                        tr = arena._trans[csids]
                        exact = kernels.trans_lower_multi(
                            tr[:, 0],
                            tr[:, 1],
                            store.mbr[nid[crows]],
                            tr[:, 2],
                            tr[:, 3],
                        )
                        good = exact <= cub
                        if good.all():
                            keep[crows] = True
                        else:
                            keep[crows[good]] = True
                            for j in crows[~good].tolist():
                                fallback(j)
        if not stamp_clean and (resid := act ^ act_stamped).any():
            # Rows whose queued bound is epoch-stale: batch-evaluate
            # against the current metric, then prune / keep / decide
            # exactly like the per-query pop.
            idx = res["idx"]
            for j in np.flatnonzero(resid).tolist():
                s = member_of(j)[1]
                f = s._frontier
                lb = None
                if f.lower_evaluator is not None:
                    lb = arena._eval_stale_attached(
                        f, idx[j], s._metric_epoch
                    )
                    if lb is not None and lb > s.upper_bound:
                        fallback(j)
                        continue
                if lb is None and not s._decide_keep(
                    store.nodes[nid[j]], None, False
                ):
                    fallback(j)
                    continue
                keep[j] = True

        kept = np.flatnonzero(keep)
        ksids = due[kept]
        knids = nid[kept]
        lv = live[kept]
        if not lv.all():
            # Drained rows: a kept leaf with an empty queue finishes at
            # absorb time (leaf absorbs never push).
            probe.extend(map(
                member_of,
                kept[store.leaf_bit[knids] & (lv == 0)].tolist(),
            ))
        if resumed:
            # The scalar continuations booked and probed their own
            # survivors; they absorb with the rest of the round.
            extra = np.array(resumed, dtype=np.int64)
            ksids = np.concatenate((ksids, extra[:, 0]))
            knids = np.concatenate((knids, extra[:, 1]))
        lanes: Optional[tuple] = None
        if ksids.size:
            keys = store.lane_key[knids]
            if self._n_point:
                keys = keys | arena._pbit[ksids]
            # One stable argsort bins every kept row into its absorb
            # lane; within a lane the rows keep serve order.  The absorb
            # pass walks the sorted arrays segment by segment (ascending
            # key order), so the hand-off is just the arrays plus the
            # interior boundaries.
            order = np.argsort(keys, kind="stable")
            sk = keys[order]
            lanes = (
                sk,
                ksids[order],
                knids[order],
                np.flatnonzero(sk[1:] != sk[:-1]).tolist(),
            )
        # Non-actionable rows whose queue the certified-prune consumption
        # emptied are finished: probe them (the serve is their run_all
        # finish moment).  Probe order may differ from a single walk in
        # row order, but no search observes it: a paired group serves one
        # member per round, and a group with several always-due members is
        # unpaired by construction — its ``on_finish`` callbacks never
        # touch a sibling (the SearchGroup contract), so probes of
        # different members commute.  Gating on the empty queues (rare)
        # rather than on ``act.all()`` (almost never true) keeps the common
        # round to one cheap reduction.
        dead = ~(act | res["has"])
        if dead.any():
            probe.extend(map(member_of, np.flatnonzero(
                dead & (live == 0)
            ).tolist()))
        self._flush_pending = (res, rej, due)
        return lanes

    # ------------------------------------------------------------------
    # Per-search serves
    # ------------------------------------------------------------------
    def _resume_nn(self, g, s, limit, strict, ctx) -> None:
        """Scalar continuation of an arena serve phase A rejected.

        The exact keep test pruned the survivor :meth:`FrontierArena.serve`
        handed back, so the serve resumes here, one attached ``pop_until``
        at a time, until the next survivor (or the pairing limit, or an
        empty queue).  The survivor is downloaded now and recorded as a
        ``(sid, nid)`` row of the round's absorb lanes.
        """
        f = s._frontier
        sid = s._arena_sid
        now = self._arena._now
        resumed, probe = ctx
        epoch = s._metric_epoch
        while True:
            res = f.pop_until(s.upper_bound, epoch, limit, strict)
            if res is None:
                if f.finished():
                    probe.append((g, s))
                return
            node, lb, weak, arrival = res
            if (lb is None or weak) and not s._decide_keep(node, lb, weak):
                continue
            # record_index books the download on either tuner backend —
            # scalar writes standalone, the tuner's ledger row when
            # attached.
            s.tuner.record_index(node.page_id, arrival)
            now[sid] = arrival + 1.0
            if node.level == 0 and f.finished():
                probe.append((g, s))  # leaf absorbs never push
            resumed.append((sid, node._store_nid))
            return

    # ------------------------------------------------------------------
    # The set-at-a-time range pass
    # ------------------------------------------------------------------
    @staticmethod
    def _takes_range_pass(s) -> bool:
        """Whether ``s`` is served by :meth:`_serve_range_batch`.

        The pass takes lossless range searches on a frontier backend: a
        faulty tuner's retry chain shifts every later serve by whole
        cycles, and a heap backend has no cyclic page order to compute
        slots from, so those run through ``SearchGroup.run``.
        """
        return (
            type(s) is BroadcastRangeSearch
            and s._frontier is not None
            and s.tuner.loss is None
        )

    def _serve_ranges(self, probe, drain_all: bool) -> None:
        """Serve the queued range searches in passes of ``_RANGE_BATCH``.

        Only full batches serve unless ``drain_all``.  A pass never holds
        two searches on one tuner: the second must start from the clock
        the first leaves behind, so it opens the next pass instead.
        """
        queue = self._range_queue
        while len(queue) >= _RANGE_BATCH or (drain_all and queue):
            tuners = set()
            n = 0
            for _, s in queue:
                if n == _RANGE_BATCH or id(s.tuner) in tuners:
                    break
                tuners.add(id(s.tuner))
                n += 1
            batch = queue[:n]
            del queue[:n]
            self._serve_range_batch(batch, probe)

    def _serve_range_batch(self, batch, probe) -> None:
        """Run lossless range searches to completion in one array pass.

        Equivalent to one drain per search, bit for bit, but
        set-at-a-time.  **Prunes**: the pass walks the node store level by
        level from every search's queued entries (normally its root); one
        exact :func:`~repro.geometry.kernels.mindist_multi` call per level
        keeps an entry unless ``MINDIST > radius``, the drain's test, and
        the kept internal nodes queue their whole fan-outs.  The
        downloaded set does not depend on serve order, so this is the
        drain's set.

        **Slots.**  The drain pops in cyclic page order from a cursor at
        ``ceil(now - phase)``; a prune leaves the clock alone and a
        download at integer slot ``x`` moves the cursor to ``x + 1``
        (the channel's clock is exact).  Every queued entry is therefore
        visited at its first slot after its parent's download, or after
        the start cursor for the entries queued at the start: one
        top-down pass per level gives the slots.

        **Booking**, per search in visit order: downloads go to the tuner
        through one ``record_index_run`` call (pages, arrivals
        ``float(slot) + phase`` and the final clock), the contained points
        of the downloaded leaves extend ``results`` in leaf order, and the
        frontier's peak size counts every queued entry until its visit,
        downloaded or not.
        """
        store = self._store
        k = len(batch)
        ctr = np.empty((k, 2), dtype=np.float64)
        rad = np.empty(k, dtype=np.float64)
        phase = np.empty(k, dtype=np.float64)
        cyc = np.empty(k, dtype=np.int64)
        cursor = np.empty(k, dtype=np.int64)
        si0: List[int] = []
        nid0: List[int] = []
        for i, (_, s) in enumerate(batch):
            f = s._frontier
            store.cover(s.tree)
            ctr[i] = s.circle.center
            rad[i] = s.circle.radius
            phase[i] = f._phase
            cyc[i] = f._cycle
            cursor[i] = math.ceil(s.tuner.now - f._phase)
            slots = f._order_slots
            nodes = f._nodes
            si0.extend([i] * len(slots))
            nid0.extend([nodes[j]._store_nid for j in slots])

        # Prunes, level by level: (search, node id, parent entry, kept).
        si = np.array(si0, dtype=np.int64)
        nid = np.array(nid0, dtype=np.int64)
        par = np.full(si.shape[0], -1, dtype=np.int64)
        levels = []
        n = 0
        while si.size:
            d = kernels.mindist_multi(ctr[si], store.mbr[nid])
            keep = ~(d > rad[si])
            levels.append((si, nid, par, keep))
            exp = np.flatnonzero(keep & ~store.leaf_bit[nid])
            fan = store.lane_key[nid[exp]] >> 2
            first = np.cumsum(fan) - fan
            child = np.repeat(store.child0[nid[exp]] - first, fan)
            rep = np.repeat(exp, fan)
            si, nid, par = si[rep], child + np.arange(rep.shape[0]), rep + n
            n += keep.shape[0]
        S, N, P, K = (np.concatenate(c) for c in zip(*levels))

        # Visit slots, level by level: the entries queued at the start
        # (the first level) from the cursor, the others from their parent.
        page = store.page[N]
        c = cyc[S]
        v = np.empty(n, dtype=np.int64)
        lo = levels[0][0].shape[0]
        b = cursor[S[:lo]]
        v[:lo] = b + (page[:lo] - b) % c[:lo]
        for lvl in levels[1:]:
            hi = lo + lvl[0].shape[0]
            vp = v[P[lo:hi]]
            v[lo:hi] = vp + 1 + (page[lo:hi] - vp - 1) % c[lo:hi]
            lo = hi

        # Serve order, peak queue sizes, downloads and contained points.
        o = np.lexsort((v, S))
        So = S[o]
        No = N[o]
        Ko = K[o]
        internal = Ko & ~store.leaf_bit[No]
        size = np.cumsum(np.where(internal, store.lane_key[No] >> 2, 0) - 1)
        starts = np.searchsorted(So, np.arange(k))
        size -= np.where(starts > 0, size[starts - 1], 0)[So]
        peak = np.maximum.reduceat(size, starts).tolist()
        pops = np.bincount(S, minlength=k).tolist()
        dl = o[Ko]
        dl_pages = page[dl].tolist()
        dl_arrs = (v[dl].astype(np.float64) + phase[S[dl]]).tolist()
        dl_count = np.bincount(S[dl], minlength=k).tolist()
        leaves = dl[store.leaf_bit[N[dl]]]
        leaf_nid = N[leaves]
        fan = store.lane_key[leaf_nid] >> 2
        first = np.cumsum(fan) - fan
        at = np.arange(int(fan.sum())) - np.repeat(first, fan)
        leaf_nid = np.repeat(leaf_nid, fan)
        who = np.repeat(S[leaves], fan)
        pts = store.points[store.pt0[leaf_nid] + at]
        q = ctr[who]
        # _absorb_leaf's containment test, ``dis(center, p) <= radius``.
        inside = kernels.hypot(q[:, 0] - pts[:, 0], q[:, 1] - pts[:, 1]) <= (
            rad[who]
        )
        nodes = store.nodes
        found = [
            nodes[a].points[j]
            for a, j in zip(leaf_nid[inside].tolist(), at[inside].tolist())
        ]
        found_count = np.bincount(who[inside], minlength=k).tolist()

        a = h = 0
        for i, (g, s) in enumerate(batch):
            f = s._frontier
            m = dl_count[i]
            if m:
                arrs = dl_arrs[a:a + m]
                s.tuner.record_index_run(
                    dl_pages[a:a + m], arrs, arrs[-1] + 1.0
                )
                a += m
            m = found_count[i]
            if m:
                s.results.extend(found[h:h + m])
                h += m
            # After each visit the queue holds its start length plus the
            # pushes minus the visits so far; the drain keeps the peak.
            top = len(f._order_pages) + peak[i]
            if top > f.max_size:
                f.max_size = top
            del f._order_pages[:]
            del f._order_slots[:]
            f._version += pops[i]
            probe.append((g, s))

    # ------------------------------------------------------------------
    # Phase B: cross-query batched absorbs (certified estimate lanes)
    # ------------------------------------------------------------------
    def _absorb_nn_lanes(self, lanes: tuple) -> None:
        """Absorb the round's surviving NN expansions, batched per shape.

        ``lanes`` is phase A's ``(keys, sids, nids, cuts)`` pack — the
        kept rows key-sorted by one stable argsort, with ``cuts`` the
        interior segment boundaries; each segment is one absorb lane of
        equal ``(fanout, is_leaf, is_point)`` shape, walked in ascending
        key order.  Every geometry, count and page input is one fancy
        index into the node store (``child0`` / ``pt0`` runs), each lane's
        fan-outs stage through one :meth:`FrontierArena.stage_lane` call,
        and the ``_ub`` / ``_wit`` arena mirrors update with masked
        scatters; python only touches the rows whose search-object state
        actually changes.

        Point-metric lanes evaluate the exact fused MINDIST/MINMAXDIST (or
        leaf distance) kernel.  Transitive lanes, whose exact Lemma 1-3
        kernel costs an order of magnitude more, run raw-hypot *certified
        estimates* instead: deflated weak lower bounds are queued for the
        delayed-pruning pop tests, and a deflated row minimum of the
        guarantee estimates proves for most rows that the exact guarantee
        scan is a no-op — only the remaining rows (and bound-witness
        nodes) run the exact corner kernel.  Every *stored* value is
        exact, so the estimates only decide provably-identical skips.
        Lanes below ``_MIN_LANE`` rows absorb through the searches' own
        per-query code instead.
        """
        deflate = _CERT_DEFLATE
        arena = self._arena
        store = arena._store
        searches_all = arena._searches
        ub_arr = arena._ub
        wit_arr = arena._wit
        all_keys, all_sids, all_nids, cuts = lanes
        bounds = [0, *(c + 1 for c in cuts), all_keys.shape[0]]
        for a, b in zip(bounds, bounds[1:]):
            lane_key = int(all_keys[a])
            sids = all_sids[a:b]
            nids = all_nids[a:b]
            is_point = lane_key & 1
            is_leaf = lane_key & 2
            n = lane_key >> 2
            k = sids.shape[0]
            if k < _MIN_LANE:
                searches = [searches_all[sid] for sid in sids.tolist()]
                for s, nid in zip(searches, nids.tolist()):
                    if is_leaf:
                        s._absorb_leaf(store.nodes[nid])
                    else:
                        s._absorb_internal(store.nodes[nid])
                self._mirror(sids, searches)
                continue
            if is_leaf:
                pts = store.points[
                    store.pt0[nids][:, None] + np.arange(n, dtype=np.int64)
                ]
                searches = [searches_all[sid] for sid in sids.tolist()]
                if is_point:
                    # Point metric: exact distances are one fused hypot
                    # pass; batch the exact row argmins.
                    d = kernels.point_dists_multi(
                        arena._q[sids],
                        pts,
                    )
                    idx = np.argmin(d, axis=1)
                    vals = d[np.arange(k), idx].tolist()
                    for s, nid, i, v in zip(
                        searches, nids.tolist(), idx.tolist(), vals
                    ):
                        s._absorb_leaf_shared(store.nodes[nid], i, v)
                else:
                    # Transitive metric: the incumbent is already tight
                    # when leaves arrive, so the deflated raw estimate
                    # proves most leaf absorbs are no-ops.
                    tr = arena._trans[sids]
                    d = kernels.trans_dists_raw(tr[:, :2], pts, tr[:, 2:])
                    for s, nid, m in zip(
                        searches, nids.tolist(), d.min(axis=1).tolist()
                    ):
                        # A deflated row minimum at or above the incumbent
                        # proves the scalar offer loop changes nothing
                        # (the upper bound never exceeds the incumbent,
                        # which the second test re-checks defensively).
                        if (
                            m * deflate < s.best_dist
                            or s.best_dist < s.upper_bound
                        ):
                            s._absorb_leaf(store.nodes[nid])
                self._mirror(sids, searches)
                continue
            kids = store.child0[nids][:, None] + np.arange(n, dtype=np.int64)
            mbrs = store.mbr[kids]
            cnts = None
            if store.all_backed:
                all_backed = True
            else:
                cnts = store.count[kids]
                all_backed = bool((cnts > 0).all())
            node_pages = store.page[nids]
            if is_point:
                # One staging pass queues every fan-out with its exact
                # kernel bounds, and the guarantee / witness hand-off of
                # _absorb_internal runs as lane-wide masks.  (The
                # transitive lanes' certified raw-estimate strategy does
                # not pay here: the point metric's upper bound improves
                # on about half of all expansions, so the deflated gate
                # would send most rows to the exact scan anyway.)
                lower, guar = kernels.point_bounds_multi(
                    arena._q[sids],
                    mbrs,
                )
                if all_backed:
                    backed = guar
                else:
                    backed = np.where(cnts > 0, guar, math.inf)
                gi = np.argmin(backed, axis=1)
                gv = backed[np.arange(k), gi]
                arena.stage_lane(sids, kids, lower, False)
                was_w = wit_arr[sids] == node_pages
                finite = np.isfinite(gv)
                improve = finite & (gv < ub_arr[sids])
                upd = improve | was_w
                if upd.any() or not finite.all():
                    wp = store.page[kids[np.arange(k), gi]]
                    sel = upd & finite
                    wit_arr[sids[sel]] = wp[sel]
                    ub_arr[sids[improve]] = gv[improve]
                    gv_l = gv.tolist()
                    wp_l = wp.tolist()
                    improve_l = improve.tolist()
                    finite_l = finite.tolist()
                    for j in np.flatnonzero(upd | ~finite).tolist():
                        s = searches_all[sids[j]]
                        if not finite_l[j]:
                            # Every child subtree empty: no guarantee to
                            # inherit (cf. _absorb_internal).
                            if was_w[j]:
                                s.upper_bound = s.best_dist
                                s._witness_page = None
                                s._rescan_queue_bounds()
                                arena.sync(s)
                            continue
                        s._witness_page = wp_l[j]
                        if improve_l[j]:
                            s.upper_bound = gv_l[j]
            else:
                tr = arena._trans[sids]
                starts = tr[:, :2]
                ends = tr[:, 2:]
                weak, est, keep = kernels.trans_weak_bounds_multi(
                    starts, mbrs, ends, deflate
                )
                gates = est.min(axis=1) * deflate
                # Stage every push at once; each entry also carries the
                # kernel's inflated keep certificate (best corner /
                # through-centre transitive distance, both geometric upper
                # bounds on the exact Lemma 1 value), so phase A resolves
                # most weak survivors with one float compare.
                arena.stage_lane(sids, kids, weak, True, keep * _CERT_INFLATE)
                # The need mask (estimate admits improvement / witness
                # hand-off / unbacked children) selects the minority of
                # rows whose exact guarantee scan must run.
                need = (gates < ub_arr[sids]) | (
                    wit_arr[sids] == node_pages
                )
                if not all_backed:
                    need |= True
                rows = np.flatnonzero(need)
                if rows.size:
                    # The needing rows' exact guarantee scans batch into
                    # one corner kernel call.  The scalar scan's weak-bound
                    # skip is value-preserving (a skipped child's weak
                    # lower bound already met the running minimum, and the
                    # corner bound dominates it), so the first-minimum row
                    # argmin replays the scalar child selection exactly.
                    z = kernels.trans_corner_minmax_multi(
                        starts[rows], mbrs[rows], ends[rows]
                    )
                    if not all_backed:
                        z = np.where(cnts[rows] > 0, z, math.inf)
                    gi_z = np.argmin(z, axis=1)
                    gz = z[np.arange(rows.size), gi_z]
                    rsids = sids[rows]
                    was_witness = wit_arr[rsids] == node_pages[rows]
                    finite_z = np.isfinite(gz)
                    improve_z = finite_z & (gz < ub_arr[rsids])
                    handoff = finite_z & ~improve_z & was_witness
                    void = ~finite_z & was_witness
                    moved = improve_z | handoff
                    if moved.any():
                        wp_z = store.page[kids[rows, gi_z]]
                        ub_arr[rsids[improve_z]] = gz[improve_z]
                        wit_arr[rsids[moved]] = wp_z[moved]
                        gz_l = gz.tolist()
                        wp_l = wp_z.tolist()
                        improve_l = improve_z.tolist()
                        for t in np.flatnonzero(moved).tolist():
                            s = searches_all[rsids[t]]
                            if improve_l[t]:
                                s.upper_bound = gz_l[t]
                            s._witness_page = wp_l[t]
                    if void.any():
                        for t in np.flatnonzero(void).tolist():
                            sid = int(rsids[t])
                            s = searches_all[sid]
                            # Every child subtree empty: nothing backs a
                            # guarantee (cf. _absorb_internal).
                            s.upper_bound = s.best_dist
                            s._witness_page = None
                            s._rescan_queue_bounds()
                            ub_arr[sid] = s.upper_bound
                            wit_arr[sid] = -1

    def _mirror(self, sids: np.ndarray, searches) -> None:
        """Mirror a lane's upper bounds and witness pages into the arena."""
        arena = self._arena
        arena._ub[sids] = [s.upper_bound for s in searches]
        arena._wit[sids] = [
            -1 if s._witness_page is None else s._witness_page
            for s in searches
        ]


# ----------------------------------------------------------------------
# TNN workloads: every query's lifecycle, page-major
# ----------------------------------------------------------------------
class _Lifecycle:
    """The executor's handle on one query's :meth:`TNNAlgorithm._stages`.

    :meth:`advance` resumes the generator once the previous stage's group
    completed and tags the next group with this handle, or stores the
    returned :class:`TNNResult` once the generator finishes.
    """

    __slots__ = ("stages", "result")

    def __init__(self, stages) -> None:
        self.stages = stages
        self.result: Optional[TNNResult] = None

    def advance(self) -> Optional[SearchGroup]:
        try:
            group = next(self.stages)
        except StopIteration as done:
            self.result = done.value
            return None
        group.tag = self
        return group


def execute_tnn_batch(
    env: TNNEnvironment,
    algorithm,
    queries: Sequence[Tuple[Point, float, float]],
    record_log: bool = True,
) -> List[TNNResult]:
    """Run a TNN workload page-major; results in workload order.

    Any :class:`~repro.core.base.TNNAlgorithm` runs here: the executor
    drives each query's :meth:`~repro.core.base.TNNAlgorithm._stages`
    (estimate groups, the filter's two range searches, the join), the
    same lifecycle ``algorithm.run`` drives alone, so the returned
    :class:`TNNResult` stream is bit-identical to running
    ``algorithm.run(env, q, phase_s, phase_r)`` per query.  Pass
    ``record_log=False`` to skip per-tuner reception logs (counters and
    clocks still count) — for batch campaigns that never read traces.
    """
    jobs = []
    executor = SharedScanExecutor()
    for q, phase_s, phase_r in queries:
        tuner_s, tuner_r = env.tuners(phase_s, phase_r, record_log)
        job = _Lifecycle(algorithm._stages(env, q, tuner_s, tuner_r))
        jobs.append(job)
        executor.add(job.advance())
    executor.run()
    return [job.result for job in jobs]  # type: ignore[misc]
