"""Per-phase time breakdown of the Hybrid-TNN hot path.

Records how the Hybrid-TNN workload at 64-byte pages splits its time
across five phase buckets, with two independent timers:

* **queue** — the arrival queue (`client/arrival_queue.py`): the
  walk's stack and the heap's pushes, pops and head selection;
* **walk** — the drain walk (`client/drain.py`): the preorder stack
  walk, its prunes and absorbs, and the bounds it computes inline
  (``Rect.mindist``, the certified transitive cascade);
* **geometry** — the vectorised kernels and the scalar metrics
  (`geometry/`): bounds, leaf distances, certified estimates;
* **download** — broadcast arrival arithmetic and tuner accounting
  (`broadcast/`): page arithmetic, clock moves, reception logs;
* **bookkeeping** — everything else on the hot path (`engine/` runner
  remainder, `client/search.py` absorb logic, `core/`, scheduler, numpy
  glue).

The **wall timer** (primary, ``share`` in the JSON) wraps the bucket entry
points — queue methods, the drain, the public kernels, tuner accounting —
with ``perf_counter`` pairs and attributes *self time* to each bucket (a
nested wrapped call is credited to its own bucket and subtracted from its
caller's); whatever the wrappers never see is the bookkeeping remainder.
Tens of thousands of coarse wrapper crossings cost microseconds each, so
the timed run stays within a few percent of the uninstrumented wall-clock
recorded alongside it.

The **cProfile breakdown** (``profiled_share``) buckets every function's
self time by module path.  It is kept for cross-checking only: tracing
inflates python-call-heavy phases several-fold, so its shares overstate
queue/bookkeeping and understate the numpy kernels.

Both the per-query loop and ``SharedScanRunner`` are measured; they run
the same per-query code, so their splits should agree.

Writes ``BENCH_profile_hot_path.json`` at the repository root.
"""

from __future__ import annotations

import contextlib
import cProfile
import gc
import json
import os
import pathlib
import pstats
import time

from repro.broadcast import (
    SystemParameters,
    available_fault_models,
    make_fault_model,
    make_layout,
)
from repro.core.environment import TNNEnvironment
from repro.core.hybrid import HybridNN
from repro.datasets import sized_uniform
from repro.engine import QueryWorkload, SharedScanRunner
from repro.geometry import kernels

N_QUERIES = int(os.environ.get("REPRO_BENCH_QUERIES", 300))
N_POINTS = int(os.environ.get("REPRO_BENCH_POINTS", 30_000))
PAGE_CAPACITY = int(os.environ.get("REPRO_BENCH_CAPACITY", 64))
#: Air-index backend to profile (any repro.broadcast.layout registry name);
#: non-cyclic backends (rtree-distributed, disk) profile heap steps
#: instead of the walk.
BACKEND = os.environ.get("REPRO_BENCH_BACKEND", "rtree")
#: Measured passes per configuration; the minimum-wall pass is recorded.
#: Single passes on shared vCPUs randomly absorb neighbour steal into
#: whichever phase was running — min-of-N keeps the least-perturbed run.
REPEATS = int(os.environ.get("REPRO_BENCH_REPEATS", 3))

ROOT = pathlib.Path(__file__).resolve().parent.parent
JSON_PATH = ROOT / "BENCH_profile_hot_path.json"

#: Module-path fragments -> phase buckets, first match wins.
PHASES = (
    ("queue", ("client/arrival_queue.py",)),
    ("walk", ("client/drain.py",)),
    ("geometry", ("repro/geometry/",)),
    ("download", ("repro/broadcast/",)),
)

ALL_PHASES = ("queue", "walk", "geometry", "download", "bookkeeping")


def _bucket(filename: str) -> str:
    path = filename.replace("\\", "/")
    for phase, fragments in PHASES:
        for fragment in fragments:
            if fragment in path:
                return phase
    return "bookkeeping"


def _phase_breakdown(profile: cProfile.Profile) -> dict:
    stats = pstats.Stats(profile)
    totals: dict = {phase: 0.0 for phase in ALL_PHASES}
    for (filename, _, _), (_, _, tottime, _, _) in stats.stats.items():
        totals[_bucket(filename)] += tottime
    profiled_total = sum(totals.values())
    shares = {
        phase: (round(t / profiled_total, 4) if profiled_total else 0.0)
        for phase, t in totals.items()
    }
    return {
        "profiled_seconds": {k: round(v, 6) for k, v in totals.items()},
        "profiled_share": shares,
    }


class _WallPhaseTimer:
    """Self-time bucket accumulator for coarse wrapper instrumentation.

    Each wrapped call pushes a child-time frame; on exit its elapsed time
    minus the time spent in *nested wrapped calls* is credited to its own
    bucket, and its full elapsed time is charged to the enclosing frame.
    Whatever no wrapper ever saw is the caller's (bookkeeping) remainder.
    """

    def __init__(self) -> None:
        self.totals = {
            "queue": 0.0, "walk": 0.0, "geometry": 0.0, "download": 0.0
        }
        self._child = [0.0]  # child-time accumulator per active frame

    def wrap(self, fn, bucket: str):
        totals = self.totals
        child = self._child
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            child.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                totals[bucket] += dt - child.pop()
                child[-1] += dt

        wrapper.__wrapped__ = fn
        return wrapper

    def breakdown(self, wall: float) -> dict:
        seconds = dict(self.totals)
        seconds["bookkeeping"] = max(wall - sum(seconds.values()), 0.0)
        shares = {
            phase: (round(t / wall, 4) if wall else 0.0)
            for phase, t in seconds.items()
        }
        return {
            "timed_wall_seconds": round(wall, 6),
            "wall_seconds_by_phase": {k: round(v, 6) for k, v in seconds.items()},
            "share": shares,
        }


def _wrap_sites() -> list:
    """(holder, attribute, bucket) triples for the wall-clock wrappers.

    Coarse on purpose: bucket *entry points* are wrapped (queue
    methods, the drain, the public kernels, tuner accounting), never
    per-element helpers.  Overhead tracks the number of wrapper crossings,
    and the timed wall-clock is recorded next to the uninstrumented one so
    that inflation is measured, not hidden.  Functions a module
    re-imported by name are patched at the importer too, or the wrapper
    would never see those calls.

    The drain (:func:`repro.client.drain.drain`, wrapped where
    ``arrival_queue`` binds it) is the **walk**.  Its nested tuner calls
    and scalar Lemma 1 / Lemma 3 fallbacks are wrapped separately, but
    the bounds it computes inline (``Rect.mindist``, the certified
    transitive cascade) count as walk.
    ``transitive_join`` counts as **geometry** — it is the filter phase's
    pairwise distance evaluation.
    """
    from repro.broadcast import tuner as tuner_mod
    from repro.client import arrival_queue as aq_mod
    from repro.client import drain as drain_mod
    from repro.client import search as search_mod
    from repro.core import base as base_mod
    from repro.core import join as join_mod
    from repro.engine import shared_scan as shared_scan_mod
    from repro.geometry import rect as rect_mod

    sites = []
    for name in (
        "hypot", "point_dists", "trans_dists", "mindist", "minmaxdist",
        "point_bounds", "segment_intersects_rects", "min_trans_dist",
        "min_max_trans_dist", "trans_bounds", "point_dists_multi",
        "trans_dists_multi", "mindist_multi", "point_bounds_multi",
        "trans_bounds_multi", "trans_lower_multi",
        "point_weak_bounds_multi",
        "trans_weak_bounds_multi", "trans_corner_minmax_multi",
        "point_dists_raw", "trans_dists_raw",
    ):
        sites.append((kernels, name, "geometry"))
    # search.py binds the scalar metrics by name at import time.
    for name in ("distance", "min_trans_dist", "min_max_trans_dist"):
        sites.append((search_mod, name, "geometry"))
    # So does the drain, for its scalar fallbacks.
    for name in ("min_trans_dist", "min_max_trans_dist"):
        sites.append((drain_mod, name, "geometry"))
    for name in ("mindist", "minmaxdist"):
        sites.append((rect_mod.Rect, name, "geometry"))
    # The filter-phase join, at its definition and its by-name importers.
    for holder in (join_mod, base_mod, shared_scan_mod):
        sites.append((holder, "transitive_join", "geometry"))
    for name in (
        "_init_queue", "_push", "_normalize_head", "_pop_head",
        "_queued_nodes", "next_event_time",
    ):
        sites.append((aq_mod.ArrivalQueueMixin, name, "queue"))
    sites.append((aq_mod, "drain", "walk"))
    for name in (
        "advance_to", "record_index_run", "download_index_page",
        "download_object",
    ):
        sites.append((tuner_mod.ChannelTuner, name, "download"))
    return sites


@contextlib.contextmanager
def _patched(timer: _WallPhaseTimer):
    saved = []
    try:
        for holder, name, bucket in _wrap_sites():
            # No default: a renamed or deleted wrap site raises here
            # instead of silently dropping out of the split.
            fn = getattr(holder, name)
            saved.append((holder, name, fn))
            setattr(holder, name, timer.wrap(fn, bucket))
        yield
    finally:
        for holder, name, fn in saved:
            setattr(holder, name, fn)


def _measure(fn) -> tuple:
    """(wall_seconds, breakdown) of one warmed call of ``fn``.

    Measured passes run with the cyclic garbage collector paused (and
    re-enabled after): the ambient collector periodically re-scans the
    long-lived environment — tens of thousands of points, nodes and
    schedule entries — and those pauses land at arbitrary points of
    whichever phase is running.  Pausing it makes the attribution
    deterministic; both execution paths get the same treatment, so the
    comparison stays fair.  (Reference-counted garbage is still freed —
    only cycle detection is deferred.)
    """
    fn()  # warm caches (trees, programs, arrival tables)
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        wall = float("inf")
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            fn()
            wall = min(wall, time.perf_counter() - t0)
        # Keep the breakdown of the fastest wrapped pass — the one the
        # scheduler interfered with least — so phase attribution is not
        # polluted by whichever phase happened to absorb a steal spike.
        timer = None
        timed_wall = float("inf")
        for _ in range(REPEATS):
            cand = _WallPhaseTimer()
            with _patched(cand):
                t0 = time.perf_counter()
                fn()
                tw = time.perf_counter() - t0
            if tw < timed_wall:
                timed_wall = tw
                timer = cand
        profile = cProfile.Profile()
        profile.enable()
        fn()
        profile.disable()
    finally:
        if gc_was_on:
            gc.enable()
        gc.collect()
    breakdown = {**timer.breakdown(timed_wall), **_phase_breakdown(profile)}
    return wall, breakdown


def _make_loss(name: str, rate: float):
    """One registered fault model at ``rate``.

    The bundled models disagree on the knob's name (i.i.d. loss and
    corruption take ``rate``, Gilbert-Elliott shapes its fades with
    ``bad_rate``), so try the common spelling first.
    """
    try:
        return make_fault_model(name, rate=rate)
    except TypeError:
        return make_fault_model(name, bad_rate=rate)


def profile_hot_path(
    backend: str = None, loss: str = None, loss_rate: float = 0.05
) -> dict:
    backend = BACKEND if backend is None else backend
    params = SystemParameters(page_capacity=PAGE_CAPACITY)
    fault = _make_loss(loss, loss_rate) if loss else None
    env = TNNEnvironment.build(
        sized_uniform(N_POINTS, seed=1),
        sized_uniform(N_POINTS, seed=2),
        params=params,
        layout=make_layout(backend),
        loss=fault,
    )
    workload = QueryWorkload(N_QUERIES, seed=0)
    algo = HybridNN()
    runner = SharedScanRunner(env, workload, workers=0)
    queries = workload.queries(env)

    pq_wall, pq_phases = _measure(
        lambda: [algo.run(env, q, ps, pr) for q, ps, pr in queries]
    )
    shared_wall, shared_phases = _measure(
        lambda: runner.run_algorithm(algo)
    )

    return {
        "benchmark": "profile_hot_path",
        "workload": "Hybrid-NN TNN queries, per-phase time breakdown",
        "backend": backend,
        "loss": {"model": loss, "rate": loss_rate} if loss else None,
        "n_queries": N_QUERIES,
        "n_points_per_dataset": N_POINTS,
        "page_capacity": PAGE_CAPACITY,
        "leaf_capacity": params.leaf_capacity,
        "fanout": params.internal_fanout,
        "repeats": REPEATS,
        "note": (
            "share is from the wall-clock phase timer (perf_counter "
            "wrappers on bucket entry points, self-time attribution, "
            "bookkeeping = remainder); profiled_share is the cProfile "
            "cross-check, which inflates python-call-heavy phases; "
            "wall_seconds is the uninstrumented reference; every "
            "measured pass runs REPEATS times and keeps the minimum "
            "wall (least scheduler interference)"
        ),
        "per_query": {"wall_seconds": round(pq_wall, 6), **pq_phases},
        "shared_scan": {"wall_seconds": round(shared_wall, 6), **shared_phases},
        "pr6_reference": {
            "shared_bookkeeping_share": 0.6271,
            "shared_wall_seconds": 0.644262,
            "method": (
                "cProfile with module-based phase classification; it "
                "counted the executor's inlined serve drains as "
                "bookkeeping and inflated python-call-heavy phases, so "
                "the share is not comparable to the wall-clock timer's"
            ),
        },
    }


def test_profile_hot_path(record_experiment):
    payload = profile_hot_path()
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    lines = [f"[profile_hot_path] {payload['workload']}"]
    for path in ("per_query", "shared_scan"):
        entry = payload[path]
        share = " ".join(
            f"{phase}={entry['share'][phase]:.0%}" for phase in ALL_PHASES
        )
        lines.append(f"  {path}: {entry['wall_seconds']:.3f}s wall | {share}")
    record_experiment("profile_hot_path", "\n".join(lines))
    # The harness is a measurement, not a gate; the only invariant is that
    # both timers saw the hot path at all.
    for path in ("per_query", "shared_scan"):
        assert sum(payload[path]["profiled_seconds"].values()) > 0.0
        timed = payload[path]["wall_seconds_by_phase"]
        assert sum(timed[p] for p in ("queue", "geometry", "download")) > 0.0


if __name__ == "__main__":
    import argparse

    from repro.broadcast import available_layouts

    cli = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    cli.add_argument(
        "--backend",
        default=BACKEND,
        choices=available_layouts(),
        help="air-index backend to profile (default: %(default)s, "
        "or REPRO_BENCH_BACKEND)",
    )
    cli.add_argument(
        "--loss",
        default=None,
        choices=available_fault_models(),
        help="profile under a channel fault model (registered models: "
        "%(choices)s; default: lossless)",
    )
    cli.add_argument(
        "--loss-rate",
        type=float,
        default=0.05,
        help="fault-model page loss/corruption rate (default %(default)s)",
    )
    cli_args = cli.parse_args()
    print(
        json.dumps(
            profile_hot_path(
                cli_args.backend, cli_args.loss, cli_args.loss_rate
            ),
            indent=2,
        )
    )
