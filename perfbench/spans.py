"""Spans around calls into each layer's public functions.

The tracer patches public functions of the ``repro`` layers (see the layer
map in README.md) with wrappers that record one span per call: layer,
start, end, parent span and query id, plus a work count for layers that
have one (rows for geometry, candidate pairs for the join).  Spans are
kept in compact arrays in memory and written to an ``.npz`` file when the
run ends.  Nothing under ``src/`` changes: the wrappers are installed in
the traced process only, and removed on exit from :func:`traced`.

A layer's self time is the sum of its spans' durations minus the
durations of their direct child spans; time that no span covers is
``other``.  Per-layer self times plus ``other`` add up to the traced wall
time by construction, and :func:`layer_metrics` checks that no self time
came out negative, which would mean the spans were not nested.
"""

from __future__ import annotations

import contextlib
import os
import time
from array import array

import numpy as np

LAYERS = (
    "setup_index", "setup_program", "shared_scan", "core", "search",
    "join", "queue", "geometry", "download", "loss",
)

#: Public array kernels of ``repro.geometry.kernels``; the module's
#: switches (``enabled``, ``min_batch*``, ``use_kernels``) and array
#: constructors are not geometry work.
KERNELS = (
    "hypot", "point_dists", "trans_dists", "mindist", "minmaxdist",
    "point_bounds", "segment_intersects_rects", "min_trans_dist",
    "min_max_trans_dist", "trans_bounds", "point_dists_multi",
    "trans_dists_multi", "mindist_multi", "point_bounds_multi",
    "trans_bounds_multi", "trans_lower_multi", "point_weak_bounds_multi",
    "trans_weak_bounds_multi", "trans_corner_minmax_multi",
    "point_dists_raw", "trans_dists_raw",
)


def _public_methods(cls) -> list:
    """Names of the plain public functions a class itself defines."""
    return [
        name for name, value in vars(cls).items()
        if not name.startswith("_") and callable(value)
        and not isinstance(value, (staticmethod, classmethod, type))
    ]


def _rows(args, kwargs) -> int:
    for a in (*args, *kwargs.values()):
        if isinstance(a, np.ndarray):
            return int(a.shape[0]) if a.ndim else 1
    return 1


def _pairs(args, kwargs) -> int:
    s = args[1] if len(args) > 1 else kwargs["s_candidates"]
    r = args[2] if len(args) > 2 else kwargs["r_candidates"]
    return len(s) * len(r)


def wrap_sites() -> list:
    """``(holder, attribute, layer, work)`` for every wrapped function.

    Functions a module binds by name at import are patched at that
    importer too, or calls through the importer's name would bypass the
    wrapper.
    """
    from repro import geometry as geometry_pkg
    from repro.broadcast import layout as layout_mod
    from repro.broadcast import loss as loss_mod
    from repro.broadcast import tuner as tuner_mod
    from repro.client import frontier as frontier_mod
    from repro.client import knn as knn_mod
    from repro.client import range_query as range_mod
    from repro.client import search as search_mod
    from repro.client import window as window_mod
    from repro.core import base as base_mod
    from repro.core import join as join_mod
    from repro.engine import batch as batch_mod
    from repro.engine import shared_scan as shared_scan_mod
    from repro.geometry import kernels as kernels_mod
    from repro.geometry import transitive as transitive_mod
    from repro.rtree import traversal as traversal_mod

    sites = [
        (layout_mod.RTreeInterleavedLayout, "build_index", "setup_index", None),
        (layout_mod.RTreeInterleavedLayout, "build_program", "setup_program", None),
        (shared_scan_mod, "execute_tnn_batch", "shared_scan", None),
        (batch_mod, "execute_tnn_batch", "shared_scan", None),
        (shared_scan_mod.SharedScanExecutor, "run", "shared_scan", None),
        (base_mod.TNNAlgorithm, "run", "core", None),
    ]
    for cls in (
        search_mod.BroadcastNNSearch, knn_mod.BroadcastKNNSearch,
        range_mod.BroadcastRangeSearch, window_mod.BroadcastWindowSearch,
    ):
        for name in ("step", "run_to_completion"):
            sites.append((cls, name, "search", None))
    for holder in (join_mod, base_mod, shared_scan_mod):
        sites.append((holder, "transitive_join", "join", _pairs))
    for cls in (frontier_mod.ArrivalFrontier, frontier_mod.FrontierArena):
        for name in _public_methods(cls):
            sites.append((cls, name, "queue", None))
    for name in KERNELS:
        sites.append((kernels_mod, name, "geometry", _rows))
    # The scalar Lemma 1 / Lemma 3 bounds, at their definition and at
    # every module that binds them by name.
    for holder in (transitive_mod, geometry_pkg, search_mod, traversal_mod):
        for name in ("min_trans_dist", "min_max_trans_dist"):
            if name in vars(holder):
                sites.append((holder, name, "geometry", None))
    for name in _public_methods(tuner_mod.ChannelTuner):
        sites.append((tuner_mod.ChannelTuner, name, "download", None))
    for name in ("flush_round", "flush_round_faulty"):
        sites.append((tuner_mod.TunerLedger, name, "download", None))
    for cls in (
        loss_mod.PageLossModel, loss_mod.GilbertElliottLossModel,
        loss_mod.PageCorruptionModel,
    ):
        sites.append((cls, "classify", "loss", None))
    return sites


class Tracer:
    """Span store plus the wrapper factory that fills it."""

    def __init__(self) -> None:
        self.layer = array("b")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.qid = array("l")
        self.work = array("q")
        self.query = -1
        self.tuners: list = []
        self._stack = [-1]

    def wrap(self, fn, layer: str, work=None):
        code = LAYERS.index(layer)
        spans_layer, spans_start, spans_end = self.layer, self.start, self.end
        spans_parent, spans_qid, spans_work = self.parent, self.qid, self.work
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            amount = work(args, kwargs) if work is not None else 0
            idx = len(spans_start)
            spans_layer.append(code)
            spans_parent.append(stack[-1])
            spans_qid.append(tracer.query)
            spans_work.append(amount)
            spans_end.append(0.0)
            stack.append(idx)
            spans_start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                spans_end[idx] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def collect_tuners(self, init):
        tuners = self.tuners

        def wrapper(tuner, *args, **kwargs):
            init(tuner, *args, **kwargs)
            tuners.append(tuner)

        wrapper.__wrapped__ = init
        return wrapper

    def arrays(self) -> dict:
        return {
            "layer": np.frombuffer(self.layer, dtype=np.int8),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "qid": np.frombuffer(self.qid, dtype=np.int64),
            "work": np.frombuffer(self.work, dtype=np.int64),
        }

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(path, layers=np.asarray(LAYERS), **self.arrays())


@contextlib.contextmanager
def traced(tracer: Tracer, layers=LAYERS):
    """Install wrappers for ``layers`` (and the tuner collector); undo on exit."""
    from repro.broadcast import tuner as tuner_mod

    saved = []
    try:
        for holder, name, layer, work in wrap_sites():
            if layer not in layers:
                continue
            fn = vars(holder)[name] if isinstance(holder, type) else getattr(holder, name)
            saved.append((holder, name, fn))
            setattr(holder, name, tracer.wrap(fn, layer, work))
        if "download" in layers:
            init = tuner_mod.ChannelTuner.__init__
            saved.append((tuner_mod.ChannelTuner, "__init__", init))
            tuner_mod.ChannelTuner.__init__ = tracer.collect_tuners(init)
        yield tracer
    finally:
        for holder, name, fn in reversed(saved):
            setattr(holder, name, fn)


def layer_metrics(tracer: Tracer, wall: float) -> dict:
    """Per-layer calls, self time and work counts of one traced run."""
    a = tracer.arrays()
    layer, parent = a["layer"], a["parent"]
    dur = a["end"] - a["start"]
    has_parent = parent >= 0
    child = np.bincount(
        parent[has_parent], weights=dur[has_parent], minlength=len(dur)
    )
    self_time = dur - child
    if len(self_time) and self_time.min() < -1e-6:
        raise RuntimeError("spans are not nested: negative self time")
    # An entry into a layer is a span whose parent lies in another layer
    # (or no span): a frontier method calling another frontier method, or
    # a kernel calling a kernel, is one call into the layer.
    parent_layer = np.where(has_parent, layer[np.maximum(parent, 0)], -1)
    entry = parent_layer != layer
    out = {}
    for code, name in enumerate(LAYERS):
        mine = layer == code
        out[name] = {
            "calls": int((mine & entry).sum()),
            "self_s": float(self_time[mine].sum()),
            "inclusive_s": float(dur[mine & entry].sum()),
            "work": int(a["work"][mine & entry].sum()),
        }
    out["other_s"] = wall - float(self_time.sum())
    return out


def tuner_pages(tuners) -> dict:
    """Page counters summed over every tuner the traced run created."""
    index = sum(t.index_pages for t in tuners)
    data = sum(t.data_pages for t in tuners)
    lost = sum(t.lost_pages for t in tuners)
    corrupt = sum(t.corrupt_pages for t in tuners)
    attempted = index + data
    return {
        "index_pages": index,
        "data_pages": data,
        "lost_pages": lost,
        "corrupt_pages": corrupt,
        "useful_ratio": (attempted - lost - corrupt) / attempted if attempted else 0.0,
    }
