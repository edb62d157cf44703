"""Vectorised structure-of-arrays geometry kernels.

The scalar metrics in :mod:`repro.geometry.rect` and
:mod:`repro.geometry.transitive` evaluate one MBR at a time, allocating
``Segment``/``Point`` tuples and running four side tests per call.  This
module re-expresses every bound as masked numpy array
operations over a whole node fan-out at once: one query against an
``(n, 4)`` array of MBRs (columns ``xmin, ymin, xmax, ymax``, the field
order of :class:`~repro.geometry.rect.Rect`) or an ``(n, 2)`` array of leaf
points.  All per-corner and per-side work is stacked into ``(4, n)`` lanes
and funnelled through a *single* exact-hypot evaluation per kernel, because
numpy's fixed per-ufunc dispatch cost — not arithmetic — is what dominates
at R-tree fan-outs.

Results are **bit-identical** to the scalar implementations, which are
the correctness oracle (the property tests compare the two paths
exactly).  Two ingredients make exactness possible:

* every intermediate follows the scalar code's operation order, and IEEE-754
  ``+ - * /`` are deterministic, so sign tests, reflections and comparisons
  agree bit-for-bit;
* :func:`hypot` reproduces CPython's ``math.hypot`` (scaling by the leading
  power of two, error-free square products, compensated summation and one
  Newton correction of the square root) instead of calling ``np.hypot``,
  which differs from ``math.hypot`` in the last ulp for ~0.6% of inputs.

Lemma map (paper Definitions/Lemmas 1-3; see ``transitive.py``):

* :func:`min_trans_dist` — Lemma 1, all three cases as masked lanes:

  - **case 1** (segment ``pr`` intersects the MBR): the vectorised
    orientation/on-segment tests of ``_segments_cross`` plus the
    endpoint-containment mask select lanes whose answer is ``dis(p, r)``;
  - **case 2** (reflect and straighten): per side, the strict-same-side
    orientation mask gates a vectorised mirror of ``r`` across the side's
    carrier line, and the straightened segment's crossing test gates the
    ``dis(p, r')`` candidate;
  - **case 3** (vertex bends): the four corner transitive distances are
    always evaluated and reduced with ``np.minimum`` — the same safety net
    the scalar code keeps for grazing/degenerate configurations.

* :func:`min_max_trans_dist` — Lemma 3: per-side maxima of the corner
  transitive distances (Definition 2's endpoint property), reduced with
  a min across the four sides.
* :func:`mindist` / :func:`minmaxdist` — the classic Roussopoulos et al.
  bounds, clamped-axis distances and nearer-edge/farther-corner selection
  done with ``np.maximum`` / ``np.where``; :func:`point_bounds` fuses both
  into one hypot pass for the NN expansion loop.
* :func:`point_dists` / :func:`trans_dists` — leaf fan-out kernels for
  ``dis(q, s)`` and ``dis(p, s) + dis(s, r)``.
* the ``*_multi`` family — the same bounds for a whole **query batch** at
  once: a ``(k, 2)`` array of query points (or ``(k, 2)`` start/end pairs
  for the transitive metrics) against a ``(k, n, 4)`` block of per-query
  child MBRs or a ``(k, n, 2)`` block of per-query leaf points, returning
  ``(k, n)``.  When many queries expand R-tree nodes on the same page
  arrival tick, one kernel dispatch serves every query.  Every lane
  replays the exact scalar operation order, so the batch results are
  bit-identical to the per-query kernels (and hence to the scalar
  oracle).

Apart from :func:`hypot`, which the transitive join
(:mod:`repro.core.join`) runs, no package code calls a kernel: every
search runs on the scalar metrics, in the drain walk or on the arrival
heap, and the in-memory oracles of :mod:`repro.rtree.traversal` are
scalar too.  The kernels stay, with their bit-identity tests against the
scalar metrics, because ``perfbench/spans.py`` wraps every kernel by
name.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

from repro.geometry.point import Point
from repro.geometry.rect import Rect

__all__ = [
    "as_mbr_array",
    "as_point_array",
    "hypot",
    "point_dists",
    "trans_dists",
    "mindist",
    "minmaxdist",
    "point_bounds",
    "min_trans_dist",
    "min_max_trans_dist",
    "trans_bounds",
    "segment_intersects_rects",
    "point_dists_multi",
    "trans_dists_multi",
    "mindist_multi",
    "point_bounds_multi",
    "trans_bounds_multi",
    "trans_lower_multi",
    "point_weak_bounds_multi",
    "trans_weak_bounds_multi",
    "point_dists_raw",
    "trans_dists_raw",
]

# ----------------------------------------------------------------------
# Array packing helpers
# ----------------------------------------------------------------------
def as_mbr_array(rects: Sequence[Rect]) -> np.ndarray:
    """Pack rectangles into a contiguous ``(n, 4)`` float64 array."""
    return np.array(rects, dtype=np.float64).reshape(-1, 4)


def as_point_array(points: Sequence[Point]) -> np.ndarray:
    """Pack points into a contiguous ``(n, 2)`` float64 array."""
    return np.array(points, dtype=np.float64).reshape(-1, 2)


# ----------------------------------------------------------------------
# Exact vectorised hypot (bit-identical to math.hypot)
# ----------------------------------------------------------------------
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp splitting constant

#: Element-count ceiling below which the exact hypot runs as a stdlib
#: ``math.hypot`` loop instead of the vectorised replay.  The replay costs
#: ~75 array passes regardless of size, so tiny blocks (a fan-out or a
#: queue is typically a few dozen elements) pay far more in numpy dispatch than the
#: ~0.15µs-per-element scalar loop; the crossover sits near 700 elements.
_SCALAR_MAX = 640


def _square_dl(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Error-free ``(hi, lo)`` with ``hi + lo == x*x`` exactly.

    Dekker's product via Veltkamp splitting; for ``|x| < 1`` (guaranteed by
    the caller's scaling) it is overflow-free and equals the fma-based error
    term CPython uses, because both compute the *exact* rounding error.
    """
    z = x * x
    t = _SPLIT * x
    hi = t - (t - x)
    lo = x - hi
    zz = ((hi * hi - z) + 2.0 * (hi * lo)) + lo * lo
    return z, zz


def hypot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Elementwise ``math.hypot(x, y)``, bit-identical to the stdlib.

    Reproduces CPython's two-argument ``vector_norm``: take absolute
    values in argument order, scale by the leading power of two so every
    coordinate is in ``[0.5, 1)``, accumulate error-free squares with a
    compensated sum, square-root, then apply one correctly-rounded Newton
    correction.  Rows whose magnitude falls outside the exactly-scalable
    exponent range (zero, subnormal-scale, near-overflow, non-finite) fall
    back to ``math.hypot`` itself.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        shape = np.broadcast_shapes(x.shape, y.shape)
        x = np.broadcast_to(x, shape)
        y = np.broadcast_to(y, shape)
    shape = x.shape
    if x.size <= _SCALAR_MAX:
        # Small block: the stdlib loop *is* the reference value, and beats
        # the fixed cost of the vectorised replay below the crossover.
        hyp = math.hypot
        out = np.fromiter(
            map(hyp, x.ravel().tolist(), y.ravel().tolist()),
            dtype=np.float64,
            count=x.size,
        )
        return out.reshape(shape)
    ax = np.abs(x).ravel()
    ay = np.abs(y).ravel()
    big = np.maximum(ax, ay)
    _, e = np.frexp(big)
    safe = np.isfinite(big) & (big > 0.0) & (e > -1021) & (e < 1023)
    all_safe = bool(safe.all())
    es = e if all_safe else np.where(safe, e, 0)
    scale = np.ldexp(1.0, -es)

    with np.errstate(all="ignore"):
        csum = 1.0
        frac1 = 0.0
        frac2 = 0.0
        for v in (ax * scale, ay * scale):  # argument order, like CPython
            pr_hi, pr_lo = _square_dl(v)
            sm_hi = csum + pr_hi
            sm_lo = (csum - sm_hi) + pr_hi
            csum = sm_hi
            frac1 = frac1 + pr_lo
            frac2 = frac2 + sm_lo
        h = np.sqrt(csum - 1.0 + (frac1 + frac2))
        # One Newton correction step on the double-double residual.
        pr_hi, pr_lo = _square_dl(h)
        sm_hi = csum + (-pr_hi)
        sm_lo = (csum - sm_hi) + (-pr_hi)
        frac1 = frac1 - pr_lo
        frac2 = frac2 + sm_lo
        corr = sm_hi - 1.0 + (frac1 + frac2)
        out = (h + corr / (2.0 * h)) * np.ldexp(1.0, es)

    if not all_safe:
        xf = x.ravel()
        yf = y.ravel()
        for i in np.nonzero(~safe)[0]:
            out[i] = math.hypot(xf[i], yf[i])
    return out.reshape(shape)


# ----------------------------------------------------------------------
# Leaf fan-out kernels
# ----------------------------------------------------------------------
def point_dists(q: Point, pts: np.ndarray) -> np.ndarray:
    """``dis(q, s)`` for every row of an ``(n, 2)`` point array."""
    return hypot(q.x - pts[:, 0], q.y - pts[:, 1])


def trans_dists(p: Point, pts: np.ndarray, r: Point) -> np.ndarray:
    """``dis(p, s) + dis(s, r)`` for every row of an ``(n, 2)`` array.

    Both hops go through one fused hypot evaluation (the per-call dispatch
    cost dwarfs the arithmetic at leaf capacities).
    """
    xs = pts[:, 0]
    ys = pts[:, 1]
    d = hypot(
        np.concatenate((p.x - xs, xs - r.x)),
        np.concatenate((p.y - ys, ys - r.y)),
    )
    n = xs.shape[0]
    return d[:n] + d[n:]


# ----------------------------------------------------------------------
# Classic NN bounds over (n, 4) MBR arrays
# ----------------------------------------------------------------------
def _mindist_xy(q: Point, mbrs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    dx = np.maximum(np.maximum(mbrs[:, 0] - q.x, 0.0), q.x - mbrs[:, 2])
    dy = np.maximum(np.maximum(mbrs[:, 1] - q.y, 0.0), q.y - mbrs[:, 3])
    return dx, dy


def _minmaxdist_xy(
    q: Point, mbrs: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    xmin, ymin, xmax, ymax = mbrs[:, 0], mbrs[:, 1], mbrs[:, 2], mbrs[:, 3]
    cx = (xmin + xmax) / 2.0
    cy = (ymin + ymax) / 2.0
    # Nearer x edge, farther y corner / nearer y edge, farther x corner.
    rm_x = np.where(q.x <= cx, xmin, xmax)
    rM_y = np.where(q.y >= cy, ymin, ymax)
    rm_y = np.where(q.y <= cy, ymin, ymax)
    rM_x = np.where(q.x >= cx, xmin, xmax)
    return q.x - rm_x, q.y - rM_y, q.x - rM_x, q.y - rm_y


def mindist(q: Point, mbrs: np.ndarray) -> np.ndarray:
    """MINDIST lower bound of ``dis(q, .)`` for every MBR row."""
    dx, dy = _mindist_xy(q, mbrs)
    return hypot(dx, dy)


def minmaxdist(q: Point, mbrs: np.ndarray) -> np.ndarray:
    """MINMAXDIST upper bound (MBR face property) for every MBR row."""
    ax, ay, bx, by = _minmaxdist_xy(q, mbrs)
    d = hypot(np.concatenate((ax, bx)), np.concatenate((ay, by)))
    n = mbrs.shape[0]
    return np.minimum(d[:n], d[n:])


def point_bounds(q: Point, mbrs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(MINDIST, MINMAXDIST)`` per MBR row via one fused hypot pass."""
    mdx, mdy = _mindist_xy(q, mbrs)
    ax, ay, bx, by = _minmaxdist_xy(q, mbrs)
    d = hypot(
        np.concatenate((mdx, ax, bx)), np.concatenate((mdy, ay, by))
    )
    n = mbrs.shape[0]
    return d[:n], np.minimum(d[n : 2 * n], d[2 * n :])


# ----------------------------------------------------------------------
# Vectorised segment predicates
# ----------------------------------------------------------------------
def _orient(ax, ay, bx, by, cx, cy):  # type: ignore[no-untyped-def]
    """Twice the signed area of ``abc`` — same formula as the scalar code."""
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def _on_segment(ax, ay, bx, by, cx, cy):  # type: ignore[no-untyped-def]
    """Collinear point-on-closed-segment test (bounding-box comparisons)."""
    return (
        (np.minimum(ax, bx) <= cx)
        & (cx <= np.maximum(ax, bx))
        & (np.minimum(ay, by) <= cy)
        & (cy <= np.maximum(ay, by))
    )


def _segments_cross(px, py, qx, qy, ax, ay, bx, by):  # type: ignore[no-untyped-def]
    """Closed intersection mask between segments ``p q`` and segments ``a b``.

    Vector transcription of :func:`repro.geometry.segment.segments_intersect`
    with ``s1 = (p, q)`` and ``s2 = (a, b)``; all operands broadcast.
    """
    d1 = _orient(ax, ay, bx, by, px, py)
    d2 = _orient(ax, ay, bx, by, qx, qy)
    d3 = _orient(px, py, qx, qy, ax, ay)
    d4 = _orient(px, py, qx, qy, bx, by)
    proper = (((d1 > 0) & (d2 < 0)) | ((d1 < 0) & (d2 > 0))) & (
        ((d3 > 0) & (d4 < 0)) | ((d3 < 0) & (d4 > 0))
    )
    touch = (
        ((d1 == 0) & _on_segment(ax, ay, bx, by, px, py))
        | ((d2 == 0) & _on_segment(ax, ay, bx, by, qx, qy))
        | ((d3 == 0) & _on_segment(px, py, qx, qy, ax, ay))
        | ((d4 == 0) & _on_segment(px, py, qx, qy, bx, by))
    )
    return proper | touch


def _corner_lanes(mbrs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Corner coordinates stacked as ``(4, n)`` lanes, scalar CCW order."""
    xmin, ymin, xmax, ymax = mbrs[:, 0], mbrs[:, 1], mbrs[:, 2], mbrs[:, 3]
    return np.stack((xmin, xmax, xmax, xmin)), np.stack((ymin, ymin, ymax, ymax))


def _min_max_from_corners(corner_t: np.ndarray) -> np.ndarray:
    """Lemma 3 (MinMaxTransDist) from the ``(4, n)`` corner distances.

    Definition 2's endpoint property makes each side's MaxDist the max of
    its two corner values; Lemma 3 takes the min over the four sides.
    """
    return np.maximum(corner_t, corner_t[_NEXT, :]).min(axis=0)


#: Lane index of each CCW side's second endpoint: side k runs corner k ->
#: corner (k+1) % 4.
_NEXT = (1, 2, 3, 0)

#: Unit direction (ux, uy) of each CCW side's carrier line as ``(4, 1)``
#: column vectors.  These are the exact values the scalar ``reflect_point``
#: computes (``dx / |dx|`` is exactly +-1.0 for axis-aligned sides), so the
#: mirror arithmetic below replays the scalar operation sequence
#: bit-for-bit.
_UX = np.array([[1.0], [0.0], [-1.0], [0.0]])
_UY = np.array([[0.0], [1.0], [0.0], [-1.0]])


def segment_intersects_rects(p: Point, r: Point, mbrs: np.ndarray) -> np.ndarray:
    """Mask: does the closed segment ``p r`` touch each MBR (case 1)?"""
    xmin, ymin, xmax, ymax = mbrs[:, 0], mbrs[:, 1], mbrs[:, 2], mbrs[:, 3]
    inside_p = (xmin <= p.x) & (p.x <= xmax) & (ymin <= p.y) & (p.y <= ymax)
    inside_r = (xmin <= r.x) & (r.x <= xmax) & (ymin <= r.y) & (r.y <= ymax)
    cx, cy = _corner_lanes(mbrs)
    crossed = _segments_cross(
        p.x, p.y, r.x, r.y, cx, cy, cx[_NEXT, :], cy[_NEXT, :]
    )
    return inside_p | inside_r | crossed.any(axis=0)


# ----------------------------------------------------------------------
# Transitive bounds over (n, 4) MBR arrays (Lemmas 1-3)
# ----------------------------------------------------------------------
def _trans_core(
    p: Point, mbrs: np.ndarray, r: Point, want_lower: bool, want_upper: bool
) -> Tuple[np.ndarray, np.ndarray]:
    """Shared Lemma 1 / Lemma 3 evaluation over ``(4, n)`` corner lanes.

    One hypot pass covers the corner transitive distances (cases 2-3 of
    Lemma 1 *and* the side maxima of Lemma 3) plus the reflect-and-
    straighten candidates, and the case-1 and case-2 segment-crossing
    tests run as one batched ``(8, n)`` orientation evaluation — the fixed
    per-ufunc dispatch cost, not arithmetic, dominates at R-tree fan-outs.
    The collinear "touch" branch of the crossing test is evaluated lazily:
    it only matters on lanes where some orientation is exactly zero, which
    a grazing/degenerate configuration must produce first.
    """
    cx, cy = _corner_lanes(mbrs)
    ax, ay = cx, cy
    bx, by = cx[_NEXT, :], cy[_NEXT, :]

    if not want_lower:
        d = hypot(
            np.concatenate((p.x - cx, cx - r.x)),
            np.concatenate((p.y - cy, cy - r.y)),
        )
        corner_t = d[0:4] + d[4:8]
        return np.empty(0), _min_max_from_corners(corner_t)

    with np.errstate(all="ignore"):
        # Mirror r across each side's carrier line (case 2), replaying
        # reflect_point's projection arithmetic with the side's exact
        # unit direction.
        t = (r.x - ax) * _UX + (r.y - ay) * _UY
        projx = ax + t * _UX
        projy = ay + t * _UY
        mx = 2.0 * projx - r.x
        my = 2.0 * projy - r.y
    d = hypot(
        np.concatenate((p.x - cx, cx - r.x, p.x - mx)),
        np.concatenate((p.y - cy, cy - r.y, p.y - my)),
    )
    d_pc, d_cr, cand = d[0:4], d[4:8], d[8:12]
    corner_t = d_pc + d_cr  # dis(p, corner) + dis(corner, r), (4, n)

    upper = _min_max_from_corners(corner_t) if want_upper else np.empty(0)

    # Case 3 safety net: the vertex bends, always evaluated.
    best = corner_t.min(axis=0)

    # Batched crossing tests: segment (p, r) against each side (case 1)
    # and segment (p, mirror) against its side (case 2) share the side
    # lanes and the orientation of p, so evaluate all eight as one block:
    # lanes 0-3 are (p, r) x side k, lanes 4-7 are (p, mirror_k) x side k.
    qx = np.concatenate((np.broadcast_to(r.x, cx.shape), mx))
    qy = np.concatenate((np.broadcast_to(r.y, cy.shape), my))
    sax = np.concatenate((ax, ax))
    say = np.concatenate((ay, ay))
    sbx = np.concatenate((bx, bx))
    sby = np.concatenate((by, by))
    o_p = _orient(ax, ay, bx, by, p.x, p.y)  # shared by both halves
    d1 = np.concatenate((o_p, o_p))
    d2 = _orient(sax, say, sbx, sby, qx, qy)
    d3 = _orient(p.x, p.y, qx, qy, sax, say)
    d4 = _orient(p.x, p.y, qx, qy, sbx, sby)
    crosses = (((d1 > 0) & (d2 < 0)) | ((d1 < 0) & (d2 > 0))) & (
        ((d3 > 0) & (d4 < 0)) | ((d3 < 0) & (d4 > 0))
    )
    z1, z2, z3, z4 = d1 == 0, d2 == 0, d3 == 0, d4 == 0
    if (z1 | z2 | z3 | z4).any():
        # Grazing/collinear lanes: the scalar code's endpoint-touch tests.
        crosses = crosses | (
            (z1 & _on_segment(sax, say, sbx, sby, p.x, p.y))
            | (z2 & _on_segment(sax, say, sbx, sby, qx, qy))
            | (z3 & _on_segment(p.x, p.y, qx, qy, sax, say))
            | (z4 & _on_segment(p.x, p.y, qx, qy, sbx, sby))
        )

    # Case 2 gates: non-degenerate side, p and r strictly on the same side
    # of the carrier line, straightened segment crosses the side.  The
    # orientation of r w.r.t. each side is lane 0-3 of d2.
    width_ok = mbrs[:, 2] - mbrs[:, 0] > 0.0
    height_ok = mbrs[:, 3] - mbrs[:, 1] > 0.0
    nondegen = np.stack((width_ok, height_ok, width_ok, height_ok))
    o_r = d2[0:4]
    same_side = ((o_p > 0) & (o_r > 0)) | ((o_p < 0) & (o_r < 0))
    valid = nondegen & same_side & crosses[4:8]
    best = np.minimum(best, np.where(valid, cand, math.inf).min(axis=0))

    # Case 1: the straight line already touches the rectangle.
    inside_p = (
        (mbrs[:, 0] <= p.x)
        & (p.x <= mbrs[:, 2])
        & (mbrs[:, 1] <= p.y)
        & (p.y <= mbrs[:, 3])
    )
    inside_r = (
        (mbrs[:, 0] <= r.x)
        & (r.x <= mbrs[:, 2])
        & (mbrs[:, 1] <= r.y)
        & (r.y <= mbrs[:, 3])
    )
    case1 = inside_p | inside_r | crosses[0:4].any(axis=0)
    direct = math.hypot(p.x - r.x, p.y - r.y)
    lower = np.where(case1, direct, best)
    return lower, upper


def min_trans_dist(p: Point, mbrs: np.ndarray, r: Point) -> np.ndarray:
    """Lemma 1 lower bound for one ``(p, r)`` pair against every MBR row."""
    lower, _ = _trans_core(p, mbrs, r, want_lower=True, want_upper=False)
    return lower


def min_max_trans_dist(p: Point, mbrs: np.ndarray, r: Point) -> np.ndarray:
    """Lemma 3 upper bound for one ``(p, r)`` pair against every MBR row."""
    _, upper = _trans_core(p, mbrs, r, want_lower=False, want_upper=True)
    return upper


def trans_bounds(
    p: Point, mbrs: np.ndarray, r: Point
) -> Tuple[np.ndarray, np.ndarray]:
    """``(MinTransDist, MinMaxTransDist)`` sharing one corner evaluation.

    Hybrid-NN needs both bounds for every child of an expanded node; the
    four corner transitive distances are common to Lemma 1's case-3 lanes
    and Lemma 3's side maxima, so computing them once halves the work.
    """
    return _trans_core(p, mbrs, r, want_lower=True, want_upper=True)


# ----------------------------------------------------------------------
# Query-batched kernels: (k, 2) query block against per-query fan-outs
# ----------------------------------------------------------------------
# For a batch of queries served on one page arrival tick, these kernels
# evaluate one bound family for the *whole* batch —
# query row i against MBR/point block row i — in a single dispatch.  All
# lanes replay the per-query kernels' exact operation order (which in turn
# replays the scalar oracle), so every element is bit-identical to the
# corresponding single-query evaluation.


def point_dists_multi(queries: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """``dis(q_i, s_ij)``: ``(k, 2)`` queries vs ``(k, n, 2)`` leaf blocks."""
    return hypot(
        queries[:, 0, None] - pts[..., 0], queries[:, 1, None] - pts[..., 1]
    )


def trans_dists_multi(
    starts: np.ndarray, pts: np.ndarray, ends: np.ndarray
) -> np.ndarray:
    """``dis(p_i, s_ij) + dis(s_ij, r_i)`` over ``(k, n, 2)`` leaf blocks."""
    xs = pts[..., 0]
    ys = pts[..., 1]
    d = hypot(
        np.stack((starts[:, 0, None] - xs, xs - ends[:, 0, None])),
        np.stack((starts[:, 1, None] - ys, ys - ends[:, 1, None])),
    )
    return d[0] + d[1]


def _mindist_xy_multi(
    qx: np.ndarray, qy: np.ndarray, mbrs: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    dx = np.maximum(np.maximum(mbrs[..., 0] - qx, 0.0), qx - mbrs[..., 2])
    dy = np.maximum(np.maximum(mbrs[..., 1] - qy, 0.0), qy - mbrs[..., 3])
    return dx, dy


def mindist_multi(queries: np.ndarray, mbrs: np.ndarray) -> np.ndarray:
    """Per-query MINDIST: ``(k, 2)`` queries vs ``(k, 4)`` or ``(k, n, 4)``.

    With one MBR per query (``(k, 4)``) this is the batched pop-time prune
    test of the kNN/range clients; with per-query fan-out blocks it is the
    lower-bound half of :func:`point_bounds_multi`.
    """
    if mbrs.ndim == 2:
        qx, qy = queries[:, 0], queries[:, 1]
    else:
        qx, qy = queries[:, 0, None], queries[:, 1, None]
    dx, dy = _mindist_xy_multi(qx, qy, mbrs)
    return hypot(dx, dy)


def point_bounds_multi(
    queries: np.ndarray, mbrs: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(MINDIST, MINMAXDIST)`` per (query, child): ``(k, n, 4)`` blocks.

    One fused hypot pass over three ``(k, n)`` lanes, exactly like the
    single-query :func:`point_bounds` fuses its three ``(n,)`` lanes.
    """
    qx, qy = queries[:, 0, None], queries[:, 1, None]
    mdx, mdy = _mindist_xy_multi(qx, qy, mbrs)
    xmin, ymin = mbrs[..., 0], mbrs[..., 1]
    xmax, ymax = mbrs[..., 2], mbrs[..., 3]
    cx = (xmin + xmax) / 2.0
    cy = (ymin + ymax) / 2.0
    # Nearer x edge, farther y corner / nearer y edge, farther x corner.
    rm_x = np.where(qx <= cx, xmin, xmax)
    rM_y = np.where(qy >= cy, ymin, ymax)
    rm_y = np.where(qy <= cy, ymin, ymax)
    rM_x = np.where(qx >= cx, xmin, xmax)
    d = hypot(
        np.stack((mdx, qx - rm_x, qx - rM_x)),
        np.stack((mdy, qy - rM_y, qy - rm_y)),
    )
    return d[0], np.minimum(d[1], d[2])


def trans_bounds_multi(
    starts: np.ndarray, mbrs: np.ndarray, ends: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(MinTransDist, MinMaxTransDist)`` per (query, child) over blocks.

    Transcribes :func:`_trans_core` (both bounds wanted) onto ``(4, k, n)``
    corner lanes with per-row ``(p_i, r_i)`` pairs: Lemma 1's three cases
    and Lemma 3's side maxima for ``k`` queries in one fused evaluation.
    """
    xmin, ymin = mbrs[..., 0], mbrs[..., 1]
    xmax, ymax = mbrs[..., 2], mbrs[..., 3]
    cx = np.stack((xmin, xmax, xmax, xmin))
    cy = np.stack((ymin, ymin, ymax, ymax))
    ax, ay = cx, cy
    bx, by = cx[_NEXT, :], cy[_NEXT, :]
    px, py = starts[:, 0, None], starts[:, 1, None]
    rx, ry = ends[:, 0, None], ends[:, 1, None]

    with np.errstate(all="ignore"):
        # Mirror r_i across each side's carrier line (case 2), replaying
        # reflect_point's projection arithmetic per query row.
        ux = _UX[:, :, None]
        uy = _UY[:, :, None]
        t = (rx - ax) * ux + (ry - ay) * uy
        projx = ax + t * ux
        projy = ay + t * uy
        mx = 2.0 * projx - rx
        my = 2.0 * projy - ry
    d = hypot(
        np.concatenate((px - cx, cx - rx, px - mx)),
        np.concatenate((py - cy, cy - ry, py - my)),
    )
    d_pc, d_cr, cand = d[0:4], d[4:8], d[8:12]
    corner_t = d_pc + d_cr  # dis(p_i, corner) + dis(corner, r_i), (4, k, n)

    upper = _min_max_from_corners(corner_t)

    # Case 3 safety net: the vertex bends, always evaluated.
    best = corner_t.min(axis=0)

    # Batched crossing tests, exactly as in _trans_core: lanes 0-3 are
    # (p_i, r_i) x side k, lanes 4-7 are (p_i, mirror_k) x side k.
    qx = np.concatenate((np.broadcast_to(rx, cx.shape), mx))
    qy = np.concatenate((np.broadcast_to(ry, cy.shape), my))
    sax = np.concatenate((ax, ax))
    say = np.concatenate((ay, ay))
    sbx = np.concatenate((bx, bx))
    sby = np.concatenate((by, by))
    o_p = _orient(ax, ay, bx, by, px, py)  # shared by both halves
    d1 = np.concatenate((o_p, o_p))
    d2 = _orient(sax, say, sbx, sby, qx, qy)
    d3 = _orient(px, py, qx, qy, sax, say)
    d4 = _orient(px, py, qx, qy, sbx, sby)
    crosses = (((d1 > 0) & (d2 < 0)) | ((d1 < 0) & (d2 > 0))) & (
        ((d3 > 0) & (d4 < 0)) | ((d3 < 0) & (d4 > 0))
    )
    z1, z2, z3, z4 = d1 == 0, d2 == 0, d3 == 0, d4 == 0
    if (z1 | z2 | z3 | z4).any():
        # Grazing/collinear lanes: the scalar code's endpoint-touch tests.
        crosses = crosses | (
            (z1 & _on_segment(sax, say, sbx, sby, px, py))
            | (z2 & _on_segment(sax, say, sbx, sby, qx, qy))
            | (z3 & _on_segment(px, py, qx, qy, sax, say))
            | (z4 & _on_segment(px, py, qx, qy, sbx, sby))
        )

    # Case 2 gates: non-degenerate side, p_i and r_i strictly on the same
    # side of the carrier line, straightened segment crosses the side.
    width_ok = mbrs[..., 2] - mbrs[..., 0] > 0.0
    height_ok = mbrs[..., 3] - mbrs[..., 1] > 0.0
    nondegen = np.stack((width_ok, height_ok, width_ok, height_ok))
    o_r = d2[0:4]
    same_side = ((o_p > 0) & (o_r > 0)) | ((o_p < 0) & (o_r < 0))
    valid = nondegen & same_side & crosses[4:8]
    best = np.minimum(best, np.where(valid, cand, math.inf).min(axis=0))

    # Case 1: the straight line p_i -> r_i already touches the rectangle.
    inside_p = (xmin <= px) & (px <= xmax) & (ymin <= py) & (py <= ymax)
    inside_r = (xmin <= rx) & (rx <= xmax) & (ymin <= ry) & (ry <= ymax)
    case1 = inside_p | inside_r | crosses[0:4].any(axis=0)
    direct = hypot(starts[:, 0] - ends[:, 0], starts[:, 1] - ends[:, 1])
    lower = np.where(case1, direct[:, None], best)
    return lower, upper


def trans_lower_multi(
    px: np.ndarray, py: np.ndarray, mbrs: np.ndarray, rx: np.ndarray,
    ry: np.ndarray,
) -> np.ndarray:
    """Exact Lemma 1 lower bound, one ``(p_i, M_i, r_i)`` triple per row.

    The lower-only sibling of :func:`trans_bounds_multi` for the
    one-MBR-per-query shape: ``(k,)`` start/end components against a
    ``(k, 4)`` MBR block, skipping the Lemma 3 lane and the fan-out
    dimension: rows whose cheap keep certificate failed can batch their
    exact scalar test (``BroadcastNNSearch._lower_bound``) into one call.
    Bit-identical to ``min_trans_dist(p_i, M_i, r_i)`` row by row: the
    corner lanes, the mirror candidates and the crossing tests replay
    :func:`_trans_core` on ``(4, k)`` lanes with per-row endpoints.
    """
    xmin, ymin = mbrs[:, 0], mbrs[:, 1]
    xmax, ymax = mbrs[:, 2], mbrs[:, 3]
    cx = np.stack((xmin, xmax, xmax, xmin))
    cy = np.stack((ymin, ymin, ymax, ymax))
    ax, ay = cx, cy
    bx, by = cx[_NEXT, :], cy[_NEXT, :]

    with np.errstate(all="ignore"):
        # Mirror r_i across each side's carrier line (case 2), replaying
        # reflect_point's projection arithmetic per row.
        t = (rx - ax) * _UX + (ry - ay) * _UY
        projx = ax + t * _UX
        projy = ay + t * _UY
        mx = 2.0 * projx - rx
        my = 2.0 * projy - ry
    # One fused hypot batch: corner legs (lanes 0-7), mirror candidates
    # (8-11) and the direct p_i -> r_i distance (12) — every element is
    # still an isolated exact-hypot evaluation, so folding the lanes
    # together only saves dispatches, never changes a bit.
    d = hypot(
        np.concatenate((px - cx, cx - rx, px - mx, (px - rx)[None, :])),
        np.concatenate((py - cy, cy - ry, py - my, (py - ry)[None, :])),
    )
    cand = d[8:12]
    direct = d[12]
    corner_t = d[0:4] + d[4:8]  # dis(p_i, c) + dis(c, r_i), (4, k)

    # Case 3 safety net: the vertex bends, always evaluated.
    best = corner_t.min(axis=0)

    # Batched crossing tests, exactly as in _trans_core: lanes 0-3 are
    # (p_i, r_i) x side k, lanes 4-7 are (p_i, mirror_k) x side k.
    qx = np.concatenate((np.broadcast_to(rx, cx.shape), mx))
    qy = np.concatenate((np.broadcast_to(ry, cy.shape), my))
    sax = np.concatenate((ax, ax))
    say = np.concatenate((ay, ay))
    sbx = np.concatenate((bx, bx))
    sby = np.concatenate((by, by))
    o_p = _orient(ax, ay, bx, by, px, py)  # shared by both halves
    d1 = np.concatenate((o_p, o_p))
    d2 = _orient(sax, say, sbx, sby, qx, qy)
    # d3/d4 share the (p_i, q) segment: one orientation dispatch over the
    # stacked endpoint lanes covers both.
    d34 = _orient(
        px, py,
        np.concatenate((qx, qx)), np.concatenate((qy, qy)),
        np.concatenate((sax, sbx)), np.concatenate((say, sby)),
    )
    d3, d4 = d34[0:8], d34[8:16]
    crosses = (((d1 > 0) & (d2 < 0)) | ((d1 < 0) & (d2 > 0))) & (
        ((d3 > 0) & (d4 < 0)) | ((d3 < 0) & (d4 > 0))
    )
    z1, z2, z3, z4 = d1 == 0, d2 == 0, d3 == 0, d4 == 0
    if (z1 | z2 | z3 | z4).any():
        # Grazing/collinear lanes: the scalar code's endpoint-touch tests.
        crosses = crosses | (
            (z1 & _on_segment(sax, say, sbx, sby, px, py))
            | (z2 & _on_segment(sax, say, sbx, sby, qx, qy))
            | (z3 & _on_segment(px, py, qx, qy, sax, say))
            | (z4 & _on_segment(px, py, qx, qy, sbx, sby))
        )

    # Case 2 gates: non-degenerate side, p_i and r_i strictly on the same
    # side of the carrier line, straightened segment crosses the side.
    width_ok = xmax - xmin > 0.0
    height_ok = ymax - ymin > 0.0
    nondegen = np.stack((width_ok, height_ok, width_ok, height_ok))
    o_r = d2[0:4]
    same_side = ((o_p > 0) & (o_r > 0)) | ((o_p < 0) & (o_r < 0))
    valid = nondegen & same_side & crosses[4:8]
    best = np.minimum(best, np.where(valid, cand, math.inf).min(axis=0))

    # Case 1: the straight line p_i -> r_i already touches the rectangle.
    # Both endpoints share one containment dispatch over stacked lanes.
    tx = np.stack((px, rx))
    ty = np.stack((py, ry))
    ins = (xmin <= tx) & (tx <= xmax) & (ymin <= ty) & (ty <= ymax)
    case1 = ins[0] | ins[1] | crosses[0:4].any(axis=0)
    return np.where(case1, direct, best)


# ----------------------------------------------------------------------
# Certified estimate lanes (raw np.hypot behind deflate/inflate margins)
# ----------------------------------------------------------------------
# The exact vectorised hypot costs ~15 array passes; ``np.hypot`` costs
# one, at the price of a last-ulp deviation from ``math.hypot``.  A query
# batch can therefore run *certified estimates*: an
# under-estimate deflated by a margin (~1e-9) that dwarfs both the
# estimate's own slack and np.hypot's deviation can prove a prune (or
# that a guarantee scan is a no-op) exactly like the oracle would, and
# only the undecided margin band pays an exact scalar evaluation.  This
# is the arrival-frontier's two-tier bound strategy, lifted to query
# batches.  Estimate values are never stored into anything observable —
# answers, bounds, times — only their gated *decisions* are.


def point_weak_bounds_multi(
    queries: np.ndarray, mbrs: np.ndarray, deflate: float
) -> Tuple[np.ndarray, np.ndarray]:
    """(certified weak MINDIST, raw MINMAXDIST estimate) per (query, child).

    The weak lane is ``MINDIST`` under raw ``np.hypot`` scaled by
    ``deflate`` — a certified under-estimate of the exact MINDIST, usable
    to prove pop-time prunes.  The second lane estimates MINMAXDIST to
    within an ulp; callers may only gate with it (deflate/inflate), never
    store it.
    """
    qx, qy = queries[:, 0, None], queries[:, 1, None]
    mdx, mdy = _mindist_xy_multi(qx, qy, mbrs)
    xmin, ymin = mbrs[..., 0], mbrs[..., 1]
    xmax, ymax = mbrs[..., 2], mbrs[..., 3]
    cx = (xmin + xmax) / 2.0
    cy = (ymin + ymax) / 2.0
    rm_x = np.where(qx <= cx, xmin, xmax)
    rM_y = np.where(qy >= cy, ymin, ymax)
    rm_y = np.where(qy <= cy, ymin, ymax)
    rM_x = np.where(qx >= cx, xmin, xmax)
    est = np.minimum(
        np.hypot(qx - rm_x, qy - rM_y), np.hypot(qx - rM_x, qy - rm_y)
    )
    return np.hypot(mdx, mdy) * deflate, est


def trans_weak_bounds_multi(
    starts: np.ndarray, mbrs: np.ndarray, ends: np.ndarray, deflate: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(weak Lemma 1, raw Lemma 3 estimate, keep bound) per (query, child).

    The weak lane is ``MinDist(p, M) + MinDist(r, M)`` under raw
    ``np.hypot`` scaled by ``deflate`` — the transitive metric's certified
    under-estimate (cf. ``repro.client.drain.weak_trans_lower``).  The
    second lane is Lemma 3's side maxima over raw corner transitive sums,
    within an ulp of the exact MinMaxTransDist — gate-only, never store.
    The third lane is an upper bound on the exact Lemma 1 value (cf.
    ``repro.client.drain.certified_keep``) — the smaller of the
    through-centre transitive distance and the best raw corner transitive
    sum (both reachable points of the MBR, so both dominate Lemma 1
    regardless of subtree backing) — uninflated; callers apply their own
    margin.
    """
    px, py = starts[:, 0, None], starts[:, 1, None]
    rx, ry = ends[:, 0, None], ends[:, 1, None]
    dxp, dyp = _mindist_xy_multi(px, py, mbrs)
    dxr, dyr = _mindist_xy_multi(rx, ry, mbrs)
    weak = (np.hypot(dxp, dyp) + np.hypot(dxr, dyr)) * deflate
    cx, cy = _corner_lanes(mbrs.reshape(-1, 4))
    shape = (4,) + mbrs.shape[:-1]
    cx = cx.reshape(shape)
    cy = cy.reshape(shape)
    corner_t = np.hypot(px - cx, py - cy) + np.hypot(cx - rx, cy - ry)
    est = np.maximum(corner_t, corner_t[_NEXT, :]).min(axis=0)
    mx = (mbrs[..., 0] + mbrs[..., 2]) * 0.5
    my = (mbrs[..., 1] + mbrs[..., 3]) * 0.5
    centre_t = np.hypot(px - mx, py - my) + np.hypot(mx - rx, my - ry)
    keep = np.minimum(corner_t.min(axis=0), centre_t)
    return weak, est, keep


def trans_corner_minmax_multi(
    starts: np.ndarray, mbrs: np.ndarray, ends: np.ndarray
) -> np.ndarray:
    """Exact Lemma 3 corner MinMaxTransDist per (query, child).

    Bit-identical to ``repro.client.drain.corner_minmax_trans`` row
    by row: the four corner transitive sums run on the exact
    :func:`hypot` in the scalar helper's argument order, and the
    ``min`` of adjacent-corner ``max`` pairs replays its evaluation —
    one kernel call replaces the guarantee scans' per-child scalar
    corner walks across a whole query batch.
    """
    px, py = starts[:, 0, None], starts[:, 1, None]
    rx, ry = ends[:, 0, None], ends[:, 1, None]
    xmin = mbrs[..., 0]
    ymin = mbrs[..., 1]
    xmax = mbrs[..., 2]
    ymax = mbrs[..., 3]
    # All eight hops fuse into one exact-hypot dispatch (elementwise, so
    # every lane is bit-identical to its standalone evaluation).
    d = hypot(
        np.stack((
            px - xmin, px - xmax, px - xmax, px - xmin,
            xmin - rx, xmax - rx, xmax - rx, xmin - rx,
        )),
        np.stack((
            py - ymin, py - ymin, py - ymax, py - ymax,
            ymin - ry, ymin - ry, ymax - ry, ymax - ry,
        )),
    )
    t0 = d[0] + d[4]
    t1 = d[1] + d[5]
    t2 = d[2] + d[6]
    t3 = d[3] + d[7]
    return np.minimum(
        np.minimum(np.maximum(t0, t1), np.maximum(t1, t2)),
        np.minimum(np.maximum(t2, t3), np.maximum(t3, t0)),
    )


def point_dists_raw(queries: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Raw-``np.hypot`` ``dis(q_i, s_ij)`` estimates — gate-only."""
    return np.hypot(
        queries[:, 0, None] - pts[..., 0], queries[:, 1, None] - pts[..., 1]
    )


def trans_dists_raw(
    starts: np.ndarray, pts: np.ndarray, ends: np.ndarray
) -> np.ndarray:
    """Raw-``np.hypot`` transitive leaf estimates — gate-only."""
    xs = pts[..., 0]
    ys = pts[..., 1]
    return np.hypot(starts[:, 0, None] - xs, starts[:, 1, None] - ys) + np.hypot(
        xs - ends[:, 0, None], ys - ends[:, 1, None]
    )
