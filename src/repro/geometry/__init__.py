"""Planar geometry substrate for TNN query processing.

Provides the primitive types (:class:`Point`, :class:`Rect`) plus every
distance metric the paper relies on:

* ``mindist`` / ``minmaxdist`` — classic R-tree NN metrics (Roussopoulos
  et al., SIGMOD'95);
* ``min_trans_dist`` — Definition 1 / Lemma 1 (lower bound of the transitive
  distance through an MBR);
* ``max_dist`` — Definition 2 / Lemma 2 (tight upper bound over a segment);
* ``min_max_trans_dist`` — Definition 3 / Lemma 3 (upper bound guaranteed by
  the MBR face property);
* circle/ellipse–rectangle overlap ratios — Heuristics 1 and 2 used by the
  ANN pruning optimisation (Section 5 of the paper).

The scalar metrics run every search and are the correctness oracle;
:mod:`repro.geometry.kernels` provides bit-identical vectorised versions
that evaluate whole MBR/point batches per call.
"""

from repro.geometry import kernels
from repro.geometry.point import Point, distance, transitive_distance
from repro.geometry.rect import Rect
from repro.geometry.segment import (
    Segment,
    reflect_point,
    segments_intersect,
    segment_intersects_rect,
)
from repro.geometry.transitive import max_dist, min_max_trans_dist, min_trans_dist
from repro.geometry.polygon import clip_polygon_to_rect, polygon_area
from repro.geometry.shapes import (
    Circle,
    Ellipse,
    circle_rect_overlap_ratio,
    ellipse_rect_overlap_ratio,
)

__all__ = [
    "kernels",
    "Point",
    "Rect",
    "Segment",
    "Circle",
    "Ellipse",
    "distance",
    "transitive_distance",
    "reflect_point",
    "segments_intersect",
    "segment_intersects_rect",
    "min_trans_dist",
    "max_dist",
    "min_max_trans_dist",
    "clip_polygon_to_rect",
    "polygon_area",
    "circle_rect_overlap_ratio",
    "ellipse_rect_overlap_ratio",
]
