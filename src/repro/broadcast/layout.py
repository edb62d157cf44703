"""The pluggable air-index backend seam: :class:`BroadcastLayout`.

Everything above the broadcast substrate — the drain's cyclic-order slot
arithmetic, the sweep cache — used to silently assume one physical
organisation: a packed R-tree interleaved ``(1, m)``.  A
:class:`BroadcastLayout` makes that choice an explicit strategy object
that owns *schedule generation* end to end:

* **which air index** is packed over the dataset
  (:meth:`BroadcastLayout.build_index` — R-tree, fixed grid, quadtree);
* **which broadcast schedule** its pages fly in
  (:meth:`BroadcastLayout.build_program` — uniform ``(1, m)``
  interleaving, distributed indexing, skew-aware broadcast disks);
* **which capabilities** the resulting channel guarantees
  (:attr:`BroadcastLayout.has_cyclic_order` — whether arrival order is
  cyclic page-id order, the contract behind the drain walk's
  closed-form arrivals; layouts
  without it route clients onto the hardened heap fallback);
* **its own identity** (:meth:`BroadcastLayout.index_key` /
  :meth:`BroadcastLayout.cache_key`) — the sweep cache keys packed trees
  and programs on these, so two backends over the same dataset and page
  geometry never alias each other's cache entries.

The logical query semantics (NN/kNN/range/window pruning, Lemma 1–3
bounds) never change across backends — only the physical layout does, so
backends are swappable and directly comparable, which is what
``benchmarks/bench_air_index_matrix.py`` sweeps.

Registering a new backend
-------------------------

Subclass :class:`BroadcastLayout` (a frozen dataclass, so identity
derives from the constructor parameters), implement ``build_index`` /
``build_program``, declare ``has_cyclic_order`` honestly (claiming cyclic
order on an uneven schedule silently corrupts client arrival arithmetic),
and optionally :func:`register_layout` a factory so sweeps and CLI tools
can construct it by name via :func:`make_layout`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.broadcast.config import SystemParameters
from repro.broadcast.disks import BroadcastDiskProgram, hot_index_pages
from repro.broadcast.distributed import DistributedBroadcastProgram
from repro.broadcast.program import BroadcastProgram
from repro.geometry import Point, Rect
from repro.rtree.tree import RTree


@dataclass(frozen=True)
class BroadcastLayout:
    """Base strategy: how one channel's index and schedule are generated.

    Frozen-dataclass subclasses get value identity for free, which the
    cache keys (and therefore :class:`~repro.sim.experiments.SweepCache`)
    rely on.  The base class is abstract in spirit: ``build_index`` and
    ``build_program`` must be overridden.
    """

    #: Declared capability: arrival order is cyclic page-id order (every
    #: index page's replicas exactly one super-page apart).  Programs this
    #: layout builds must carry the same flag.
    has_cyclic_order = True

    @property
    def name(self) -> str:
        """Human-readable backend name (benchmark rows, registry)."""
        return type(self).__name__

    # ------------------------------------------------------------------
    # Schedule generation
    # ------------------------------------------------------------------
    def build_index(
        self, points: Sequence[Point], params: SystemParameters
    ) -> RTree:
        """Pack the air index for one dataset under this backend."""
        raise NotImplementedError

    def build_program(
        self, tree: RTree, params: SystemParameters, m: Optional[int] = None
    ) -> BroadcastProgram:
        """Lay the packed index out as a broadcast schedule."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Identity (sweep-cache keys)
    # ------------------------------------------------------------------
    def index_key(self) -> Tuple:
        """Identity of the *index build* this layout performs.

        Two layouts sharing an ``index_key`` (for the same dataset and
        page geometry) may share a cached packed tree — e.g. an
        interleaved and a broadcast-disk schedule over the same STR
        R-tree.
        """
        return (type(self).__name__,)

    def cache_key(self) -> Tuple:
        """Full layout identity: backend type plus every schedule param.

        Dataclass equality covers all constructor parameters, so the
        default — type name plus the instance itself — distinguishes any
        two layouts that could produce different schedules.
        """
        return (type(self).__name__, self)


@dataclass(frozen=True)
class RTreeInterleavedLayout(BroadcastLayout):
    """Today's default backend: a packed R-tree interleaved ``(1, m)``.

    ``distributed_levels`` switches the schedule to distributed indexing
    (top levels replicated per chunk, deep pages once per cycle) — kept on
    this layout because it shares the R-tree index build and predates the
    seam (:mod:`repro.broadcast.distributed`).
    """

    packing: str = "str"
    distributed_levels: Optional[int] = None

    @property
    def has_cyclic_order(self) -> bool:  # type: ignore[override]
        return self.distributed_levels is None

    @property
    def name(self) -> str:
        if self.distributed_levels is not None:
            return f"rtree-distributed-t{self.distributed_levels}"
        return f"rtree-{self.packing}"

    def build_index(self, points, params):
        from repro.rtree.packing import build_rtree

        return build_rtree(
            list(points), params.leaf_capacity, params.internal_fanout,
            self.packing,
        )

    def build_program(self, tree, params, m=None):
        if self.distributed_levels is None:
            return BroadcastProgram(tree, params, m=m)
        return DistributedBroadcastProgram(
            tree, params, m=m, replicated_levels=self.distributed_levels
        )

    def index_key(self):
        return ("rtree", self.packing)


@dataclass(frozen=True)
class GridAirIndexLayout(BroadcastLayout):
    """Fixed-grid air index (:mod:`repro.index.grid`), interleaved (1, m).

    The schedule is the classic uniform interleave, so cyclic order (and
    with it the drain walk) holds; only
    the index partitioning differs from the R-tree backend.
    """

    cells: Optional[int] = None

    @property
    def name(self) -> str:
        return "grid" if self.cells is None else f"grid-{self.cells}"

    def build_index(self, points, params):
        from repro.index.grid import grid_pack

        return grid_pack(
            list(points), params.leaf_capacity, params.internal_fanout,
            cells=self.cells,
        )

    def build_program(self, tree, params, m=None):
        return BroadcastProgram(tree, params, m=m)

    def index_key(self):
        return ("grid", self.cells)


@dataclass(frozen=True)
class QuadtreeAirIndexLayout(BroadcastLayout):
    """Region-quadtree air index (:mod:`repro.index.quadtree`), (1, m)."""

    max_depth: int = 16

    @property
    def name(self) -> str:
        return "quadtree"

    def build_index(self, points, params):
        from repro.index.quadtree import quadtree_pack

        return quadtree_pack(
            list(points), params.leaf_capacity, params.internal_fanout,
            max_depth=self.max_depth,
        )

    def build_program(self, tree, params, m=None):
        return BroadcastProgram(tree, params, m=m)

    def index_key(self):
        return ("quadtree", self.max_depth)


@dataclass(frozen=True)
class BroadcastDiskSchedule(BroadcastLayout):
    """Skew-aware wrapper: any base index, hot pages repeated per chunk.

    Decorates another layout's index with a broadcast-disk schedule
    (:mod:`repro.broadcast.disks`): index pages whose MBR intersects
    ``hot_region`` ride the fast disk (every chunk), the rest air once per
    cycle.  Hot replicas are unevenly spaced, so the wrapper never has
    cyclic order regardless of the base layout.
    """

    base: BroadcastLayout = RTreeInterleavedLayout()
    #: The query population's hot region (fast-disk membership test).
    hot_region: Rect = Rect(0.0, 0.0, 0.0, 0.0)

    has_cyclic_order = False

    @property
    def name(self) -> str:
        return f"disk[{self.base.name}]"

    def build_index(self, points, params):
        return self.base.build_index(points, params)

    def build_program(self, tree, params, m=None):
        return BroadcastDiskProgram(
            tree, params, m=m, hot_pages=hot_index_pages(tree, self.hot_region)
        )

    def index_key(self):
        return self.base.index_key()


# ----------------------------------------------------------------------
# Backend registry (sweeps, benchmarks, CLI tools construct by name)
# ----------------------------------------------------------------------
_LAYOUT_REGISTRY: Dict[str, Callable[..., BroadcastLayout]] = {}


def register_layout(name: str, factory: Callable[..., BroadcastLayout]) -> None:
    """Register a backend factory under ``name`` (overwrites silently)."""
    _LAYOUT_REGISTRY[name] = factory


def make_layout(name: str, **kwargs) -> BroadcastLayout:
    """Construct a registered backend by name, e.g. ``make_layout("grid")``."""
    try:
        factory = _LAYOUT_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown broadcast layout {name!r}; "
            f"choose from {sorted(_LAYOUT_REGISTRY)}"
        ) from None
    return factory(**kwargs)


def available_layouts() -> List[str]:
    """Registered backend names, sorted."""
    return sorted(_LAYOUT_REGISTRY)


register_layout("rtree", RTreeInterleavedLayout)
register_layout(
    "rtree-distributed",
    lambda distributed_levels=2, **kw: RTreeInterleavedLayout(
        distributed_levels=distributed_levels, **kw
    ),
)
register_layout("grid", GridAirIndexLayout)
register_layout("quadtree", QuadtreeAirIndexLayout)
register_layout("disk", BroadcastDiskSchedule)
