"""The two-channel TNN environment: datasets, air indexes and channels."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, MutableMapping, Optional, Sequence, Tuple

from repro.broadcast import (
    BroadcastChannel,
    BroadcastLayout,
    BroadcastProgram,
    ChannelTuner,
    FaultModel,
    RTreeInterleavedLayout,
    SystemParameters,
)
from repro.geometry import Point, Rect
from repro.rtree import RTree


@dataclass
class TNNEnvironment:
    """Everything a TNN query needs: two indexed datasets on two channels.

    Channel 1 broadcasts dataset **S** (the first hop of the transitive
    route), channel 2 broadcasts dataset **R** (the second hop).  Build one
    environment per dataset pair and reuse it across queries — each query
    draws fresh channel phases via :meth:`tuners`.
    """

    s_points: List[Point]
    r_points: List[Point]
    s_tree: RTree
    r_tree: RTree
    s_program: BroadcastProgram
    r_program: BroadcastProgram
    params: SystemParameters
    region: Rect
    #: Optional channel fault model shared by every tuner the environment
    #: hands out — the paper's lossless channel when ``None``.  Any
    #: :class:`~repro.broadcast.loss.FaultModel` plugs in (i.i.d. loss,
    #: Gilbert–Elliott bursts, detected corruption, or anything
    #: registered via ``register_fault_model``); faulty tuners retry
    #: receptions at the failed page's next replica.  Faulty searches of
    #: every type run per query in the shared scan (``SearchGroup.run``),
    #: where the drain replays the retry chains closed form,
    #: bit-identically (see ``repro.client.drain.retry_chain``).
    loss: Optional[FaultModel] = None
    _s_object_index: Dict[Point, int] = field(repr=False, default_factory=dict)
    _r_object_index: Dict[Point, int] = field(repr=False, default_factory=dict)

    @classmethod
    def build(
        cls,
        s_points: Sequence[Point],
        r_points: Sequence[Point],
        params: SystemParameters | None = None,
        m: int | None = None,
        packing: str = "str",
        distributed_levels: int | None = None,
        layout: "BroadcastLayout | None" = None,
        tree_cache: Optional[MutableMapping] = None,
        program_cache: Optional[MutableMapping] = None,
        loss: Optional[FaultModel] = None,
    ) -> "TNNEnvironment":
        """Index both datasets and lay them out as broadcast programs.

        Page geometry (leaf capacity, fanout) derives from ``params``
        (Table 2); the replication factor ``m`` defaults to the
        access-time-optimal value per channel.  Schedule generation is
        delegated to a :class:`~repro.broadcast.layout.BroadcastLayout`
        backend; ``packing`` and ``distributed_levels`` are the legacy
        spelling of the default R-tree backend and may not be combined
        with an explicit ``layout``.

        ``tree_cache`` / ``program_cache`` enable shared-cycle reuse across
        environments: a packed tree is keyed by (dataset, page geometry)
        plus the layout's ``index_key()``, and a broadcast program by the
        tree key plus (params, m) and the layout's full ``cache_key()`` —
        backend type *and* every schedule parameter — so sweep
        configurations that differ only in ``m``, in the page capacity, or
        in the *other* channel's dataset rebuild nothing they already
        have, while two backends over the same dataset never alias.
        Index builds are deterministic, so a cache hit is observationally
        identical to a rebuild.
        """
        params = params or SystemParameters()
        if layout is None:
            layout = RTreeInterleavedLayout(
                packing=packing, distributed_levels=distributed_levels
            )
        elif packing != "str" or distributed_levels is not None:
            raise ValueError(
                "pass either layout= or the legacy packing/distributed_levels "
                "arguments, not both"
            )

        def tree_for(points: List[Point]):
            if tree_cache is None:
                return layout.build_index(points, params), None
            key = (
                tuple(points),
                params.leaf_capacity,
                params.internal_fanout,
                layout.index_key(),
            )
            tree = tree_cache.get(key)
            if tree is None:
                tree = layout.build_index(points, params)
                tree_cache[key] = tree
            return tree, key

        def program_for(tree, tree_key):
            key = None
            if program_cache is not None and tree_key is not None:
                key = (tree_key, params, m, layout.cache_key())
                program = program_cache.get(key)
                if program is not None:
                    return program
            program = layout.build_program(tree, params, m=m)
            if key is not None:
                program_cache[key] = program
            return program

        s_tree, s_key = tree_for(list(s_points))
        r_tree, r_key = tree_for(list(r_points))
        s_program = program_for(s_tree, s_key)
        r_program = program_for(r_tree, r_key)
        # A cached program may have been laid out over an earlier (equal)
        # tree instance — e.g. after the tree cache evicted its entry.  The
        # program's tree carries the page ids its arrival arithmetic was
        # built from, so it is the authoritative index object.
        s_tree = s_program.tree
        r_tree = r_program.tree
        region = Rect.union_of([s_tree.mbr, r_tree.mbr])
        env = cls(
            s_points=list(s_points),
            r_points=list(r_points),
            s_tree=s_tree,
            r_tree=r_tree,
            s_program=s_program,
            r_program=r_program,
            params=params,
            region=region,
            loss=loss,
        )
        env._s_object_index = {
            p: i for i, p in enumerate(s_tree.iter_points())
        }
        env._r_object_index = {
            p: i for i, p in enumerate(r_tree.iter_points())
        }
        return env

    # ------------------------------------------------------------------
    # Per-query channel state
    # ------------------------------------------------------------------
    def tuners(
        self, phase_s: float = 0.0, phase_r: float = 0.0,
        record_log: bool = True,
    ) -> Tuple[ChannelTuner, ChannelTuner]:
        """Fresh tuners for one query, with the given channel phases
        (``record_log=False``: no reception logs, the counters still
        count)."""
        return (
            ChannelTuner(
                BroadcastChannel(self.s_program, phase=phase_s),
                loss=self.loss, record_log=record_log,
            ),
            ChannelTuner(
                BroadcastChannel(self.r_program, phase=phase_r),
                loss=self.loss, record_log=record_log,
            ),
        )

    def random_phases(self, rng: random.Random) -> Tuple[float, float]:
        """Random phases, one per channel — the paper's random waiting time
        for the two roots."""
        return (
            rng.uniform(0, self.s_program.cycle_length),
            rng.uniform(0, self.r_program.cycle_length),
        )

    def random_query_point(self, rng: random.Random) -> Point:
        """A query point uniform over the datasets' common region."""
        return Point(
            rng.uniform(self.region.xmin, self.region.xmax),
            rng.uniform(self.region.ymin, self.region.ymax),
        )

    # ------------------------------------------------------------------
    # Data-object lookup (for final attribute retrieval)
    # ------------------------------------------------------------------
    def s_object_of(self, point: Point) -> int:
        """Broadcast object index of an S point (leaf order)."""
        return self._s_object_index[point]

    def r_object_of(self, point: Point) -> int:
        """Broadcast object index of an R point (leaf order)."""
        return self._r_object_index[point]
