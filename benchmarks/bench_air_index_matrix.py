"""Air-index backend matrix: access time / tune-in / energy per layout.

One sweep over the :class:`~repro.broadcast.layout.BroadcastLayout` seam:
every registered backend family (R-tree interleaved, distributed indexing,
fixed grid, quadtree, skew-aware broadcast disk) serves the same mixed
NN/kNN/range/window client batches under two query populations — uniform
over the region, and skewed (~80% of queries inside the broadcast disk's
hot region).  Per cell the harness records mean access time and tune-in
(pages), the two-state radio energy estimate, the execution path the
clients actually took (the drain walk vs the heap), and a
``bit_identical`` verdict of the shared-scan batch against the per-query
oracle — the matrix is worthless if any backend's batch path diverges.

Expected shape, not asserted: the broadcast-disk schedule wins access time
on the skewed population and loses on the uniform one (cold pages wait out
its longer effective cycle); distributed indexing trades access time for
the shortest cycle; tune-in depends only on index pruning quality, so it
barely moves across schedules of the same index.

Writes ``BENCH_air_index_matrix.json`` at the repository root.
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import statistics

from repro.broadcast import EnergyModel, SystemParameters
from repro.broadcast.layout import (
    BroadcastDiskSchedule,
    GridAirIndexLayout,
    QuadtreeAirIndexLayout,
    RTreeInterleavedLayout,
)
from repro.core.environment import TNNEnvironment
from repro.datasets import sized_uniform
from repro.datasets.synthetic import PAPER_REGION_SIDE
from repro.engine import (
    KNNRequest,
    NNRequest,
    QueryEngine,
    RangeRequest,
    WindowRequest,
)
from repro.geometry import Point, Rect
from repro.sim import format_table
from repro.sim.experiments import SweepCache

N_QUERIES = int(os.environ.get("REPRO_BENCH_QUERIES", 120))
N_POINTS = int(os.environ.get("REPRO_BENCH_POINTS", 6_000))
PAGE_CAPACITY = int(os.environ.get("REPRO_BENCH_CAPACITY", 64))

ROOT = pathlib.Path(__file__).resolve().parent.parent
JSON_PATH = ROOT / "BENCH_air_index_matrix.json"

#: The skewed population's hot region: the bottom-left ~4% of the paper's
#: region, also the broadcast-disk schedule's fast-disk membership test.
HOT_REGION = Rect(0.0, 0.0, 0.2 * PAPER_REGION_SIDE, 0.2 * PAPER_REGION_SIDE)
#: Fraction of skewed-population queries drawn inside the hot region.
HOT_FRACTION = 0.8

BACKENDS = {
    "rtree": RTreeInterleavedLayout(),
    "rtree-distributed": RTreeInterleavedLayout(distributed_levels=2),
    "grid": GridAirIndexLayout(),
    "quadtree": QuadtreeAirIndexLayout(),
    "disk[rtree]": BroadcastDiskSchedule(hot_region=HOT_REGION),
}


def _population(env, name: str, n: int, seed: int):
    """Mixed-request batch for one population over one environment."""
    rng = random.Random(seed)

    def draw_point():
        if name == "skewed" and rng.random() < HOT_FRACTION:
            return Point(
                rng.uniform(HOT_REGION.xmin, HOT_REGION.xmax),
                rng.uniform(HOT_REGION.ymin, HOT_REGION.ymax),
            )
        return env.random_query_point(rng)

    out = []
    for i in range(n):
        p = draw_point()
        channel = "s" if rng.random() < 0.5 else "r"
        program = env.s_program if channel == "s" else env.r_program
        phase = rng.uniform(0, program.cycle_length)
        kind = i % 4
        if kind == 0:
            out.append(NNRequest(p, phase, channel))
        elif kind == 1:
            out.append(KNNRequest(p, 1 + i % 4, phase, channel))
        elif kind == 2:
            out.append(RangeRequest(p, rng.uniform(100, 2500), phase, channel))
        else:
            q = draw_point()
            out.append(
                WindowRequest(
                    Rect(min(p.x, q.x), min(p.y, q.y), max(p.x, q.x), max(p.y, q.y)),
                    phase,
                    channel,
                )
            )
    return out


def _oracle(engine, req):
    if isinstance(req, NNRequest):
        return engine.nn(req.point, req.phase, req.channel)
    if isinstance(req, KNNRequest):
        return engine.knn(req.point, req.k, req.phase, req.channel)
    if isinstance(req, RangeRequest):
        return engine.range(req.center, req.radius, req.phase, req.channel)
    return engine.window(req.window, req.phase, req.channel)


def _execution_mode(engine) -> str:
    """Which client queue backend this environment's searches get."""
    probe = engine._build(NNRequest(Point(1.0, 1.0)))
    return "walk" if probe._drains() else "heap"


def run_matrix() -> dict:
    params = SystemParameters(page_capacity=PAGE_CAPACITY)
    energy = EnergyModel()
    cache = SweepCache()
    s_points = sized_uniform(N_POINTS, seed=1)
    r_points = sized_uniform(N_POINTS, seed=2)

    rows = []
    for backend, layout in BACKENDS.items():
        env = cache.build(s_points, r_points, params=params, layout=layout)
        engine = QueryEngine(env)
        mode = _execution_mode(engine)
        for population in ("uniform", "skewed"):
            requests = _population(env, population, N_QUERIES, seed=7)
            got = engine.run_many(requests)
            want = [_oracle(engine, req) for req in requests]
            rows.append(
                {
                    "backend": backend,
                    "population": population,
                    "execution": mode,
                    "has_cyclic_order": layout.has_cyclic_order,
                    "cycle_length": env.s_program.cycle_length,
                    "access_time_pages": round(
                        statistics.fmean(a.access_time for a in got), 2
                    ),
                    "tune_in_pages": round(
                        statistics.fmean(a.tune_in for a in got), 2
                    ),
                    "energy_joules": round(
                        statistics.fmean(
                            energy.joules(a.tune_in, a.access_time)
                            for a in got
                        ),
                        6,
                    ),
                    "bit_identical": got == want,
                }
            )

    return {
        "benchmark": "air_index_matrix",
        "workload": (
            "mixed NN/kNN/range/window batches per backend x query population"
        ),
        "n_queries": N_QUERIES,
        "n_points_per_dataset": N_POINTS,
        "page_capacity": PAGE_CAPACITY,
        "hot_region": list(HOT_REGION),
        "hot_fraction": HOT_FRACTION,
        "rows": rows,
        "bit_identical": all(r["bit_identical"] for r in rows),
    }


def test_air_index_matrix(record_experiment):
    payload = run_matrix()
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    table = format_table(
        ["backend", "population", "exec", "cycle", "access", "tune-in", "mJ"],
        [
            [
                r["backend"],
                r["population"],
                r["execution"],
                r["cycle_length"],
                f"{r['access_time_pages']:.0f}",
                f"{r['tune_in_pages']:.1f}",
                f"{1000 * r['energy_joules']:.2f}",
            ]
            for r in payload["rows"]
        ],
        title="[matrix] air-index backends x query populations",
    )
    record_experiment("air_index_matrix", table)

    assert payload["bit_identical"], [
        (r["backend"], r["population"])
        for r in payload["rows"]
        if not r["bit_identical"]
    ]
    by_backend = {r["backend"] for r in payload["rows"]}
    assert len(by_backend) >= 3
    assert {r["population"] for r in payload["rows"]} == {"uniform", "skewed"}
    # Both client execution paths must be represented in the matrix.
    assert {r["execution"] for r in payload["rows"]} == {"walk", "heap"}


if __name__ == "__main__":
    print(json.dumps(run_matrix(), indent=2))
