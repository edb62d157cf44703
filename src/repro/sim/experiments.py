"""Canned experiments — one function per figure/table of the paper.

Every function returns an :class:`ExperimentSeries` (or a table structure
for Table 3) holding exactly the rows/series the corresponding figure
plots.  Dataset sizes default to ``REPRO_SCALE`` times the paper's (the
paper's testbed used up to 95,969 points and 1,000 queries per
configuration; a pure-Python laptop run scales this down), and
``REPRO_QUERIES`` queries per configuration.  Set ``REPRO_SCALE=1.0
REPRO_QUERIES=1000`` to reproduce at paper scale.

Every sweep executes through :class:`repro.engine.SharedScanRunner`, so
``REPRO_WORKERS=N`` fans each configuration's workload out over ``N``
worker processes (results are bit-identical to the in-process run).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Sequence

from repro.broadcast import SystemParameters
from repro.broadcast.config import PAPER_PAGE_CAPACITIES
from repro.core import (
    AnnOptimization,
    ApproximateTNN,
    DoubleNN,
    HybridNN,
    TNNEnvironment,
    WindowBasedTNN,
)
from repro.datasets import (
    PAPER_REGION_SIDE,
    UNIF_EXPONENTS,
    city_like,
    post_like,
    scale_to_region,
    sized_uniform,
    unif_by_exponent,
    unif_size,
    uniform,
)
from repro.engine import QueryWorkload, SharedScanRunner
from repro.geometry import Rect
from repro.sim.tables import format_series, format_table

#: Default scale-down of dataset sizes relative to the paper.
DEFAULT_SCALE = 0.1
#: Default queries per configuration (paper: 1,000).
DEFAULT_QUERIES = 20


class SweepCache:
    """Shared-cycle cache for sweep configurations.

    The figure sweeps rebuild near-identical broadcast programs per
    configuration: a density sweep reuses the same S dataset for every R
    density, Table 3 pairs the same datasets under four page capacities and
    across combinations, and the ANN sweeps share datasets across algorithm
    variants.  Packing an air index and laying out a program are
    deterministic in (dataset, page geometry, layout, m), so this cache
    keys packed trees on (dataset, leaf capacity, fanout) plus the
    layout's ``index_key()`` and broadcast programs on the tree key plus
    (params, m) and the layout's full ``cache_key()`` — backend type and
    every schedule parameter, so two
    :class:`~repro.broadcast.layout.BroadcastLayout` backends over the
    same dataset never alias each other's entries.  Every :func:`build`
    hit skips straight to the cached object — observationally identical
    to a rebuild.
    """

    #: FIFO eviction bounds — generous for any single sweep (Table 3 peaks
    #: at 16 tree configurations) while keeping a long multi-experiment
    #: process from accumulating every dataset it ever indexed.
    MAX_TREES = 64
    MAX_PROGRAMS = 256

    def __init__(self) -> None:
        self.trees: Dict[object, object] = {}
        self.programs: Dict[object, object] = {}

    def build(self, s_points, r_points, params=None, m=None, **kwargs) -> TNNEnvironment:
        """``TNNEnvironment.build`` with tree/program reuse."""
        env = TNNEnvironment.build(
            s_points,
            r_points,
            params,
            m=m,
            tree_cache=self.trees,
            program_cache=self.programs,
            **kwargs,
        )
        while len(self.trees) > self.MAX_TREES:
            self.trees.pop(next(iter(self.trees)))
        while len(self.programs) > self.MAX_PROGRAMS:
            self.programs.pop(next(iter(self.programs)))
        return env

    def clear(self) -> None:
        self.trees.clear()
        self.programs.clear()


#: Process-wide cache shared by every canned experiment in this module.
_SWEEP_CACHE = SweepCache()

#: The fixed-size series of Figure 9(a)/(b) (paper: 2,000..30,000 by 2,000;
#: we sample every other size to keep sweeps affordable by default).
SIZE_SWEEP = (2_000, 6_000, 10_000, 14_000, 18_000, 22_000, 26_000, 30_000)


def experiment_scale() -> float:
    """Dataset-size multiplier from ``REPRO_SCALE`` (default 0.1)."""
    return float(os.environ.get("REPRO_SCALE", DEFAULT_SCALE))


def queries_per_config() -> int:
    """Queries per configuration from ``REPRO_QUERIES`` (default 20)."""
    return int(os.environ.get("REPRO_QUERIES", DEFAULT_QUERIES))


def _scaled(n: int, scale: float) -> int:
    """A paper dataset size under the current scale (never below 50)."""
    return max(50, round(n * scale))


@dataclass
class ExperimentSeries:
    """The data behind one figure: an x-axis and one series per line."""

    experiment_id: str
    title: str
    metric: str
    x_label: str
    x_values: List[object] = field(default_factory=list)
    series: Dict[str, List[float]] = field(default_factory=dict)

    def add(self, name: str, value: float) -> None:
        self.series.setdefault(name, []).append(value)

    def render(self) -> str:
        header = f"[{self.experiment_id}] {self.title} ({self.metric})"
        return format_series(self.x_label, self.x_values, self.series, title=header)


# ----------------------------------------------------------------------
# Shared sweep driver
# ----------------------------------------------------------------------
def _run_sweep(
    experiment_id: str,
    title: str,
    metric: str,
    x_label: str,
    x_values: Sequence[object],
    env_for: Callable[[object], TNNEnvironment],
    algorithms: Mapping[str, object],
    n_queries: int,
    seed: int,
) -> ExperimentSeries:
    out = ExperimentSeries(experiment_id, title, metric, x_label)
    for x in x_values:
        env = env_for(x)
        runner = SharedScanRunner(env, QueryWorkload(n_queries, seed=seed))
        stats = runner.run(algorithms)
        out.x_values.append(x)
        for name, st in stats.items():
            value = st.access_time.mean if metric == "access time" else st.tune_in.mean
            out.add(name, value)
    return out


def _exact_suite() -> Dict[str, object]:
    return {
        "window-based": WindowBasedTNN(),
        "approximate-tnn": ApproximateTNN(),
        "double-nn": DoubleNN(),
        "hybrid-nn": HybridNN(),
    }


# ----------------------------------------------------------------------
# Figure 9 — access time, exact search
# ----------------------------------------------------------------------
def fig9a(scale: float | None = None, n_queries: int | None = None, seed: int = 0):
    """Fig 9(a): access time; |S| = 10,000 fixed, |R| sweeps 2k..30k."""
    scale = experiment_scale() if scale is None else scale
    n_queries = queries_per_config() if n_queries is None else n_queries
    ns = _scaled(10_000, scale)

    def env_for(nr_paper):
        return _SWEEP_CACHE.build(
            sized_uniform(ns, seed=seed + 1),
            sized_uniform(_scaled(nr_paper, scale), seed=seed + 2),
        )

    return _run_sweep(
        "fig9a", f"|S|={ns} fixed, |R| sweeps", "access time", "|R| (paper size)",
        list(SIZE_SWEEP), env_for, _exact_suite(), n_queries, seed,
    )


def fig9b(scale: float | None = None, n_queries: int | None = None, seed: int = 0):
    """Fig 9(b): access time; |R| = 10,000 fixed, |S| sweeps 2k..30k."""
    scale = experiment_scale() if scale is None else scale
    n_queries = queries_per_config() if n_queries is None else n_queries
    nr = _scaled(10_000, scale)

    def env_for(ns_paper):
        return _SWEEP_CACHE.build(
            sized_uniform(_scaled(ns_paper, scale), seed=seed + 1),
            sized_uniform(nr, seed=seed + 2),
        )

    return _run_sweep(
        "fig9b", f"|R|={nr} fixed, |S| sweeps", "access time", "|S| (paper size)",
        list(SIZE_SWEEP), env_for, _exact_suite(), n_queries, seed,
    )


def _density_sweep(
    experiment_id: str,
    s_exponent: float,
    metric: str,
    algorithms: Mapping[str, object],
    scale: float,
    n_queries: int,
    seed: int,
    r_exponents: Sequence[float] = UNIF_EXPONENTS,
) -> ExperimentSeries:
    """Shared driver for the UNIF(E) density sweeps (Figs 9c/9d/11/13)."""
    ns = _scaled(unif_size(s_exponent), scale)
    s_pts = sized_uniform(ns, seed=seed + 1)

    def env_for(exp):
        nr = _scaled(unif_size(exp), scale)
        return _SWEEP_CACHE.build(s_pts, sized_uniform(nr, seed=seed + 2))

    return _run_sweep(
        experiment_id,
        f"S=UNIF({s_exponent}) ({ns} pts), R density sweeps",
        metric, "R density exponent",
        list(r_exponents), env_for, algorithms, n_queries, seed,
    )


def fig9c(scale: float | None = None, n_queries: int | None = None, seed: int = 0):
    """Fig 9(c): access time; S = UNIF(-5.8), R sweeps all densities."""
    scale = experiment_scale() if scale is None else scale
    n_queries = queries_per_config() if n_queries is None else n_queries
    return _density_sweep("fig9c", -5.8, "access time", _exact_suite(), scale, n_queries, seed)


def fig9d(scale: float | None = None, n_queries: int | None = None, seed: int = 0):
    """Fig 9(d): access time; S = UNIF(-5.0), R sweeps all densities."""
    scale = experiment_scale() if scale is None else scale
    n_queries = queries_per_config() if n_queries is None else n_queries
    return _density_sweep("fig9d", -5.0, "access time", _exact_suite(), scale, n_queries, seed)


# ----------------------------------------------------------------------
# Figure 11 — tune-in time, exact search
# ----------------------------------------------------------------------
def _fig11(experiment_id, s_exponent, scale, n_queries, seed, with_approx=False):
    algos: Dict[str, object] = {
        "window-based": WindowBasedTNN(),
        "double-nn": DoubleNN(),
        "hybrid-nn": HybridNN(),
    }
    if with_approx:
        algos["approximate-tnn"] = ApproximateTNN()
    return _density_sweep(
        experiment_id, s_exponent, "tune-in time", algos, scale, n_queries, seed
    )


def fig11a(scale: float | None = None, n_queries: int | None = None, seed: int = 0):
    """Fig 11(a): tune-in; S = UNIF(-4.2) (dense), R sweeps."""
    scale = experiment_scale() if scale is None else scale
    n_queries = queries_per_config() if n_queries is None else n_queries
    return _fig11("fig11a", -4.2, scale, n_queries, seed)


def fig11b(scale: float | None = None, n_queries: int | None = None, seed: int = 0):
    """Fig 11(b): tune-in; S = UNIF(-5.0), R sweeps."""
    scale = experiment_scale() if scale is None else scale
    n_queries = queries_per_config() if n_queries is None else n_queries
    return _fig11("fig11b", -5.0, scale, n_queries, seed)


def fig11c(scale: float | None = None, n_queries: int | None = None, seed: int = 0):
    """Fig 11(c): tune-in; S = UNIF(-7.0) (sparse), R sweeps."""
    scale = experiment_scale() if scale is None else scale
    n_queries = queries_per_config() if n_queries is None else n_queries
    return _fig11("fig11c", -7.0, scale, n_queries, seed)


def fig11d(scale: float | None = None, n_queries: int | None = None, seed: int = 0):
    """Fig 11(d): tune-in incl. Approximate-TNN; S = UNIF(-5.0)."""
    scale = experiment_scale() if scale is None else scale
    n_queries = queries_per_config() if n_queries is None else n_queries
    return _fig11("fig11d", -5.0, scale, n_queries, seed, with_approx=True)


# ----------------------------------------------------------------------
# Figure 12 — ANN vs eNN optimisation
# ----------------------------------------------------------------------
def fig12a(scale: float | None = None, n_queries: int | None = None, seed: int = 0):
    """Fig 12(a): ANN vs eNN tune-in, equal-size datasets, factor = 1."""
    scale = experiment_scale() if scale is None else scale
    n_queries = queries_per_config() if n_queries is None else n_queries
    ann = AnnOptimization(factor=1.0, density_aware=False)
    algos = {
        "window-eNN": WindowBasedTNN(),
        "window-ANN": WindowBasedTNN(optimization=ann),
        "double-eNN": DoubleNN(),
        "double-ANN": DoubleNN(optimization=ann),
    }

    def env_for(n_paper):
        n = _scaled(n_paper, scale)
        return _SWEEP_CACHE.build(
            sized_uniform(n, seed=seed + 1), sized_uniform(n, seed=seed + 2)
        )

    return _run_sweep(
        "fig12a", "equal sizes, ANN(factor=1) vs eNN", "tune-in time",
        "|S|=|R| (paper size)", [6_000, 10_000, 14_000, 18_000],
        env_for, algos, n_queries, seed,
    )


def _fig12_density(experiment_id, title, s_exp, r_exponents, scale, n_queries, seed):
    """Density-aware alpha (Section 6.2.2): exact on the sparse dataset."""
    ann = AnnOptimization(factor=1.0, density_aware=True)
    algos = {
        "window-eNN": WindowBasedTNN(),
        "window-ANN": WindowBasedTNN(optimization=ann),
        "double-eNN": DoubleNN(),
        "double-ANN": DoubleNN(optimization=ann),
    }
    ns = _scaled(unif_size(s_exp), scale)
    s_pts = sized_uniform(ns, seed=seed + 1)

    def env_for(exp):
        nr = _scaled(unif_size(exp), scale)
        return _SWEEP_CACHE.build(s_pts, sized_uniform(nr, seed=seed + 2))

    return _run_sweep(
        experiment_id, title, "tune-in time", "R density exponent",
        list(r_exponents), env_for, algos, n_queries, seed,
    )


def fig12b(scale: float | None = None, n_queries: int | None = None, seed: int = 0):
    """Fig 12(b): density(S) > density(R); alpha = 0 on the sparse R."""
    scale = experiment_scale() if scale is None else scale
    n_queries = queries_per_config() if n_queries is None else n_queries
    return _fig12_density(
        "fig12b", "S=UNIF(-4.6) denser than R", -4.6,
        (-7.0, -6.6, -6.2, -5.8, -5.4), scale, n_queries, seed,
    )


def fig12c(scale: float | None = None, n_queries: int | None = None, seed: int = 0):
    """Fig 12(c): density(R) > density(S); alpha = 0 on the sparse S."""
    scale = experiment_scale() if scale is None else scale
    n_queries = queries_per_config() if n_queries is None else n_queries
    return _fig12_density(
        "fig12c", "S=UNIF(-6.2) sparser than R", -6.2,
        (-5.4, -5.0, -4.6, -4.2), scale, n_queries, seed,
    )


def fig12d(scale: float | None = None, n_queries: int | None = None, seed: int = 0):
    """Fig 12(d): ANN on real-like data (S=CITY, R=POST), 4 page sizes."""
    scale = experiment_scale() if scale is None else scale
    n_queries = queries_per_config() if n_queries is None else n_queries
    region = Rect(0.0, 0.0, PAPER_REGION_SIDE, PAPER_REGION_SIDE)
    s_pts = city_like(_scaled(6_000, scale), seed=seed + 101)
    r_pts = scale_to_region(post_like(_scaled(100_000, scale), seed=seed + 202), region)
    ann = AnnOptimization(factor=1.0, density_aware=True)
    algos = {
        "window-eNN": WindowBasedTNN(),
        "window-ANN": WindowBasedTNN(optimization=ann),
        "double-eNN": DoubleNN(),
        "double-ANN": DoubleNN(optimization=ann),
    }

    def env_for(capacity):
        return _SWEEP_CACHE.build(
            s_pts, r_pts, SystemParameters(page_capacity=capacity)
        )

    return _run_sweep(
        "fig12d", "CITY-like vs POST-like, page-capacity sweep", "tune-in time",
        "page capacity (bytes)", list(PAPER_PAGE_CAPACITIES),
        env_for, algos, n_queries, seed,
    )


# ----------------------------------------------------------------------
# Figure 13 — Hybrid-NN with ANN (factor 1/150 and 1/200)
# ----------------------------------------------------------------------
def _fig13(experiment_id, s_exponent, scale, n_queries, seed):
    algos = {
        "hybrid-eNN": HybridNN(),
        "hybrid-ANN-1/150": HybridNN(
            optimization=AnnOptimization(factor=1.0 / 150, density_aware=True)
        ),
        "hybrid-ANN-1/200": HybridNN(
            optimization=AnnOptimization(factor=1.0 / 200, density_aware=True)
        ),
    }
    return _density_sweep(
        experiment_id, s_exponent, "tune-in time", algos, scale, n_queries, seed,
        r_exponents=(-6.2, -5.8, -5.4, -5.0, -4.6, -4.2),
    )


def fig13a(scale: float | None = None, n_queries: int | None = None, seed: int = 0):
    """Fig 13(a): Hybrid-NN +- ANN; S = UNIF(-5.0)."""
    scale = experiment_scale() if scale is None else scale
    n_queries = queries_per_config() if n_queries is None else n_queries
    return _fig13("fig13a", -5.0, scale, n_queries, seed)


def fig13b(scale: float | None = None, n_queries: int | None = None, seed: int = 0):
    """Fig 13(b): Hybrid-NN +- ANN; S = UNIF(-5.4)."""
    scale = experiment_scale() if scale is None else scale
    n_queries = queries_per_config() if n_queries is None else n_queries
    return _fig13("fig13b", -5.4, scale, n_queries, seed)


# ----------------------------------------------------------------------
# Table 3 — Approximate-TNN fail rate by distribution combination
# ----------------------------------------------------------------------
def table3(scale: float | None = None, n_queries: int | None = None, seed: int = 0):
    """Table 3: Approximate-TNN fail rate per distribution combination.

    Averaged over the paper's page capacities; failure = the estimated
    circle misses the true answer (checked against the exact Double-NN on
    the identical workload).

    Unlike the figure sweeps, this table defaults to **full paper
    cardinality** (``REPRO_TABLE3_SCALE``, default 1.0): Equation 1's
    radius shrinks as ``ln(n)/sqrt(n)``, so failures on skewed data only
    emerge at realistic dataset sizes — at a 0.1 scale the radius covers
    half the region and nothing ever fails.
    """
    if scale is None:
        scale = float(os.environ.get("REPRO_TABLE3_SCALE", 1.0))
    n_queries = queries_per_config() if n_queries is None else n_queries
    region = Rect(0.0, 0.0, PAPER_REGION_SIDE, PAPER_REGION_SIDE)

    n_uni = _scaled(6_000, scale)
    n_city = _scaled(6_000, scale)
    n_post = _scaled(100_000, scale)
    uni_a = uniform(n_uni, seed=seed + 11, region=region)
    uni_b = uniform(n_uni, seed=seed + 12, region=region)
    city = city_like(n_city, seed=seed + 101)
    post = scale_to_region(post_like(n_post, seed=seed + 202), region)

    combos = {
        "uni-uni": (uni_a, uni_b),
        "uni-real": (uni_b, city),
        "real-uni": (city, uni_a),
        "real-real": (city, post),
    }

    rows = []
    fail_rates: Dict[str, float] = {}
    for name, (s_pts, r_pts) in combos.items():
        rates = []
        for capacity in PAPER_PAGE_CAPACITIES:
            env = _SWEEP_CACHE.build(
                s_pts, r_pts, SystemParameters(page_capacity=capacity)
            )
            runner = SharedScanRunner(env, QueryWorkload(n_queries, seed=seed))
            rates.append(runner.compare_failures(ApproximateTNN(), DoubleNN()))
        fail_rates[name] = sum(rates) / len(rates)
        rows.append([name, f"{fail_rates[name] * 100:.1f}%"])

    text = format_table(
        ["distribution combination", "average fail rate"],
        rows,
        title="[table3] Approximate-TNN fail rate",
    )
    return fail_rates, text
