"""Shared helpers for the benchmark suite.

Every figure/table benchmark runs the corresponding canned experiment once
under pytest-benchmark timing, prints the regenerated rows/series (visible
with ``-s`` or in captured output) and persists them under
``benchmarks/results/`` so EXPERIMENTS.md can reference a concrete run.
"""

from __future__ import annotations

import dataclasses
import math
import pathlib
import time

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture()
def record_experiment(results_dir):
    """Return a callback that prints and saves a rendered experiment."""

    def _record(experiment_id: str, rendered: str) -> None:
        print()
        print(rendered)
        (results_dir / f"{experiment_id}.txt").write_text(rendered + "\n")

    return _record


def _stepped_run(algo, env, query, phase_s, phase_r):
    """``algo.run`` with every stage stepped on the heap by ``run_all``."""
    from repro.client import run_all

    stages = algo._stages(env, query, *env.tuners(phase_s, phase_r))
    try:
        while True:
            group = next(stages)
            run_all(group.searches, on_finish=group.on_finish)
    except StopIteration as done:
        return done.value


@pytest.fixture()
def drained_vs_stepped():
    """Return ``measure(env, algo, queries, rounds)``: the workload run by
    ``algorithm.run``, whose stages drain, against the same stages stepped
    on the heap by ``run_all`` (the seed implementation).  Both are
    warmed, then timed interleaved best-of-``rounds`` on the same host.
    Returns ``(drained, stepped, drained_s, stepped_s)``, the results as
    ``TNNResult`` tuples."""

    def measure(env, algo, queries, rounds):
        def drained():
            return [dataclasses.astuple(algo.run(env, q, ps, pr))
                    for q, ps, pr in queries]

        def stepped():
            return [dataclasses.astuple(_stepped_run(algo, env, q, ps, pr))
                    for q, ps, pr in queries]

        best = {drained: math.inf, stepped: math.inf}
        out = {drained: drained(), stepped: stepped()}
        for _ in range(rounds):
            for run in (stepped, drained):
                t0 = time.perf_counter()
                out[run] = run()
                best[run] = min(best[run], time.perf_counter() - t0)
        return out[drained], out[stepped], best[drained], best[stepped]

    return measure
