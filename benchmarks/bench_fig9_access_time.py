"""Figure 9 — access time of the four algorithms, exact search.

Paper claims reproduced here:

* Approximate-TNN always has the best access time (no estimate traversal);
* Double-NN and Hybrid-NN share the same access time and beat
  Window-Based-TNN by ~7-15% when the dataset sizes are comparable;
* the gap closes as the size ratio grows extreme (Figure 10's analysis).

Each sweep configuration executes through the batched engine
(:class:`repro.engine.SharedScanRunner`), so ``REPRO_WORKERS=N`` fans the
per-configuration workloads out over ``N`` worker processes without
changing any number in the rendered series.
"""

from repro.sim import experiments as exp


def _run(benchmark, record_experiment, fn, experiment_id):
    series = benchmark.pedantic(fn, rounds=1, iterations=1)
    record_experiment(experiment_id, series.render())
    # Structural sanity: every series is positive and full-length.
    for values in series.series.values():
        assert len(values) == len(series.x_values)
        assert all(v > 0 for v in values)
    return series


def test_fig9a(benchmark, record_experiment):
    """|S| = 10,000 fixed, |R| sweeps 2k..30k."""
    series = _run(benchmark, record_experiment, exp.fig9a, "fig9a")
    approx = series.series["approximate-tnn"]
    window = series.series["window-based"]
    double = series.series["double-nn"]
    hybrid = series.series["hybrid-nn"]
    mean = lambda xs: sum(xs) / len(xs)
    assert mean(approx) < mean(double) < mean(window) * 1.01
    # Double-NN and Hybrid-NN start and finish together (Section 6.1.1).
    assert abs(mean(double) - mean(hybrid)) / mean(double) < 0.05


def test_fig9b(benchmark, record_experiment):
    """|R| = 10,000 fixed, |S| sweeps 2k..30k."""
    series = _run(benchmark, record_experiment, exp.fig9b, "fig9b")
    mean = lambda xs: sum(xs) / len(xs)
    assert mean(series.series["approximate-tnn"]) < mean(series.series["double-nn"])


def test_fig9c(benchmark, record_experiment):
    """S = UNIF(-5.8), R sweeps all eight densities."""
    series = _run(benchmark, record_experiment, exp.fig9c, "fig9c")
    # Access time is dominated by the larger dataset: the densest R must
    # cost more than the sparsest R for every algorithm.
    for values in series.series.values():
        assert values[-1] > values[0]


def test_fig9d(benchmark, record_experiment):
    """S = UNIF(-5.0), R sweeps all eight densities."""
    _run(benchmark, record_experiment, exp.fig9d, "fig9d")
