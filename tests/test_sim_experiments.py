"""Light-scale smoke + shape tests for the canned experiments and CLI."""

import pytest

from repro.sim import experiments as exp
from repro.sim.cli import EXPERIMENTS, main

TINY = dict(scale=0.02, n_queries=3)


def test_fig9a_structure():
    s = exp.fig9a(**TINY)
    assert s.experiment_id == "fig9a"
    assert len(s.x_values) == len(exp.SIZE_SWEEP)
    assert set(s.series) == {
        "window-based", "approximate-tnn", "double-nn", "hybrid-nn"
    }
    for values in s.series.values():
        assert len(values) == len(s.x_values)
        assert all(v > 0 for v in values)
    assert "access time" in s.render()


def test_fig9_shape_approx_fastest_access():
    """The headline access-time ordering of Figure 9."""
    s = exp.fig9a(scale=0.05, n_queries=5)
    for i in range(len(s.x_values)):
        assert s.series["approximate-tnn"][i] <= s.series["window-based"][i]
        # Double-NN is never slower than Window-Based (equal when one
        # dataset dwarfs the other, Section 6.1.1).
        assert s.series["double-nn"][i] <= s.series["window-based"][i] * 1.05


def test_fig9_double_equals_hybrid_access():
    s = exp.fig9b(scale=0.04, n_queries=4)
    for d, h in zip(s.series["double-nn"], s.series["hybrid-nn"]):
        assert abs(d - h) / d < 0.1


def test_fig11_structure():
    s = exp.fig11b(**TINY)
    assert s.metric == "tune-in time"
    assert set(s.series) == {"window-based", "double-nn", "hybrid-nn"}


def test_fig11d_includes_approximate():
    s = exp.fig11d(**TINY)
    assert "approximate-tnn" in s.series


def test_fig12a_structure():
    s = exp.fig12a(**TINY)
    assert set(s.series) == {
        "window-eNN", "window-ANN", "double-eNN", "double-ANN"
    }


def test_fig12d_page_capacity_axis():
    s = exp.fig12d(scale=0.01, n_queries=2)
    assert s.x_values == [64, 128, 256, 512]


def test_fig13_structure():
    s = exp.fig13a(**TINY)
    assert set(s.series) == {
        "hybrid-eNN", "hybrid-ANN-1/150", "hybrid-ANN-1/200"
    }


def test_table3_structure():
    rates, text = exp.table3(scale=0.02, n_queries=2)
    assert set(rates) == {"uni-uni", "uni-real", "real-uni", "real-real"}
    assert all(0.0 <= v <= 1.0 for v in rates.values())
    assert "fail rate" in text


def test_scaled_floor():
    assert exp._scaled(10_000, 0.001) == 50
    assert exp._scaled(10_000, 0.5) == 5_000


def test_env_overrides(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "0.33")
    monkeypatch.setenv("REPRO_QUERIES", "7")
    assert exp.experiment_scale() == 0.33
    assert exp.queries_per_config() == 7


def test_cli_registry_covers_all_artifacts():
    assert set(EXPERIMENTS) == {
        "fig9a", "fig9b", "fig9c", "fig9d",
        "fig11a", "fig11b", "fig11c", "fig11d",
        "fig12a", "fig12b", "fig12c", "fig12d",
        "fig13a", "fig13b", "table3",
    }


def test_cli_runs_one_experiment(capsys):
    rc = main(["fig9a", "--scale", "0.02", "--queries", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "[fig9a]" in out
    assert "finished in" in out


def test_cli_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        main(["fig99"])


def test_sweep_cache_reuses_trees_and_stays_exact():
    """SweepCache hits return identical results to cold builds."""
    from repro.sim.experiments import SweepCache
    from repro.core import TNNEnvironment
    from repro.datasets import sized_uniform
    from repro.engine import QueryWorkload, SharedScanRunner
    from repro.core import DoubleNN

    s_pts = sized_uniform(120, seed=1)
    r_pts = sized_uniform(120, seed=2)
    cache = SweepCache()
    warm1 = cache.build(s_pts, r_pts)
    assert len(cache.trees) == 2
    warm2 = cache.build(s_pts, r_pts)
    assert warm2.s_tree is warm1.s_tree  # cache hit shares the packed tree
    cold = TNNEnvironment.build(s_pts, r_pts)
    wl = QueryWorkload(4, seed=0)
    assert (
        SharedScanRunner(warm2, wl).run_algorithm(DoubleNN())
        == SharedScanRunner(cold, wl).run_algorithm(DoubleNN())
    )


def test_sweep_cache_eviction_keeps_tree_program_consistent():
    """A program outliving its evicted tree still pairs with its own tree.

    Regression test: FIFO eviction can drop a tree entry while the
    value-keyed program survives; the rebuilt environment must use the
    program's original tree (which carries the page ids the program's
    arrival arithmetic assumes), not an id-less fresh pack.
    """
    from repro.sim.experiments import SweepCache
    from repro.datasets import sized_uniform
    from repro.engine import QueryWorkload, SharedScanRunner
    from repro.core import DoubleNN

    cache = SweepCache()
    cache.MAX_TREES = 2  # force eviction on the second dataset pair
    s_pts = sized_uniform(100, seed=1)
    r_pts = sized_uniform(100, seed=2)
    first = cache.build(s_pts, r_pts)
    cache.build(sized_uniform(100, seed=3), sized_uniform(100, seed=4))
    assert len(cache.trees) == 2  # the first pair's trees were evicted
    again = cache.build(s_pts, r_pts)  # program-cache hit, tree-cache miss
    assert again.s_tree is again.s_program.tree
    assert all(n.page_id is not None for n in again.s_tree.iter_nodes())
    wl = QueryWorkload(4, seed=0)
    assert (
        SharedScanRunner(again, wl).run_algorithm(DoubleNN())
        == SharedScanRunner(first, wl).run_algorithm(DoubleNN())
    )
