"""Self-tests of the benchmark, on the workloads it measures.

    python3 -m pytest -q perfbench/selftest.py

Each run uses a short ``--seconds``, so it stops after the fewest calls a
run makes; the file takes a few minutes.  The tests check that the counts
a later change may cite repeat exactly at one seed, that a held-out seed
runs clean, that the layer split adds up, that a dropped fault model fails
the lossy workload (on every path, and on the pool path alone), and that
the command refuses to report without the sources it measures.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("tnn_batch", "tnn_single", "client_mixed", "tnn_campaign_lossy")
SECONDS = "0.2"
SEED = 7
HELD_OUT_SEED = 90210

#: Metrics that are counts of work, not timings: they must repeat exactly.
EXACT_END_TO_END = ("access_time_mean_pages", "tune_in_mean_pages")
EXACT_PER_LAYER = (
    "download.index_pages", "download.data_pages", "download.lost_pages",
    "download.corrupt_pages", "geometry.calls", "queue.calls",
)


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> tuple:
    """(exit code, parsed last stdout line or None) of one benchmark run."""
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


@pytest.fixture
def run_module(monkeypatch):
    """The benchmark's ``run`` module, imported into this process."""
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import run

    return run


def traced_lossy(run, capsys) -> tuple:
    """(exit code, parsed JSON line, stderr) of a traced lossy run in-process."""
    argv = ["--workload", "tnn_campaign_lossy", "--seed", str(SEED),
            "--seconds", SECONDS, "--trace", "1"]
    code = run.main(argv)
    out = capsys.readouterr()
    return code, json.loads(out.out.strip().splitlines()[-1]), out.err


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly_at_one_seed(workload):
    for trace, names in ((0, EXACT_END_TO_END), (1, EXACT_PER_LAYER)):
        first = bench(workload, SEED, trace)
        second = bench(workload, SEED, trace)
        for code, result in (first, second):
            assert code == 0 and result["correct"] and result["failed"] == 0
        for name in names:
            assert first[1]["metrics"][name] == second[1]["metrics"][name], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_held_out_seed_runs_clean(workload):
    code, result = bench(workload, HELD_OUT_SEED, 0)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0


def test_layer_split_is_nested_and_covers_the_wall():
    code, result = bench("tnn_single", SEED, 1)
    assert code == 0
    m = {k: v["value"] for k, v in result["metrics"].items()}
    self_times = [v for k, v in m.items() if k.endswith(".self_s")]
    assert all(v >= 0.0 for v in self_times)
    # The per-query path never enters the shared scan or the loss model.
    assert m["shared_scan.run_s"] == 0.0 and m["loss.calls"] == 0
    assert m["search.calls"] > 0 and m["core.self_s"] > 0.0


def test_dropped_fault_model_fails_the_lossy_workload(monkeypatch, capsys, run_module):
    import workloads

    monkeypatch.setattr(workloads, "make_fault_model", lambda *a, **k: None)
    code, result, _ = traced_lossy(run_module, capsys)
    assert code == 1
    assert result["correct"] is False and result["metrics"]["download.lost_pages"]["value"] == 0


def test_fault_model_dropped_on_the_pool_path_only_fails(monkeypatch, capsys, run_module):
    from repro.engine import batch

    # Pool workers get the environment without its fault model; the serial
    # replay in the parent keeps it, so pages are still lost there.
    def lossless_init(env):
        batch._POOL_STATE["env"] = dataclasses.replace(env, loss=None)

    monkeypatch.setattr(batch, "_pool_init", lossless_init)
    code, result, err = traced_lossy(run_module, capsys)
    assert code == 1 and result["correct"] is False
    assert result["metrics"]["download.lost_pages"]["value"] > 0
    assert "disagree with the traced serial call" in err


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, result = bench("tnn_batch", SEED, 0, cwd=tmp_path)
    assert code != 0 and result is None
