"""Shard-supervisor coverage: crashed workers, hung waves, serial rescue.

The shared-scan pool shards are pure functions of (algorithm, query
slice), so every supervisor recovery path — pool rebuild after a crash,
deadline-triggered teardown of a hung wave, resharding the failed slice,
and the in-process serial last resort — must merge results bit-identical
to the unsupervised serial run.  The chaos hook
(``REPRO_CHAOS_KILL_SHARD`` + ``REPRO_CHAOS_MARKER``) hard-kills exactly
one worker mid-campaign to prove it.
"""

import random

import pytest

from repro.broadcast import SystemParameters
from repro.core import DoubleNN, HybridNN, TNNEnvironment
from repro.datasets import sized_uniform
from repro.engine import SharedScanRunner, execute_tnn_batch
from repro.engine.batch import (
    _SupervisedPool,
    default_workers,
    shard_backoff,
    shard_retries,
    shard_timeout,
)
from repro.engine.workload import QueryWorkload
from repro.sim.stats import summarize_batch


@pytest.fixture(scope="module")
def env():
    return TNNEnvironment.build(
        sized_uniform(240, seed=3),
        sized_uniform(240, seed=4),
        params=SystemParameters(page_capacity=64),
    )


@pytest.fixture(scope="module")
def workload():
    return QueryWorkload(n_queries=6, seed=9)


@pytest.fixture(scope="module")
def reference(env, workload):
    """The unsupervised serial oracle for the shared workload."""
    runner = SharedScanRunner(env, workload, workers=0)
    return runner.run_algorithm(HybridNN())


def test_supervisor_knobs_parse_env(monkeypatch):
    monkeypatch.delenv("REPRO_SHARD_TIMEOUT", raising=False)
    assert shard_timeout() is None  # 0 = disabled, old behaviour
    monkeypatch.setenv("REPRO_SHARD_TIMEOUT", "2.5")
    assert shard_timeout() == 2.5
    monkeypatch.setenv("REPRO_SHARD_RETRIES", "7")
    assert shard_retries() == 7
    monkeypatch.setenv("REPRO_SHARD_BACKOFF", "0.25")
    assert shard_backoff() == 0.25


@pytest.mark.parametrize(
    "name,reader",
    [
        ("REPRO_SHARD_TIMEOUT", shard_timeout),
        ("REPRO_SHARD_RETRIES", shard_retries),
        ("REPRO_SHARD_BACKOFF", shard_backoff),
    ],
)
@pytest.mark.parametrize("raw", ["-1", "nan", "inf", "-inf", "soon", ""])
def test_supervisor_knobs_reject_garbage(monkeypatch, name, reader, raw):
    """Negative, non-finite or non-numeric knobs fail loudly at first
    read, naming the variable and the offending value."""
    if name == "REPRO_SHARD_RETRIES" and raw in ("nan", "inf", "-inf"):
        pass  # int() already rejects these as non-numeric — same error
    monkeypatch.setenv(name, raw)
    with pytest.raises(ValueError) as err:
        reader()
    assert name in str(err.value)
    assert repr(raw) in str(err.value)


def test_supervisor_knob_retries_rejects_fractional(monkeypatch):
    monkeypatch.setenv("REPRO_SHARD_RETRIES", "1.5")
    with pytest.raises(ValueError, match="REPRO_SHARD_RETRIES"):
        shard_retries()


def test_workers_knob_parses_env(monkeypatch):
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    assert default_workers() == 0  # in-process
    for raw, want in (("0", 0), ("3", 3), (" 2 ", 2)):
        monkeypatch.setenv("REPRO_WORKERS", raw)
        assert default_workers() == want


@pytest.mark.parametrize("raw", ["-3", "two", "1.5", "nan", ""])
def test_workers_knob_rejects_garbage(monkeypatch, raw):
    """A negative or non-integer worker count fails at the first read,
    naming the variable and the offending value, instead of running
    in-process or failing with a bare ``int()`` message."""
    monkeypatch.setenv("REPRO_WORKERS", raw)
    with pytest.raises(ValueError) as err:
        default_workers()
    assert "REPRO_WORKERS" in str(err.value)
    assert repr(raw) in str(err.value)


def _random_partition(rng, n):
    """A random partition of range(n) into shuffled, non-contiguous chunks."""
    indices = list(range(n))
    rng.shuffle(indices)
    chunks, at = [], 0
    while at < n:
        size = rng.randint(1, 5)
        chunks.append(indices[at : at + size])
        at += size
    return chunks


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("algo_cls", [DoubleNN, HybridNN], ids=["double", "hybrid"])
def test_any_partition_executes_bit_identical(env, algo_cls, seed):
    """Shards are pure, which resharding relies on: executing arbitrary
    (even non-contiguous, shuffled) slices independently reproduces the
    serial results."""
    algo = algo_cls()
    queries = QueryWorkload(n_queries=18, seed=9).queries(env)
    rng = random.Random(seed)
    merged = [None] * len(queries)
    want = execute_tnn_batch(env, algo, queries, record_log=False)
    for chunk in _random_partition(rng, len(queries)):
        results = execute_tnn_batch(
            env, algo, [queries[i] for i in chunk], record_log=False
        )
        for i, res in zip(chunk, results):
            merged[i] = res
    assert merged == want
    assert summarize_batch(merged) == summarize_batch(want)


def test_reshard_splits_failed_slice(env, workload):
    runner = SharedScanRunner(env, workload, workers=3)
    algo = HybridNN()
    items = [(i, *q) for i, q in enumerate(runner.queries)]
    # Two failed shards with interleaved workload indices merge, reorder
    # and split contiguously across the pool.
    pending = {
        0: (algo, [items[5], items[1], items[3]], True, 0),
        4: (algo, [items[0], items[2]], True, 4),
    }
    fresh = runner._reshard(pending, workers=3)
    assert sorted(fresh) == [0, 1, 2]
    merged = [item for k in sorted(fresh) for item in fresh[k][1]]
    assert [item[0] for item in merged] == [0, 1, 2, 3, 5]
    assert all(t[0] is algo and t[2] is True for t in fresh.values())
    # Degenerate inputs: nothing pending stays nothing.
    assert runner._reshard({}, workers=3) == {}


def test_chaos_kill_one_worker_bit_identical(
    tmp_path, monkeypatch, env, workload, reference
):
    """Kill one pool worker mid-campaign: the supervisor rebuilds the
    pool, retries the lost slice and merges bit-identical results."""
    marker = tmp_path / "chaos.marker"
    marker.write_text("armed")
    monkeypatch.setenv("REPRO_CHAOS_KILL_SHARD", "0")
    monkeypatch.setenv("REPRO_CHAOS_MARKER", str(marker))
    monkeypatch.setenv("REPRO_SHARD_BACKOFF", "0.01")
    runner = SharedScanRunner(env, workload, workers=2)
    got = runner.run_algorithm(HybridNN())
    assert not marker.exists()  # the kill actually fired
    assert got == reference


def test_chaos_kill_with_no_retry_budget_falls_back_serial(
    tmp_path, monkeypatch, env, workload, reference
):
    """With a zero retry budget, a crashed wave degrades straight to the
    in-process serial last resort — still bit-identical."""
    marker = tmp_path / "chaos.marker"
    marker.write_text("armed")
    monkeypatch.setenv("REPRO_CHAOS_KILL_SHARD", "0")
    monkeypatch.setenv("REPRO_CHAOS_MARKER", str(marker))
    monkeypatch.setenv("REPRO_SHARD_RETRIES", "0")
    runner = SharedScanRunner(env, workload, workers=2)
    got = runner.run_algorithm(HybridNN())
    assert not marker.exists()
    assert got == reference


def test_hung_wave_deadline_recovers(monkeypatch, env, workload, reference):
    """A deadline too short for any wave to finish plays the hung-worker
    scenario: every wave times out, the pool is torn down and rebuilt,
    and the serial last resort completes the campaign bit-identically."""
    monkeypatch.setenv("REPRO_SHARD_TIMEOUT", "0.0001")
    monkeypatch.setenv("REPRO_SHARD_RETRIES", "1")
    monkeypatch.setenv("REPRO_SHARD_BACKOFF", "0.01")
    runner = SharedScanRunner(env, workload, workers=2)
    got = runner.run_algorithm(HybridNN())
    assert got == reference


def test_supervised_run_mapping_shares_pool(
    tmp_path, monkeypatch, env, workload
):
    """run() over an algorithm mapping survives a chaos kill too — the
    supervised pool is shared and rebuilt across algorithms."""
    marker = tmp_path / "chaos.marker"
    marker.write_text("armed")
    monkeypatch.setenv("REPRO_CHAOS_KILL_SHARD", "0")
    monkeypatch.setenv("REPRO_CHAOS_MARKER", str(marker))
    monkeypatch.setenv("REPRO_SHARD_BACKOFF", "0.01")
    algos = {"hybrid": HybridNN()}
    want = SharedScanRunner(env, workload, workers=0).run(algos)
    got = SharedScanRunner(env, workload, workers=2).run(algos)
    assert not marker.exists()
    assert got == want


def test_supervised_pool_rebuild_replaces_executor(env, workload):
    runner = SharedScanRunner(env, workload, workers=2)
    sp = _SupervisedPool(lambda: runner._make_pool(2))
    first = sp.pool
    sp.rebuild()
    try:
        assert sp.pool is not first
        # The fresh pool accepts work; the old one is shut down.
        assert sp.pool.submit(int, "7").result() == 7
        with pytest.raises(RuntimeError):
            first.submit(int, "7")
    finally:
        sp.shutdown()
