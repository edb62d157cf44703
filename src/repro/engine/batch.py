"""Batched multi-query execution over one TNN environment.

The paper's evaluation pushes 1,000 random queries through every
configuration; serving that kind of bulk workload one ad-hoc query at a
time is the scaling bottleneck the ROADMAP calls out.
:class:`SharedScanRunner` executes a whole
:class:`~repro.engine.workload.QueryWorkload` through a shared substrate:

* every algorithm runs through
  :func:`~repro.engine.shared_scan.execute_tnn_batch`, which drives each
  query's estimate-filter-join lifecycle through
  :meth:`~repro.core.base.TNNAlgorithm.run_stages`, the stage loop
  per-query ``algorithm.run`` uses too;
* the environment's broadcast programs (with their cached arrival-position
  tables) are built once and reused by every query;
* execution can fan out over a supervised process pool — queries carry
  their full per-query state (point + channel phases, pre-derived from the
  workload seed), so pool results are **bit-identical** to the sequential
  path and are reassembled in workload order;
* per-query results are aggregated into :class:`~repro.sim.stats.ResultStats`
  through the vectorised :func:`~repro.sim.stats.summarize_batch`;
* reference (oracle) results are cached per workload, so comparing several
  candidate algorithms against the same exact reference pays for the
  reference once instead of once per candidate.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple

from repro.core.base import TNNAlgorithm
from repro.core.environment import TNNEnvironment
from repro.core.result import TNNResult
from repro.engine.shared_scan import execute_tnn_batch
from repro.engine.workload import QueryWorkload
from repro.geometry import Point

if TYPE_CHECKING:  # pragma: no cover - repro.sim imports this package
    from repro.sim.stats import ResultStats

#: Worker-process state installed by the pool initializer: the environment
#: (the heavy part — both R-trees and programs) is pickled once per worker,
#: not once per query or per algorithm.
_POOL_STATE: dict = {}


def _pool_init(env: TNNEnvironment) -> None:
    _POOL_STATE["env"] = env


def _chaos_maybe_die(shard_index: int) -> None:
    """Fault-injection hook: kill this worker process once, mid-campaign.

    ``REPRO_CHAOS_KILL_SHARD`` names the shard index the kill targets and
    ``REPRO_CHAOS_MARKER`` points at an armed marker file; the worker that
    claims the marker (removal is atomic, so exactly one wins) hard-exits
    without cleanup — the crash the shard supervisor must absorb.  Tests
    and the resilience benchmark use this to prove a lost worker costs a
    retry, never a result.
    """
    target = os.environ.get("REPRO_CHAOS_KILL_SHARD")
    if target is None or int(target) != shard_index:
        return
    marker = os.environ.get("REPRO_CHAOS_MARKER")
    if not marker:
        return
    try:
        os.remove(marker)  # atomic claim: only one worker dies
    except OSError:
        return
    os._exit(1)


def _run_shared_shard(
    env: TNNEnvironment, task: tuple
) -> List[Tuple[int, TNNResult]]:
    """Run one phase-grouped shard of the workload.

    A shard is a pure function of (algorithm, query slice): it reads no
    worker-local state besides the environment, so a supervisor may rerun
    it on any worker — or serially in the parent — and merge bit-identical
    results.
    """
    algorithm, shard, record_log, _shard_index = task
    results = execute_tnn_batch(
        env,
        algorithm,
        [(p, ps, pr) for _, p, ps, pr in shard],
        record_log,
    )
    return [(item[0], res) for item, res in zip(shard, results)]


def _pool_run_shared_shard(task: tuple) -> List[Tuple[int, TNNResult]]:
    """Pool worker entry point for one shard."""
    _chaos_maybe_die(task[3])
    return _run_shared_shard(_POOL_STATE["env"], task)


def default_workers() -> int:
    """Worker processes from ``REPRO_WORKERS`` (default 0 = in-process)."""
    return int(os.environ.get("REPRO_WORKERS", "0"))


# ----------------------------------------------------------------------
# Shard supervision (crash / hang recovery for the runner's pool)
# ----------------------------------------------------------------------
def _env_number(name: str, default: str, integer: bool = False):
    """A validated supervisor knob from the environment.

    The supervisor knobs silently shaped recovery behaviour whatever
    garbage they held; a negative timeout or a NaN backoff must fail
    loudly at the first read, not skew a retry loop mid-campaign.
    """
    raw = os.environ.get(name, default)
    try:
        value = int(raw) if integer else float(raw)
    except (TypeError, ValueError):
        kind = "an integer" if integer else "a number"
        raise ValueError(f"{name} must be {kind}, got {raw!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {raw!r}")
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {raw!r}")
    return value


def shard_timeout() -> Optional[float]:
    """Per-wave shard deadline in seconds (``REPRO_SHARD_TIMEOUT``).

    ``0`` (the default) disables the deadline: crashes are still detected
    through the broken-pool signal, but a genuinely hung worker waits
    forever — set a timeout in CI and chaos runs so hangs fail fast.
    Negative or non-finite values are rejected.
    """
    t = _env_number("REPRO_SHARD_TIMEOUT", "0")
    return t if t > 0 else None


def shard_retries() -> int:
    """Pool retry waves for failed shards (``REPRO_SHARD_RETRIES``).

    Must be a non-negative integer; ``0`` degrades straight to the serial
    last resort after the first failed wave.
    """
    return _env_number("REPRO_SHARD_RETRIES", "2", integer=True)


def shard_backoff() -> float:
    """Base retry backoff seconds (``REPRO_SHARD_BACKOFF``), doubled per
    wave — crashed workers often share a transient cause (memory
    pressure, a dying host) that a beat of quiet lets pass.  Must be a
    finite non-negative number."""
    return _env_number("REPRO_SHARD_BACKOFF", "0.1")


class _SupervisedPool:
    """A worker pool that can be torn down and rebuilt mid-run.

    One instance is shared by every algorithm of a ``run()`` mapping; the
    shard supervisor replaces the underlying executor when it detects a
    broken pool (a worker crashed) or a hung wave (deadline passed), so
    later waves — and later algorithms — fan out on fresh processes
    instead of inheriting a dead executor.
    """

    def __init__(self, make) -> None:
        self._make = make
        self.pool: ProcessPoolExecutor = make()

    def rebuild(self) -> None:
        pool = self.pool
        # A hung worker ignores the executor's graceful shutdown: kill
        # the processes first, then discard the executor without waiting.
        for p in list((getattr(pool, "_processes", None) or {}).values()):
            try:
                p.terminate()
            except Exception:
                pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass
        self.pool = self._make()

    def shutdown(self) -> None:
        try:
            self.pool.shutdown()
        except Exception:
            pass


class SharedScanRunner:
    """Executes one workload against one environment, for many algorithms.

    Every algorithm runs through
    :func:`~repro.engine.shared_scan.execute_tnn_batch`, which drives
    each query's lifecycle with the stage loop ``algorithm.run`` uses, so
    the results are those of ``algorithm.run`` per query, bit for bit.

    ``workers`` selects the execution mode: ``0``/``1`` runs in-process,
    ``>= 2`` fans the workload out over that many worker processes.  The
    workload is sharded **by channel phase group**: queries are ordered
    by their s-channel phase and cut into one contiguous shard per
    worker, so each worker's queries start at nearby positions of the
    broadcast cycle.  Sharding is pure
    placement — per-query state is self-contained — and results are
    reassembled in workload order.

    Shards run **supervised**: a crashed worker (broken pool) or a hung
    wave (``REPRO_SHARD_TIMEOUT``) tears the pool down, rebuilds it,
    reshards the failed slice across the fresh workers and retries with
    exponential backoff (``REPRO_SHARD_RETRIES`` / ``REPRO_SHARD_BACKOFF``),
    degrading to in-process serial execution as the last resort — every
    recovery path merges bit-identical results, because a shard is a pure
    function of (algorithm, query slice).
    """

    def __init__(
        self,
        env: TNNEnvironment,
        workload: QueryWorkload,
        workers: Optional[int] = None,
        queries: Optional[List[Tuple[Point, float, float]]] = None,
    ) -> None:
        self.env = env
        self.workload = workload
        self.workers = default_workers() if workers is None else workers
        # An explicit query list overrides the workload materialisation,
        # so a caller can run queries it has already materialised (a fixed
        # benchmark input, a slice of a larger workload) through the pool.
        self._queries = (
            list(queries) if queries is not None else workload.queries(env)
        )
        self._reference_cache: Dict[str, List[TNNResult]] = {}

    @property
    def queries(self) -> List[Tuple[Point, float, float]]:
        """The materialised workload (query point, phase_s, phase_r)."""
        return list(self._queries)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_algorithm(
        self,
        algorithm: TNNAlgorithm,
        workers: Optional[int] = None,
        record_log: bool = True,
    ) -> List[TNNResult]:
        """All per-query results of one algorithm, in workload order.

        ``record_log=False`` skips the per-tuner reception logs (results
        and cost counters are unaffected).
        """
        workers = self.workers if workers is None else workers
        if workers >= 2 and len(self._queries) > 1:
            sp = _SupervisedPool(lambda: self._make_pool(workers))
            try:
                return self._run_shared_pool(
                    algorithm, workers, sp, record_log
                )
            finally:
                sp.shutdown()
        return execute_tnn_batch(self.env, algorithm, self._queries, record_log)

    def run(self, algorithms: Mapping[str, TNNAlgorithm]) -> Dict[str, "ResultStats"]:
        """Summary statistics per algorithm name, on the shared workload.

        In pool mode, one supervised worker pool (and one pickled
        environment per worker) is shared by every algorithm in the
        mapping.  A ``TNNResult`` carries no reception log, so every run
        here keeps none (``record_log=False``).
        """
        # Deferred import: the repro.sim package imports repro.engine, so
        # importing sim.stats at module load would be circular.
        from repro.sim.stats import summarize_batch

        if self.workers >= 2 and len(self._queries) > 1:
            sp = _SupervisedPool(lambda: self._make_pool(self.workers))
            try:
                return {
                    name: summarize_batch(
                        self._run_shared_pool(
                            algo, self.workers, sp, record_log=False
                        )
                    )
                    for name, algo in algorithms.items()
                }
            finally:
                sp.shutdown()
        return {
            name: summarize_batch(
                self.run_algorithm(algo, workers=0, record_log=False)
            )
            for name, algo in algorithms.items()
        }

    def _make_pool(self, workers: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=workers, initializer=_pool_init, initargs=(self.env,)
        )

    def _run_shared_pool(
        self,
        algorithm: TNNAlgorithm,
        workers: int,
        sp: _SupervisedPool,
        record_log: bool = True,
    ) -> List[TNNResult]:
        queries = self._queries
        tasks: Dict[int, tuple] = {}
        for shard in self._phase_shards(workers):
            if shard:
                k = len(tasks)
                tasks[k] = (
                    algorithm,
                    [(i, *queries[i]) for i in shard],
                    record_log,
                    k,
                )
        results: List[Optional[TNNResult]] = [None] * len(queries)
        for part in self._supervise_shards(sp, workers, tasks):
            for i, res in part:
                results[i] = res
        return results  # type: ignore[return-value]

    def _phase_shards(self, workers: int) -> List[List[int]]:
        """Workload indices cut into contiguous s-phase-ordered shards."""
        order = sorted(
            range(len(self._queries)),
            key=lambda i: (self._queries[i][1], i),
        )
        size = -(-len(order) // workers)  # ceil division
        return [order[w * size : (w + 1) * size] for w in range(workers)]

    # ------------------------------------------------------------------
    # Oracle comparison
    # ------------------------------------------------------------------
    def reference_results(self, reference: TNNAlgorithm) -> List[TNNResult]:
        """Results of an exact reference algorithm, computed once per
        workload (without reception logs)."""
        key = _algorithm_key(reference)
        if key not in self._reference_cache:
            self._reference_cache[key] = self.run_algorithm(
                reference, record_log=False
            )
        return self._reference_cache[key]

    def compare_failures(
        self,
        candidate: TNNAlgorithm,
        reference: TNNAlgorithm,
        rel_tol: float = 1e-9,
    ) -> float:
        """Fraction of queries where ``candidate`` misses the true answer.

        ``reference`` must be an exact algorithm (Double-NN is the cheap
        choice); a query counts as failed when the candidate returns no
        pair or a strictly larger transitive distance.  Reference results
        are cached, so sweeping many candidates against one oracle re-runs
        only the candidates.
        """
        want = self.reference_results(reference)
        failures = 0
        for got, ref in zip(
            self.run_algorithm(candidate, record_log=False), want
        ):
            if got.failed or got.distance > ref.distance * (1 + rel_tol):
                failures += 1
        return failures / len(self._queries)

    # ------------------------------------------------------------------
    # Shard supervision
    # ------------------------------------------------------------------
    def _supervise_shards(
        self, sp: _SupervisedPool, workers: int, tasks: Dict[int, tuple]
    ) -> List[List[Tuple[int, TNNResult]]]:
        """Run shard tasks to completion despite crashed or hung workers.

        Each wave submits every outstanding shard and drains completions
        under the optional per-wave deadline (:func:`shard_timeout`).  A
        crashed worker surfaces as a broken pool, a hung one as a missed
        deadline; either tears the pool down, rebuilds it, reshards the
        failed slice across the fresh workers and retries after an
        exponential backoff.  When the retry budget is spent, whatever is
        still outstanding runs serially in this process — shards are pure
        functions of (algorithm, query slice), so every recovery path
        merges bit-identical results.
        """
        pending = dict(tasks)
        parts: List[List[Tuple[int, TNNResult]]] = []
        backoff = shard_backoff()
        for attempt in range(shard_retries() + 1):
            if not pending:
                return parts
            if attempt:
                time.sleep(backoff * (2 ** (attempt - 1)))
                pending = self._reshard(pending, workers)
            if self._dispatch_wave(sp, pending, parts):
                sp.rebuild()
        # Serial last resort: run the leftovers in-process (and let any
        # genuine shard error propagate instead of retrying it forever).
        for k in sorted(pending):
            parts.append(_run_shared_shard(self.env, pending.pop(k)))
        return parts

    def _dispatch_wave(
        self,
        sp: _SupervisedPool,
        pending: Dict[int, tuple],
        parts: List[List[Tuple[int, TNNResult]]],
    ) -> bool:
        """One submit-and-drain pass over every outstanding shard.

        Completed shards move from ``pending`` into ``parts``; returns
        True when the pool must be rebuilt before the next wave (a worker
        crashed, a deadline passed, or the executor refused submissions).
        """
        pool = sp.pool
        try:
            futures = {
                pool.submit(_pool_run_shared_shard, t): k
                for k, t in pending.items()
            }
        except (RuntimeError, BrokenProcessPool):
            return True  # the pool died before the wave started
        timeout = shard_timeout()
        deadline = None if timeout is None else time.monotonic() + timeout
        not_done = set(futures)
        rebuild = False
        while not_done:
            wait_for = None
            if deadline is not None:
                wait_for = deadline - time.monotonic()
                if wait_for <= 0:
                    return True  # hung wave: abandon it, rebuild, retry
            done, not_done = wait(not_done, timeout=wait_for)
            if not done and deadline is not None:
                return True
            for f in done:
                k = futures[f]
                try:
                    parts.append(f.result())
                    pending.pop(k)
                except (BrokenProcessPool, OSError):
                    rebuild = True  # worker crashed: shard stays pending
                except Exception:
                    # The shard itself raised.  Leave it pending: the
                    # retry waves give transient faults a chance and the
                    # serial last resort surfaces a real error.
                    pass
        return rebuild

    def _reshard(
        self, pending: Dict[int, tuple], workers: int
    ) -> Dict[int, tuple]:
        """Cut the failed slice into fresh shards across the pool.

        Failed shards merge, reorder by workload index and split
        contiguously over the workers — a lost worker's whole slice
        spreads across the survivors' replacements instead of reloading
        one.  Placement is pure scheduling: shard contents never change
        a query's result.
        """
        if not pending:
            return pending
        algorithm = record_log = None
        items: List[tuple] = []
        for k in sorted(pending):
            algorithm, shard, record_log, _ = pending[k]
            items.extend(shard)
        items.sort(key=lambda item: item[0])
        n = min(workers, len(items))
        size = -(-len(items) // n)  # ceil division
        return {
            k: (algorithm, items[k * size : (k + 1) * size], record_log, k)
            for k in range(n)
            if items[k * size : (k + 1) * size]
        }


def _algorithm_key(algorithm: TNNAlgorithm) -> str:
    """A stable cache key for an algorithm instance's full configuration."""
    config = sorted(vars(algorithm).items(), key=lambda kv: kv[0])
    return f"{type(algorithm).__qualname__}:{config!r}"
