"""The repository benchmark: one command, four TNN workloads.

    python3 perfbench/run.py --workload tnn_batch --seed 1 --seconds 15 --trace 0

With ``--trace 0`` it prints the end-to-end metrics of one workload; with
``--trace 1`` it runs the workload again under span tracing and prints the
per-layer metrics instead.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Every answer
is checked against an exact k-d tree oracle; the command exits non-zero
when any answer is wrong.  README.md describes the workloads, the metrics
and which layer metric should move which end-to-end metric.

Every measured call runs in a process forked from the same parent state
(environment built, lazy per-tree caches warm, garbage collected), so no
run inherits caches or heap growth from an earlier one.  ``fork`` is
deliberate: it is the only way to hand each run an identical copy of a
warm environment.  The benchmark starts no threads of its own; numpy's
idle BLAS thread is fork-safe, which ``SharedScanRunner``'s own fork-based
pool already relies on.  Every timing is scaled to a nominal host speed
measured next to it (``hostspeed.py``).
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import hostspeed

ROOT = Path(__file__).resolve().parent.parent

#: Whole-command budget: a run must end within 180 s, so stop starting
#: new measured calls once one more would not fit before this.
BUDGET_S = 165.0
#: Set-up samples per run (the median is ``setup_s``).
SETUP_SAMPLES = 5
#: Measured calls per run, at least and at most.
MIN_REPS, MAX_REPS = 2, 50
#: Untraced steady calls in a traced run, for the overhead ratio.
TRACE_STEADY_REPS = 3
#: Closed-loop queries between two reference timings (about 0.1 s).
CLOSED_LOOP_BLOCK = 50

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_qps", "queries/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("access_time_mean_pages", "pages"),
    ("tune_in_mean_pages", "pages"),
    ("peak_rss_mb", "MB"),
)


def in_child(fn, timeout: float = BUDGET_S):
    """Run ``fn()`` in a forked copy of this process and return its result.

    The child sends ``fn()``'s return value back over a pipe and exits;
    an exception in the child is re-raised here with its traceback.
    """
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)

    def target():
        try:
            payload = ("ok", fn())
        except BaseException:  # reported to the parent, which re-raises
            payload = ("error", traceback.format_exc())
        send.send(payload)
        send.close()

    proc = ctx.Process(target=target)
    proc.start()
    send.close()
    try:
        if not recv.poll(timeout):
            raise RuntimeError(f"measured process gave no result in {timeout:.0f} s")
        status, payload = recv.recv()
    finally:
        recv.close()
        proc.join(10)
        if proc.is_alive():
            proc.kill()
            proc.join()
    if status != "ok":
        raise RuntimeError("measured process failed:\n" + payload)
    return payload


def timed_setup(workload, seed: int):
    """(host-adjusted set-up seconds, setup)."""
    before = hostspeed.reference_s()
    t0 = time.perf_counter()
    setup = workload.setup(seed)
    wall = time.perf_counter() - t0
    return wall * hostspeed.factor(before, hostspeed.reference_s()), setup


def measure(workload, setup, k: int = 0, workers=None, on_query=None) -> dict:
    """Measured call ``k`` (over slice ``k`` of the inputs), summarised for
    the parent.  ``wall`` and ``latencies`` are host-adjusted, ``raw_wall``
    is not.

    A batch call is scaled by the reference times right before and after
    it.  The closed loop also times the reference every ``CLOSED_LOOP_BLOCK``
    queries, between queries, and scales each query by the block it ran
    in; its wall time is the sum of its queries' latencies.
    """
    inputs = [setup.inputs[i] for i in setup.call_range(k)]
    used = workload.workers if workers is None else workers
    procs = max(1, used)
    refs = [(0, hostspeed.reference_s(processes=procs))]

    def between_queries(i: int) -> None:
        if on_query is not None:
            on_query(i)
        if i and i % CLOSED_LOOP_BLOCK == 0:
            refs.append((i, hostspeed.reference_s(repeats=1, processes=procs)))

    kwargs = {"on_query": between_queries} if workload.closed_loop else {}
    out = workload.run(setup, inputs, workers=workers, **kwargs)
    # Read before the closing reference forks: ru_maxrss of children is
    # then the largest pool worker's peak (the opening reference's child,
    # forked before the pool, is smaller), and each worker is counted at it.
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    refs.append((len(inputs), hostspeed.reference_s(processes=procs)))
    if out.latencies is None:
        raw_wall, latencies = out.wall, None
        wall = raw_wall * hostspeed.factor(refs[0][1], refs[-1][1])
    else:
        raw_wall, latencies = sum(out.latencies), []
        for (lo, before), (hi, after) in zip(refs, refs[1:]):
            scale = hostspeed.factor(before, after)
            latencies.extend(t * scale for t in out.latencies[lo:hi])
        wall = sum(latencies)
    used = workload.workers if workers is None else workers
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss of children is the largest pool worker's peak; each
    # worker is counted at that peak.
    kids_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "call": k,
        "n": len(inputs),
        "wall": wall,
        "raw_wall": raw_wall,
        "factor": wall / raw_wall,
        "answers": out.answers,
        "access": out.access,
        "tune_in": out.tune_in,
        # A query that raised has no cost; it is counted as failed instead.
        "access_mean": float(np.nanmean(out.access)),
        "tune_mean": float(np.nanmean(out.tune_in)),
        "latencies": latencies,
        "rss_mb": (self_kb + used * kids_kb) / 1024.0,
    }


def warm(workload, setup) -> None:
    """Fill the lazy per-tree and per-program caches in this process.

    A short serial prefix of the workload builds the node store, lane
    blocks and arrival tables; every measured call forked afterwards
    starts with them warm.
    """
    n = max(8, len(setup.call_range(0)) // 50)
    workload.run(setup, setup.inputs[:n], workers=0)
    gc.collect()


def count_wrong(workload, setup, runs) -> int:
    """Wrong answers over every checked run (the oracle is built once)."""
    import oracle

    if workload.name == "client_mixed":
        check = oracle.ClientOracle(setup.env)
        expected = [check.expected(req) for req in setup.inputs]
        inputs = setup.inputs
    else:
        check = oracle.TNNOracle(setup.env)
        inputs = np.asarray([q for q, _, _ in setup.inputs], dtype=float)
        expected = check.distances(inputs)
    wrong = 0
    for r in runs:
        idx = setup.call_range(r["call"])
        sl = slice(idx.start, idx.stop)
        wrong += check.wrong(inputs[sl], expected[sl], r["answers"])
    return wrong


def same_outputs(a: dict, b: dict) -> bool:
    """Whether two measured calls gave identical answers and page costs."""
    if not (np.array_equal(a["access"], b["access"], equal_nan=True)
            and np.array_equal(a["tune_in"], b["tune_in"], equal_nan=True)):
        return False
    x, y = a["answers"], b["answers"]
    if isinstance(x, np.ndarray):
        return np.array_equal(x, y, equal_nan=True)
    return len(x) == len(y) and all(np.array_equal(u, v) for u, v in zip(x, y))


def _median(values):
    return float(statistics.median(values))


def _mean(values):
    return float(statistics.fmean(values))


def _percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def end_to_end(setup, setup_samples, reps) -> dict:
    """The end-to-end metrics of one run: medians over its measured calls.

    The page means are averaged over the input slices, each slice's
    value taken once, so they do not depend on how many calls ran.
    """
    walls = [r["wall"] for r in reps]
    by_slice = {}
    for r in reps:
        by_slice.setdefault(r["call"] % setup.n_slices, r)
    if reps[0]["latencies"] is not None:
        # Closed loop: one sample per distinct query, its median latency
        # over the calls that ran it, so a brief stall of the host in one
        # call does not reach the tail.  3,000 queries leave 30 beyond p99.
        per_query = {}
        for r in reps:
            for i, t in zip(setup.call_range(r["call"]), r["latencies"]):
                per_query.setdefault(i, []).append(t * 1e3)
        lat_ms = [_median(v) for v in per_query.values()]
        p50, p99 = _median(lat_ms), _percentile(lat_ms, 99)
    else:
        # Batch: every query in a call waits for the whole call, so within
        # a call p50 = p99 = its wall time; the run reports their median.
        p50 = p99 = _median(walls) * 1e3
    values = {
        "setup_s": _median(setup_samples),
        "throughput_qps": _median([r["n"] / r["wall"] for r in reps]),
        "latency_p50_ms": p50,
        "latency_p99_ms": p99,
        "access_time_mean_pages": _mean([r["access_mean"] for r in by_slice.values()]),
        "tune_in_mean_pages": _mean([r["tune_mean"] for r in by_slice.values()]),
        "peak_rss_mb": _median([r["rss_mb"] for r in reps]),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


class SetupSampler:
    """A process held at the state before any set-up; every set-up sample
    runs in a fork of it, so samples taken late in the run start from the
    same heap as early ones."""

    def __init__(self, workload, seed: int) -> None:
        ctx = multiprocessing.get_context("fork")
        self._conn, child = ctx.Pipe()

        def serve():
            while child.recv():
                child.send(in_child(lambda: timed_setup(workload, seed)[0]))

        self._proc = ctx.Process(target=serve)
        self._proc.start()
        child.close()

    def sample(self) -> float:
        self._conn.send(True)
        return self._conn.recv()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        try:
            self._conn.send(False)
        except OSError:  # the sampler already died; its error is raised
            pass
        self._conn.close()
        self._proc.join(10)
        if self._proc.is_alive():
            self._proc.kill()
            self._proc.join()


def run_plain(workload, args, deadline: float):
    """End-to-end metrics: measured calls for ``--seconds`` seconds, each
    in a fresh fork of the warm parent, with set-up samples between them."""
    with SetupSampler(workload, args.seed) as sampler:
        _, setup = timed_setup(workload, args.seed)
        warm(workload, setup)
        reps, setup_samples, measured = [], [], 0.0
        min_reps = max(MIN_REPS, setup.n_slices)
        while len(reps) < min_reps or (measured < args.seconds and len(reps) < MAX_REPS):
            longest = max((r["raw_wall"] for r in reps), default=0.0)
            if len(reps) >= min_reps and time.monotonic() + 2 * longest > deadline:
                break
            k = len(reps)
            rep = in_child(lambda: measure(workload, setup, k))
            reps.append(rep)
            measured += rep["raw_wall"]
            if len(setup_samples) < SETUP_SAMPLES:
                setup_samples.append(sampler.sample())
        while len(setup_samples) < SETUP_SAMPLES:
            setup_samples.append(sampler.sample())
    return setup, reps, end_to_end(setup, setup_samples, reps)


def run_traced(workload, args):
    """Per-layer metrics: a cold first call, untraced steady calls, then
    one traced call whose spans give the layer split."""
    import spans

    setup_tracer = spans.Tracer()
    before = hostspeed.reference_s()
    with spans.traced(setup_tracer, layers=("setup_index", "setup_program")):
        _, setup = timed_setup(workload, args.seed)
    setup_scale = hostspeed.factor(before, hostspeed.reference_s())
    setup_layers = spans.layer_metrics(setup_tracer, 0.0)

    first = in_child(lambda: measure(workload, setup))
    warm(workload, setup)
    steady = [in_child(lambda: measure(workload, setup)) for _ in range(TRACE_STEADY_REPS)]
    steady_wall = _median([r["wall"] for r in steady])
    runs = [first, *steady]
    # The layer split needs every layer in one process: a pooled workload
    # replays its campaign serially, untraced and traced.
    serial = None
    if workload.workers:
        serial = in_child(lambda: measure(workload, setup, workers=0))
        runs.append(serial)
    base_wall = serial["wall"] if serial else steady_wall

    spans_path = str(ROOT / ".bench_build" / "perfbench" / f"{workload.name}.npz")
    run_layers = tuple(l for l in spans.LAYERS if not l.startswith("setup"))

    def traced_call():
        tracer = spans.Tracer()
        with spans.traced(tracer, layers=run_layers):
            rep = measure(workload, setup, workers=0,
                          on_query=lambda i: setattr(tracer, "query", i))
        rep["layers"] = spans.layer_metrics(tracer, rep["raw_wall"])
        rep["pages"] = spans.tuner_pages(tracer.tuners)
        tracer.write(spans_path)
        return rep

    traced_rep = in_child(traced_call)
    runs.append(traced_rep)
    lm, pages = traced_rep["layers"], traced_rep["pages"]
    # Span times are raw; scale them like every other timing.
    scale = traced_rep["factor"]
    for layer in spans.LAYERS:
        lm[layer]["self_s"] *= scale
        lm[layer]["inclusive_s"] *= scale
    lm["other_s"] *= scale
    geometry = lm["geometry"]
    runs_algorithm = workload.name in ("tnn_batch", "tnn_campaign_lossy")
    values = [
        ("setup.index_build_s", setup_layers["setup_index"]["inclusive_s"] * setup_scale, "s"),
        ("setup.program_build_s", setup_layers["setup_program"]["inclusive_s"] * setup_scale, "s"),
        ("setup.first_run_extra_s", first["wall"] - steady_wall, "s"),
        ("runner.run_s", steady_wall if runs_algorithm else 0.0, "s"),
        (
            "runner.parallel_efficiency",
            serial["wall"] / (workload.workers * steady_wall) if serial else 0.0,
            "ratio",
        ),
        ("shared_scan.run_s", lm["shared_scan"]["inclusive_s"], "s"),
        ("shared_scan.self_s", lm["shared_scan"]["self_s"], "s"),
        ("queue.calls", lm["queue"]["calls"], "count"),
        ("queue.self_s", lm["queue"]["self_s"], "s"),
        ("search.calls", lm["search"]["calls"], "count"),
        ("search.self_s", lm["search"]["self_s"], "s"),
        ("core.self_s", lm["core"]["self_s"], "s"),
        ("join.calls", lm["join"]["calls"], "count"),
        ("join.self_s", lm["join"]["self_s"], "s"),
        ("join.candidate_pairs", lm["join"]["work"], "pairs"),
        ("geometry.calls", geometry["calls"], "count"),
        ("geometry.self_s", geometry["self_s"], "s"),
        ("geometry.rows", geometry["work"], "rows"),
        (
            "geometry.rows_per_call",
            geometry["work"] / geometry["calls"] if geometry["calls"] else 0.0,
            "rows/call",
        ),
        ("download.calls", lm["download"]["calls"], "count"),
        ("download.self_s", lm["download"]["self_s"], "s"),
        ("download.index_pages", pages["index_pages"], "pages"),
        ("download.data_pages", pages["data_pages"], "pages"),
        ("download.lost_pages", pages["lost_pages"], "pages"),
        ("download.corrupt_pages", pages["corrupt_pages"], "pages"),
        ("download.useful_ratio", pages["useful_ratio"], "ratio"),
        ("loss.calls", lm["loss"]["calls"], "count"),
        ("loss.self_s", lm["loss"]["self_s"], "s"),
        ("other.self_s", lm["other_s"], "s"),
        ("trace.overhead_ratio", traced_rep["wall"] / base_wall, "ratio"),
    ]
    metrics = {name: {"value": value, "unit": unit} for name, value, unit in values}
    problems = []
    if workload.lossy and pages["lost_pages"] <= 0:
        # A campaign over a faulty channel that lost no page means the
        # fault model was dropped somewhere, which would read as a speed-up.
        problems.append("fault model inactive: no page lost on a lossy channel")
    # Every call above ran the same inputs, and a query's answer and costs
    # are a pure function of them: the timed calls (the pool, on a pooled
    # workload) must match the traced serial replay, so a path that drops
    # the fault model or changes the pages it downloads cannot pass.
    differ = sum(not same_outputs(r, traced_rep) for r in runs[:-1])
    if differ:
        problems.append(f"{differ} untraced call(s) disagree with the traced serial"
                        " call in answers or page costs")
    return setup, runs, metrics, problems


def main(argv=None) -> int:
    from workloads import WORKLOADS

    cli = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    cli.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    cli.add_argument("--seed", type=int, required=True)
    cli.add_argument("--seconds", type=float, required=True)
    cli.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = cli.parse_args(argv)
    workload = WORKLOADS[args.workload]

    problems = []
    if args.trace:
        setup, runs, metrics, problems = run_traced(workload, args)
    else:
        setup, runs, metrics = run_plain(workload, args, time.monotonic() + BUDGET_S)
    attempted = sum(r["n"] for r in runs)
    failed = count_wrong(workload, setup, runs)
    error_rate = failed / attempted

    print(f"workload {workload.name}  seed {args.seed}  measured calls {len(runs)}"
          f"  queries per call {runs[0]['n']}")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'error_rate':28s} {error_rate:>16.6g} fraction")
    print(f"  raw wall per call, median {_median([r['raw_wall'] for r in runs]):.4g} s;"
          f" host speed factor, median {_median([r['factor'] for r in runs]):.3g}")
    for p in problems:
        print(f"  FAILED: {p}", file=sys.stderr)
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"perfbench: no repro sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
