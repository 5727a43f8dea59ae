"""The benchmark driver loop: set-up, timed queries, traced queries,
correctness checks and the result line.

Load model: one client in a closed loop, one query at a time.  Each
configuration gets an untimed warm-up query during set-up; timed
queries then run back to back, cycling through the configurations, and
each ends only when its rows are a materialised list.
"""

from __future__ import annotations

import argparse
import functools
import gc
import inspect
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from typing import Dict, List, Optional

from . import layers
from .workloads import Workload, workloads

#: Environment variables that change the program being measured.
PINNED_ENV = ("REPRO_PARALLEL_MODE", "REPRO_BATCH_TIMEOUT", "REPRO_POOL_DEBUG")

#: The query configurations every workload runs under.
CONFIGS = ("default", "auto", "par2")
PARALLELISM = 2

#: Set-ups (catalog build, pool start, warm-up queries) per untraced
#: run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: End-to-end metric of each configuration's query time, in units of
#: the host probe's time (see ``host_probe``).
QUERY_METRIC = {
    "default": "query_ref",
    "auto": "query_ref.auto",
    "par2": "query_ref.par2",
}

END_TO_END = {
    "query_ref": "ref",
    "query_ref.auto": "ref",
    "query_ref.par2": "ref",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

#: Rows the host probe sorts and buckets, and how many times.
PROBE_ROWS = 10_000
PROBE_ROUNDS = 8


def per_layer_names(backends) -> List[str]:
    """Every per-layer metric the traced run reports, in order."""
    names = list(layers.FRONTEND)
    for config in CONFIGS:
        names += [f"{metric}.{config}" for metric in layers.EXECUTION]
    for backend in backends:
        names += [f"{metric}.{backend}" for metric in layers.BACKEND]
    return names


# ----------------------------------------------------------------------
# the system under test
# ----------------------------------------------------------------------
def run_config(config: str, workload: Workload, catalog):
    """One untraced query; returns ``(rows, stream_joins)``."""
    from repro.query import run_query

    if config == "default":
        result = run_query(
            workload.query, catalog, streams=True, semantic=workload.semantic
        )
    elif config == "par2":
        result = run_query(
            workload.query,
            catalog,
            streams=True,
            semantic=workload.semantic,
            parallelism=PARALLELISM,
        )
    elif _run_query_takes_backend():
        result = run_query(
            workload.query,
            catalog,
            streams=True,
            semantic=workload.semantic,
            backend="auto",
        )
    else:
        execution, _report = _pipeline(workload, catalog, "auto")
        return execution.rows, execution.stream_joins
    return result.rows, result.stream_joins


@functools.lru_cache(maxsize=None)
def _run_query_takes_backend() -> bool:
    from repro.query import run_query

    return "backend" in inspect.signature(run_query).parameters


def _execute(plan, catalog, setting: str):
    """``execute_hybrid`` as ``run_query`` calls it for ``default`` and
    ``par2``; with a cost-based (``auto``) or forced backend planner
    otherwise."""
    from repro.optimizer import TemporalJoinPlanner, execute_hybrid

    if setting == "default":
        return execute_hybrid(plan, catalog)
    if setting == "par2":
        return execute_hybrid(plan, catalog, parallelism=PARALLELISM)
    return execute_hybrid(
        plan, catalog, planner=TemporalJoinPlanner(backend=setting)
    )


def _pipeline(workload: Workload, catalog, setting: str, span=None):
    """parse -> translate -> rewrite -> (semantic) -> execute, each
    stage inside ``span(name)`` when given."""
    from contextlib import nullcontext

    from repro.algebra import optimize
    from repro.query import parse_query, translate
    from repro.semantic import semantically_optimize

    span = span or (lambda _name: nullcontext())
    with span("bench:parse"):
        tree = parse_query(workload.query)
    with span("bench:translate"):
        plan = translate(tree, catalog)
    with span("bench:rewrite"):
        plan = optimize(plan)
    report = None
    if workload.semantic:
        with span("bench:semantic"):
            plan, report = semantically_optimize(plan, catalog)
    with span("bench:execute"):
        execution = _execute(plan, catalog, setting)
    return execution, report


def traced_query(workload: Workload, catalog, setting: str):
    """One traced query; returns ``(rows, per-layer numbers)``."""
    from repro.obs.trace import Tracer

    tracer = Tracer("querybench")
    with layers.instrumented(tracer) as gc_totals:
        with tracer.span("query"):
            execution, report = _pipeline(
                workload, catalog, setting, tracer.span
            )
    numbers = layers.attribute(tracer, execution, report)
    numbers["runtime.gc_s"] = gc_totals["gc_s"]
    numbers["runtime.gc_collections"] = gc_totals["gc_collections"]
    return execution.rows, execution.stream_joins, numbers


# ----------------------------------------------------------------------
# set-up, checks, cleanup
# ----------------------------------------------------------------------
def set_up(workload: Workload, seed: int, scale: str):
    """Generate and validate the catalog, (re)start the worker pool and
    run one untimed warm-up query per configuration; returns the
    catalog and the seconds the first two and the warm-up took."""
    from repro.parallel import shutdown_pool, warm_pool

    shutdown_pool()  # the previous repetition's pool
    started = time.perf_counter()
    catalog = workload.make_catalog(seed, scale)
    warm_pool(PARALLELISM)
    built = time.perf_counter()
    for config in CONFIGS:
        run_config(config, workload, catalog)
    return catalog, built - started, time.perf_counter() - built


def host_probe() -> float:
    """Seconds a fixed pure-Python kernel takes on this host now.

    The kernel builds, sorts and buckets tuples: interpreter, allocator
    and memory work of the kind a query does, using builtins only, with
    the collector off, so nothing the program under test does to the
    runtime changes its cost.  Its live set stays near a megabyte, below
    any query's, so it never sets ``peak_rss_mb``.  A shared host's
    speed drifts by far more than the regression bounds within minutes;
    dividing query times by probe times taken around them cancels that
    drift.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        kept = 0
        for offset in range(PROBE_ROUNDS):
            rows = [
                ((seq * 7919 + offset) % 10_007, seq, (seq, -seq))
                for seq in range(PROBE_ROWS)
            ]
            rows.sort()
            buckets: Dict[int, list] = {}
            for key, seq, pair in rows:
                if key & 1:
                    buckets.setdefault(key >> 4, []).append((seq, pair[1]))
            kept += sum(len(bucket) for bucket in buckets.values())
            del rows, buckets
        elapsed = time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()
    if not 0 < kept < PROBE_ROUNDS * PROBE_ROWS:
        raise RuntimeError(f"host probe kept {kept} rows")
    return elapsed


def leaked_segments(pids) -> List[str]:
    """``repro`` shared-memory segments this process or its workers
    left behind."""
    try:
        names = os.listdir("/dev/shm")
    except FileNotFoundError:
        return []
    prefixes = tuple(f"repro-{pid}-" for pid in pids)
    return sorted(name for name in names if name.startswith(prefixes))


def stop_resource_tracker() -> None:
    """Stop the resource-tracker process ``multiprocessing`` started for
    the pool's queues and segments, and wait for it to exit."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def plan_of(stream_joins) -> Dict[str, str]:
    if not stream_joins:
        return {"chosen": "conventional (no stream join)", "mode": "serial"}
    info = stream_joins[0]
    mode = (
        info.parallel["plan"].get("mode", "?")
        if info.parallel
        else "serial"
    )
    return {"chosen": info.chosen, "mode": mode}


class Tally:
    """Attempted and failed operations of one workload run, and the
    processes whose shared-memory segments must be gone at its end."""

    def __init__(self) -> None:
        self.reference: Optional[Counter] = None
        self.attempted = 0
        self.failed = 0
        self.pids = {os.getpid()}

    def note_workers(self) -> None:
        from repro.parallel import pool_stats

        self.pids |= set(pool_stats()["pids"])

    def timed(self, label: str, call):
        """Run ``call`` (returning rows first) under the timer; check
        the rows outside it.  Returns ``(seconds, result)`` or ``None``
        on a failure."""
        gc.collect()
        self.attempted += 1
        try:
            started = time.perf_counter()
            result = call()
            elapsed = time.perf_counter() - started
        except Exception:
            self.failed += 1
            print(f"{label}: raised", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return None
        finally:
            self.note_workers()
        rows = result[0]
        if type(rows) is not list or Counter(rows) != self.reference:
            self.failed += 1
            print(f"{label}: rows differ from the reference", file=sys.stderr)
            return None
        return elapsed, result


# ----------------------------------------------------------------------
# the two kinds of run
# ----------------------------------------------------------------------
def measure(workload, catalog, tally: Tally, seconds: float, report):
    """Untraced timed queries, cycling through the configurations, with
    a host probe before the first and after each one.  Each query's
    time is divided by the mean of the two probes around it; a
    configuration's metric is the median of those ratios."""
    samples: Dict[str, List[float]] = {config: [] for config in CONFIGS}
    ratios: Dict[str, List[float]] = {config: [] for config in CONFIGS}
    probes = [host_probe()]
    started = time.perf_counter()
    while True:
        for config in CONFIGS:
            outcome = tally.timed(
                config, lambda: run_config(config, workload, catalog)
            )
            gc.collect()
            probes.append(host_probe())
            if outcome is not None:
                elapsed, (_rows, joins) = outcome
                samples[config].append(elapsed)
                ratios[config].append(2 * elapsed / sum(probes[-2:]))
                report["configs"][config] = plan_of(joins)
        if time.perf_counter() - started >= seconds:
            break
    report["probe"] = {
        "median_s": statistics.median(probes),
        "samples_s": probes,
    }
    metrics = {}
    for config in CONFIGS:
        values = samples[config] or [0.0]
        metrics[QUERY_METRIC[config]] = statistics.median(
            ratios[config] or [0.0]
        )
        report["configs"].setdefault(config, {}).update(
            samples=len(samples[config]),
            median_s=statistics.median(values),
            max_s=max(values),
            samples_s=samples[config],
        )
    return metrics


def measure_layers(workload, catalog, tally: Tally, seconds: float, report):
    """Traced queries (plus untraced twins for the tracing overhead)."""
    from repro.streams import BACKENDS

    collected: Dict[str, List[float]] = {}
    untraced: Dict[str, List[float]] = {config: [] for config in CONFIGS}
    traced: Dict[str, List[float]] = {config: [] for config in CONFIGS}

    def keep(names, numbers, suffix):
        for name in names:
            key = f"{name}.{suffix}" if suffix else name
            collected.setdefault(key, []).append(numbers[name])

    started = time.perf_counter()
    while True:
        for config in CONFIGS:
            outcome = tally.timed(
                config, lambda: run_config(config, workload, catalog)
            )
            if outcome is not None:
                untraced[config].append(outcome[0])
            outcome = tally.timed(
                f"traced {config}",
                lambda: traced_query(workload, catalog, config),
            )
            if outcome is not None:
                elapsed, (_rows, joins, numbers) = outcome
                traced[config].append(elapsed)
                keep(layers.FRONTEND, numbers, None)
                keep(
                    [m for m in layers.EXECUTION if m in numbers],
                    numbers,
                    config,
                )
                report["configs"][config] = plan_of(joins)
        for backend in BACKENDS:
            outcome = tally.timed(
                f"traced {backend}",
                lambda: traced_query(workload, catalog, backend),
            )
            if outcome is not None:
                _elapsed, (_rows, joins, numbers) = outcome
                keep(layers.FRONTEND, numbers, None)
                keep(layers.BACKEND, numbers, backend)
                report["configs"][backend] = plan_of(joins)
        if time.perf_counter() - started >= seconds:
            break
    metrics = {
        name: statistics.median(values) for name, values in collected.items()
    }
    for config in CONFIGS:
        if traced[config] and untraced[config]:
            metrics[f"obs.trace_overhead_s.{config}"] = statistics.median(
                traced[config]
            ) - statistics.median(untraced[config])
    # Only a configuration whose every query failed leaves a gap.
    for name in per_layer_names(BACKENDS):
        metrics.setdefault(name, 0.0)
    return metrics


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, scale: str = "full"
) -> dict:
    """One benchmark run; returns the result object."""
    from repro.parallel import shutdown_pool

    workload = workloads()[name]
    report = {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "trace": trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "configs": {},
    }
    tally = Tally()
    setups = []
    catalog = None
    try:
        for _ in range(1 if trace else SETUP_REPEATS):
            catalog = None  # free the previous catalog before the next
            catalog, built_s, warm_s = set_up(workload, seed, scale)
            setups.append({"catalog_and_pool_s": built_s, "warm_up_s": warm_s})
        tally.note_workers()
        tally.reference = workload.reference(catalog)
        if trace:
            metrics = measure_layers(workload, catalog, tally, seconds, report)
        else:
            metrics = measure(workload, catalog, tally, seconds, report)
            metrics["setup_s"] = statistics.median(
                setup["catalog_and_pool_s"] + setup["warm_up_s"]
                for setup in setups
            )
    finally:
        shutdown_pool()
    leaked = leaked_segments(tally.pids)
    if leaked:
        print(f"leaked shared-memory segments: {leaked}", file=sys.stderr)
    tally.failed += len(leaked)
    if not trace:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = peak_kib / 1024.0
    report["setup_s"] = setups
    report["leaked_segments"] = leaked
    return {
        "report": report,
        "result": {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {
                name: {
                    "value": value,
                    "unit": END_TO_END.get(name) or layers.unit_of(name),
                }
                for name, value in metrics.items()
            },
        },
    }


def _print_run(run: dict) -> None:
    print("report: " + json.dumps(run["report"], sort_keys=True))
    for name, metric in run["result"]["metrics"].items():
        print(f"  {name:<40s} {metric['value']:>14.6f} {metric['unit']}")


def smoke(seed: int) -> dict:
    """Every workload at tiny size, untraced and traced, in one
    process; the result sums the runs and prefixes each metric with
    its workload and mode."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads():
        for trace in (False, True):
            run = run_workload(name, seed, 0.5, trace, scale="tiny")
            _print_run(run)
            result = run["result"]
            merged["correct"] = merged["correct"] and result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            mode = "traced" if trace else "untraced"
            for metric, value in result["metrics"].items():
                merged["metrics"][f"{name}/{mode}/{metric}"] = value
    return merged


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end Quel query benchmark with a per-layer "
        "breakdown (see querybench/README.md)."
    )
    parser.add_argument("--workload", choices=list(workloads()))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run every workload at tiny size, untraced and traced",
    )
    args = parser.parse_args(argv)
    pinned = [name for name in PINNED_ENV if name in os.environ]
    if pinned:
        print(
            f"refusing to run: {', '.join(pinned)} changes the program "
            "being measured; unset it",
            file=sys.stderr,
        )
        return 2
    if args.smoke:
        result = smoke(args.seed)
    elif args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    else:
        run = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
        _print_run(run)
        result = run["result"]
    stop_resource_tracker()
    print(json.dumps(result))
    return 0 if result["correct"] else 1
