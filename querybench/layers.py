"""Per-layer attribution of one traced query.

The traced run records everything on one :class:`repro.obs.trace.
Tracer`.  The program contributes the spans it already emits
(``plan:``, ``stream-join:``, ``operator:``, ``parallel:``,
``shard:``); :func:`instrumented` adds ``bench:`` spans from this
file, by wrapping public callables for the duration of the traced
query only:

* ``relational`` ``Operator.run`` -> ``bench:run``;
* ``TemporalRelation.sorted_by`` -> ``bench:sort``;
* ``TemporalJoinPlanner.alternatives`` -> ``bench:plan``;
* ``collect_statistics`` -> ``bench:stats``.

:func:`attribute` turns the span tree into ``<module>.<quantity>``
numbers.  Every second of the ``query`` span lands in exactly one
time metric or in ``query.unattributed_s``; GC time overlaps the
others and is reported beside them.
"""

from __future__ import annotations

import gc
import sys
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

#: Time metrics that partition the ``query`` span (``query.unattributed_s``
#: is the rest).
PARTITION = (
    "query.parse_s",
    "query.translate_s",
    "algebra.rewrite_s",
    "semantic.optimize_s",
    "relational.scan_s",
    "optimizer.bridge_s",
    "stats.collect_s",
    "optimizer.plan_s",
    "model.sort_s",
    "streams.sweep_s",
    "parallel.wall_s",
    "optimizer.pairs_s",
    "optimizer.gather_s",
    "relational.join_s",
    "relational.project_s",
)

FRONTEND = (
    "query.parse_s",
    "query.translate_s",
    "algebra.rewrite_s",
    "semantic.optimize_s",
    "semantic.findings",
)

#: Reported per configuration (``.default``, ``.auto``, ``.par2``).
EXECUTION = (
    "relational.scan_s",
    "relational.join_s",
    "relational.project_s",
    "relational.comparisons",
    "relational.comparisons_per_row",
    "optimizer.bridge_s",
    "optimizer.plan_s",
    "optimizer.pairs_s",
    "optimizer.gather_s",
    "optimizer.output_rows",
    "stats.collect_s",
    "model.sort_s",
    "streams.sweep_s",
    "streams.comparisons",
    "streams.eviction_checks",
    "streams.comparisons_per_row",
    "streams.workspace_hw",
    "runtime.gc_s",
    "runtime.gc_collections",
    "parallel.wall_s",
    "parallel.shard_max_s",
    "parallel.overhead_s",
    "parallel.skew",
    "parallel.shards",
    "parallel.shard_retries",
    "query.unattributed_s",
    "obs.trace_overhead_s",
)

#: Reported per forced backend (``.tuple``, ``.columnar``, ...).
BACKEND = (
    "optimizer.bridge_s",
    "optimizer.plan_s",
    "optimizer.pairs_s",
    "optimizer.gather_s",
    "optimizer.output_rows",
    "model.sort_s",
    "streams.sweep_s",
    "streams.comparisons",
    "streams.eviction_checks",
    "streams.comparisons_per_row",
    "streams.workspace_hw",
)


def unit_of(metric: str) -> str:
    quantity = metric.split(".")[1]
    if quantity.endswith("_s"):
        return "s"
    if quantity.endswith("_per_row") or quantity == "skew":
        return "ratio"
    return "count"


def _conventional_join_types():
    from repro.relational.operators import (
        CrossProduct,
        HashEquiJoin,
        MergeEquiJoin,
        RowSemijoin,
        ThetaNestedLoopJoin,
    )

    return (
        CrossProduct,
        HashEquiJoin,
        MergeEquiJoin,
        RowSemijoin,
        ThetaNestedLoopJoin,
    )


def _holds_join(operator, join_types) -> bool:
    pending = [operator]
    while pending:
        node = pending.pop()
        if isinstance(node, join_types):
            return True
        for name in ("child", "left", "right"):
            child = getattr(node, name, None)
            if child is not None:
                pending.append(child)
    return False


@contextmanager
def instrumented(tracer) -> Iterator[Dict[str, float]]:
    """Install ``tracer`` as the active tracer, the ``bench:`` wrappers
    and an observe-only GC callback; undo all of it on exit.

    Yields a dict that receives ``gc_s`` and ``gc_collections``.
    """
    from repro.model.relation import TemporalRelation
    from repro.obs.trace import set_tracer
    from repro.optimizer.planner import TemporalJoinPlanner
    from repro.relational.operators import Operator
    from repro.stats.estimators import collect_statistics

    join_types = _conventional_join_types()

    def spanned(name, original, attributes=None):
        def wrapper(*args, **kwargs):
            extra = attributes(*args) if attributes else {}
            with tracer.span(name, **extra):
                return original(*args, **kwargs)

        return wrapper

    methods = {
        (Operator, "run"): (
            "bench:run",
            lambda op: {"joins": _holds_join(op, join_types)},
        ),
        (TemporalRelation, "sorted_by"): ("bench:sort", None),
        (TemporalJoinPlanner, "alternatives"): ("bench:plan", None),
    }
    originals = {key: getattr(*key) for key in methods}
    # collect_statistics is a function imported by name; patch every
    # loaded repro module that holds it.
    stats_holders = [
        module
        for name, module in list(sys.modules.items())
        if name.startswith("repro")
        and getattr(module, "collect_statistics", None) is collect_statistics
    ]
    stats_wrapper = spanned("bench:stats", collect_statistics)

    gc_totals = {"gc_s": 0.0, "gc_collections": 0}
    gc_started: List[float] = []

    def on_gc(phase, info):
        if phase == "start":
            gc_started.append(time.perf_counter())
        elif gc_started:
            gc_totals["gc_s"] += time.perf_counter() - gc_started.pop()
            gc_totals["gc_collections"] += 1

    previous = set_tracer(tracer)
    for (owner, name), (span_name, attributes) in methods.items():
        wrapper = spanned(span_name, originals[owner, name], attributes)
        setattr(owner, name, wrapper)
    for module in stats_holders:
        module.collect_statistics = stats_wrapper
    gc.callbacks.append(on_gc)
    try:
        yield gc_totals
    finally:
        gc.callbacks.remove(on_gc)
        for module in stats_holders:
            module.collect_statistics = collect_statistics
        for (owner, name), original in originals.items():
            setattr(owner, name, original)
        set_tracer(previous)


def _seconds(span) -> float:
    return span.duration_ns / 1e9


def attribute(tracer, execution, report) -> Dict[str, float]:
    """Per-layer numbers of one traced query (see the module doc).

    ``execution`` is the :class:`~repro.optimizer.integration.
    HybridExecution`; ``report`` the semantic report or ``None``.
    """
    spans = tracer.spans
    by_id = {span.span_id: span for span in spans}
    children: Dict[Optional[int], list] = {}
    for span in spans:
        children.setdefault(span.parent_id, []).append(span)
    for group in children.values():
        group.sort(key=lambda span: span.start_ns)

    def named(prefix):
        return [span for span in spans if span.name.startswith(prefix)]

    def inside(span, prefix) -> bool:
        parent = by_id.get(span.parent_id)
        while parent is not None:
            if parent.name.startswith(prefix):
                return True
            parent = by_id.get(parent.parent_id)
        return False

    (root,) = [span for span in spans if span.name == "query"]
    (execute,) = named("bench:execute")
    out: Dict[str, float] = {
        "query.parse_s": _seconds(named("bench:parse")[0]),
        "query.translate_s": _seconds(named("bench:translate")[0]),
        "algebra.rewrite_s": _seconds(named("bench:rewrite")[0]),
        "semantic.optimize_s": sum(map(_seconds, named("bench:semantic"))),
        "semantic.findings": len(report.findings) if report else 0,
    }

    # Direct children of execute_hybrid: child-input runs, stream
    # joins, then the run of the finished plan.
    top = children.get(execute.span_id, [])
    runs = [span for span in top if span.name == "bench:run"]
    joins = [span for span in top if span.name.startswith("stream-join:")]
    final = runs[-1] if runs else None
    inputs = runs[:-1]
    final_s = _seconds(final) if final else 0.0
    final_joins = bool(final and final.attributes.get("joins"))
    out["relational.scan_s"] = sum(map(_seconds, inputs))
    out["relational.join_s"] = final_s if final_joins else 0.0
    out["relational.project_s"] = 0.0 if final_joins else final_s

    bridge = gather = pairs = 0.0
    for join in joins:
        before = [s.end_ns for s in inputs if s.end_ns <= join.start_ns]
        bridge += (join.start_ns - max(before, default=join.start_ns)) / 1e9
        after = [s.start_ns for s in runs if s.start_ns >= join.end_ns]
        gather += (min(after, default=join.end_ns) - join.end_ns) / 1e9
        pairs += _seconds(join) - sum(
            _seconds(s)
            for s in children.get(join.span_id, [])
            if s.name.startswith("plan:")
        )
    out["optimizer.bridge_s"] = bridge
    out["optimizer.gather_s"] = gather
    out["optimizer.pairs_s"] = pairs

    stats_s = sum(map(_seconds, named("bench:stats")))
    out["stats.collect_s"] = stats_s
    out["optimizer.plan_s"] = sum(map(_seconds, named("bench:plan"))) - stats_s
    out["model.sort_s"] = sum(
        _seconds(s) for s in named("bench:sort") if not inside(s, "bench:sort")
    )
    out["streams.sweep_s"] = sum(
        _seconds(s)
        for s in named("operator:")
        if not inside(s, "parallel:") and not inside(s, "operator:")
    )

    parallel = named("parallel:")
    out["parallel.wall_s"] = sum(map(_seconds, parallel))
    shard_walls = []
    for span in parallel:
        for shard in children.get(span.span_id, []):
            if shard.name.startswith("shard:"):
                wall_ms = shard.attributes.get("wall_ms")
                shard_walls.append(
                    wall_ms / 1e3 if wall_ms is not None else _seconds(shard)
                )
    shard_max = max(shard_walls, default=0.0)
    out["parallel.shard_max_s"] = shard_max
    out["parallel.overhead_s"] = (
        out["parallel.wall_s"] - shard_max if shard_walls else 0.0
    )
    out["parallel.skew"] = (
        shard_max / (sum(shard_walls) / len(shard_walls))
        if shard_walls and sum(shard_walls) > 0
        else 0.0
    )
    out["parallel.shards"] = len(shard_walls)
    out["parallel.shard_retries"] = sum(
        (info.parallel or {}).get("containment", {}).get("shard_retries", 0)
        for info in execution.stream_joins
    )

    rows = len(execution.rows)
    comparisons = execution.stats.comparisons
    out["relational.comparisons"] = comparisons
    out["relational.comparisons_per_row"] = comparisons / rows if rows else 0.0
    stream_rows = sum(info.output_rows for info in execution.stream_joins)
    stream_comparisons = sum(
        info.metrics.comparisons
        for info in execution.stream_joins
        if info.metrics is not None
    )
    out["optimizer.output_rows"] = stream_rows
    out["streams.comparisons"] = stream_comparisons
    out["streams.eviction_checks"] = sum(
        info.metrics.eviction_checks
        for info in execution.stream_joins
        if info.metrics is not None
    )
    out["streams.comparisons_per_row"] = (
        stream_comparisons / stream_rows if stream_rows else 0.0
    )
    out["streams.workspace_hw"] = max(
        (info.workspace_high_water for info in execution.stream_joins),
        default=0,
    )
    out["query.unattributed_s"] = _seconds(root) - sum(
        out[name] for name in PARTITION
    )
    return out
