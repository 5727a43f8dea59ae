"""Stream algorithms inside declarative query plans.

The paper positions its stream processors as "additional strategies
that a query optimizer should consider".  This module is that
consideration, end to end: given a logical plan from the query
frontend, it recognises joins whose predicate *is* a temporal operator
over two range variables, evaluates those joins with the registry's
stream algorithms via the cost-based
:class:`~repro.optimizer.planner.TemporalJoinPlanner`, and evaluates
everything else conventionally — except that a join left with a
cross-side endpoint inequality and no hash-joinable equality is swept
(:class:`~repro.relational.operators.SweepInequalityJoin`), not
nested-looped.

Recognition reuses the semantic layer: the join predicate's temporal
conjuncts are matched against the thirteen Figure-2 constraints and the
TQuel general overlap under the intra-tuple background
(:func:`repro.semantic.recognize.recognize_allen`), so rephrased or
padded conditions are still recognised.

Rows to columns: the join's child rows become
:class:`~repro.columnar.relation.IntervalColumns` read straight from
their endpoint attributes, the planner returns one
:class:`~repro.columnar.pairs.IndexPairs` of row positions whichever
backend ran, and the output rows are gathered once — every output pair
maps back to its original rows losslessly, duplicates included.  Only
a tuple-at-a-time alternative (the paper-faithful tuple backend, the
nested loop, the recovery ladder, inline shards) builds
:class:`~repro.model.tuples.TemporalTuple` objects, and only when the
planner chose it.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from operator import add
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from ..governance.budget import QueryBudget
    from ..resilience.recovery import ExecutionReport, RecoveryPolicy

from ..obs.trace import get_tracer

from ..algebra.logical import LJoin, LogicalPlan
from ..algebra.physical import Catalog, _compile  # shared leaf compiler
from ..allen.relations import AllenRelation
from ..allen.symbolic import Comparison, Endpoint, EndpointKind
from ..columnar.pairs import IndexPairs
from ..columnar.relation import IntervalColumns
from ..errors import PlanningError
from ..relational.expressions import And, Attr, Compare
from ..relational.operators import EngineStats, Operator
from ..relational.schema import Row, RowSchema
from ..semantic.bridge import endpoint_of, to_symbolic
from ..semantic.inequality_graph import ImplicationGraph
from ..semantic.recognize import GENERAL_OVERLAP, recognize_allen
from ..streams.registry import TemporalOperator
from .planner import TemporalJoinPlanner

#: Allen relation -> (registry operator, operands swapped?).  The
#: registry names operators from the containing/overlapping side.
_OPERATOR_FOR_RELATION = {
    AllenRelation.CONTAINS: (TemporalOperator.CONTAIN_JOIN, False),
    AllenRelation.DURING: (TemporalOperator.CONTAIN_JOIN, True),
    GENERAL_OVERLAP: (TemporalOperator.OVERLAP_JOIN, False),
    AllenRelation.BEFORE: (TemporalOperator.BEFORE_JOIN, False),
    AllenRelation.AFTER: (TemporalOperator.BEFORE_JOIN, True),
}


@dataclass
class StreamJoinInfo:
    """One join the hybrid executor ran through the stream engine."""

    operator: TemporalOperator
    swapped: bool
    chosen: str  # the planner alternative's description
    workspace_high_water: int
    output_rows: int
    #: Recovery policy the join ran under (``None`` = legacy mode).
    recovery: Optional[str] = None
    #: The chosen operator's full :class:`~repro.streams.metrics.
    #: ProcessorMetrics` (``None`` for nested-loop winners without one).
    metrics: Optional[object] = None
    #: Wall-clock seconds spent planning + executing this join.
    wall_seconds: float = 0.0
    #: Parallel execution details when the planner chose a sharded
    #: plan: the partition plan, the per-shard attempt table
    #: (``shard_runs``), and the containment counters — the audit
    #: record's source when the run was untraced.
    parallel: Optional[dict] = None
    #: Physical backend that produced the rows ("tuple", "columnar" or
    #: "fused"; nested loops are tuple-at-a-time), read from the
    #: metrics of what actually ran — a workspace-overflow fallback
    #: reports the nested loop's backend, not the planned one.
    backend: Optional[str] = None


@dataclass
class HybridExecution:
    """Result of :func:`execute_hybrid`."""

    rows: list[Row]
    schema: RowSchema
    stats: EngineStats
    stream_joins: list[StreamJoinInfo] = field(default_factory=list)
    #: The resilience report shared by all stream joins of this plan
    #: (``None`` when executed without a recovery policy).
    execution_report: Optional[object] = None
    #: The physical plan that ran (``operator.explain()`` renders it).
    operator: Optional[Operator] = None


def recognize_stream_join(
    join: LJoin,
) -> Optional[tuple[TemporalOperator, bool]]:
    """Does this join's predicate denote a registry temporal operator
    between its two sides?  Returns (operator, operands_swapped) or
    ``None``.

    Requirements: every conjunct converts to a timestamp comparison,
    the condition mentions exactly the two sides' variables (one
    each), and — under the intra-tuple background — it is equivalent
    to a supported Figure-2 operator.
    """
    comparisons: list[Comparison] = []
    for conjunct in join.predicate.conjuncts():
        if not isinstance(conjunct, Compare):
            return None
        symbolic = to_symbolic(conjunct)
        if symbolic is None:
            return None
        comparisons.append(symbolic)
    if not comparisons:
        return None
    variables: set[str] = set()
    for comparison in comparisons:
        variables |= comparison.variables()
    left_vars = join.left.variables()
    right_vars = join.right.variables()
    if len(variables) != 2:
        return None
    left_used = variables & left_vars
    right_used = variables & right_vars
    if len(left_used) != 1 or len(right_used) != 1:
        return None
    x_var = next(iter(left_used))
    y_var = next(iter(right_used))

    background = ImplicationGraph()
    for variable in (x_var, y_var):
        background.add_fact(
            Comparison.lt(
                Endpoint(variable, EndpointKind.TS),
                Endpoint(variable, EndpointKind.TE),
            )
        )
    from ..allen.symbolic import Conjunction

    label = recognize_allen(
        Conjunction(tuple(comparisons)), x_var, y_var, background
    )
    if label not in _OPERATOR_FOR_RELATION:
        return None
    return _OPERATOR_FOR_RELATION[label]


def execute_hybrid(
    plan: LogicalPlan,
    catalog: Catalog,
    planner: Optional[TemporalJoinPlanner] = None,
    recovery: Optional["RecoveryPolicy"] = None,
    report: Optional["ExecutionReport"] = None,
    parallelism: Optional[int] = None,
    budget: Optional["QueryBudget"] = None,
) -> HybridExecution:
    """Execute ``plan``, sending recognised temporal joins through the
    stream planner and everything else through the conventional
    engine.

    ``recovery``/``report`` select and record the resilience behaviour
    of the stream joins (see
    :meth:`~repro.optimizer.planner.TemporalJoinPlanner.execute`);
    conventional operators are unaffected.  ``parallelism`` caps the
    shard count of time-domain-partitioned stream plans (ignored when
    an explicit ``planner`` is given — configure that planner instead).
    ``budget`` runs the whole execution — stream and conventional
    operators alike — under a governance token built from that
    :class:`~repro.governance.QueryBudget`; when the caller already
    installed a token (e.g. ``run_query(deadline=...)``), the existing
    token governs and ``budget`` is ignored.

    Without an explicit ``planner`` the stream joins run on the
    cost-picked backend (``TemporalJoinPlanner(backend="auto")``);
    pass ``planner=TemporalJoinPlanner(backend="tuple")`` for the
    paper-faithful tuple-at-a-time reference.
    """
    if budget is not None:
        from ..governance.budget import active_token, governed

        if active_token() is None:
            with governed(budget=budget):
                return execute_hybrid(
                    plan, catalog, planner, recovery, report, parallelism
                )
    stats = EngineStats()
    execution = HybridExecution(
        rows=[], schema=plan.schema(), stats=stats
    )
    if recovery is not None and report is None:
        from ..resilience.recovery import ExecutionReport

        report = ExecutionReport()
    execution.execution_report = report
    chooser = planner or TemporalJoinPlanner(
        backend="auto", parallelism=parallelism
    )
    operator = _build(
        plan, catalog, stats, chooser, execution, recovery, report
    )
    execution.operator = operator
    execution.rows = operator.run()
    return execution


class _MaterializedRows(Operator):
    """Adapter: a precomputed row list as a physical operator."""

    def __init__(self, schema: RowSchema, rows: list[Row], stats) -> None:
        super().__init__(schema, stats)
        self._rows = rows

    def __iter__(self):
        return iter(self._rows)

    def describe(self) -> str:
        return f"Materialized({len(self._rows)} rows)"


def _build(
    plan: LogicalPlan,
    catalog: Catalog,
    stats: EngineStats,
    planner: TemporalJoinPlanner,
    execution: HybridExecution,
    recovery=None,
    report=None,
) -> Operator:
    if isinstance(plan, LJoin):
        left = _build(
            plan.left, catalog, stats, planner, execution, recovery, report
        )
        right = _build(
            plan.right, catalog, stats, planner, execution, recovery, report
        )
        recognised = recognize_stream_join(plan)
        if recognised is not None:
            operator_kind, swapped = recognised
            rows = _stream_join(
                left,
                right,
                operator_kind,
                swapped,
                planner,
                execution,
                recovery,
                report,
            )
            return _MaterializedRows(plan.schema(), rows, stats)
        return _conventional_join(plan, left, right)
    if not plan.children():
        return _compile(plan, catalog, stats)
    built_children = [
        _build(
            child, catalog, stats, planner, execution, recovery, report
        )
        for child in plan.children()
    ]
    return _rebuild_node(plan, built_children)


def _conventional_join(plan: LJoin, left: Operator, right: Operator):
    """The conventional compiler's join selection, over already-built
    (possibly hybrid) children, plus the sweep: a join with no
    hash-joinable equality but a cross-side endpoint inequality is
    swept instead of nested-looped."""
    from ..algebra.physical import _splittable_equality
    from ..relational.operators import (
        HashEquiJoin,
        SweepInequalityJoin,
        ThetaNestedLoopJoin,
    )

    equality = _splittable_equality(plan)
    if equality is not None:
        left_attr, right_attr, residual = equality
        return HashEquiJoin(
            left, right, left_attr, right_attr, residual=residual
        )
    keys, rest = _sweep_keys(plan, left.schema, right.schema)
    if keys:
        residual = And.of(*rest) if rest else None
        return SweepInequalityJoin(left, right, keys, residual=residual)
    return ThetaNestedLoopJoin(left, right, plan.predicate)


def _sweep_keys(
    plan: LJoin, left_schema: RowSchema, right_schema: RowSchema
) -> tuple[list[Compare], list]:
    """Split the join predicate into sweep keys — the first two
    conjuncts, in conjunct order, that compare an endpoint attribute
    of one side with an endpoint attribute of the other by ``<``,
    ``<=``, ``>`` or ``>=`` — and the residual conjuncts."""
    keys: list[Compare] = []
    rest = []
    for conjunct in plan.predicate.conjuncts():
        if len(keys) < 2 and _is_sweep_key(
            conjunct, left_schema, right_schema
        ):
            keys.append(conjunct)
        else:
            rest.append(conjunct)
    return keys, rest


def _is_sweep_key(
    conjunct, left_schema: RowSchema, right_schema: RowSchema
) -> bool:
    if not (
        isinstance(conjunct, Compare)
        and conjunct.is_inequality
        and isinstance(conjunct.left, Attr)
        and isinstance(conjunct.right, Attr)
        and endpoint_of(conjunct.left) is not None
        and endpoint_of(conjunct.right) is not None
    ):
        return False
    a, b = conjunct.left.name, conjunct.right.name
    return (a in left_schema and b in right_schema) or (
        b in left_schema and a in right_schema
    )


def _rebuild_node(plan, built_children) -> Operator:
    from ..algebra.logical import (
        LDistinct,
        LProduct,
        LProject,
        LSelect,
        LSemijoin,
    )
    from ..relational.operators import (
        CrossProduct,
        Distinct,
        Project,
        RowSemijoin,
        Select,
    )

    if isinstance(plan, LSelect):
        return Select(built_children[0], plan.predicate)
    if isinstance(plan, LProject):
        return Project(built_children[0], list(plan.items))
    if isinstance(plan, LDistinct):
        return Distinct(built_children[0])
    if isinstance(plan, LProduct):
        return CrossProduct(built_children[0], built_children[1])
    if isinstance(plan, LSemijoin):
        return RowSemijoin(
            built_children[0], built_children[1], plan.predicate
        )
    raise PlanningError(f"hybrid executor cannot rebuild {plan!r}")


def _stream_join(
    left: Operator,
    right: Operator,
    operator_kind: TemporalOperator,
    swapped: bool,
    planner: TemporalJoinPlanner,
    execution: HybridExecution,
    recovery=None,
    report=None,
) -> list[Row]:
    left_rows = left.run()
    right_rows = right.run()
    left_cols = IntervalColumns.from_rows(
        left_rows, left.schema, _variable_of_schema(left.schema)
    )
    right_cols = IntervalColumns.from_rows(
        right_rows, right.schema, _variable_of_schema(right.schema)
    )
    tracer = get_tracer()
    started = time.perf_counter()
    with tracer.span(
        f"stream-join:{operator_kind.value}", swapped=swapped
    ) as span:
        if swapped:
            pairs, profile = planner.execute_columns(
                operator_kind,
                right_cols,
                left_cols,
                recovery=recovery,
                report=report,
            )
            pairs = pairs.swapped()
        else:
            pairs, profile = planner.execute_columns(
                operator_kind,
                left_cols,
                right_cols,
                recovery=recovery,
                report=report,
            )
        if tracer.enabled:
            span.set(output_rows=len(pairs))
    metrics = profile.metrics
    execution.stream_joins.append(
        StreamJoinInfo(
            operator=operator_kind,
            swapped=swapped,
            chosen=profile.chosen.describe(),
            workspace_high_water=(
                metrics.workspace_high_water if metrics else 0
            ),
            output_rows=len(pairs),
            recovery=recovery.value if recovery is not None else None,
            metrics=metrics,
            wall_seconds=time.perf_counter() - started,
            parallel=_parallel_details(profile.details),
            backend=metrics.backend if metrics else None,
        )
    )
    return _gather_rows(left_rows, right_rows, pairs)


def _gather_rows(
    left_rows: list[Row], right_rows: list[Row], pairs: IndexPairs
) -> list[Row]:
    """Output rows, one C-level pass: ``left[xi[k]] + right[yj[k]]``.
    The concatenated rows are acyclic, so the cyclic collector is
    paused rather than left to re-scan the growing list."""
    if pairs.yj is None:
        raise PlanningError("a stream join must produce row pairs")
    pause_gc = gc.isenabled()
    if pause_gc:
        gc.disable()
    try:
        return list(
            map(
                add,
                map(left_rows.__getitem__, pairs.xi),
                map(right_rows.__getitem__, pairs.yj),
            )
        )
    finally:
        if pause_gc:
            gc.enable()


def _parallel_details(details: dict) -> Optional[dict]:
    """The parallel slice of an execution profile, or ``None`` for a
    serial plan — carried on :class:`StreamJoinInfo` so the audit layer
    sees the shard attempt table without re-parsing the trace."""
    if "parallel" not in details:
        return None
    out = {
        "plan": details["parallel"],
        "shard_runs": details.get("shard_runs") or [],
    }
    if details.get("containment"):
        out["containment"] = details["containment"]
    return out


def _variable_of_schema(schema: RowSchema) -> str:
    variables = {
        attribute.partition(".")[0]
        for attribute in schema.attributes
        if "." in attribute
    }
    if len(variables) != 1:
        raise PlanningError(
            "stream join sides must carry exactly one range variable; "
            f"schema has {sorted(variables)}"
        )
    return next(iter(variables))
