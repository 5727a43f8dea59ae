"""Tests for hybrid execution: stream algorithms inside declarative
query plans."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import LJoin, compile_plan, optimize
from repro.model import TemporalRelation, TemporalSchema, TemporalTuple
from repro.optimizer import (
    CostModel,
    TemporalJoinPlanner,
    execute_hybrid,
    recognize_stream_join,
)
from repro.query import parse_query, run_query, translate
from repro.relational import SweepInequalityJoin, ThetaNestedLoopJoin
from repro.resilience import RecoveryPolicy
from repro.streams import TemporalOperator
from repro.workload import PoissonWorkload, fixed_duration


def catalog(seed_offset=0, n=150):
    x = PoissonWorkload(n, 0.4, fixed_duration(4), name="X").generate(
        5 + seed_offset
    )
    y = PoissonWorkload(n, 0.4, fixed_duration(30), name="Y").generate(
        6 + seed_offset
    )
    return {"X": x, "Y": y}


def plan_for(text, cat):
    return optimize(translate(parse_query(text), cat))


def first_join(plan):
    return next(node for node in plan.walk() if isinstance(node, LJoin))


#: Small lifespans on a short time line: endpoint ties everywhere.
TIED_SPANS = st.lists(
    st.tuples(st.integers(0, 8), st.integers(1, 3)), max_size=7
)

#: The recognised operators, plus one spelled-out inequality whose
#: projection prunes an endpoint on each side.
DIFFERENTIAL_PREDICATES = (
    "a during b",
    "a contains b",
    "a overlap b",
    "a before b",
    "a after b",
    "a.ValidTo < b.ValidFrom",
)


def spans_relation(name, spans):
    """Tuples ``[start, start + length)``; values repeat so the row
    multiset carries duplicates."""
    return TemporalRelation(
        TemporalSchema(name, "Id", "Seq"),
        [
            TemporalTuple(f"{name}{i}", i % 3, start, start + length)
            for i, (start, length) in enumerate(spans)
        ],
    )


class StreamsWinCostModel(CostModel):
    """Prices the nested loop out, so that the differential's tiny
    inputs still run every stream alternative (Before/After have no
    stream cell and keep the nested loop)."""

    def nested_loop_cost(self, outer, inner):
        return float("inf")


def differential_planner(backend, mode):
    """A planner on ``backend``; with a ``mode``, a 2-way parallel one
    whose cost model makes shards cheap enough to win on tiny inputs."""
    if mode is None:
        return TemporalJoinPlanner(
            backend=backend, cost_model=StreamsWinCostModel()
        )
    return TemporalJoinPlanner(
        backend=backend,
        parallelism=2,
        parallel_mode=mode,
        cost_model=StreamsWinCostModel(
            page_capacity=1,
            parallel_worker_startup=0.0,
            parallel_tuple_ship=0.0,
        ),
    )


DURING_QUERY = (
    "range of a is X range of b is Y "
    "retrieve (A = a.Seq, B = b.Seq) where a during b"
)


class TestRecognition:
    def test_during_recognised_as_swapped_contain(self):
        cat = catalog()
        join = first_join(plan_for(DURING_QUERY, cat))
        recognised = recognize_stream_join(join)
        assert recognised == (TemporalOperator.CONTAIN_JOIN, True)

    def test_contains_recognised_unswapped(self):
        cat = catalog()
        join = first_join(
            plan_for(
                "range of a is X range of b is Y "
                "retrieve (A = a.Seq, B = b.Seq) where a contains b",
                cat,
            )
        )
        assert recognize_stream_join(join) == (
            TemporalOperator.CONTAIN_JOIN,
            False,
        )

    def test_general_overlap_recognised(self):
        cat = catalog()
        join = first_join(
            plan_for(
                "range of a is X range of b is Y "
                "retrieve (A = a.Seq, B = b.Seq) where a overlap b",
                cat,
            )
        )
        assert recognize_stream_join(join) == (
            TemporalOperator.OVERLAP_JOIN,
            False,
        )

    def test_equality_join_not_recognised(self):
        cat = catalog()
        join = first_join(
            plan_for(
                "range of a is X range of b is Y "
                "retrieve (A = a.Seq, B = b.Seq) where a.Id = b.Id",
                cat,
            )
        )
        assert recognize_stream_join(join) is None

    def test_mixed_predicate_not_recognised(self):
        cat = catalog()
        join = first_join(
            plan_for(
                "range of a is X range of b is Y "
                "retrieve (A = a.Seq, B = b.Seq) "
                "where a during b and a.Id = b.Id",
                cat,
            )
        )
        assert recognize_stream_join(join) is None

    def test_single_inequality_not_an_operator(self):
        """One bare inequality (a less-than join) is not equivalent to
        any Figure-2 operator — it stays conventional, as the paper
        says ('with only a single inequality ... no choice but the
        nested-loop join method')."""
        cat = catalog()
        join = first_join(
            plan_for(
                "range of a is X range of b is Y "
                "retrieve (A = a.Seq, B = b.Seq) "
                "where a.ValidFrom < b.ValidFrom",
                cat,
            )
        )
        assert recognize_stream_join(join) is None


class TestHybridExecution:
    def test_matches_conventional(self):
        cat = catalog()
        plan = plan_for(DURING_QUERY, cat)
        hybrid = execute_hybrid(plan, cat)
        conventional = compile_plan(plan, cat).run()
        assert sorted(hybrid.rows) == sorted(conventional)
        assert len(hybrid.stream_joins) == 1
        info = hybrid.stream_joins[0]
        assert info.operator is TemporalOperator.CONTAIN_JOIN
        assert info.swapped
        assert info.output_rows == len(hybrid.rows)

    def test_padded_condition_still_streams(self):
        """A redundant extra conjunct does not defeat recognition."""
        cat = catalog()
        plan = plan_for(
            "range of a is X range of b is Y "
            "retrieve (A = a.Seq, B = b.Seq) "
            "where a during b and a.ValidFrom < b.ValidTo",
            cat,
        )
        hybrid = execute_hybrid(plan, cat)
        assert len(hybrid.stream_joins) == 1
        conventional = compile_plan(plan, cat).run()
        assert sorted(hybrid.rows) == sorted(conventional)

    def test_conventional_joins_still_work(self):
        cat = catalog()
        plan = plan_for(
            "range of a is X range of b is Y "
            "retrieve (A = a.Seq, B = b.Seq) where a.Seq = b.Seq",
            cat,
        )
        hybrid = execute_hybrid(plan, cat)
        assert hybrid.stream_joins == []
        assert sorted(hybrid.rows) == sorted(compile_plan(plan, cat).run())

    def test_projection_above_stream_join(self):
        cat = catalog()
        plan = plan_for(
            "range of a is X range of b is Y "
            "retrieve unique (B = b.Seq) where a during b",
            cat,
        )
        hybrid = execute_hybrid(plan, cat)
        conventional = compile_plan(plan, cat).run()
        assert sorted(hybrid.rows) == sorted(conventional)

    @settings(max_examples=10, deadline=None)
    @given(xs=TIED_SPANS, ys=TIED_SPANS)
    def test_equivalence_on_random_inputs(self, xs, ys):
        """Query-level differential: every recognised operator, every
        planner backend, serial and 2-way inline/process shards, and
        each recovery mode give the conventional engine's row multiset
        on small relations crowded with endpoint ties."""
        cat = {"X": spans_relation("X", xs), "Y": spans_relation("Y", ys)}
        for where in DIFFERENTIAL_PREDICATES:
            plan = plan_for(
                "range of a is X range of b is Y "
                f"retrieve (A = a.Seq, B = b.Seq) where {where}",
                cat,
            )
            expected = Counter(compile_plan(plan, cat).run())
            for backend in ("tuple", "columnar", "fused", "auto"):
                for mode in (None, "inline", "process"):
                    for recovery in (
                        None,
                        RecoveryPolicy.STRICT,
                        RecoveryPolicy.QUARANTINE,
                    ):
                        hybrid = execute_hybrid(
                            plan,
                            cat,
                            planner=differential_planner(backend, mode),
                            recovery=recovery,
                        )
                        case = (where, backend, mode, recovery)
                        assert Counter(hybrid.rows) == expected, case
                        (info,) = hybrid.stream_joins
                        assert info.chosen.startswith("nested-loop") == (
                            info.operator is TemporalOperator.BEFORE_JOIN
                        ), case

    @pytest.mark.parametrize("mode", ["inline", "process"])
    @pytest.mark.parametrize("backend", ["tuple", "columnar", "fused", "auto"])
    def test_differential_planner_shards(self, backend, mode):
        """The parallel configurations of the differential above really
        shard (in the requested mode) once the inputs are not tiny."""
        cat = catalog(n=60)
        plan = plan_for(DURING_QUERY, cat)
        expected = Counter(compile_plan(plan, cat).run())
        for recovery in (None, RecoveryPolicy.QUARANTINE):
            hybrid = execute_hybrid(
                plan,
                cat,
                planner=differential_planner(backend, mode),
                recovery=recovery,
            )
            assert Counter(hybrid.rows) == expected
            (info,) = hybrid.stream_joins
            assert info.parallel is not None
            assert info.parallel["plan"]["mode"] == mode

    def test_pruned_endpoint_is_synthesised(self):
        """Before/After read one endpoint per side, so projection
        pushdown prunes the other before the join; the bridge
        synthesises it."""
        cat = {
            "X": spans_relation("X", [(0, 2), (3, 1), (3, 2)]),
            "Y": spans_relation("Y", [(2, 1), (5, 3)]),
        }
        plan = plan_for(
            "range of a is X range of b is Y "
            "retrieve (A = a.Seq, B = b.Seq) where a.ValidTo < b.ValidFrom",
            cat,
        )
        join = first_join(plan)
        assert "a.ValidFrom" not in join.left.schema().attributes
        assert "b.ValidTo" not in join.right.schema().attributes
        hybrid = execute_hybrid(plan, cat)
        assert Counter(hybrid.rows) == Counter(compile_plan(plan, cat).run())
        assert hybrid.rows


class TestRunQueryStreams:
    def test_streams_flag(self):
        cat = catalog()
        hybrid = run_query(DURING_QUERY, cat, streams=True)
        plain = run_query(DURING_QUERY, cat)
        assert sorted(hybrid.rows) == sorted(plain.rows)
        assert len(hybrid.stream_joins) == 1
        assert "stream" in hybrid.stream_joins[0].chosen

    def test_streams_flag_off_by_default(self):
        cat = catalog()
        plain = run_query(DURING_QUERY, cat)
        assert plain.stream_joins == []

    def test_superstar_with_streams_still_correct(self):
        """The Superstar upper join spans three variables, so no stream
        join takes it; with no hash-joinable equality left, the hybrid
        path sweeps it instead of nested-looping it."""
        from repro.superstar import SUPERSTAR_QUEL
        from repro.workload import FacultyWorkload

        faculty_count = 200
        faculty = {
            "Faculty": FacultyWorkload(
                faculty_count=faculty_count,
                continuous=True,
                full_fraction=1.0,
            ).generate(3)
        }
        hybrid = run_query(SUPERSTAR_QUEL, faculty, streams=True)
        plain = run_query(SUPERSTAR_QUEL, faculty)
        assert Counter(hybrid.rows) == Counter(plain.rows)
        execution = execute_hybrid(hybrid.plan, faculty)
        assert holds(execution.operator, SweepInequalityJoin)
        assert not holds(execution.operator, ThetaNestedLoopJoin)
        # Regression guard that the sweep really runs: the nested loop
        # alone evaluates faculty_count**2 pairs here.
        assert hybrid.stats.comparisons < faculty_count**2 / 5
        assert plain.stats.comparisons > faculty_count**2

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_superstar_streams_and_semantic_grid(self, seed):
        """Streams on/off x semantic on/off give the conventional
        engine's Superstar row multiset, duplicate witnesses included."""
        from repro.superstar import SUPERSTAR_QUEL
        from repro.workload import FacultyWorkload

        faculty = {
            "Faculty": FacultyWorkload(
                faculty_count=40, continuous=True, full_fraction=1.0
            ).generate(seed)
        }
        expected = Counter(run_query(SUPERSTAR_QUEL, faculty).rows)
        assert expected
        for streams in (False, True):
            for semantic in (False, True):
                result = run_query(
                    SUPERSTAR_QUEL,
                    faculty,
                    streams=streams,
                    semantic=semantic,
                )
                assert Counter(result.rows) == expected, (streams, semantic)

    @settings(max_examples=15, deadline=None)
    @given(xs=TIED_SPANS, ys=TIED_SPANS)
    def test_unmapped_predicates_match_conventional(self, xs, ys):
        """Allen predicates the stream planner does not map, and bare
        endpoint inequalities, run on hash or sweep joins in the hybrid
        path; they must give the conventional engine's rows."""
        cat = {"X": spans_relation("X", xs), "Y": spans_relation("Y", ys)}
        for where in UNMAPPED_PREDICATES:
            query = (
                "range of a is X range of b is Y "
                f"retrieve (A = a.Seq, B = b.Seq) where {where}"
            )
            hybrid = run_query(query, cat, streams=True)
            plain = run_query(query, cat, streams=False)
            assert Counter(hybrid.rows) == Counter(plain.rows), where
            assert hybrid.stream_joins == [], where

    @pytest.mark.parametrize(
        "where",
        ["a overlaps b", "a overlappedby b", "a.ValidFrom < b.ValidTo"],
    )
    def test_inequality_joins_are_swept(self, where):
        cat = catalog(n=40)
        plan = plan_for(
            "range of a is X range of b is Y "
            f"retrieve (A = a.Seq, B = b.Seq) where {where}",
            cat,
        )
        assert recognize_stream_join(first_join(plan)) is None
        execution = execute_hybrid(plan, cat)
        assert holds(execution.operator, SweepInequalityJoin)
        assert Counter(execution.rows) == Counter(
            compile_plan(plan, cat).run()
        )


#: Allen predicates without a stream-join cell, and endpoint
#: inequalities that are no Figure-2 operator.
UNMAPPED_PREDICATES = (
    "a overlaps b",
    "a overlappedby b",
    "a starts b",
    "a startedby b",
    "a finishes b",
    "a finishedby b",
    "a meets b",
    "a metby b",
    "a equal b",
    "a.ValidFrom < b.ValidFrom",
    "a.ValidTo >= b.ValidTo",
    "a.ValidFrom <= b.ValidTo and b.ValidFrom <= a.ValidTo",
    "a.ValidFrom > b.ValidFrom and a.ValidTo < b.ValidTo "
    "and a.Seq != b.Seq",
)


def holds(operator, kind):
    """Does the physical plan rooted at ``operator`` contain a
    ``kind`` node?"""
    pending = [operator]
    while pending:
        node = pending.pop()
        if isinstance(node, kind):
            return True
        pending.extend(
            getattr(node, name)
            for name in ("child", "left", "right")
            if hasattr(node, name)
        )
    return False
