"""Tests for the sort-and-sweep inequality join.

Every key shape is checked against :class:`ThetaNestedLoopJoin` over
the same predicate: the sweep must return the nested loop's row
multiset, duplicates included, on rows crowded with endpoint ties.
"""

import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    DeadlineExceededError,
    GovernanceError,
    QueryCancelledError,
)
from repro.governance import CancellationToken, QueryBudget, governed
from repro.relational import (
    And,
    Attr,
    Compare,
    EngineStats,
    RowSchema,
    SweepInequalityJoin,
    Table,
    TableScan,
    ThetaNestedLoopJoin,
)

LEFT = RowSchema.of("l.ValidFrom", "l.ValidTo", "l.Id")
RIGHT = RowSchema.of("r.ValidFrom", "r.ValidTo", "r.Id")
OPS = ("<", "<=", ">", ">=")
ENDPOINTS = ("ValidFrom", "ValidTo")

#: Endpoints on a short time line, so ties are everywhere; ids repeat
#: so the output carries duplicate rows.  Endpoints are drawn
#: independently: the sweep orders on values, not on lifespans, so
#: empty and inverted spans are degenerate keys it must also take.
ROWS = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 2)),
    max_size=9,
)


def scans(left_rows, right_rows):
    stats = EngineStats()
    return (
        TableScan(Table("l", LEFT, left_rows), stats),
        TableScan(Table("r", RIGHT, right_rows), stats),
    )


def key(op, left_endpoint, right_endpoint, right_first=False):
    """``l.<left_endpoint> op r.<right_endpoint>``, written either way
    round (``right_first`` flips the operator to keep the meaning)."""
    left = Attr(f"l.{left_endpoint}")
    right = Attr(f"r.{right_endpoint}")
    if right_first:
        flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}[op]
        return Compare(right, flipped, left)
    return Compare(left, op, right)


def assert_matches_nested_loop(left_rows, right_rows, keys, residual):
    predicate = And.of(*keys, *([residual] if residual else []))
    expected = Counter(
        ThetaNestedLoopJoin(*scans(left_rows, right_rows), predicate)
    )
    sweep = SweepInequalityJoin(
        *scans(left_rows, right_rows), keys, residual=residual
    )
    assert Counter(sweep) == expected, sweep.describe()


KEY_SHAPES = st.tuples(
    st.sampled_from(ENDPOINTS), st.sampled_from(ENDPOINTS), st.booleans()
)

#: Residuals: none, another endpoint inequality, or a non-temporal
#: conjunct the sweep could never key on.
RESIDUALS = (
    None,
    Compare(Attr("l.ValidTo"), ">=", Attr("r.ValidFrom")),
    Compare(Attr("l.Id"), "!=", Attr("r.Id")),
)


class TestDifferential:
    @pytest.mark.parametrize("op1,op2", list(itertools.product(OPS, OPS)))
    @settings(max_examples=25, deadline=None)
    @given(
        left_rows=ROWS,
        right_rows=ROWS,
        shape1=KEY_SHAPES,
        shape2=KEY_SHAPES,
        residual=st.sampled_from(RESIDUALS),
    )
    def test_two_keys(
        self, op1, op2, left_rows, right_rows, shape1, shape2, residual
    ):
        keys = [key(op1, *shape1), key(op2, *shape2)]
        assert_matches_nested_loop(left_rows, right_rows, keys, residual)

    @pytest.mark.parametrize("op", OPS)
    @settings(max_examples=25, deadline=None)
    @given(
        left_rows=ROWS,
        right_rows=ROWS,
        shape=KEY_SHAPES,
        residual=st.sampled_from(RESIDUALS),
    )
    def test_one_key(self, op, left_rows, right_rows, shape, residual):
        assert_matches_nested_loop(
            left_rows, right_rows, [key(op, *shape)], residual
        )

    @pytest.mark.parametrize("op1,op2", list(itertools.product(OPS, OPS)))
    def test_both_keys_on_one_attribute_pair(self, op1, op2):
        """Degenerate keys: both keys read the same two columns."""
        rows = [(a, b, a % 2) for a in range(4) for b in range(4)]
        keys = [
            key(op1, "ValidFrom", "ValidTo"),
            key(op2, "ValidFrom", "ValidTo"),
        ]
        assert_matches_nested_loop(rows, rows, keys, None)

    def test_empty_sides(self):
        keys = [key("<", "ValidFrom", "ValidTo")]
        assert_matches_nested_loop([], [(1, 2, 0)], keys, None)
        assert_matches_nested_loop([(1, 2, 0)], [], keys, None)


class TestOperator:
    def test_counts_sweep_work_not_pairs(self):
        """Comparisons are merge-key steps, bisect probes and candidate
        pairs: far below the nested loop's n^2 on a selective join."""
        n = 400
        rows = [(i, i + 2, 0) for i in range(n)]
        left, right = scans(rows, rows)
        keys = [
            Compare(Attr("r.ValidFrom"), "<", Attr("l.ValidTo")),
            Compare(Attr("l.ValidFrom"), "<", Attr("r.ValidTo")),
        ]
        out = list(SweepInequalityJoin(left, right, keys))
        assert len(out) == 3 * n - 2
        assert left.stats.comparisons < n * n / 10
        # Every candidate pair is examined at least once.
        assert left.stats.comparisons >= len(out)

    def test_describe_renders_keys_and_residual(self):
        left, right = scans([], [])
        residual = Compare(Attr("l.Id"), "!=", Attr("r.Id"))
        join = SweepInequalityJoin(
            left,
            right,
            [
                key("<", "ValidFrom", "ValidTo"),
                key(">", "ValidTo", "ValidFrom"),
            ],
            residual=residual,
        )
        text = join.describe()
        assert "key1: l.ValidFrom < r.ValidTo" in text
        assert "key2: l.ValidTo > r.ValidFrom" in text
        assert "residual=l.Id != r.Id" in text

    @pytest.mark.parametrize(
        "bad",
        [
            [],
            [key("<", "ValidFrom", "ValidTo")] * 3,
            [Compare(Attr("l.ValidFrom"), "=", Attr("r.ValidTo"))],
            [Compare(Attr("l.ValidFrom"), "<", Attr("l.ValidTo"))],
        ],
    )
    def test_rejects_unsweepable_keys(self, bad):
        left, right = scans([], [])
        with pytest.raises(ValueError):
            SweepInequalityJoin(left, right, bad)


class TestGovernance:
    """The sweep checkpoints once per batch of left rows, so a deadline
    or a cancellation that fires mid-sweep stops it with the typed
    :class:`GovernanceError`."""

    def sweep(self):
        n = 2 * SweepInequalityJoin.CHECK_EVERY + 1
        rows = [(i, i + 1, 0) for i in range(n)]
        keys = [
            key("<", "ValidFrom", "ValidTo"),
            key(">", "ValidTo", "ValidFrom"),
        ]
        return SweepInequalityJoin(*scans(rows, rows), keys)

    def test_cancellation_inside_sweep(self):
        token = CancellationToken()
        with governed(token=token):
            rows = iter(self.sweep())
            next(rows)  # the sweep is under way
            token.cancel("operator stop")
            with pytest.raises(QueryCancelledError) as info:
                list(rows)
        assert isinstance(info.value, GovernanceError)

    def test_deadline_inside_sweep(self):
        now = [0.0]
        token = CancellationToken(
            QueryBudget(deadline_seconds=1.0), clock=lambda: now[0]
        )
        with governed(token=token):
            rows = iter(self.sweep())
            next(rows)
            now[0] = 5.0
            with pytest.raises(DeadlineExceededError) as info:
                list(rows)
        assert isinstance(info.value, GovernanceError)
        assert token.checkpoints >= 2
