"""Unit tests for the columnar interval representation."""

import pytest

from repro.columnar import IntervalColumns
from repro.errors import StreamOrderError
from repro.model import TE_ASC, TS_ASC, TS_DESC, TemporalTuple
from repro.model.sortorder import SortOrder


def T(value, ts, te):
    return TemporalTuple(f"s{value}", value, ts, te)


TUPLES = [T(0, 5, 9), T(1, 0, 4), T(2, 3, 12), T(3, 3, 5)]


class TestConstruction:
    def test_from_tuples_sorts_by_order(self):
        cols = IntervalColumns.from_tuples(TUPLES, order=TS_ASC)
        assert list(cols.ts) == [0, 3, 3, 5]
        assert len(cols) == 4
        # payload stays positionally aligned with the endpoint columns
        for i, payload in enumerate(cols.payload):
            assert payload.valid_from == cols.ts[i]
            assert payload.valid_to == cols.te[i]

    def test_presorted_trusts_caller(self):
        cols = IntervalColumns.from_tuples(
            TUPLES, order=TS_ASC, presorted=True
        )
        assert list(cols.ts) == [5, 0, 3, 3]  # untouched

    def test_misaligned_columns_rejected(self):
        cols = IntervalColumns.from_tuples(TUPLES, order=TS_ASC)
        with pytest.raises(ValueError):
            IntervalColumns(cols.ts, cols.te[:2], cols.payload, TS_ASC)

    def test_no_order_keeps_arrival_sequence(self):
        cols = IntervalColumns.from_tuples(TUPLES)
        assert [p.value for p in cols.payload] == [0, 1, 2, 3]


class TestVerifyOrder:
    def test_sorted_columns_pass(self):
        for order in (TS_ASC, TE_ASC, TS_DESC):
            IntervalColumns.from_tuples(TUPLES, order=order).verify_order()

    def test_violation_raises(self):
        cols = IntervalColumns.from_tuples(
            TUPLES, order=TS_ASC, presorted=True
        )
        with pytest.raises(StreamOrderError):
            cols.verify_order()

    def test_secondary_key_violation_detected(self):
        order = SortOrder.by_ts(secondary_te=True)
        bad = [T(0, 1, 9), T(1, 1, 4)]  # equal TS, descending TE
        cols = IntervalColumns.from_tuples(bad, order=order, presorted=True)
        with pytest.raises(StreamOrderError):
            cols.verify_order()
        IntervalColumns.from_tuples(bad, order=order).verify_order()

    def test_ties_are_legal(self):
        dup = [T(0, 2, 6), T(1, 2, 6), T(2, 2, 6)]
        IntervalColumns.from_tuples(
            dup, order=TS_ASC, presorted=True
        ).verify_order()

    def test_surrogate_order_falls_back_to_tuple_check(self):
        order = SortOrder.by_surrogate()
        cols = IntervalColumns.from_tuples(TUPLES, order=order)
        cols.verify_order()
        bad = IntervalColumns.from_tuples(
            list(reversed(cols.payload)), order=order, presorted=True
        )
        with pytest.raises(StreamOrderError):
            bad.verify_order()


class TestQueryPathColumns:
    """Columns built from query rows, argsorted, and read back."""

    @staticmethod
    def rows_and_schema(attributes, rows):
        from repro.relational.schema import RowSchema

        return rows, RowSchema(attributes)

    def test_from_rows_reads_the_endpoint_attributes(self):
        rows, schema = self.rows_and_schema(
            ("a.Seq", "a.ValidFrom", "a.ValidTo"),
            [(7, 5, 9), (8, 0, 4)],
        )
        cols = IntervalColumns.from_rows(rows, schema, "a")
        assert list(cols.ts) == [5, 0] and list(cols.te) == [9, 4]
        assert cols.payload is None and cols.order is None

    @pytest.mark.parametrize(
        "attributes, ts, te",
        [
            (("a.Seq", "a.ValidTo"), [4, 8], [5, 9]),
            (("a.Seq", "a.ValidFrom"), [5, 9], [6, 10]),
        ],
    )
    def test_pruned_endpoint_is_synthesised_one_timepoint_away(
        self, attributes, ts, te
    ):
        rows, schema = self.rows_and_schema(attributes, [(1, 5), (2, 9)])
        cols = IntervalColumns.from_rows(rows, schema, "a")
        assert list(cols.ts) == ts and list(cols.te) == te

    def test_no_endpoint_at_all_is_a_planning_error(self):
        from repro.errors import PlanningError

        rows, schema = self.rows_and_schema(("a.Seq",), [(1,)])
        with pytest.raises(PlanningError):
            IntervalColumns.from_rows(rows, schema, "a")

    def test_ill_formed_lifespan_is_rejected(self):
        from repro.errors import InvalidIntervalError

        rows, schema = self.rows_and_schema(
            ("a.ValidFrom", "a.ValidTo"), [(0, 4), (6, 6)]
        )
        with pytest.raises(InvalidIntervalError, match=r"\[6, 6\)"):
            IntervalColumns.from_rows(rows, schema, "a")

    @pytest.mark.parametrize(
        "order",
        [TS_ASC, TE_ASC, TS_DESC, SortOrder.by_ts(secondary_te=True)],
    )
    def test_sorted_by_is_the_stable_tuple_sort(self, order):
        from repro.model import sort_tuples

        tuples = TUPLES + [T(4, 0, 4), T(5, 3, 5)]
        cols = IntervalColumns.from_tuples(tuples)
        ordered = cols.sorted_by(order)
        expected = sort_tuples(tuples, order)
        assert [tuples[i] for i in ordered.ids] == expected
        assert list(ordered.ts) == [t.valid_from for t in expected]
        assert ordered.payload == expected
        ordered.verify_order()

    def test_sorted_by_composes_ids_and_skips_sorted_input(self):
        from repro.model import sort_tuples

        cols = IntervalColumns.from_tuples(TUPLES)
        again = cols.sorted_by(TE_ASC).sorted_by(TS_ASC)
        assert [TUPLES[i] for i in again.ids] == sort_tuples(
            sort_tuples(TUPLES, TE_ASC), TS_ASC
        )
        assert again.sorted_by(TS_ASC).ids is again.ids

    def test_position_tuples_carry_their_position(self):
        cols = IntervalColumns.from_tuples(TUPLES)
        built = cols.to_tuples()
        assert [t.surrogate for t in built] == [0, 1, 2, 3]
        assert [(t.valid_from, t.valid_to) for t in built] == [
            (t.valid_from, t.valid_to) for t in TUPLES
        ]

    def test_stream_over_columns_drains_without_tuples(self):
        from repro.columnar import ColumnarContainJoinTsTs, IndexPairs
        from repro.streams import TupleStream

        x = IntervalColumns.from_tuples([T(0, 0, 10), T(1, 2, 4)], TS_ASC)
        y = IntervalColumns.from_tuples([T(2, 1, 3), T(3, 3, 5)], TS_ASC)
        x_stream = TupleStream.from_columns(x, name="X")
        y_stream = TupleStream.from_columns(y, name="Y")
        processor = ColumnarContainJoinTsTs(x_stream, y_stream)
        pairs = processor.run_indexed()
        assert pairs == IndexPairs.of([0, 0], [0, 1])
        assert processor.metrics.passes_x == processor.metrics.passes_y == 1
        assert processor.metrics.output_count == 2


class TestIndexPairs:
    def test_len_gather_swap_and_remap(self):
        from repro.columnar import IndexPairs

        pairs = IndexPairs.of([0, 2], [1, 1])
        assert len(pairs) == 2
        assert pairs.gather("abc", "xyz") == [("a", "y"), ("c", "y")]
        assert pairs.swapped() == IndexPairs.of([1, 1], [0, 2])
        assert pairs.remap([5, 6, 7], None) == IndexPairs.of([5, 7], [1, 1])
        semi = IndexPairs.of([2, 0])
        assert semi.yj is None and semi.gather("abc") == ["c", "a"]

    def test_concat_adds_shard_bases(self):
        from array import array

        from repro.columnar import IndexPairs

        chunks = [
            (array("q", [0, 1]), array("q", [0, 0]), 0, 0),
            (array("q", [0]), array("q", [2]), 10, 4),
        ]
        assert IndexPairs.concat(chunks, joined=True) == IndexPairs.of(
            [0, 1, 10], [0, 0, 6]
        )

    def test_surrogates_read_back(self):
        from repro.columnar import IndexPairs

        pairs = IndexPairs.from_results(
            [(TemporalTuple(3, None, 0, 1), TemporalTuple(1, None, 0, 2))],
            joined=True,
        )
        assert pairs == IndexPairs.of([3], [1])
