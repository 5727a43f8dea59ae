"""Unit tests for half-open intervals and their Allen predicates."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import InvalidIntervalError
from repro.model import Interval

intervals = st.tuples(
    st.integers(min_value=-500, max_value=500),
    st.integers(min_value=1, max_value=200),
).map(lambda t: Interval(t[0], t[0] + t[1]))


class TestConstruction:
    def test_valid_interval(self):
        iv = Interval(3, 7)
        assert iv.start == 3
        assert iv.end == 7
        assert iv.duration == 4

    def test_empty_interval_rejected(self):
        with pytest.raises(InvalidIntervalError):
            Interval(5, 5)

    def test_inverted_interval_rejected(self):
        with pytest.raises(InvalidIntervalError):
            Interval(7, 3)

    def test_non_integer_endpoints_rejected(self):
        with pytest.raises(TypeError):
            Interval(0.5, 2)
        with pytest.raises(TypeError):
            Interval(True, 2)

    def test_ordering_is_lexicographic(self):
        assert Interval(0, 10) < Interval(1, 2)
        assert Interval(2, 3) < Interval(2, 5)

    def test_equality_and_hash(self):
        assert Interval(1, 4) == Interval(1, 4)
        assert hash(Interval(1, 4)) == hash(Interval(1, 4))
        assert Interval(1, 4) != Interval(1, 5)


class TestMembership:
    def test_contains_start_point(self):
        assert 3 in Interval(3, 7)

    def test_excludes_end_point(self):
        assert 7 not in Interval(3, 7)

    def test_points_iteration(self):
        assert list(Interval(2, 5).points()) == [2, 3, 4]

    def test_shift(self):
        assert Interval(2, 5).shift(10) == Interval(12, 15)
        assert Interval(2, 5).shift(-2) == Interval(0, 3)


class TestAllenPredicates:
    """Spot checks of each Figure-2 row; exhaustive cross-validation
    against the classifier lives in tests/allen/."""

    def test_equal(self):
        assert Interval(1, 5).equal(Interval(1, 5))
        assert not Interval(1, 5).equal(Interval(1, 6))

    def test_meets(self):
        assert Interval(1, 5).meets(Interval(5, 9))
        assert not Interval(1, 5).meets(Interval(6, 9))
        assert Interval(5, 9).met_by(Interval(1, 5))

    def test_starts(self):
        assert Interval(1, 3).starts(Interval(1, 9))
        assert not Interval(1, 9).starts(Interval(1, 9))
        assert Interval(1, 9).started_by(Interval(1, 3))

    def test_finishes(self):
        assert Interval(7, 9).finishes(Interval(1, 9))
        assert not Interval(1, 9).finishes(Interval(1, 9))
        assert Interval(1, 9).finished_by(Interval(7, 9))

    def test_during_is_strict_on_both_ends(self):
        assert Interval(3, 5).during(Interval(1, 9))
        assert not Interval(1, 5).during(Interval(1, 9))  # shares start
        assert not Interval(3, 9).during(Interval(1, 9))  # shares end

    def test_contains_is_inverse_of_during(self):
        assert Interval(1, 9).contains(Interval(3, 5))
        assert not Interval(3, 5).contains(Interval(1, 9))

    def test_overlaps_requires_strict_partial_overlap(self):
        assert Interval(1, 5).overlaps(Interval(3, 9))
        assert not Interval(1, 9).overlaps(Interval(3, 5))  # contains
        assert not Interval(1, 3).overlaps(Interval(3, 9))  # meets
        assert not Interval(3, 9).overlaps(Interval(1, 5))  # inverse side

    def test_before_requires_gap(self):
        assert Interval(1, 3).before(Interval(5, 9))
        assert not Interval(1, 5).before(Interval(5, 9))  # meets, no gap
        assert Interval(5, 9).after(Interval(1, 3))


class TestGeneralOverlap:
    def test_intersects_when_sharing_a_point(self):
        assert Interval(1, 5).intersects(Interval(4, 9))
        assert Interval(4, 9).intersects(Interval(1, 5))

    def test_meeting_intervals_do_not_intersect(self):
        # Half-open semantics: [1,5) and [5,9) share no timepoint.
        assert not Interval(1, 5).intersects(Interval(5, 9))
        assert Interval(1, 5).is_adjacent(Interval(5, 9))

    def test_containment_implies_intersection(self):
        assert Interval(1, 9).intersects(Interval(3, 5))

    @given(intervals, intervals)
    def test_intersects_is_symmetric(self, x, y):
        assert x.intersects(y) == y.intersects(x)

    @given(intervals, intervals)
    def test_intersects_iff_common_point(self, x, y):
        common = set(x.points()) & set(y.points())
        assert x.intersects(y) == bool(common)


class TestSetConstructions:
    def test_intersection(self):
        assert Interval(1, 6).intersection(Interval(4, 9)) == Interval(4, 6)
        assert Interval(1, 4).intersection(Interval(4, 9)) is None

    def test_union_of_overlapping(self):
        assert Interval(1, 6).union(Interval(4, 9)) == Interval(1, 9)

    def test_union_of_adjacent(self):
        assert Interval(1, 4).union(Interval(4, 9)) == Interval(1, 9)

    def test_union_with_gap_is_none(self):
        assert Interval(1, 3).union(Interval(5, 9)) is None

    def test_span_covers_both(self):
        assert Interval(1, 3).span(Interval(5, 9)) == Interval(1, 9)

    def test_gap_between_disjoint(self):
        assert Interval(1, 3).gap(Interval(5, 9)) == Interval(3, 5)
        assert Interval(5, 9).gap(Interval(1, 3)) == Interval(3, 5)

    def test_gap_of_touching_is_none(self):
        assert Interval(1, 5).gap(Interval(5, 9)) is None
        assert Interval(1, 6).gap(Interval(5, 9)) is None

    @given(intervals, intervals)
    def test_intersection_commutes(self, x, y):
        assert x.intersection(y) == y.intersection(x)

    @given(intervals, intervals)
    def test_intersection_is_within_both(self, x, y):
        common = x.intersection(y)
        if common is not None:
            assert common.start >= x.start and common.end <= x.end
            assert common.start >= y.start and common.end <= y.end
            assert x.intersects(y)
        else:
            assert not x.intersects(y)

    @given(intervals, intervals)
    def test_span_contains_union_points(self, x, y):
        span = x.span(y)
        assert set(x.points()) | set(y.points()) <= set(span.points())


class TestFirstInvalidLifespan:
    def test_column_form_of_the_validity_constraint(self):
        from repro.model.interval import first_invalid_lifespan

        assert first_invalid_lifespan([0, 3, 5], [1, 4, 9]) is None
        assert first_invalid_lifespan([], []) is None
        # Zero-length [5, 5) and reversed [7, 2) both violate TS < TE.
        assert first_invalid_lifespan([0, 5, 7], [1, 5, 2]) == 1
        assert first_invalid_lifespan([0, 1, 7], [1, 5, 2]) == 2
