"""Binary operators: cross product, the three conventional joins and
a sort-and-sweep inequality join.

Section 3: "the first join ... can be efficiently implemented as an
equi-join using a conventional approach such as nested-loop join, merge
join or hash join.  The second join operation, a so-called less-than
join, is a Cartesian product followed by a selection" — all four shapes
are here, instrumented so plans can be compared by comparisons and
materialised rows.  :class:`SweepInequalityJoin` is the Sections 4-5
alternative for that less-than join: one pass over sorted inputs with
an ordered workspace instead of the quadratic loop.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import ge, gt, le, lt
from typing import Iterator, Optional, Sequence

from ...governance.budget import active_token
from ..expressions import Attr, Compare, Predicate
from ..schema import Row
from .base import BinaryOperator, Operator


class CrossProduct(BinaryOperator):
    """Cartesian product; the right input is materialised once."""

    def __init__(self, left: Operator, right: Operator) -> None:
        super().__init__(left, right, left.schema.concat(right.schema))

    def __iter__(self) -> Iterator[Row]:
        right_rows = list(self.right)
        self.stats.rows_materialized += len(right_rows)
        for left_row in self.left:
            for right_row in right_rows:
                yield left_row + right_row

    def describe(self) -> str:
        return "CrossProduct"


class ThetaNestedLoopJoin(BinaryOperator):
    """Nested-loop join with an arbitrary predicate — the conventional
    strategy for less-than joins (Section 3, observation 1)."""

    def __init__(
        self, left: Operator, right: Operator, predicate: Predicate
    ) -> None:
        super().__init__(left, right, left.schema.concat(right.schema))
        self.predicate = predicate
        self._compiled = predicate.compile_against(self.schema)

    def __iter__(self) -> Iterator[Row]:
        right_rows = list(self.right)
        self.stats.rows_materialized += len(right_rows)
        for left_row in self.left:
            for right_row in right_rows:
                combined = left_row + right_row
                self.stats.comparisons += 1
                if self._compiled(combined):
                    yield combined

    def describe(self) -> str:
        return f"NestedLoopJoin({self.predicate})"


class RowSemijoin(BinaryOperator):
    """Nested-loop semijoin: left rows with at least one right match.

    The conventional-engine form of the temporal semijoins; the output
    schema is the left schema.  The predicate is evaluated against the
    concatenated row, and the right scan stops at the first match.
    """

    def __init__(
        self, left: Operator, right: Operator, predicate: Predicate
    ) -> None:
        super().__init__(left, right, left.schema)
        self.predicate = predicate
        self._compiled = predicate.compile_against(
            left.schema.concat(right.schema)
        )

    def __iter__(self) -> Iterator[Row]:
        right_rows = list(self.right)
        self.stats.rows_materialized += len(right_rows)
        for left_row in self.left:
            for right_row in right_rows:
                self.stats.comparisons += 1
                if self._compiled(left_row + right_row):
                    yield left_row
                    break

    def describe(self) -> str:
        return f"RowSemijoin({self.predicate})"


class HashEquiJoin(BinaryOperator):
    """Hash join on attribute equality with an optional residual
    predicate over the combined row."""

    def __init__(
        self,
        left: Operator,
        right: Operator,
        left_attribute: str,
        right_attribute: str,
        residual: Optional[Predicate] = None,
    ) -> None:
        super().__init__(left, right, left.schema.concat(right.schema))
        self.left_attribute = left_attribute
        self.right_attribute = right_attribute
        self.residual = residual
        self._left_key = left.schema.reader(left_attribute)
        self._right_key = right.schema.reader(right_attribute)
        self._residual = (
            residual.compile_against(self.schema) if residual else None
        )

    def __iter__(self) -> Iterator[Row]:
        buckets: dict = {}
        for right_row in self.right:
            buckets.setdefault(self._right_key(right_row), []).append(
                right_row
            )
            self.stats.rows_materialized += 1
        for left_row in self.left:
            for right_row in buckets.get(self._left_key(left_row), ()):
                combined = left_row + right_row
                self.stats.comparisons += 1
                if self._residual is None or self._residual(combined):
                    yield combined

    def describe(self) -> str:
        return (
            f"HashJoin({self.left_attribute} = {self.right_attribute}"
            + (f", residual={self.residual}" if self.residual else "")
            + ")"
        )


class MergeEquiJoin(BinaryOperator):
    """Sort-merge join on attribute equality.

    Inputs must arrive sorted on their join attributes (wrap them in
    :class:`~repro.relational.operators.basic.Sort` otherwise); equal-key
    groups are buffered, which is the merge join's classic workspace.
    """

    def __init__(
        self,
        left: Operator,
        right: Operator,
        left_attribute: str,
        right_attribute: str,
        residual: Optional[Predicate] = None,
    ) -> None:
        super().__init__(left, right, left.schema.concat(right.schema))
        self.left_attribute = left_attribute
        self.right_attribute = right_attribute
        self.residual = residual
        self._left_key = left.schema.reader(left_attribute)
        self._right_key = right.schema.reader(right_attribute)
        self._residual = (
            residual.compile_against(self.schema) if residual else None
        )

    def __iter__(self) -> Iterator[Row]:
        left_iter = iter(self.left)
        right_iter = iter(self.right)
        left_row = next(left_iter, None)
        right_row = next(right_iter, None)
        while left_row is not None and right_row is not None:
            left_key = self._left_key(left_row)
            right_key = self._right_key(right_row)
            self.stats.comparisons += 1
            if left_key < right_key:
                left_row = next(left_iter, None)
            elif right_key < left_key:
                right_row = next(right_iter, None)
            else:
                left_group = [left_row]
                while (
                    left_row := next(left_iter, None)
                ) is not None and self._left_key(left_row) == left_key:
                    left_group.append(left_row)
                right_group = [right_row]
                while (
                    right_row := next(right_iter, None)
                ) is not None and self._right_key(right_row) == left_key:
                    right_group.append(right_row)
                self.stats.rows_materialized += len(left_group) + len(
                    right_group
                )
                for l_row in left_group:
                    for r_row in right_group:
                        combined = l_row + r_row
                        self.stats.comparisons += 1
                        if self._residual is None or self._residual(combined):
                            yield combined

    def describe(self) -> str:
        return f"MergeJoin({self.left_attribute} = {self.right_attribute})"


#: ``a op b`` <=> ``b FLIPPED[op] a``.
_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


class SweepInequalityJoin(BinaryOperator):
    """Sort-and-sweep join on one or two cross-side inequalities plus
    an optional residual predicate.

    Each key is an inequality ``Compare`` between one left and one
    right attribute, in either orientation.  The right rows are sorted
    on key 1 and the left rows swept in key-1 order, chosen so that the
    set of right rows satisfying key 1 only grows.  A right row that
    enters the set is inserted into a workspace ordered on key 2; each
    left row then emits one bisected range of that workspace (the whole
    set for a single key), and the residual filters the combined rows.
    Output is the nested loop's row multiset, duplicates included.

    ``stats.comparisons`` counts the work done: merge-key comparisons
    of the sweep, bisect probes of the workspace, and candidate pairs
    examined (each one a residual evaluation when there is a residual).
    """

    #: Left rows swept between two governance checkpoints.
    CHECK_EVERY = 1024

    def __init__(
        self,
        left: Operator,
        right: Operator,
        keys: Sequence[Compare],
        residual: Optional[Predicate] = None,
    ) -> None:
        super().__init__(left, right, left.schema.concat(right.schema))
        if not 1 <= len(keys) <= 2:
            raise ValueError("a sweep join takes one or two keys")
        self.keys = tuple(keys)
        self.residual = residual
        self._oriented = [self._orient(key) for key in self.keys]
        self._residual = (
            residual.compile_against(self.schema) if residual else None
        )

    def _orient(self, key: Compare):
        """``(left reader, op, right reader)`` with ``left op right``."""
        if not (
            key.is_inequality
            and isinstance(key.left, Attr)
            and isinstance(key.right, Attr)
        ):
            raise ValueError(f"sweep key must compare two attributes: {key}")
        left_schema, right_schema = self.left.schema, self.right.schema
        a, b = key.left.name, key.right.name
        if a in left_schema and b in right_schema:
            return left_schema.reader(a), key.op, right_schema.reader(b)
        if b in left_schema and a in right_schema:
            return (
                left_schema.reader(b),
                _FLIPPED[key.op],
                right_schema.reader(a),
            )
        raise ValueError(f"sweep key must span both join sides: {key}")

    def __iter__(self) -> Iterator[Row]:
        # A named body, so REP008's governed inventory can point at it.
        return self._sweep()

    def _sweep(self) -> Iterator[Row]:
        left_rows = list(self.left)
        right_rows = list(self.right)
        stats = self.stats
        stats.rows_materialized += len(left_rows) + len(right_rows)
        left_key, op, right_key = self._oriented[0]
        # ``L < R`` admits more right rows as L falls: sweep both sides
        # descending.  ``L > R`` admits more as L rises: ascending.
        descending = op in ("<", "<=")
        enters = {"<": gt, "<=": ge, ">": lt, ">=": le}[op]
        right_rows.sort(key=right_key, reverse=descending)
        left_rows.sort(key=left_key, reverse=descending)
        entry_keys = list(map(right_key, right_rows))
        n_right = len(right_rows)
        if len(self._oriented) == 2:
            probe_key, probe_op, workspace_key = self._oriented[1]
        else:
            probe_op = None
        keys: list = []  # workspace, ordered on key 2
        active: list[Row] = []  # its rows, parallel to ``keys``
        residual = self._residual
        entered = 0
        for start in range(0, len(left_rows), self.CHECK_EVERY):
            token = active_token()
            if token is not None:
                token.check()
            for left_row in left_rows[start : start + self.CHECK_EVERY]:
                value = left_key(left_row)
                first = entered
                while entered < n_right and enters(
                    entry_keys[entered], value
                ):
                    entered += 1
                stats.comparisons += entered - first + (entered < n_right)
                if probe_op is None:
                    candidates = right_rows[:entered]
                else:
                    for row in right_rows[first:entered]:
                        stats.comparisons += len(keys).bit_length()
                        at = workspace_key(row)
                        index = bisect_right(keys, at)
                        keys.insert(index, at)
                        active.insert(index, row)
                    stats.comparisons += len(keys).bit_length()
                    value = probe_key(left_row)
                    # ``L op R`` over R ordered ascending: ``<``/``<=``
                    # take a suffix, ``>``/``>=`` a prefix.
                    if probe_op == "<":
                        candidates = active[bisect_right(keys, value) :]
                    elif probe_op == "<=":
                        candidates = active[bisect_left(keys, value) :]
                    elif probe_op == ">":
                        candidates = active[: bisect_left(keys, value)]
                    else:
                        candidates = active[: bisect_right(keys, value)]
                stats.comparisons += len(candidates)
                combined = map(left_row.__add__, candidates)
                if residual is None:
                    yield from combined
                else:
                    yield from filter(residual, combined)

    def describe(self) -> str:
        keys = ", ".join(
            f"key{position}: {key}"
            for position, key in enumerate(self.keys, start=1)
        )
        return (
            f"SweepJoin({keys}"
            + (f", residual={self.residual}" if self.residual else "")
            + ")"
        )
