"""Columnar interval storage for the batch-sweep backend.

Piatov et al. ("Cache-Efficient Sweeping-Based Interval Joins for
Extended Allen Relation Predicates", arXiv:2008.12665) observe that the
sweep algorithms of the source paper run an order of magnitude faster
when the operand relations are held as *gapless parallel columns* of
interval endpoints instead of streams of record objects: the sweep then
touches two machine-word arrays sequentially and the per-element work is
a handful of integer comparisons.

:class:`IntervalColumns` is that representation: three parallel columns

* ``ts`` — ValidFrom endpoints (``array('q')``),
* ``te`` — ValidTo endpoints (``array('q')``),
* ``payload`` — the original :class:`~repro.model.tuples.TemporalTuple`
  objects, positionally aligned with the endpoint columns,

sorted by a :class:`~repro.model.sortorder.SortOrder`.  Kernels in
:mod:`repro.columnar.kernels` operate on the endpoint columns only and
return positional indexes; payloads are materialised once per output.

On the query path the columns come straight from the join's child rows
(:meth:`IntervalColumns.from_rows`) with no payload at all: a sort is a
stable argsort whose permutation is kept as the ``ids`` column, and
join results (:class:`~repro.columnar.pairs.IndexPairs`) map back to
the child rows through it.
"""

from __future__ import annotations

from array import array
from itertools import islice, repeat
from operator import ge, itemgetter, le, neg
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

from ..errors import InvalidIntervalError, PlanningError, StreamOrderError
from ..governance.budget import active_token
from ..model.interval import first_invalid_lifespan
from ..model.sortorder import Direction, SortAttribute, SortOrder, sort_tuples
from ..model.tuples import TemporalTuple

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..relational.schema import Row, RowSchema


class IntervalColumns:
    """A relation as parallel ``(TS, TE, payload)`` columns.

    The endpoint columns are gapless: position ``i`` of ``ts``/``te``
    always describes ``payload[i]``, and deleted entries never leave
    holes (kernels compact their *active lists* lazily instead, per
    Piatov et al.).

    Endpoint columns are any int64 buffer the kernels can index — an
    ``array('q')``, or a ``memoryview`` cast to ``'q'`` over a
    ``multiprocessing.shared_memory`` segment (the zero-copy shard
    runtime maps published columns read-only this way).  ``payload``
    may be ``None`` for such endpoint-only views: kernels return
    positional indexes, and the payloads materialise lazily on
    whichever side of the process boundary owns the tuple objects.

    ``ids`` maps each position to the position it had in the columns
    this one was sorted from (``None``: unsorted, positions are ids).
    """

    __slots__ = ("ts", "te", "payload", "order", "name", "ids")

    def __init__(
        self,
        ts: Sequence[int],
        te: Sequence[int],
        payload: Optional[Sequence[TemporalTuple]],
        order: Optional[SortOrder],
        name: str = "columns",
        ids: Optional[Sequence[int]] = None,
    ) -> None:
        if (
            len(ts) != len(te)
            or (payload is not None and len(payload) != len(ts))
            or (ids is not None and len(ids) != len(ts))
        ):
            payload_len = "-" if payload is None else len(payload)
            raise ValueError(
                "endpoint and payload columns must be positionally "
                f"aligned (got {len(ts)}/{len(te)}/{payload_len})"
            )
        self.ts = ts
        self.te = te
        self.payload = payload
        self.order = order
        self.name = name
        self.ids = ids

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_tuples(
        cls,
        tuples: Iterable[TemporalTuple],
        order: Optional[SortOrder] = None,
        name: str = "columns",
        presorted: bool = False,
    ) -> "IntervalColumns":
        """Columnise ``tuples``; sorts by ``order`` unless the caller
        vouches for the input with ``presorted=True``."""
        rows = list(tuples)
        if order is not None and not presorted:
            rows = sort_tuples(rows, order)
        ts = array("q", (t.valid_from for t in rows))
        te = array("q", (t.valid_to for t in rows))
        return cls(ts, te, rows, order, name=name)

    @classmethod
    def from_rows(
        cls, rows: Sequence["Row"], schema: "RowSchema", variable: str
    ) -> "IntervalColumns":
        """Endpoint columns of range variable ``variable`` read straight
        from query rows — no tuples, no payload.

        Projection pushdown may have pruned an endpoint the recognised
        operator never reads (Before/After mention only one endpoint
        per side); the missing one is synthesised one timepoint away,
        which keeps every lifespan well formed without affecting the
        operator's predicate.  Raises
        :class:`~repro.errors.InvalidIntervalError` on a row violating
        ``ValidFrom < ValidTo``.
        """
        from_name = f"{variable}.ValidFrom"
        to_name = f"{variable}.ValidTo"
        has_from = from_name in schema
        has_to = to_name in schema
        if not has_from and not has_to:
            raise PlanningError(
                f"neither endpoint of {variable!r} survives in the schema"
            )
        if has_from:
            read_from = itemgetter(schema.index_of(from_name))
            ts = array("q", map(read_from, rows))
        if has_to:
            read_to = itemgetter(schema.index_of(to_name))
            te = array("q", map(read_to, rows))
        if not has_from:
            ts = array("q", map((-1).__add__, te))
        if not has_to:
            te = array("q", map((1).__add__, ts))
        bad = first_invalid_lifespan(ts, te)
        if bad is not None:
            raise InvalidIntervalError(
                f"interval requires start < end, got [{ts[bad]}, {te[bad]})"
            )
        token = active_token()
        if token is not None:
            # The bridge is a whole-input batch pass: a checkpoint, as
            # a stream pass boundary is.
            token.check()
        return cls(ts, te, None, None, name=variable)

    @classmethod
    def from_views(
        cls,
        ts: Sequence[int],
        te: Sequence[int],
        order: Optional[SortOrder] = None,
        name: str = "columns",
    ) -> "IntervalColumns":
        """Endpoint-only columns over existing buffers (typically
        shared-memory ``memoryview`` slices); no payloads, no copy."""
        return cls(ts, te, None, order, name=name)

    # ------------------------------------------------------------------
    # derivation
    # ------------------------------------------------------------------
    def sorted_by(self, order: SortOrder) -> "IntervalColumns":
        """These columns in ``order``: a stable argsort (the multi-key
        pass structure of :func:`~repro.model.sortorder.sort_tuples`,
        so ties keep their input order exactly as the tuple sort
        does), applied to every column, with the permutation composed
        into ``ids``.  Already-ordered input is not copied."""
        n = len(self.ts)
        permutation = list(range(n))
        for key in reversed(order.keys):
            permutation.sort(
                key=self._column_of(key.attribute).__getitem__,
                reverse=key.direction is Direction.DESC,
            )
        token = active_token()
        if token is not None:
            token.check()  # a sort is a batch pass too
        if permutation == list(range(n)):
            return IntervalColumns(
                self.ts, self.te, self.payload, order, self.name, self.ids
            )
        ids = self.ids
        return IntervalColumns(
            array("q", map(self.ts.__getitem__, permutation)),
            array("q", map(self.te.__getitem__, permutation)),
            (
                list(map(self.payload.__getitem__, permutation))
                if self.payload is not None
                else None
            ),
            order,
            self.name,
            array(
                "q",
                permutation
                if ids is None
                else map(ids.__getitem__, permutation),
            ),
        )

    def mirrored(self) -> "IntervalColumns":
        """Time reversal, ``[TS, TE) -> [-TE, -TS)``, position for
        position: what ``mirror_stream`` feeds a lower-half cell's
        batch kernel.  Payload-free (positions do not change)."""
        return IntervalColumns(
            array("q", map(neg, self.te)),
            array("q", map(neg, self.ts)),
            None,
            self.order.mirrored() if self.order is not None else None,
            f"mirror({self.name})",
            self.ids,
        )

    def _column_of(self, attribute: SortAttribute) -> Sequence[int]:
        if attribute is SortAttribute.VALID_FROM:
            return self.ts
        if attribute is SortAttribute.VALID_TO:
            return self.te
        raise PlanningError(
            f"columns {self.name!r} hold endpoints only; cannot sort on "
            f"{attribute.value!r}"
        )

    def iter_tuples(self) -> Iterator[TemporalTuple]:
        """Payload-free tuples whose surrogate is their position — what
        tuple-at-a-time operators read, built only when one runs."""
        return map(
            TemporalTuple, range(len(self.ts)), repeat(None), self.ts, self.te
        )

    def to_tuples(self) -> list:
        """:meth:`iter_tuples`, materialised (for multi-pass readers:
        nested loops, the resilience ladder, the inline partitioner)."""
        return list(self.iter_tuples())

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.ts)

    def verify_order(self) -> None:
        """Check the endpoint columns against the declared sort order,
        columnar-ly (no per-tuple attribute extraction).

        Raises :class:`~repro.errors.StreamOrderError` on the first
        violation — the batch backend's counterpart of the verifying
        stream cursor.
        """
        if self.order is None:
            return
        keys = []
        for sort_key in self.order.keys:
            if sort_key.attribute is SortAttribute.VALID_FROM:
                column: Sequence[int] = self.ts
            elif sort_key.attribute is SortAttribute.VALID_TO:
                column = self.te
            else:
                # Non-endpoint components have no column; fall back to
                # the tuple-level check for the whole order (requires
                # payloads — endpoint-only views have none to check).
                if self.payload is not None and not self.order.is_sorted(
                    list(self.payload)
                ):
                    raise StreamOrderError(
                        f"columns {self.name!r} violate declared order "
                        f"[{self.order}]"
                    )
                return
            keys.append((column, sort_key.direction is Direction.DESC))
        if len(keys) == 1:
            column, descending = keys[0]
            in_order = ge if descending else le
            if all(map(in_order, column, islice(column, 1, None))):
                return  # one C-level pass; the loop locates violations
        for i in range(1, len(self.ts)):
            for column, descending in keys:
                a, b = column[i - 1], column[i]
                if a == b:
                    continue
                if (a < b) == (not descending):
                    break  # strictly ordered on this key: pair is fine
                before = (
                    self.payload[i - 1]
                    if self.payload is not None
                    else f"({self.ts[i - 1]}, {self.te[i - 1]})"
                )
                after = (
                    self.payload[i]
                    if self.payload is not None
                    else f"({self.ts[i]}, {self.te[i]})"
                )
                raise StreamOrderError(
                    f"columns {self.name!r} declared order "
                    f"[{self.order}] but position {i - 1} holds "
                    f"{before} before {after}"
                )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IntervalColumns({self.name!r}, n={len(self)}, "
            f"order={self.order})"
        )

