"""Join results as positional index columns.

Piatov et al. (arXiv:2008.12665) evaluate interval joins over gapless
endpoint columns and report the full join output as positions into
those columns.  :class:`IndexPairs` is that result, shared by every
backend on the query path: two parallel ``array('q')`` columns ``xi``
and ``yj`` where pair ``k`` joins X position ``xi[k]`` with Y position
``yj[k]``.  Semijoins, whose output is a subset of X, carry ``xi``
only (``yj is None``).

Nothing here knows about payloads: a consumer gathers whatever objects
the positions index — query rows, tuples — exactly once, with C-level
``map`` calls, and ``len()`` is O(1) whether or not anyone ever does.
"""

from __future__ import annotations

from array import array
from operator import attrgetter, itemgetter
from typing import Iterable, Optional, Sequence

_surrogate = attrgetter("surrogate")


class IndexPairs:
    """Parallel ``xi``/``yj`` position columns (``yj`` is ``None`` for
    semijoin output)."""

    __slots__ = ("xi", "yj")

    def __init__(self, xi: array, yj: Optional[array] = None) -> None:
        if yj is not None and len(xi) != len(yj):
            raise ValueError(
                "index columns must be positionally aligned "
                f"(got {len(xi)}/{len(yj)})"
            )
        self.xi = xi
        self.yj = yj

    @classmethod
    def of(
        cls, xi: Iterable[int], yj: Optional[Iterable[int]] = None
    ) -> "IndexPairs":
        """Index columns from any integer sequences (kernel lists)."""
        return cls(
            array("q", xi), array("q", yj) if yj is not None else None
        )

    @classmethod
    def from_results(cls, results: Sequence, joined: bool) -> "IndexPairs":
        """Read positions back from tuple-backend output whose
        surrogates are positions (``IntervalColumns.to_tuples``): pairs
        when ``joined``, X tuples otherwise.  One pass per column."""
        if not joined:
            return cls(array("q", map(_surrogate, results)))
        return cls(
            array("q", map(_surrogate, map(itemgetter(0), results))),
            array("q", map(_surrogate, map(itemgetter(1), results))),
        )

    @classmethod
    def concat(cls, chunks: Iterable[tuple], joined: bool) -> "IndexPairs":
        """Concatenate shard chunks ``(first, second, x_base, y_base)``
        of shard-local positions, adding each shard's base offsets."""
        xi = array("q")
        yj = array("q") if joined else None
        for first, second, x_base, y_base in chunks:
            xi.extend(map(x_base.__add__, first) if x_base else first)
            if yj is not None:
                yj.extend(map(y_base.__add__, second) if y_base else second)
        return cls(xi, yj)

    def __len__(self) -> int:
        return len(self.xi)

    def remap(
        self,
        x_ids: Optional[Sequence[int]],
        y_ids: Optional[Sequence[int]] = None,
    ) -> "IndexPairs":
        """Translate positions through per-side id columns (``None``
        keeps a side's positions as they are)."""
        xi = self.xi
        if x_ids is not None:
            xi = array("q", map(x_ids.__getitem__, xi))
        yj = self.yj
        if yj is not None and y_ids is not None:
            yj = array("q", map(y_ids.__getitem__, yj))
        return IndexPairs(xi, yj)

    def swapped(self) -> "IndexPairs":
        """The same pairs with the operands exchanged."""
        if self.yj is None:
            raise ValueError("semijoin output has no second column")
        return IndexPairs(self.yj, self.xi)

    def gather(
        self, x_items: Sequence, y_items: Optional[Sequence] = None
    ) -> list:
        """The indexed objects: ``(x, y)`` pairs for a join, X items for
        a semijoin."""
        xs = map(x_items.__getitem__, self.xi)
        if self.yj is None:
            return list(xs)
        if y_items is None:
            raise ValueError("pair output needs the Y items to gather")
        return list(zip(xs, map(y_items.__getitem__, self.yj)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IndexPairs):
            return NotImplemented
        return self.xi == other.xi and self.yj == other.yj

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        shape = "pairs" if self.yj is not None else "positions"
        return f"IndexPairs(n={len(self.xi)}, {shape})"
