"""The three Quel workloads: catalog generators, query texts and the
independent correctness references.

Every catalog is a pure function of ``(seed, scale)``.  The program
under test receives only the generated catalog.  The references share
no code with the stream engine: the join workloads use the
sort-plus-bisect oracle below, and Superstar uses the conventional
engine.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, Mapping

JOIN_QUERY = (
    "range of a is X range of b is Y "
    "retrieve (A = a.Seq, B = b.Seq) where a {operator} b"
)

#: Relation sizes per scale.  ``full`` is the measured benchmark,
#: ``tiny`` the smoke mode (same code paths, a few seconds in total).
#: The relations are smaller than the workloads were first specified
#: with (fig5 50k, tab2 100k, faculty 1000), so a query takes about
#: half a second and a run times a dozen of each configuration: a
#: median of a few multi-second queries spread past the regression
#: bounds on a shared host.  Rows per input tuple, and so each layer's
#: share, are unchanged.
SIZES = {
    "full": {"fig5": 8000, "tab2": 16_000, "faculty": 600},
    "tiny": {"fig5": 1500, "tab2": 3000, "faculty": 40},
}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a query over a generated catalog."""

    name: str
    why: str
    query: str
    semantic: bool
    make_catalog: Callable[[int, str], Dict[str, object]]
    #: Computes the expected row multiset from the catalog.  Runs once
    #: per process, outside every timer and outside set-up.
    reference: Callable[[Mapping[str, object]], Counter]


def _sub_seeds(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(2**31) for _ in range(count)]


def _validated(relation, cardinality: int):
    if len(relation) != cardinality:
        raise ValueError(
            f"{relation.schema.name}: generated {len(relation)} tuples, "
            f"expected {cardinality}"
        )
    relation.enforce()
    return relation


def fig5_catalog(seed: int, scale: str) -> Dict[str, object]:
    from repro.workload import PoissonWorkload, fixed_duration

    n = SIZES[scale]["fig5"]
    x_seed, y_seed = _sub_seeds(seed, 2)
    x = PoissonWorkload(n, 0.5, fixed_duration(10), name="X").generate(x_seed)
    y = PoissonWorkload(n, 0.5, fixed_duration(40), name="Y").generate(y_seed)
    return {"X": _validated(x, n), "Y": _validated(y, n)}


def tab2_catalog(seed: int, scale: str) -> Dict[str, object]:
    from repro.model.relation import TemporalRelation
    from repro.workload import PoissonWorkload, uniform_duration

    n = SIZES[scale]["tab2"]
    x_seed, y_seed, shuffle_seed = _sub_seeds(seed, 3)
    rng = random.Random(shuffle_seed)
    catalog = {}
    for name, sub_seed in (("X", x_seed), ("Y", y_seed)):
        generated = PoissonWorkload(
            n, 0.2, uniform_duration(1, 3), name=name
        ).generate(sub_seed)
        tuples = list(generated.tuples)
        rng.shuffle(tuples)
        catalog[name] = _validated(
            TemporalRelation(generated.schema, tuples), n
        )
    return catalog


def superstar_catalog(seed: int, scale: str) -> Dict[str, object]:
    from repro.workload import FacultyWorkload

    count = SIZES[scale]["faculty"]
    # FacultyWorkload.generate enforces the Section-5 constraints.
    faculty = FacultyWorkload(
        count, hire_window=10 * count, continuous=True, full_fraction=1.0
    ).generate(_sub_seeds(seed, 1)[0])
    return {"Faculty": _validated(faculty, 3 * count)}


def _intervals(relation) -> list[tuple[int, int, int]]:
    """(ValidFrom, ValidTo, Seq) per tuple; Seq is the generator's
    value attribute, which the join queries project."""
    return [(t.valid_from, t.valid_to, t.value) for t in relation.tuples]


def interval_join_oracle(xs, ys, predicate: str) -> Counter:
    """Expected ``(x.Seq, y.Seq)`` multiset of ``x <predicate> y`` over
    half-open intervals, by sorting Y on ValidFrom and bisecting.

    ``ys`` longest duration bounds how far before ``x`` a match can
    start, so every candidate window is exact for any input.
    """
    ys = sorted(ys)
    starts = [ts for ts, _, _ in ys]
    longest = max((te - ts for ts, te, _ in ys), default=0)
    out: Counter = Counter()
    for x_ts, x_te, x_seq in xs:
        if predicate == "during":
            # y.ts < x.ts and x.te < y.te (so y.ts > x.te - longest)
            lo = bisect_right(starts, x_te - longest)
            hi = bisect_left(starts, x_ts)
            matches = (seq for _, te, seq in ys[lo:hi] if te > x_te)
        elif predicate == "overlap":
            # x.ts < y.te and y.ts < x.te (so y.ts > x.ts - longest)
            lo = bisect_right(starts, x_ts - longest)
            hi = bisect_left(starts, x_te)
            matches = (seq for _, te, seq in ys[lo:hi] if te > x_ts)
        else:
            raise ValueError(f"oracle has no predicate {predicate!r}")
        for y_seq in matches:
            out[(x_seq, y_seq)] += 1
    return out


def _join_reference(predicate: str):
    def reference(catalog: Mapping[str, object]) -> Counter:
        return interval_join_oracle(
            _intervals(catalog["X"]), _intervals(catalog["Y"]), predicate
        )

    return reference


def _superstar_reference(catalog: Mapping[str, object]) -> Counter:
    from repro.query import run_query
    from repro.superstar.queries import SUPERSTAR_QUEL

    conventional = run_query(
        SUPERSTAR_QUEL, catalog, streams=False, semantic=False
    )
    return Counter(conventional.rows)


def _superstar_query() -> str:
    from repro.superstar.queries import SUPERSTAR_QUEL

    return SUPERSTAR_QUEL


def workloads() -> Dict[str, Workload]:
    """Name -> workload, in the order the benchmark lists them."""
    return {
        "fig5-during": Workload(
            name="fig5-during",
            why=(
                "output-heavy Contain-join (~14 rows per input tuple): "
                "pair expansion, row gather, projection and GC dominate"
            ),
            query=JOIN_QUERY.format(operator="during"),
            semantic=False,
            make_catalog=fig5_catalog,
            reference=_join_reference("during"),
        ),
        "tab2-overlap-shuffled": Workload(
            name="tab2-overlap-shuffled",
            why=(
                "input-heavy unsorted overlap join (~0.3 rows per input "
                "tuple): scans, bridge, statistics, planning and sort "
                "dominate"
            ),
            query=JOIN_QUERY.format(operator="overlap"),
            semantic=False,
            make_catalog=tab2_catalog,
            reference=_join_reference("overlap"),
        ),
        "fig8-superstar": Workload(
            name="fig8-superstar",
            why=(
                "Superstar with the semantic rewrite: no stream join is "
                "recognised, theta nested loops dominate, so backend "
                "work must show no change"
            ),
            query=_superstar_query(),
            semantic=True,
            make_catalog=superstar_catalog,
            reference=_superstar_reference,
        ),
    }
