"""Outputs checks: exact conservation and result-set equality.

Conservation, per query: every (query, event) pair the agent was meant
to ship is either counted in the query's results or named as a loss —
late at central, dropped at the host buffer, shed by the governor, or
dropped by the transport.  Any shortfall fails the run; losses are
failures, never silently absent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

__all__ = ["QueryTally", "conservation", "count_column", "normalized", "signature"]


@dataclass
class QueryTally:
    """What one query was meant to deliver and what it reports."""

    query_id: str
    kind: str            # "count" or "join"
    attempted: int       # (query, event) pairs the agent matched
    delivered: int       # pairs the results account for; join: joined rows
    late: int            # results' total_late_events
    dropped: int         # host buffer drops (agent QueryStats)
    shed: int            # governor sheds (agent QueryStats)
    expected_rows: int = 0  # join: rows a lossless run yields

    @property
    def lost(self) -> int:
        return self.late + self.dropped + self.shed


def conservation(
    tallies: Iterable[QueryTally], transport_dropped: int
) -> tuple[int, int, list[str]]:
    """Returns ``(attempted, failed, errors)``; the run is correct only
    when *errors* is empty.

    Every non-join query's ``delivered + lost`` must equal its
    ``attempted`` but for transport drops.  The transport counts its
    drops only in total, so they are reconciled across queries: without
    a join query the summed shortfall must equal them exactly; with one,
    what the other queries do not explain falls to the join queries,
    and may not exceed what they attempted.  A join query's row count
    must equal the lossless expectation when it lost nothing, and may
    fall short by at most its losses otherwise (one lost event breaks
    at most one joined row).
    """
    tallies = list(tallies)
    errors: list[str] = []
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.lost for t in tallies) + transport_dropped
    joins = [t for t in tallies if t.kind == "join"]
    shortfall = 0
    for t in tallies:
        if t.kind == "join":
            continue
        gap = t.attempted - t.delivered - t.lost
        if gap < 0:
            errors.append(
                f"{t.query_id}: {t.delivered} delivered + {t.lost} lost exceeds "
                f"{t.attempted} attempted"
            )
        shortfall += gap
    join_transport = transport_dropped - shortfall
    join_room = sum(t.attempted - t.lost for t in joins)
    if not 0 <= join_transport <= join_room:
        errors.append(
            f"conservation: {shortfall} pair(s) unaccounted for against "
            f"{transport_dropped} transport drop(s)"
        )
    join_lost = sum(t.lost for t in joins) + max(0, join_transport)
    for t in joins:
        if not t.expected_rows - join_lost <= t.delivered <= t.expected_rows:
            errors.append(
                f"{t.query_id}: {t.delivered} joined rows outside "
                f"[{t.expected_rows - join_lost}, {t.expected_rows}]"
            )
    return attempted, failed, errors


def normalized(results: Any) -> list[tuple]:
    """Window-order and row-order independent view of a ResultSet."""
    return sorted(
        (w.window_start, tuple(sorted((repr(row.values) for row in w.rows))))
        for w in results.windows
    )


def signature(results: Any) -> str:
    """Everything a result set carries, for bit-identical comparison."""
    extra = [(w.window_start, w.contributing_hosts) for w in results.windows]
    return results.to_json() + "|" + repr(extra)


def count_column(results: Any, column: str = "COUNT(*)") -> float:
    """Sum of a COUNT column over every window and row."""
    index = list(results.columns).index(column)
    return sum(row.values[index] for w in results.windows for row in w.rows)

