"""Correctness oracles computed apart from the program.

The benchmark keeps its own fold of the writes it issued: ``submitted``
sums every ``add`` the moment it is sent, ``acked`` only once the
platform acknowledged it.  A read issued when ``acked`` stood at ``f``
must return a ``total`` of at least ``f`` (a later read never goes back
in time) and at most ``submitted`` at the read's completion (no write is
applied twice).  After the drain every object's ``total`` must equal the
fold.  Range queries are checked against their own predicate, order and
limit, and after the drain against a filter-and-sort of the fold.
"""

from __future__ import annotations

import sys
from collections import defaultdict


class Fold:
    """The benchmark's own record of acknowledged writes."""

    def __init__(self) -> None:
        self.submitted: dict[str, int] = defaultdict(int)
        self.acked: dict[str, int] = defaultdict(int)
        self.violations: list[str] = []

    def seed(self, obj: str, total: int) -> None:
        """Record an object's initial total."""
        self.submitted[obj] = self.acked[obj] = total

    def submit(self, obj: str, n: int) -> None:
        self.submitted[obj] += n

    def ack(self, obj: str, n: int) -> None:
        self.acked[obj] += n

    def check_read(self, obj: str, floor: int, total: object, label: str) -> bool:
        """True when a read of ``obj`` issued at ``floor`` returned a
        plausible ``total``; records the violation otherwise."""
        ceiling = self.submitted[obj]
        if isinstance(total, int) and floor <= total <= ceiling:
            return True
        self.violations.append(
            f"{label} {obj}: total={total!r}, acked-before-issue={floor}, "
            f"submitted={ceiling}"
        )
        return False

    def check_final(self, obj: str, total: object) -> bool:
        expected = self.acked[obj]
        if total == expected:
            return True
        self.violations.append(f"final {obj}: total={total!r}, fold={expected}")
        return False


def check_query_rows(rows: list[dict], threshold: int, limit: int) -> str | None:
    """A range query's rows satisfy ``total >= threshold``, are ordered
    by ``total`` and respect the limit; returns the problem or None."""
    if len(rows) > limit:
        return f"{len(rows)} rows over limit {limit}"
    totals = []
    for row in rows:
        total = (row.get("state") or {}).get("total")
        if not isinstance(total, int) or total < threshold:
            return f"row {row.get('id')} total={total!r} fails total>={threshold}"
        totals.append(total)
    if totals != sorted(totals):
        return f"rows not ordered by total: {totals}"
    return None


def expected_query(totals: dict[str, int], threshold: int, limit: int) -> list[int]:
    """The ``total`` column a ``where=total>=t&order=total&limit=n``
    query must return, from the fold alone."""
    return sorted(t for t in totals.values() if t >= threshold)[:limit]


def outcome(attempted: int, failed: int, problems: list[str], metrics: dict) -> dict:
    """The result line's body; every problem is reported on stderr."""
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
