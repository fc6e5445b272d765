"""Seeded input generation for the benchmark workloads.

Everything the platform receives is made here from ``--seed``: object
ids and initial document sizes, arrival times, object picks and the
per-operation payloads.  The same seed always yields the same inputs;
the platform itself never sees the seed.

Traffic is organised in *rounds*.  A round is one ``period_s`` slice of
simulated time holding a fixed number of operations: ``base_ops``
spread over the whole period plus ``burst_ops`` packed into a burst
window, so every round carries a burst of several times the base rate.
The burst's start is drawn anew each round, so it falls at every phase
of the platform's periodic loops (autoscaler ticks, scrapes, snapshot
cuts) rather than always at the same one.  A fixed count per round
keeps the attempted-operation total a whole multiple of the round size
whatever the seed.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass

#: Operation kinds.  ``get`` is ``GET /api/objects/{id}``, ``peek`` a
#: read-only invoke, ``add`` an async write, ``query`` a keySpec range
#: query.
GET, PEEK, ADD, QUERY = "get", "peek", "add", "query"


@dataclass(frozen=True)
class Op:
    """One generated operation."""

    seq: int
    due: float
    kind: str
    obj: str
    n: int = 0
    cost_s: float = 0.0
    #: ``query`` only: the rank, among the class's totals at the start
    #: of the round, whose value becomes the ``total>=`` threshold, so a
    #: query matches about ``rank`` objects however far totals have grown.
    rank: int = 0


@dataclass(frozen=True)
class TrafficSpec:
    """The shape of one workload's traffic."""

    period_s: float
    base_ops: int
    burst_ops: int
    burst_len_s: float
    #: Zipf exponent of object popularity; 0 picks uniformly.
    zipf_s: float
    #: ``(kind, weight)`` pairs of the operation mix.
    mix: tuple[tuple[str, float], ...]
    #: Median handler service time of ``peek`` and ``add`` (lognormal).
    peek_cost_s: float = 0.0015
    add_cost_s: float = 0.0025
    cost_sigma: float = 0.35
    max_add: int = 9
    query_ranks: tuple[int, int] = (10, 150)

    @property
    def round_ops(self) -> int:
        return self.base_ops + self.burst_ops


class ObjectPicker:
    """Zipf (or uniform) picks over a seeded permutation of ``ids``, so
    the hottest objects differ from seed to seed."""

    def __init__(self, ids: list[str], zipf_s: float, rng: random.Random) -> None:
        self.ids = list(ids)
        rng.shuffle(self.ids)
        self._cumulative: list[float] = []
        total = 0.0
        for rank in range(len(self.ids)):
            total += 1.0 / (rank + 1) ** zipf_s if zipf_s else 1.0
            self._cumulative.append(total)
        self._total = total

    def pick(self, rng: random.Random) -> str:
        index = bisect.bisect_left(self._cumulative, rng.random() * self._total)
        return self.ids[min(index, len(self.ids) - 1)]


class TrafficGenerator:
    """Produces the operations of round ``k`` on demand."""

    def __init__(self, spec: TrafficSpec, ids: list[str], seed: int) -> None:
        self.spec = spec
        self.rng = random.Random(f"traffic:{seed}")
        self.picker = ObjectPicker(ids, spec.zipf_s, random.Random(f"picks:{seed}"))
        kinds, weights = zip(*spec.mix)
        self._kinds = list(kinds)
        self._cum_weights = []
        total = 0.0
        for weight in weights:
            total += weight
            self._cum_weights.append(total)
        self._seq = 0

    def _cost(self, median: float) -> float:
        return median * self.rng.lognormvariate(0.0, self.spec.cost_sigma)

    def round(self, index: int) -> list[Op]:
        spec = self.spec
        rng = self.rng
        start = index * spec.period_s
        times = [start + rng.random() * spec.period_s for _ in range(spec.base_ops)]
        burst_at = start + rng.random() * (spec.period_s - spec.burst_len_s)
        times += [burst_at + rng.random() * spec.burst_len_s for _ in range(spec.burst_ops)]
        times.sort()
        ops = []
        for due in times:
            kind = rng.choices(self._kinds, cum_weights=self._cum_weights)[0]
            self._seq += 1
            obj = self.picker.pick(rng)
            if kind == ADD:
                op = Op(self._seq, due, kind, obj, n=rng.randint(1, spec.max_add),
                        cost_s=self._cost(spec.add_cost_s))
            elif kind == PEEK:
                op = Op(self._seq, due, kind, obj, cost_s=self._cost(spec.peek_cost_s))
            elif kind == QUERY:
                op = Op(self._seq, due, kind, obj, rank=rng.randint(*spec.query_ranks))
            else:
                op = Op(self._seq, due, kind, obj)
            ops.append(op)
        return ops


#: Initial totals are drawn from ``[0, INITIAL_TOTAL_MAX]``: spread out
#: from the start, so a range query's match count follows its rank
#: instead of a pile of ties at zero.
INITIAL_TOTAL_MAX = 100_000


def initial_docs(count: int, seed: int, pad_range: tuple[int, int]) -> list[tuple[int, int]]:
    """Seeded ``(padding length, initial total)`` per object; the
    padding sets the document size."""
    rng = random.Random(f"docs:{seed}")
    return [
        (rng.randint(*pad_range), rng.randint(0, INITIAL_TOTAL_MAX)) for _ in range(count)
    ]
