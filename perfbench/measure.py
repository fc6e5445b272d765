"""End-to-end figures from per-round samples.

A run is many rounds of the same shape, so each wall-clock figure is
taken per round and the run reports the median over its timed rounds:
a few seconds of interference from other tenants of the host move one
round, not the result.  Simulated latencies are deterministic and are
pooled over a fixed set of rounds instead (see sim.py).  Peak memory is
read once a fixed amount of work is done, not at the end of the run, so
a faster program that fits more rounds into ``--seconds`` is not
charged for the extra rounds.
"""

from __future__ import annotations

import resource
import statistics
from dataclasses import dataclass, field


def peak_rss_mb() -> float:
    """This process's peak resident set so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, min(len(ordered), round(pct / 100.0 * len(ordered) + 0.5)))
    return ordered[rank - 1]


@dataclass
class RoundSample:
    """What one timed round took: its operation count, wall and CPU
    seconds, and the wall latency of each of its operations."""

    ops: int
    wall_s: float
    cpu_s: float = 0.0
    latencies_ms: list[float] = field(default_factory=list)


def per_round_medians(rounds: list[RoundSample]) -> dict[str, float]:
    """``ops_per_s``, ``wall_p50_ms``, ``wall_p90_ms`` and
    ``cpu_ms_per_op`` as medians over rounds."""
    return {
        "ops_per_s": statistics.median(r.ops / r.wall_s for r in rounds),
        "wall_p50_ms": statistics.median(percentile(r.latencies_ms, 50) for r in rounds),
        "wall_p90_ms": statistics.median(percentile(r.latencies_ms, 90) for r in rounds),
        "cpu_ms_per_op": statistics.median(r.cpu_s * 1000.0 / r.ops for r in rounds),
    }
