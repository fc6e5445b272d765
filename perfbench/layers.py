"""The per-layer metrics of a traced run, and how each is computed.

Volume counts (requests, gets, frames, ...) are totals over the traced
run's timed phase; a traced run lasts ``--seconds`` like any other, so
they grow with throughput.  Costs are per operation or per unit of work.
``*.self_s`` is a layer's wall self time over the timed phase (see
spans.py).  ``*_sim_*`` values are simulated time.  A layer a workload
does not exercise reads 0.
"""

from __future__ import annotations

from measure import percentile
from spans import REPORTED, Observers, SpanRecorder

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("kernel.events", "count", "higher"),
    ("kernel.events_per_op", "events/op", "lower"),
    ("gateway.requests", "count", "higher"),
    ("engine.invocations", "count", "higher"),
    ("engine.commit_retries", "count", "lower"),
    ("async.submitted", "count", "higher"),
    ("async.wait_sim_p99_ms", "ms", "lower"),
    ("faas.cold_starts", "count", "lower"),
    ("faas.replicas_peak", "count", "lower"),
    ("faas.slot_wait_sim_p99_ms", "ms", "lower"),
    ("dht.gets", "count", "higher"),
    ("dht.puts", "count", "higher"),
    ("dht.hit_ratio", "ratio", "higher"),
    ("dht.evictions", "count", "lower"),
    ("deepcopy.calls", "count", "lower"),
    ("store.reads", "count", "higher"),
    ("store.writes", "count", "higher"),
    ("store.units", "units", "lower"),
    ("query.docs_scanned_per_row", "docs/row", "lower"),
    ("write_behind.batches", "count", "higher"),
    ("write_behind.docs_per_batch", "docs/batch", "higher"),
    ("write_behind.blocked_enqueues", "count", "lower"),
    ("snapshot.cuts", "count", "higher"),
    ("snapshot.writer_stall_sim_ms", "ms", "lower"),
    ("scraper.scrapes", "count", "higher"),
    ("httpfront.requests", "count", "higher"),
    ("codec.frames", "count", "higher"),
    ("codec.bytes_per_frame", "bytes/frame", "lower"),
    ("dispatch.wait_p50_ms", "ms", "lower"),
    ("dht.sizing_s", "s", "lower"),
    *((f"{layer}.self_s", "s", "lower") for layer in REPORTED if layer != "dht.sizing"),
    ("tracing.overhead_pct", "%", "lower"),
)


def compute(
    rec: SpanRecorder,
    obs: Observers,
    since: float,
    counters: dict[str, float],
    ops: int,
    extra: dict[str, float],
) -> dict[str, float]:
    """Assemble every per-layer metric.  ``counters`` are deltas of the
    program's public counters over the timed phase, ``extra`` carries
    what only the driver knows (async waits, peak replicas, query rows).
    ``tracing.overhead_pct`` is added by run.py."""
    self_s = rec.self_seconds(since)
    events = rec.span_count("kernel", since)
    hits, misses = counters.get("dht.mem_hits", 0.0), counters.get("dht.mem_misses", 0.0)
    batches = counters.get("write_behind.batches", 0.0)
    rows = extra.get("query.rows", 0.0)
    out = {
        "kernel.events": float(events),
        "kernel.events_per_op": events / ops if ops else 0.0,
        "gateway.requests": counters.get("gateway.requests", 0.0),
        "engine.invocations": counters.get("engine.invocations", 0.0),
        "engine.commit_retries": counters.get("engine.commit_retries", 0.0),
        "async.submitted": counters.get("async.submitted", 0.0),
        "async.wait_sim_p99_ms": extra.get("async.wait_sim_p99_ms", 0.0),
        "faas.cold_starts": counters.get("faas.cold_starts", 0.0),
        "faas.replicas_peak": extra.get("faas.replicas_peak", 0.0),
        "faas.slot_wait_sim_p99_ms": percentile(obs.slot_waits, 99) * 1000.0,
        "dht.gets": counters.get("dht.gets", 0.0),
        "dht.puts": counters.get("dht.puts", 0.0),
        "dht.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "dht.evictions": counters.get("dht.evictions", 0.0),
        "deepcopy.calls": float(rec.counts["deepcopy.calls"]),
        "store.reads": counters.get("store.reads", 0.0),
        "store.writes": counters.get("store.writes", 0.0),
        "store.units": counters.get("store.units", 0.0),
        "query.docs_scanned_per_row": (
            counters.get("store.query_docs_scanned", 0.0) / rows if rows else 0.0
        ),
        "write_behind.batches": batches,
        "write_behind.docs_per_batch": (
            counters.get("write_behind.docs", 0.0) / batches if batches else 0.0
        ),
        "write_behind.blocked_enqueues": counters.get("write_behind.blocked_enqueues", 0.0),
        "snapshot.cuts": counters.get("snapshot.cuts", 0.0),
        "snapshot.writer_stall_sim_ms": (
            sum(obs.cut_windows) / len(obs.cut_windows) * 1000.0 if obs.cut_windows else 0.0
        ),
        "scraper.scrapes": counters.get("scraper.scrapes", 0.0),
        "httpfront.requests": counters.get("httpfront.requests", 0.0),
        "codec.frames": float(obs.frames),
        "codec.bytes_per_frame": obs.frame_bytes / obs.frames if obs.frames else 0.0,
        "dispatch.wait_p50_ms": percentile(obs.dispatch_waits, 50) * 1000.0,
        "dht.sizing_s": self_s.get("dht.sizing", 0.0),
    }
    for layer in REPORTED:
        if layer != "dht.sizing":
            out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    return out
