"""The two simulated workloads, driven open-loop on the sim clock.

Each operation is started by an arrival process at its due time and
timed from that due time to its completion, so a stall also delays the
operations queued behind it.  Reads are synchronous gateway requests;
writes are ``add`` calls submitted to the platform's async invoker,
which orders each object's writes (synchronous writes to a hot object
would exhaust the engine's CAS retry budget by design).
"""

from __future__ import annotations

import gc
import math
import statistics
from dataclasses import dataclass, field
from time import perf_counter, process_time

from inputs import ADD, GET, PEEK, QUERY, Op, TrafficGenerator, TrafficSpec, initial_docs
from measure import RoundSample, peak_rss_mb
from oracle import Fold, check_query_rows, expected_query
from probe import OPS_PER_ROUND, StaleInstallProbe

#: Rounds run before timing starts (cold starts, DHT and pod warm-up).
WARMUP_ROUNDS = 2
#: Rounds after warm-up whose simulated latencies are reported.  Every
#: run completes at least this many plus :data:`TAIL_ROUNDS`, so the
#: simulated percentiles of one seed never depend on wall speed.
SIM_ROUNDS = 120
#: Extra rounds that must exist after the reported ones, so every
#: reported operation completes under the same later arrivals.
TAIL_ROUNDS = 3
#: Simulated seconds the drain may take before the run is declared stuck.
DRAIN_LIMIT_S = 120.0
QUERY_LIMIT = 10
#: Ranks (1 = highest total) whose totals become the thresholds of the
#: range queries checked against the fold after the drain.
FINAL_QUERY_RANKS = (1, 10, 100, 1000, 3000)


@dataclass(frozen=True)
class SimWorkload:
    name: str
    package: str
    spec: TrafficSpec
    #: ``(class, object count)`` pairs; ids are ``Class~o00042``.
    classes: tuple[tuple[str, int], ...]
    pad_range: tuple[int, int]
    planes: bool = False
    #: Per-node DHT cap stamped by the workload's template (None = unbounded).
    #: A capped cache has a miss path, and with it the DHT stale-install
    #: fault (see probe.py): the runner then never overlaps reads and
    #: writes of one object, and replays the fixed probe every round.
    dht_cap: int | None = None

    def object_ids(self) -> list[str]:
        return [f"{cls}~o{i:05d}" for cls, count in self.classes for i in range(count)]


_FUNCTIONS = """
    functions:
      - name: add
        image: perfbench/add
        provision: {concurrency: 4, min_scale: 1, max_scale: 16}
      - name: peek
        image: perfbench/peek
        mutable: false
        provision: {concurrency: 4, min_scale: 1, max_scale: 16}
"""
_KEYSPECS = """
    keySpecs:
      - {name: total, type: INT, default: 0}
      - {name: pad, type: STR, default: ""}
"""

ZIPF_BURST = SimWorkload(
    name="sim-zipf-burst",
    package=(
        "name: perfbench-zipf\nclasses:\n  - name: Counter\n"
        "    constraint: {persistent: true}\n" + _KEYSPECS + _FUNCTIONS
    ),
    spec=TrafficSpec(
        period_s=1.0,
        base_ops=240,
        burst_ops=200,
        burst_len_s=0.1,
        zipf_s=1.1,
        mix=((GET, 0.35), (PEEK, 0.45), (ADD, 0.20)),
        peek_cost_s=0.003,
        add_cost_s=0.004,
    ),
    classes=(("Counter", 1500),),
    pad_range=(64, 1024),
)

STORE_CHURN = SimWorkload(
    name="sim-store-churn",
    package=(
        "name: perfbench-churn\nclasses:\n"
        "  - name: Account\n    constraint: {persistent: true}\n"
        "    qos: {priority: 4}\n" + _KEYSPECS + _FUNCTIONS
        + "  - name: Ledger\n    constraint: {persistent: true}\n"
        "    qos: {priority: 1}\n" + _KEYSPECS + _FUNCTIONS
    ),
    spec=TrafficSpec(
        period_s=1.0,
        base_ops=160,
        burst_ops=80,
        burst_len_s=0.15,
        zipf_s=0.2,
        mix=((GET, 0.45), (ADD, 0.50), (QUERY, 0.05)),
    ),
    classes=(("Account", 3000), ("Ledger", 3000)),
    pad_range=(64, 512),
    planes=True,
    dht_cap=300,
)

WORKLOADS = {w.name: w for w in (ZIPF_BURST, STORE_CHURN)}


@dataclass
class OpRecord:
    op: Op
    round: int
    issued_wall: float = 0.0
    done_sim: float | None = None
    done_wall: float = 0.0
    ok: bool = False


@dataclass
class RunTotals:
    """What a run measured, before it becomes the printed metrics."""

    setup_s: float
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    timed_ops: int = 0
    sim_latencies_ms: list[float] = field(default_factory=list)
    rounds_timed: list[RoundSample] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    query_rows: int = 0
    replicas_peak: int = 0
    async_waits_ms: list[float] = field(default_factory=list)
    #: Peak RSS once the fixed minimum of rounds is done.
    peak_rss_mb: float = 0.0


def platform_config(workload: SimWorkload):
    from repro.crm.template import ClassRuntimeTemplate, RuntimeConfig, TemplateCatalog
    from repro.durability.plane import DurabilityConfig
    from repro.monitoring.plane import MetricsConfig
    from repro.platform.oparaca import PlatformConfig
    from repro.qos.plane import QosConfig
    from repro.storage.backends import StorageConfig

    if workload.planes:
        return PlatformConfig(
            qos=QosConfig(enabled=True),
            durability=DurabilityConfig(enabled=True, default_retention_s=3.0),
            metrics=MetricsConfig(enabled=True),
            storage=StorageConfig(backend="sqlite"),
            catalog=TemplateCatalog(
                [
                    ClassRuntimeTemplate(
                        name="capped-cache",
                        config=RuntimeConfig(
                            dht_max_entries=workload.dht_cap, retention_s=3.0
                        ),
                    )
                ]
            ),
        )
    return PlatformConfig()


def build_platform(workload: SimWorkload, seed: int, observers=None, config=None):
    """Build, deploy and seed one platform for ``workload`` (with
    ``config``, or the workload's own); returns the platform and each
    object's initial total."""
    from repro.platform.oparaca import Oparaca

    platform = Oparaca(config or platform_config(workload))

    def service_time(task) -> float:
        # The handler's simulated service time is an input: each
        # operation carries its own seeded cost.
        if observers is not None:
            observers.on_service_time(task, platform.env.now)
        return float(task.payload.get("cost_s", 0.001))

    @platform.function("perfbench/add", service_time_s=service_time)
    def add(ctx):
        ctx.state["total"] = ctx.state.get("total", 0) + int(ctx.payload["n"])
        return {"total": ctx.state["total"]}

    @platform.function("perfbench/peek", service_time_s=service_time)
    def peek(ctx):
        return {"total": ctx.state.get("total", 0)}

    platform.deploy(workload.package)
    ids = workload.object_ids()
    initial = {}
    for object_id, (pad, total) in zip(ids, initial_docs(len(ids), seed, workload.pad_range)):
        platform.new_object(
            object_id.split("~")[0], {"pad": "x" * pad, "total": total}, object_id=object_id
        )
        initial[object_id] = total
    platform.flush()
    return platform, initial


class ObjectGate:
    """Client-side exclusion between reads and writes of one object:
    reads share, writes share (the async invoker already orders them),
    but a read never overlaps a write.  Waiters are served in arrival
    order.  Used only where the cache has a miss path, because a miss
    read that overlaps a write of the same object triggers the DHT
    stale-install fault at seed-dependent moments (see probe.py)."""

    def __init__(self, env) -> None:
        self.env = env
        self.holders: dict[str, list] = {}  # obj -> [kind, count]
        self.waiters: dict[str, list] = {}  # obj -> [(kind, event)]

    def acquire(self, obj: str, kind: str):
        held = self.holders.get(obj)
        queue = self.waiters.get(obj)
        if held is None:
            self.holders[obj] = [kind, 1]
            return
        if held[0] == kind and not queue:
            held[1] += 1
            return
        event = self.env.event()
        self.waiters.setdefault(obj, []).append((kind, event))
        yield event

    def release(self, obj: str) -> None:
        held = self.holders[obj]
        held[1] -= 1
        if held[1]:
            return
        del self.holders[obj]
        queue = self.waiters.get(obj)
        if not queue:
            return
        kind = queue[0][0]
        granted = 0
        while queue and queue[0][0] == kind:
            queue.pop(0)[1].succeed()
            granted += 1
        self.holders[obj] = [kind, granted]
        if not queue:
            del self.waiters[obj]


class SimRunner:
    """Runs one sim workload: set-up, warm-up, timed rounds, drain, checks."""

    def __init__(self, workload: SimWorkload, seed: int, observers=None) -> None:
        self.workload = workload
        self.seed = seed
        self.observers = observers
        self.fold = Fold()
        self.records: list[OpRecord] = []
        self.outstanding = 0
        self.touched: set[str] = set()
        self.query_rows = 0
        self.submit_at: dict[str, float] = {}
        self.gate: ObjectGate | None = None
        self.probe: StaleInstallProbe | None = None
        self.ranked: dict[str, list[int]] = {}

    # -- set-up ---------------------------------------------------------

    def setup(self, repeats: int = 5) -> float:
        """Build the platform ``repeats`` times; keep the last one and
        return the median set-up time."""
        times = []
        for _ in range(repeats):
            self.platform = self.probe = None
            gc.collect()
            started = perf_counter()
            self.platform, initial = build_platform(self.workload, self.seed, self.observers)
            if self.workload.dht_cap is not None:
                self.probe = StaleInstallProbe()
            times.append(perf_counter() - started)
        for obj, total in initial.items():
            self.fold.seed(obj, total)
        if self.workload.dht_cap is not None:
            self.gate = ObjectGate(self.platform.env)
        gc.collect()
        return statistics.median(times)

    # -- operations -----------------------------------------------------

    def _op(self, record: OpRecord):
        op = record.op
        record.issued_wall = perf_counter()
        gate = self.gate if op.kind != QUERY else None
        if gate is not None:
            yield from gate.acquire(op.obj, "write" if op.kind == ADD else "read")
        try:
            record.ok = yield from self._execute(op)
        finally:
            if gate is not None:
                gate.release(op.obj)
        record.done_sim = self.platform.env.now
        record.done_wall = perf_counter()
        self.outstanding -= 1

    def _execute(self, op: Op):
        from repro.invoker.request import InvocationRequest
        from repro.platform.gateway import HttpRequest

        platform = self.platform
        if op.kind == ADD:
            self.fold.submit(op.obj, op.n)
            self.touched.add(op.obj)
            request = InvocationRequest(
                object_id=op.obj,
                fn_name="add",
                payload={"n": op.n, "cost_s": op.cost_s},
                request_id=f"w{op.seq}",
            )
            self.submit_at[request.request_id] = platform.env.now
            result = yield platform.queue.submit(request)
            if not result.ok:
                self.fold.violations.append(f"add {op.obj} failed: {result.error}")
                return False
            self.fold.ack(op.obj, op.n)
            return True
        if op.kind == QUERY:
            cls = op.obj.split("~")[0]
            ranked = self.ranked[cls]
            threshold = ranked[min(op.rank, len(ranked)) - 1]
            path = (
                f"/api/classes/{cls}/objects?where=total>={threshold}"
                f"&order=total&limit={QUERY_LIMIT}"
            )
            response = yield platform.gateway.handle(HttpRequest("GET", path, {}, {}))
            if response.status != 200:
                self.fold.violations.append(f"query {path}: HTTP {response.status}")
                return False
            rows = response.body.get("objects", [])
            self.query_rows += len(rows)
            problem = check_query_rows(rows, threshold, QUERY_LIMIT)
            if problem is not None:
                self.fold.violations.append(f"query {path}: {problem}")
            return problem is None
        floor = self.fold.acked[op.obj]
        if op.kind == GET:
            request = HttpRequest("GET", f"/api/objects/{op.obj}", {}, {})
        else:
            request = HttpRequest(
                "POST", f"/api/objects/{op.obj}/invokes/peek", {"cost_s": op.cost_s}, {}
            )
        response = yield platform.gateway.handle(request)
        if response.status != 200:
            self.fold.violations.append(f"{op.kind} {op.obj}: HTTP {response.status}")
            return False
        body = response.body
        total = body["state"]["total"] if op.kind == GET else body.get("total")
        return self.fold.check_read(op.obj, floor, total, op.kind)

    def _arrivals(self, records: list[OpRecord]):
        env = self.platform.env
        for record in records:
            delay = self.t0 + record.op.due - env.now
            if delay > 0:
                yield env.timeout(delay)
            env.process(self._op(record))

    def _class_totals(self, cls: str) -> dict[str, int]:
        prefix = cls + "~"
        return {obj: total for obj, total in self.fold.acked.items() if obj.startswith(prefix)}

    def _run_round(self, generator: TrafficGenerator, index: int) -> None:
        env = self.platform.env
        records = [OpRecord(op, index) for op in generator.round(index)]
        if any(record.op.kind == QUERY for record in records):
            self.ranked = {
                cls: sorted(self._class_totals(cls).values(), reverse=True)
                for cls, _count in self.workload.classes
            }
        self.records.extend(records)
        self.outstanding += len(records)
        env.process(self._arrivals(records))
        env.run(until=self.t0 + (index + 1) * self.workload.spec.period_s)
        if self.probe is not None:
            self.probe.run_round()

    def _replicas(self) -> int:
        return sum(
            svc.replicas
            for runtime in self.platform.crm.runtimes.values()
            for svc in runtime.services.values()
        )

    # -- the run --------------------------------------------------------

    def run(self, seconds: float, repeats: int = 5, on_timed_start=None, on_timed_end=None) -> RunTotals:
        """Set up, warm up, then run whole rounds for at least ``seconds``
        of wall time and drain.  ``on_timed_start()`` and
        ``on_timed_end(totals)`` bracket the timed phase (tracing)."""
        setup_s = self.setup(repeats)
        platform = self.platform
        env = platform.env
        generator = TrafficGenerator(self.workload.spec, self.workload.object_ids(), self.seed)
        # Set-up advanced the sim clock; rounds start on the next whole second.
        self.t0 = float(math.ceil(env.now))
        totals = RunTotals(setup_s=setup_s)
        for index in range(WARMUP_ROUNDS):
            self._run_round(generator, index)
        gc.collect()
        before = counters(platform)
        if on_timed_start is not None:
            on_timed_start()
        first_timed = len(self.records)
        wall0 = perf_counter()
        index = WARMUP_ROUNDS
        min_rounds = WARMUP_ROUNDS + SIM_ROUNDS + TAIL_ROUNDS
        peak = 0
        samples = []
        while index < min_rounds or perf_counter() - wall0 < seconds:
            started, cpu = perf_counter(), process_time()
            self._run_round(generator, index)
            samples.append(RoundSample(
                ops=self.workload.spec.round_ops,
                wall_s=perf_counter() - started,
                cpu_s=process_time() - cpu,
            ))
            peak = max(peak, self._replicas())
            index += 1
            if index == min_rounds:
                totals.peak_rss_mb = peak_rss_mb()
        drain_until = env.now + DRAIN_LIMIT_S
        while self.outstanding and env.now < drain_until:
            env.run(until=env.now + 0.05)
        after = counters(platform)
        totals.counters = {key: after[key] - before.get(key, 0.0) for key in after}
        totals.replicas_peak = peak
        if self.outstanding:
            totals.problems.append(f"{self.outstanding} operations never completed")
        timed = self.records[first_timed:]
        totals.timed_ops = sum(1 for r in timed if r.done_sim is not None)
        reported_end = WARMUP_ROUNDS + SIM_ROUNDS
        for record in timed:
            if record.done_sim is None:
                continue
            samples[record.round - WARMUP_ROUNDS].latencies_ms.append(
                (record.done_wall - record.issued_wall) * 1000.0
            )
            if record.round < reported_end:
                totals.sim_latencies_ms.append(
                    (record.done_sim - self.t0 - record.op.due) * 1000.0
                )
        if self.observers is not None:
            starts = self.observers.engine_start
            for request_id, submitted in self.submit_at.items():
                started = starts.get(request_id)
                if started is not None:
                    totals.async_waits_ms.append((started - submitted) * 1000.0)
        totals.rounds_timed = samples
        totals.query_rows = self.query_rows
        if on_timed_end is not None:
            on_timed_end(totals)
        self._final_checks(totals)
        totals.attempted = len(self.records)
        totals.failed = sum(1 for r in self.records if not r.ok)
        totals.problems.extend(self.fold.violations)
        if self.probe is not None:
            # The probe's failures are the named fault, expected every
            # round; they count as failed operations, not as problems.
            totals.attempted += self.probe.rounds * OPS_PER_ROUND
            totals.failed += self.probe.failed
            totals.problems.extend(self.probe.problems)
        return totals

    def _final_checks(self, totals: RunTotals) -> None:
        """After the drain: every touched object equals the fold, and a
        fixed set of range queries matches a filter-and-sort of it."""
        from repro.platform.gateway import HttpRequest

        platform = self.platform
        last_write: dict[str, OpRecord] = {}
        for record in self.records:
            if record.op.kind == ADD:
                last_write[record.op.obj] = record
        for obj in sorted(self.touched):
            response = platform.http("GET", f"/api/objects/{obj}")
            total = response.body.get("state", {}).get("total") if response.status == 200 else None
            if not self.fold.check_final(obj, total) and last_write[obj].ok:
                # Charge the lost state to the object's last write.
                last_write[obj].ok = False
        if not any(record.op.kind == QUERY for record in self.records):
            return
        platform.flush()
        for cls, _count in self.workload.classes:
            folded = self._class_totals(cls)
            ranked = sorted(folded.values(), reverse=True)
            for rank in FINAL_QUERY_RANKS:
                threshold = ranked[rank - 1]
                path = (
                    f"/api/classes/{cls}/objects?where=total>={threshold}"
                    f"&order=total&limit={QUERY_LIMIT}"
                )
                response = platform.run(
                    platform.gateway.handle(HttpRequest("GET", path, {}, {}))
                )
                got = [row["state"]["total"] for row in response.body.get("objects", [])]
                want = expected_query(folded, threshold, QUERY_LIMIT)
                if got != want:
                    totals.problems.append(f"final query {path}: got {got}, fold gives {want}")


def counters(platform) -> dict[str, float]:
    """Public counters of every layer, summed over class runtimes."""
    out: dict[str, float] = {
        "gateway.requests": platform.gateway.requests,
        "engine.invocations": platform.engine.invocations,
        "engine.commit_retries": platform.engine.cas_conflicts,
        "async.submitted": platform.queue.submitted,
        "store.reads": platform.store.read_ops,
        "store.writes": platform.store.write_ops,
        "store.units": sum(platform.store._units_by_collection.values()),
        "store.query_ops": platform.store.query_ops,
        "store.query_docs_scanned": platform.store.query_docs_scanned,
    }
    keys = ("dht.gets", "dht.puts", "dht.mem_hits", "dht.mem_misses", "dht.evictions",
            "faas.cold_starts", "write_behind.batches", "write_behind.docs",
            "write_behind.blocked_enqueues")
    for key in keys:
        out[key] = 0.0
    for runtime in platform.crm.runtimes.values():
        dht = runtime.dht
        out["dht.gets"] += dht.gets
        out["dht.puts"] += dht.puts
        out["dht.mem_hits"] += dht.mem_hits
        out["dht.mem_misses"] += dht.mem_misses
        out["dht.evictions"] += dht.evictions
        stats = dht.write_behind_stats
        out["write_behind.batches"] += stats["flush_ops"]
        out["write_behind.docs"] += stats["docs_flushed"]
        out["write_behind.blocked_enqueues"] += stats["blocked_enqueues"]
        for svc in runtime.services.values():
            out["faas.cold_starts"] += getattr(svc, "cold_starts", 0)
    if platform.durability is not None:
        out["snapshot.cuts"] = platform.durability.stats()["cuts_total"]
    if platform.metrics is not None:
        out["scraper.scrapes"] = platform.metrics.scraper.scrapes
    return out
