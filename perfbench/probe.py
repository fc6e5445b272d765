"""A fixed, seed-independent reproduction of the DHT stale-install fault.

``Dht._load_miss`` installs the store copy it read into owner memory
with no version guard (``_install_owners``).  A miss read that is still
in flight when a put commits therefore overwrites the newer in-memory
version, later reads serve the older state, and the next CAS commit
builds on it.

Every round of ``sim-store-churn`` replays the same script on a small
platform of its own, so the fault shows exactly once per round whatever
the seed or the run length:

0. a read of another probe object owned by the same node evicts ``P``
   from that node's one-entry cache;
1. ``GET P`` misses and reads the store;
2. ballast ``GET``\\ s of absent ids queue store reads behind it;
3. a second ``GET P`` misses too and queues its store read last;
4. once the first read has installed ``P``, a synchronous ``add`` on
   ``P`` loads it from memory and commits version ``v + 1``;
5. the second read returns and installs the stale version ``v``;
6. a final ``GET P``, issued after the ``add`` was acknowledged, must
   see it; with the fault it returns the old total and counts as failed.

Steps 1, 3, 4 and 6 are the probe's four attempted operations.  When
the fault is fixed, step 6 passes and the failed count drops to zero.
"""

from __future__ import annotations

from oracle import Fold

#: Probe objects per cache node: each round reads one and first evicts
#: it by reading its node-mate.
PER_NODE = 2
#: Absent-id reads queued between the two misses (1 ms of store time each).
BALLAST = 16
#: Simulated seconds the probe platform idles after each script, so
#: write-behind flushes finish before the next round.
IDLE_S = 1.0
OPS_PER_ROUND = 4

PACKAGE = """
name: perfbench-probe
classes:
  - name: Probe
    constraint: {persistent: true}
    keySpecs:
      - {name: total, type: INT, default: 0}
    functions:
      - name: add
        image: probe/add
        provision: {concurrency: 4, min_scale: 1, max_scale: 1}
"""


class StaleInstallProbe:
    def __init__(self) -> None:
        from repro.crm.template import ClassRuntimeTemplate, RuntimeConfig, TemplateCatalog
        from repro.platform.oparaca import Oparaca, PlatformConfig

        catalog = TemplateCatalog(
            [ClassRuntimeTemplate(name="one-entry", config=RuntimeConfig(dht_max_entries=1))]
        )
        self.platform = Oparaca(PlatformConfig(catalog=catalog))

        @self.platform.function("probe/add", service_time_s=0.001)
        def add(ctx):
            ctx.state["total"] = ctx.state.get("total", 0) + 1
            return {"total": ctx.state["total"]}

        self.platform.deploy(PACKAGE)
        self.dht = self.platform.crm.runtimes["Probe"].dht
        by_node: dict[str, list[str]] = {}
        for index in range(64):
            obj = f"Probe~p{index}"
            group = by_node.setdefault(self.dht.owner(obj), [])
            if len(group) < PER_NODE:
                group.append(obj)
        self.pairs = []
        for group in by_node.values():
            for index, obj in enumerate(group):
                self.platform.new_object("Probe", object_id=obj)
                self.pairs.append((obj, group[index - 1]))
        self.platform.flush()
        # Let the function's pre-provisioned pod finish booting.
        self.platform.advance(5.0)
        self.fold = Fold()
        self.rounds = 0
        self.failed = 0
        #: Step-6 reads that saw the stale version: the named fault.
        self.stale_reads = 0
        self.problems: list[str] = []

    def _get(self, obj: str):
        from repro.platform.gateway import HttpRequest

        return self.platform.gateway.handle(HttpRequest("GET", f"/api/objects/{obj}", {}, {}))

    def _script(self, obj: str, mate: str):
        from repro.platform.gateway import HttpRequest

        env = self.platform.env
        yield self._get(mate)
        floor = self.fold.acked[obj]
        first = self._get(obj)
        for index in range(BALLAST):
            self._get(f"Probe~absent{index}")
        second = self._get(obj)
        response = yield first
        outcomes = [response.status == 200 and self.fold.check_read(
            obj, floor, response.body["state"]["total"], "probe-get")]
        self.fold.submit(obj, 1)
        write = yield self.platform.gateway.handle(
            HttpRequest("POST", f"/api/objects/{obj}/invokes/add", {}, {})
        )
        outcomes.append(write.status == 200)
        if outcomes[-1]:
            self.fold.ack(obj, 1)
        response = yield second
        outcomes.append(response.status == 200 and self.fold.check_read(
            obj, floor, response.body["state"]["total"], "probe-get"))
        yield env.timeout(0.01)
        floor = self.fold.acked[obj]
        response = yield self._get(obj)
        outcomes.append(response.status == 200 and self.fold.check_read(
            obj, floor, response.body["state"]["total"], "probe-get-after-ack"))
        return outcomes

    def run_round(self) -> None:
        obj, mate = self.pairs[self.rounds % len(self.pairs)]
        self.rounds += 1
        outcomes = self.platform.run(self.platform.env.process(self._script(obj, mate)))
        if not all(outcomes[:3]):
            self.problems.append(f"probe round {self.rounds} on {obj}: {outcomes}")
        self.failed += outcomes.count(False)
        self.stale_reads += not outcomes[3]
        self.platform.advance(IDLE_S)
