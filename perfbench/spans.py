"""Wall-clock spans around each layer's entry points (traced runs only).

:func:`install` wraps the methods of each layer's classes *from the
outside*: nothing in ``src/`` changes.  Every wrapped call records one
span (layer, start, end, parent) in compact in-memory arrays that are
read once the run ends.  Calls that return a generator (a sim process
body) or a coroutine (an asyncio task step) record one span per resume,
so a layer is charged for every slice of wall time its code runs, not
for the simulated or socket time it spends parked.

A layer's *self time* is its spans' duration minus the time of their
child spans; whatever a wrapped layer calls into an unwrapped helper is
charged to that layer.  The kernel span wraps ``Environment.step``, so
dispatch work not claimed by any layer lands on ``kernel``.

Install before the platform is built: some layers capture bound
methods at construction (consumer handlers, scrape collectors).
"""

from __future__ import annotations

import copy
import importlib
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter
from types import SimpleNamespace

#: layer -> ((module, class-or-function names), ...).  Every function
#: defined on a listed class is wrapped; a name that is not a class is
#: a module-level function.
LAYERS: dict[str, tuple[tuple[str, tuple[str, ...]], ...]] = {
    "gateway": (("repro.platform.gateway", ("Gateway",)),),
    "engine": (("repro.invoker.engine", ("InvocationEngine",)),),
    "topic": (
        ("repro.messaging.topic", ("Topic", "ConsumerGroup", "_Partition")),
        ("repro.invoker.queue", ("AsyncInvoker",)),
    ),
    "fairqueue": (
        ("repro.qos.fairqueue", ("WeightedFairQueue",)),
        ("repro.qos.plane", ("QosPlane",)),
        ("repro.qos.admission", ("AdmissionController", "TokenBucket")),
        ("repro.qos.shedder", ("OverloadController",)),
    ),
    "faas": (
        ("repro.faas.engine", ("FunctionService",)),
        ("repro.faas.knative", ("KnativeService",)),
        ("repro.faas.deployment_engine", ("DeploymentService",)),
    ),
    "dht": (("repro.storage.dht", ("Dht",)),),
    "dht.sizing": (("repro.storage.dht", ("doc_size_bytes",)),),
    "hashring": (("repro.storage.hashring", ("HashRing",)),),
    "store": (("repro.storage.kv", ("DocumentStore",)),),
    "backend": (
        ("repro.storage.backends.memory", ("DictBackend",)),
        ("repro.storage.backends.sqlite", ("SqliteBackend",)),
    ),
    "write_behind": (("repro.storage.write_behind", ("WriteBehindQueue",)),),
    "snapshot": (
        ("repro.durability.snapshot", ("SnapshotCoordinator", "ClassDurabilityState")),
        ("repro.durability.plane", ("DurabilityPlane",)),
    ),
    "monitoring": (
        ("repro.monitoring.collector", ("ClassObservations", "MonitoringSystem")),
        ("repro.monitoring.metrics", ("SlidingWindow", "Histogram", "MetricsRegistry")),
        ("repro.monitoring.slo", ("SloEvaluator",)),
    ),
    "scraper": (
        ("repro.monitoring.scraper", ("MetricsScraper", "TimeSeries")),
        ("repro.monitoring.plane", ("MetricsPlane",)),
    ),
    "httpfront": (("repro.platform.httpfront", ("AsyncPlatformServer",)),),
    "codec": (
        (
            "repro.scheduler.transport.protocol",
            ("FrameDecoder", "Message", "encode_frame", "encode_message", "decode_message"),
        ),
    ),
    "ledger": (
        ("repro.scheduler.ledger", ("InvocationLedger",)),
        ("repro.scheduler.transport.core", ("DispatchCore",)),
    ),
    "aio": (
        (
            "repro.scheduler.transport.aio",
            ("AsyncSchedulerServer", "AsyncWorkerClient", "RemoteWorker"),
        ),
    ),
}

#: Modules that call ``copy.deepcopy`` on the data path.
DEEPCOPY_MODULES = ("repro.storage.dht", "repro.storage.kv")

#: Every layer whose self time is reported, in report order.
REPORTED = ("kernel", *LAYERS, "deepcopy")


class SpanRecorder:
    """Spans in parallel arrays: layer id, parent index, start, end."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.layer = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: Counter[str] = Counter()

    def layer_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def enter(self, lid: int) -> None:
        index = len(self.start)
        self.layer.append(lid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self._stack.append(index)

    def exit(self) -> None:
        self.end[self._stack.pop()] = perf_counter()

    def reset(self) -> None:
        """Forget every span and count so far (call with no span open)."""
        if self._stack:
            raise RuntimeError("reset() with open spans")
        for buffer in (self.layer, self.parent, self.start, self.end):
            del buffer[:]
        self.counts.clear()

    def self_seconds(self, since: float = 0.0) -> dict[str, float]:
        """Per-layer self time of every closed span that started at or
        after ``since``: span duration minus its children's."""
        starts, ends, parents = self.start, self.end, self.parent
        child = array("d", bytes(8 * len(starts)))
        for index in range(len(starts)):
            parent = parents[index]
            if parent >= 0 and ends[index]:
                child[parent] += ends[index] - starts[index]
        totals = [0.0] * len(self.names)
        for index, lid in enumerate(self.layer):
            if starts[index] >= since and ends[index]:
                totals[lid] += ends[index] - starts[index] - child[index]
        return {name: totals[lid] for lid, name in enumerate(self.names)}

    def span_count(self, layer: str, since: float = 0.0) -> int:
        lid = self._ids.get(layer)
        if lid is None:
            return 0
        return sum(
            1
            for index, value in enumerate(self.layer)
            if value == lid and self.start[index] >= since
        )


def _traced_generator(rec: SpanRecorder, lid: int, gen):
    """Drive ``gen``, recording one span per resume."""
    value = None
    error = None
    while True:
        rec.enter(lid)
        try:
            target = gen.send(value) if error is None else gen.throw(error)
        except StopIteration as stop:
            rec.exit()
            return stop.value
        except BaseException:
            rec.exit()
            raise
        rec.exit()
        try:
            value = yield target
            error = None
        except BaseException as exc:  # noqa: BLE001 - forwarded into gen
            value = None
            error = exc


class _TracedAwaitable:
    """Awaitable that steps a coroutine, one span per step."""

    __slots__ = ("rec", "lid", "coro")

    def __init__(self, rec: SpanRecorder, lid: int, coro) -> None:
        self.rec, self.lid, self.coro = rec, lid, coro

    def __await__(self):
        return _traced_generator(self.rec, self.lid, self.coro)


def _wrap(rec: SpanRecorder, lid: int, fn):
    if inspect.isgeneratorfunction(fn):
        def traced(*args, **kwargs):
            return _traced_generator(rec, lid, fn(*args, **kwargs))
    elif inspect.iscoroutinefunction(fn):
        async def traced(*args, **kwargs):
            return await _TracedAwaitable(rec, lid, fn(*args, **kwargs))
    else:
        def traced(*args, **kwargs):
            rec.enter(lid)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.exit()
    traced.__name__ = getattr(fn, "__name__", "traced")
    traced.__qualname__ = getattr(fn, "__qualname__", traced.__name__)
    traced.__wrapped__ = fn
    return traced


def _wrap_class(rec: SpanRecorder, lid: int, cls: type) -> None:
    for attr, raw in list(vars(cls).items()):
        if attr.startswith("__"):
            continue
        if isinstance(raw, staticmethod):
            setattr(cls, attr, staticmethod(_wrap(rec, lid, raw.__func__)))
        elif inspect.isfunction(raw):
            setattr(cls, attr, _wrap(rec, lid, raw))


def install(rec: SpanRecorder, observers: "Observers | None" = None) -> None:
    """Wrap every layer in :data:`LAYERS`, the kernel step and the
    data-path ``copy.deepcopy`` calls."""
    from repro.sim.kernel import Environment

    if observers is not None:
        observers.install()
    for layer, entries in LAYERS.items():
        lid = rec.layer_id(layer)
        for module_name, names in entries:
            module = importlib.import_module(module_name)
            for name in names:
                target = getattr(module, name)
                if isinstance(target, type):
                    _wrap_class(rec, lid, target)
                    continue
                traced = _wrap(rec, lid, target)
                # Rebind the function wherever it was imported by name.
                for other in list(_loaded_repro_modules()):
                    if getattr(other, name, None) is target:
                        setattr(other, name, traced)
    Environment.step = _wrap(rec, rec.layer_id("kernel"), Environment.step)
    deep = _wrap(rec, rec.layer_id("deepcopy"), _counting(rec, "deepcopy.calls", copy.deepcopy))
    proxy = SimpleNamespace(deepcopy=deep, copy=copy.copy)
    for module_name in DEEPCOPY_MODULES:
        importlib.import_module(module_name).copy = proxy
    for name in REPORTED:
        rec.layer_id(name)


def _loaded_repro_modules():
    return [m for n, m in list(sys.modules.items()) if n.startswith("repro.") and m]


def _counting(rec: SpanRecorder, key: str, fn):
    def counted(*args, **kwargs):
        rec.counts[key] += 1
        return fn(*args, **kwargs)

    return counted


class Observers:
    """Side records the per-layer metrics need beyond spans: simulated
    wait times keyed by request, wire frame sizes, ledger waits.  All
    hooks wrap public entry points; none changes a return value."""

    def __init__(self) -> None:
        self.engine_start: dict[str, float] = {}
        self.faas_enter: dict[int, float] = {}
        self.slot_waits: list[float] = []
        self.cut_windows: list[float] = []
        self.ledger_accept: dict[str, float] = {}
        self.dispatch_waits: list[float] = []
        self.frame_bytes = 0
        self.frames = 0

    def install(self) -> None:
        from repro.faas.engine import FunctionService
        from repro.invoker.engine import InvocationEngine
        from repro.scheduler import ledger
        from repro.scheduler.transport import aio, protocol
        from repro.storage.dht import Dht

        obs = self
        invoke = InvocationEngine.invoke

        def engine_invoke(engine, request):
            obs.engine_start.setdefault(request.request_id, engine.env.now)
            return invoke(engine, request)

        InvocationEngine.invoke = engine_invoke
        service_invoke = FunctionService.invoke

        def faas_invoke(service, task):
            obs.faas_enter[id(task)] = service.env.now
            return service_invoke(service, task)

        FunctionService.invoke = faas_invoke
        begin_cut, end_cut = Dht.begin_cut, Dht.end_cut
        opened: dict[int, float] = {}

        def traced_begin(dht):
            opened[id(dht)] = dht.env.now
            return begin_cut(dht)

        def traced_end(dht):
            started = opened.pop(id(dht), None)
            if started is not None:
                obs.cut_windows.append(dht.env.now - started)
            return end_cut(dht)

        Dht.begin_cut, Dht.end_cut = traced_begin, traced_end
        accept, dispatch = ledger.InvocationLedger.accept, ledger.InvocationLedger.dispatch

        def ledger_accept(self_, request, at):
            obs.ledger_accept[request.request_id] = perf_counter()
            return accept(self_, request, at)

        def ledger_dispatch(self_, request_id, worker, epoch):
            started = obs.ledger_accept.pop(request_id, None)
            if started is not None:
                obs.dispatch_waits.append(perf_counter() - started)
            return dispatch(self_, request_id, worker, epoch)

        ledger.InvocationLedger.accept = ledger_accept
        ledger.InvocationLedger.dispatch = ledger_dispatch
        encode = protocol.encode_frame

        def encode_frame(message):
            frame = encode(message)
            obs.frames += 1
            obs.frame_bytes += len(frame)
            return frame

        protocol.encode_frame = encode_frame
        aio.encode_frame = encode_frame

    def on_service_time(self, task, now: float) -> None:
        """Called from the benchmark's handlers' service-time function,
        which the FaaS layer calls once a pod slot is granted."""
        entered = self.faas_enter.pop(id(task), None)
        if entered is not None:
            self.slot_waits.append(now - entered)

    def reset(self) -> None:
        self.engine_start.clear()
        self.faas_enter.clear()
        self.slot_waits.clear()
        self.cut_windows.clear()
        self.ledger_accept.clear()
        self.dispatch_waits.clear()
        self.frame_bytes = self.frames = 0
