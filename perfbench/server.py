"""The ``http-front`` process under test: ``serve_http`` over the asyncio
scheduler transport with a worker pool, in a process of its own.

Usage (spawned by run.py, not run by hand)::

    python3 perfbench/server.py --seed 3 [--trace]

Once the pool is ready it prints one JSON line ``{"port": ...}`` on
stdout, then obeys commands read from stdin, one per line:

* ``mark`` -- the timed phase starts;
* ``end`` -- the timed phase is over: reply with its server-side figures
  (CPU seconds, simulated invocation latencies and, with ``--trace``,
  the per-layer metrics);
* ``rss`` -- reply with the peak RSS so far;
* ``stop`` -- stop serving, reply ``{}`` and exit.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

#: Worker pool size of the asyncio scheduler transport.
POOL_SIZE = 2


def build(seed: int, observers=None):
    """The ``sim-zipf-burst`` class and objects, served by the asyncio
    scheduler transport instead of the sim one."""
    from repro.platform.oparaca import PlatformConfig
    from repro.scheduler.plane import SchedulerConfig
    from sim import ZIPF_BURST, build_platform

    config = PlatformConfig(
        scheduler=SchedulerConfig(enabled=True, transport="asyncio", pool_size=POOL_SIZE)
    )
    platform, _initial = build_platform(ZIPF_BURST, seed, observers, config)
    return platform


def counters(platform, front) -> dict[str, float]:
    from sim import counters as sim_counters

    out = sim_counters(platform)
    out["httpfront.requests"] = front.requests
    return out


async def serve(args) -> None:
    from measure import peak_rss_mb

    recorder = observers = None
    if args.trace:
        from spans import Observers, SpanRecorder, install

        recorder = SpanRecorder()
        observers = Observers()
        install(recorder, observers)
    platform = build(args.seed, observers)
    env = platform.env
    latencies: list[float] = []
    invoke = platform.engine.invoke

    def timed_invoke(request):
        process = invoke(request)
        started = env.now
        process.callbacks.append(lambda _event: latencies.append(env.now - started))
        return process

    platform.engine.invoke = timed_invoke
    front = await platform.serve_http()
    print(json.dumps({"port": front.port}), flush=True)
    loop = asyncio.get_running_loop()
    mark = 0.0
    before: dict[str, float] = {}
    cpu0 = 0.0
    while True:
        command = (await loop.run_in_executor(None, sys.stdin.readline)).strip()
        if command == "mark":
            latencies.clear()
            before = counters(platform, front)
            if recorder is not None:
                observers.reset()
                recorder.counts.clear()
            mark = perf_counter()
            cpu0 = sum(os.times()[:2])
            reply = {}
        elif command == "end":
            reply = {
                "cpu_s": sum(os.times()[:2]) - cpu0,
                "sim_latencies_ms": [value * 1000.0 for value in latencies],
            }
            if recorder is not None:
                from layers import compute

                after = counters(platform, front)
                delta = {key: after[key] - before.get(key, 0.0) for key in after}
                replicas = sum(
                    svc.replicas
                    for runtime in platform.crm.runtimes.values()
                    for svc in runtime.services.values()
                )
                reply["per_layer"] = compute(
                    recorder, observers, mark, delta, len(latencies),
                    {"faas.replicas_peak": float(replicas)},
                )
        elif command == "rss":
            reply = {"peak_rss_mb": peak_rss_mb()}
        else:  # "stop", or the client went away
            await front.stop()
            print("{}", flush=True)
            return
        print(json.dumps(reply), flush=True)


def main() -> None:
    parser = argparse.ArgumentParser(description="http-front server under test")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    asyncio.run(serve(parser.parse_args()))


if __name__ == "__main__":
    main()
