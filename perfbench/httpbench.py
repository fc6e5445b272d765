"""The ``http-front`` workload: a closed-loop client against server.py.

One client process (this one) keeps ``nproc`` keep-alive connections
busy; each sends its next request only when the previous answer is in.
Operations come from the seeded generator in rounds of
:data:`ROUND_OPS`; once ``--seconds`` have passed the connections finish
the round in progress, so every run attempts whole rounds.

Client and server are pinned to the *same* CPU.  Each request is a
ping-pong between the two processes; on a 2-CPU cloud host, pinning them
to different CPUs made every cross-CPU wake-up pay for whatever else ran
there, and the same seed gave 250 to 850 ops/s from run to run (server
CPU per request swung by half).  On one CPU the two alternate, as a
closed loop does anyway, and runs agree within about 10%.
"""

from __future__ import annotations

import asyncio
import json
import os
import statistics
import subprocess
import sys
from collections import deque
from pathlib import Path
from time import perf_counter

from inputs import ADD, GET, PEEK, TrafficGenerator, TrafficSpec, initial_docs
from measure import RoundSample, per_round_medians, percentile
from oracle import Fold, outcome
from sim import ZIPF_BURST

SERVER = Path(__file__).resolve().parent / "server.py"
ROUND_OPS = 200
WARMUP_ROUNDS = 3
#: Timed rounds every run completes; the server's peak RSS is read right
#: after them, so it measures a fixed amount of work.
MIN_ROUNDS = 15
SETUP_REPEATS = 5
SPEC = TrafficSpec(
    period_s=1.0,
    base_ops=ROUND_OPS,
    burst_ops=0,
    burst_len_s=0.0,
    zipf_s=1.1,
    mix=((GET, 0.30), (PEEK, 0.45), (ADD, 0.25)),
)


class Server:
    """One server.py process; ``setup_s`` runs from spawn to a ready pool."""

    def __init__(self, seed: int, trace: bool, cpu: int) -> None:
        command = [sys.executable, str(SERVER), "--seed", str(seed)]
        if trace:
            command.append("--trace")
        started = perf_counter()
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        os.sched_setaffinity(self.proc.pid, {cpu})
        self.port = self._reply()["port"]
        self.setup_s = perf_counter() - started

    def _reply(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.proc.kill()
            self.proc.wait()
            raise SystemExit(f"server exited with code {self.proc.wait()}")
        return json.loads(line)

    def command(self, word: str) -> dict:
        self.proc.stdin.write(word + "\n")
        self.proc.stdin.flush()
        return self._reply()

    def stop(self) -> dict:
        try:
            reply = self.command("stop")
        finally:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        return reply


class Client:
    def __init__(self, port: int, seed: int, seconds: float, server: Server) -> None:
        self.port = port
        self.seconds = seconds
        self.server = server
        ids = ZIPF_BURST.object_ids()
        self.generator = TrafficGenerator(SPEC, ids, seed)
        self.fold = Fold()
        for obj, (_pad, total) in zip(ids, initial_docs(len(ids), seed, ZIPF_BURST.pad_range)):
            self.fold.seed(obj, total)
        self.queue: deque = deque()
        self.round = 0
        self.attempted = 0
        self.failed = 0
        self.latencies: dict[int, list[float]] = {}
        self.round_started: dict[int, float] = {}
        self.timed_ops = 0
        self.wall0 = 0.0
        self.peak_rss_mb = 0.0
        self.touched: set[str] = set()
        self.problems: list[str] = []

    def _next(self):
        """The next (round, op), starting a new round when the current
        one is used up and time remains; None when the run is over."""
        if not self.queue:
            if self.round >= WARMUP_ROUNDS and not self.wall0:
                self.server.command("mark")
                self.wall0 = perf_counter()
            if self.round == WARMUP_ROUNDS + MIN_ROUNDS:
                self.peak_rss_mb = self.server.command("rss")["peak_rss_mb"]
            elif self.round > WARMUP_ROUNDS + MIN_ROUNDS and (
                perf_counter() - self.wall0 >= self.seconds
            ):
                return None
            self.queue.extend((self.round, op) for op in self.generator.round(self.round))
            self.round_started[self.round] = perf_counter()
            self.latencies[self.round] = []
            self.attempted += ROUND_OPS
            self.round += 1
        return self.queue.popleft()

    async def _request(self, reader, writer, method: str, path: str, body: dict | None):
        payload = json.dumps(body).encode() if body is not None else b""
        writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Length: {len(payload)}\r\n\r\n".encode() + payload
        )
        head = await reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ")[1])
        length = 0
        for line in lines[1:]:
            if line.lower().startswith("content-length:"):
                length = int(line.split(":", 1)[1])
        data = await reader.readexactly(length) if length else b"{}"
        return status, json.loads(data)

    async def _connection(self) -> None:
        reader, writer = await asyncio.open_connection("127.0.0.1", self.port)
        try:
            while True:
                item = self._next()
                if item is None:
                    return
                round_no, op = item
                started = perf_counter()
                ok = await self._execute(reader, writer, op)
                elapsed = perf_counter() - started
                self.latencies[round_no].append(elapsed * 1000.0)
                if round_no >= WARMUP_ROUNDS:
                    self.timed_ops += 1
                if not ok:
                    self.failed += 1
        finally:
            writer.close()
            await writer.wait_closed()

    async def _execute(self, reader, writer, op) -> bool:
        path = f"/api/objects/{op.obj}"
        if op.kind == ADD:
            self.touched.add(op.obj)
            self.fold.submit(op.obj, op.n)
            status, body = await self._request(
                reader, writer, "POST", path + "/invokes/add", {"n": op.n, "cost_s": op.cost_s}
            )
            if status != 200:
                self.problems.append(f"add {op.obj}: HTTP {status} {body}")
                return False
            self.fold.ack(op.obj, op.n)
            return True
        floor = self.fold.acked[op.obj]
        if op.kind == GET:
            status, body = await self._request(reader, writer, "GET", path, None)
            total = body.get("state", {}).get("total") if status == 200 else None
        else:
            status, body = await self._request(
                reader, writer, "POST", path + "/invokes/peek", {"cost_s": op.cost_s}
            )
            total = body.get("total") if status == 200 else None
        if status != 200:
            self.problems.append(f"{op.kind} {op.obj}: HTTP {status} {body}")
            return False
        return self.fold.check_read(op.obj, floor, total, op.kind)

    def samples(self) -> list[RoundSample]:
        """One sample per timed round: from its first request to the next
        round's (the last one ends when its final answer is in)."""
        return [
            RoundSample(
                ops=ROUND_OPS,
                wall_s=self.round_started[index + 1] - self.round_started[index],
                latencies_ms=self.latencies[index],
            )
            for index in range(WARMUP_ROUNDS, self.round)
        ]

    async def run(self, connections: int) -> dict:
        """Drive the timed phase, then check every written object's
        final total over HTTP; returns the server's timed-phase figures."""
        await asyncio.gather(*(self._connection() for _ in range(connections)))
        self.round_started[self.round] = perf_counter()
        figures = self.server.command("end")
        reader, writer = await asyncio.open_connection("127.0.0.1", self.port)
        try:
            for obj in sorted(self.touched):
                status, body = await self._request(reader, writer, "GET", f"/api/objects/{obj}", None)
                total = body.get("state", {}).get("total") if status == 200 else None
                if not self.fold.check_final(obj, total):
                    self.failed += 1
        finally:
            writer.close()
            await writer.wait_closed()
        return figures


def run_http(seed: int, seconds: float, trace: bool) -> dict:
    cpus = sorted(os.sched_getaffinity(0))
    cpu = cpus[-1]
    os.sched_setaffinity(0, {cpu})
    setups = []
    for _ in range(0 if trace else SETUP_REPEATS - 1):
        spare = Server(seed, False, cpu)
        setups.append(spare.setup_s)
        spare.stop()
    server = Server(seed, trace, cpu)
    setups.append(server.setup_s)
    client = Client(server.port, seed, seconds, server)
    try:
        figures = asyncio.run(client.run(connections=len(cpus)))
    finally:
        server.stop()
    problems = client.problems + client.fold.violations
    sim_latencies = figures["sim_latencies_ms"]
    rounds = per_round_medians(client.samples())
    if trace:
        metrics = dict(figures["per_layer"])
        metrics["ops_per_s"] = rounds["ops_per_s"]
    else:
        metrics = {
            **rounds,
            "setup_s": statistics.median(setups),
            "sim_p50_ms": percentile(sim_latencies, 50),
            "sim_p99_ms": percentile(sim_latencies, 99),
            # Server CPU is read once for the whole timed phase.
            "cpu_ms_per_op": figures["cpu_s"] * 1000.0 / client.timed_ops,
            "peak_rss_mb": client.peak_rss_mb,
        }
    return outcome(client.attempted, client.failed, problems, metrics)
