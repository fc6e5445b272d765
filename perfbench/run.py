"""Oparaca benchmark: one workload, one seed, one result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sim-zipf-burst --seed 1 --seconds 12 --trace 0

Workloads: ``sim-zipf-burst`` and ``sim-store-churn`` (the platform on
the simulation kernel, open-loop) and ``http-front`` (``serve_http`` in
a server process of its own, driven by a closed-loop client).  See
README.md for what each measures and why.

With ``--trace 0`` the last stdout line carries every end-to-end metric;
with ``--trace 1`` it carries every per-layer metric of a traced run,
plus the tracing overhead measured against an untraced run of the same
seed made first in a fresh process.  Either way the line also says
whether every output passed its oracle, and how many operations were
attempted and failed.  The exit code is 0 only when ``correct`` is true.
"""

from __future__ import annotations

import argparse
import gc
import json
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("sim_p50_ms", "ms"),
    ("sim_p99_ms", "ms"),
    ("wall_p50_ms", "ms"),
    ("wall_p90_ms", "ms"),
    ("cpu_ms_per_op", "ms/op"),
    ("peak_rss_mb", "MB"),
)
WORKLOADS = ("sim-zipf-burst", "sim-store-churn", "http-front")


def run_sim(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from layers import compute
    from measure import per_round_medians, percentile
    from oracle import outcome
    from sim import WORKLOADS as SIM_WORKLOADS, SimRunner

    workload = SIM_WORKLOADS[name]
    if not trace:
        totals = SimRunner(workload, seed).run(seconds)
        metrics = {
            "setup_s": totals.setup_s,
            "sim_p50_ms": percentile(totals.sim_latencies_ms, 50),
            "sim_p99_ms": percentile(totals.sim_latencies_ms, 99),
            "peak_rss_mb": totals.peak_rss_mb,
            **per_round_medians(totals.rounds_timed),
        }
        return outcome(totals.attempted, totals.failed, totals.problems, metrics)

    from spans import Observers, SpanRecorder, install

    recorder = SpanRecorder()
    observers = Observers()
    install(recorder, observers)
    layers: dict[str, float] = {}
    mark = [0.0]

    def timed_start() -> None:
        recorder.reset()
        observers.reset()
        mark[0] = perf_counter()

    def timed_end(totals) -> None:
        layers.update(
            compute(
                recorder,
                observers,
                mark[0],
                totals.counters,
                totals.timed_ops,
                {
                    "async.wait_sim_p99_ms": percentile(totals.async_waits_ms, 99),
                    "faas.replicas_peak": float(totals.replicas_peak),
                    "query.rows": float(totals.query_rows),
                },
            )
        )

    runner = SimRunner(workload, seed, observers)
    totals = runner.run(seconds, repeats=1, on_timed_start=timed_start, on_timed_end=timed_end)
    layers["ops_per_s"] = per_round_medians(totals.rounds_timed)["ops_per_s"]
    return outcome(totals.attempted, totals.failed, totals.problems, layers)


def untraced_ops_per_s(args) -> float:
    """ops/s of an untraced run of the same workload and seed, made in
    a fresh process so the traced run's wrappers cannot touch it."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=170)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit("untraced reference run failed")
    return json.loads(lines[-1])["metrics"]["ops_per_s"]["value"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Oparaca benchmark (one workload, one run)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "platform" / "oparaca.py").is_file():
        print(f"no Oparaca sources under {SRC}; run from a checkout's root", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    reference = untraced_ops_per_s(args) if trace else None
    gc.collect()
    if args.workload == "http-front":
        from httpbench import run_http

        result = run_http(args.seed, args.seconds, trace)
    else:
        result = run_sim(args.workload, args.seed, args.seconds, trace)
    metrics = result["metrics"]
    if trace:
        from layers import PER_LAYER

        traced = metrics.pop("ops_per_s")
        metrics["tracing.overhead_pct"] = (1.0 - traced / reference) * 100.0
        units = {name: unit for name, unit, _better in PER_LAYER}
    else:
        units = dict(END_TO_END)
    result["metrics"] = {
        name: {"value": float(metrics[name]), "unit": units[name]} for name in units
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
