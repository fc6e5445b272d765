"""Same-code agreement: two sets of runs of one commit, side by side.

Usage, from the root of a checkout::

    python3 perfbench/agree.py --workload http-front --runs 10 --seconds 12
    python3 perfbench/agree.py --workload all --runs 5 --sets 1

Each run is ``run.py`` in a fresh process with its own seed (set ``k``
uses seeds ``k*1000 + 1 .. k*1000 + runs``).  For every end-to-end
metric it prints, per set, the median and the quartiles (Python's
``statistics.quantiles(values, n=4)``), the spread as ``(Q3 - Q1) /
median``, and how far the second set's median moved from the first.
It also prints each set's failed share of attempted operations, which
must be identical.  Nothing here changes any process but its own
children.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("sim-zipf-burst", "sim-store-churn", "http-front")


def one_run(workload: str, seed: int, seconds: float) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=180)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed} failed (exit {done.returncode})")
    return json.loads(lines[-1])


def summarize(results: list[dict]) -> dict[str, tuple[float, float, float]]:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = (q1, median, q3)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--bench", default=str(HERE.parent / "BENCHMARK.json"),
                        help="BENCHMARK.json whose bounds to compare against")
    parser.add_argument("--save", help="also write every run's result line to this JSON file")
    args = parser.parse_args()
    saved: dict[str, list] = {}
    bounds = {}
    bench = Path(args.bench)
    if bench.is_file():
        bounds = {m["name"]: m["bound"] for m in json.loads(bench.read_text())["end_to_end"]}
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    worst = 0.0
    for workload in workloads:
        sets = []
        for index in range(args.sets):
            runs = [
                one_run(workload, index * 1000 + seed, args.seconds)
                for seed in range(1, args.runs + 1)
            ]
            sets.append(runs)
            shares = {r["failed"] / r["attempted"] for r in runs}
            correct = all(r["correct"] for r in runs)
            print(f"{workload} set {index}: correct={correct} failed shares={sorted(shares)}")
        saved[workload] = sets
        summaries = [summarize(runs) for runs in sets]
        print(f"{'metric':16} {'set':>3} {'q1':>12} {'median':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6} {'moved':>8}")
        for name in summaries[0]:
            bound = bounds.get(name)
            for index, summary in enumerate(summaries):
                q1, median, q3 = summary[name]
                spread = (q3 - q1) / median if median else float("inf")
                moved = ""
                if index:
                    first = summaries[0][name][1]
                    moved = f"{(median - first) / first:+.3f}" if first else "n/a"
                if bound and name != "setup_s":
                    worst = max(worst, spread / bound)
                print(f"{name:16} {index:>3} {q1:12.4f} {median:12.4f} {q3:12.4f} "
                      f"{spread:8.3f} {bound if bound else '':>6} {moved:>8}")
    if args.save:
        Path(args.save).write_text(json.dumps(saved))
    if bounds:
        print(f"largest spread as a share of its bound (setup_s excluded): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
