"""Repeat the benchmark over seeds and summarise each end-to-end metric.

    python3 bench/baseline.py [--workloads W ...] [--seeds N] [--seconds S]
                              [--trace 0|1] [--write FILE]

Runs ``bench/run.py`` once per seed 0..N-1 and workload, as separate
processes, and prints for every metric the median, the quartiles and the
spread (interquartile distance over the median, from
``statistics.quantiles(values, n=4)``).  --write stores the summary, with the
machine record of the first run, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True,
                         timeout=600).stdout
    return json.loads(out.splitlines()[-1])


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else 0.0, "values": values}


def main() -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in declared["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write", help="write the summary as JSON to this file")
    args = parser.parse_args()

    summary = {"seconds": args.seconds, "seeds": args.seeds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads:
        runs = [one_run(workload, seed, args.seconds, args.trace) for seed in range(args.seeds)]
        if not all(r["correct"] for r in runs):
            print(f"{workload}: outputs failed the check in "
                  f"{sum(not r['correct'] for r in runs)} runs")
        metrics = {}
        for name, first in runs[0]["metrics"].items():
            stats = summarise([r["metrics"][name]["value"] for r in runs])
            stats["unit"] = first["unit"]
            metrics[name] = stats
            print(f"{workload:8s} {name:32s} median {stats['median']:.6g} {first['unit']} "
                  f"q1 {stats['q1']:.6g} q3 {stats['q3']:.6g} spread {stats['spread']:.3f}",
                  flush=True)
        summary["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
        }
    if args.write:
        record = json.loads((BENCH / "out" / f"{args.workloads[0]}-seed0-trace{args.trace}"
                             / "record.json").read_text(encoding="utf-8"))["machine"]
        summary["machine"] = record
        Path(args.write).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
