"""Benchmark worker: the passes of one workload, in a fresh process.

    python3 bench/worker.py --workload W --seed N --seconds S --trace 0|1 --work-dir D

``run.py`` starts it with ``src/`` on PYTHONPATH, so that the workload's
imports and peak memory are its own.  Closed loop, one thread: a pass runs
the workload's items in order and starts only after the previous pass ends.
Untimed warm-up passes come first, for at least two seconds; timed passes
follow until the next one would end after S seconds.  With --trace 0, cold starts (cold_start.py in a
fresh interpreter) are timed at even intervals between the passes, so that
setup_s samples the same stretch of time as pass_s.  With --trace 1, traced
and untraced passes alternate.  Each output file is hashed after its pass;
the first copy of every distinct content is kept in D/store for ``run.py`` to
check.  The record of the run is written to D/result.json, the spans of a
traced run to D/spans.jsonl.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from array import array
from collections import Counter
from pathlib import Path

import scenarios
import spans

COLD_STARTS = 7
WARMUP_SECONDS = 2.0


def _collect(directory: Path, store: Path) -> dict:
    """{file name: content hash} of one item's outputs, keeping new contents."""
    outputs = {}
    for path in sorted(directory.iterdir()):
        data = path.read_bytes()
        key = hashlib.sha256(data).hexdigest()
        kept = store / key
        if not kept.exists():
            kept.write_bytes(data)
        outputs[path.name] = key
    return outputs


class Runner:
    def __init__(self, workload: str, seed: int, work: Path, tracer):
        self.items = scenarios.work_items(workload, seed, work / "config")
        self.out = work / "pass"
        self.store = work / "store"
        self.store.mkdir(parents=True, exist_ok=True)
        self.tracer = tracer
        # compact records, so that the worker's memory does not grow with passes
        self.seconds = {kind: array("d") for kind in ("warmup", "plain", "traced")}
        self.outcomes: Counter = Counter()   # (item, error, outputs) -> count

    def run_pass(self, kind: str) -> None:
        traced = kind == "traced"
        pass_id = sum(len(times) for times in self.seconds.values())
        shutil.rmtree(self.out, ignore_errors=True)
        for item in self.items:
            (self.out / item.name).mkdir(parents=True)
        results = []
        if traced:
            self.tracer.install(pass_id)
        start = time.perf_counter()
        try:
            for item in self.items:
                try:
                    results.append((item.run(self.out / item.name), None))
                except Exception as exc:  # a failed item is counted, the pass goes on
                    results.append((None, f"{type(exc).__name__}: {exc}"))
            seconds = time.perf_counter() - start
        finally:
            if traced:
                self.tracer.uninstall()
        self.seconds[kind].append(seconds)
        for item, (kept, error) in zip(self.items, results):
            directory = self.out / item.name
            outputs = {}
            if error is None:
                item.finish(kept, directory)
                outputs = _collect(directory, self.store)
            self.outcomes[item.name, error, tuple(sorted(outputs.items()))] += 1


def cold_start(command: list[str]) -> float:
    # a blocking wait returns as the child exits; subprocess.run(timeout=...)
    # would poll, and round the time up to its 50 ms polling step
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.DEVNULL) as proc:
        watchdog = threading.Timer(120.0, proc.kill)
        watchdog.start()
        code = proc.wait()
        watchdog.cancel()
    seconds = time.perf_counter() - start
    if code != 0:
        raise subprocess.CalledProcessError(code, command)
    return seconds


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=scenarios.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--src", required=True, help="the src/ directory to measure")
    args = parser.parse_args()

    import numpy
    import tunnellab

    src = Path(tunnellab.__file__).resolve().parent.parent
    if src != Path(args.src).resolve():
        raise SystemExit(f"tunnellab was imported from {src}, not from {args.src}")

    work = Path(args.work_dir)
    tracer = spans.Tracer() if args.trace else None
    runner = Runner(args.workload, args.seed, work, tracer)
    cold = [sys.executable, os.path.join(os.path.dirname(__file__), "cold_start.py"),
            *scenarios.cold_start_args(args.workload, args.seed)]
    setups = []
    due = 0 if args.trace else COLD_STARTS
    start = time.perf_counter()
    while time.perf_counter() - start < WARMUP_SECONDS:
        runner.run_pass("warmup")
    start = time.perf_counter()
    group = 0
    while True:
        group_start = time.perf_counter()
        order = ("plain", "traced") if group % 2 == 0 else ("traced", "plain")
        for kind in (order if args.trace else ("plain",)):
            runner.run_pass(kind)
        group += 1
        group_time = time.perf_counter() - group_start
        while len(setups) < due and \
                time.perf_counter() - start >= len(setups) * args.seconds / due:
            setups.append(cold_start(cold))
        if time.perf_counter() - start + group_time > args.seconds:
            break
    while len(setups) < due:
        setups.append(cold_start(cold))

    result = {
        "numpy": numpy.__version__,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "setups": setups,
        "seconds": {kind: list(times) for kind, times in runner.seconds.items()},
        "items": [{"item": item, "error": error, "outputs": dict(outputs), "count": count}
                  for (item, error, outputs), count in runner.outcomes.items()],
    }
    if tracer is not None:
        per_pass = tracer.pass_metrics()
        result["layers"] = {name: statistics.median(m[name] for m in per_pass.values())
                            for name in spans.METRICS}
        tracer.write(work / "spans.jsonl")
    (work / "result.json").write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
