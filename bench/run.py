"""Scenario benchmark of tunnellab.

    python3 bench/run.py --workload {packets,times,table1,small} --seed N \\
                         --seconds S --trace {0,1}
    python3 bench/run.py --self-check

Run from the root of a checkout; the program is imported from its ``src/``.
The seed selects the inputs (see scenarios.py).  Each workload runs as a
closed loop in one fresh worker process with one thread (worker.py); every
output is checked against the stored reference (verify.py).

--trace 0 prints the end-to-end metrics: setup_s, pass_s, pass_s_tail,
peak_rss_mb, and fail_frac (see README.md for their definitions).  --trace 1 prints the per-layer metrics of
spans.py and trace.overhead_s.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  The run record
(machine, versions, src/ line count, metrics, check summary) is written to
bench/out/<workload>-seed<N>-trace<T>/record.json.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import scenarios
import spans
import verify

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def machine_record() -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "src_lines": src_lines}


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with at least ten samples
    beyond it.  Under twenty passes no such percentile lies above the median,
    and the maximum is reported instead."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def score(result: dict, reference: dict, store: Path) -> verify.Gate:
    gate = verify.Gate(reference)
    for record in result["items"]:
        gate.item(record["item"], record["error"], record["outputs"],
                  lambda key: (store / key).read_text(encoding="utf-8"), record["count"])
    return gate


def run(workload: str, seed: int, seconds: float, trace: int) -> int:
    if not (SRC / "tunnellab" / "__init__.py").is_file():
        print(f"bench: no tunnellab sources under {SRC}", file=sys.stderr)
        return 2
    reference = verify.load_reference(scenarios.variant_of(seed), workload)
    run_dir = OUT / f"{workload}-seed{seed}-trace{trace}"
    work = run_dir / "work"
    shutil.rmtree(run_dir, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env()
    record = machine_record()
    print(f"bench: workload {workload}, seed {seed} (input variant "
          f"{scenarios.variant_of(seed)}), {seconds:g} s, trace {trace}")

    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace),
           "--work-dir", str(work), "--src", str(SRC)]
    subprocess.run(cmd, env=env, check=True, timeout=seconds + 150, stdout=subprocess.DEVNULL)
    result = json.loads((work / "result.json").read_text(encoding="utf-8"))
    record["numpy"] = result["numpy"]
    gate = score(result, reference, work / "store")

    metrics: dict[str, tuple[float, str, str]] = {}   # name -> (value, unit, note)
    plain = result["seconds"]["plain"]
    if trace:
        traced = result["seconds"]["traced"]
        for name, unit in spans.METRICS.items():
            value = result["layers"][name]
            metrics[name] = (value if unit == "s" else round(value), unit,
                             f"median of {len(traced)} traced passes")
        metrics["trace.overhead_s"] = (
            statistics.median(traced) - statistics.median(plain), "s",
            f"traced minus untraced median pass, {len(traced)} + {len(plain)} passes")
        (work / "spans.jsonl").replace(run_dir / "spans.jsonl")
    else:
        setups = result["setups"]
        metrics["setup_s"] = (statistics.median(setups), "s",
                              f"median of {len(setups)} cold starts")
        metrics["pass_s"] = (statistics.fmean(plain), "s",
                             f"mean of {len(plain)} passes; median {statistics.median(plain):.6g} s")
        value, percentile = tail(plain)
        metrics["pass_s_tail"] = (value, "s", f"p{percentile:.1f} of {len(plain)} passes"
                                  + (", the maximum: under 20 passes" if len(plain) < 20 else ""))
        metrics["peak_rss_mb"] = (result["peak_rss_kb"] / 1024.0, "MB", "worker process")
    fail_frac = gate.failed / gate.attempted

    lines = [f"record: {json.dumps(record, sort_keys=True)}", *gate.report()]
    for name, (value, unit, note) in metrics.items():
        lines.append(f"metric {name} = {value:.6g} {unit} ({note})")
    lines.append(f"metric fail_frac = {fail_frac:.6g} fraction "
                 f"({gate.failed} of {gate.attempted} work items failed)")
    print("\n".join(lines))

    summary = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    (run_dir / "record.json").write_text(json.dumps({
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": record, "fail_frac": fail_frac, "summary": summary,
        "check": gate.report(), "seconds": result["seconds"], "setups": result["setups"],
    }, indent=1), encoding="utf-8")
    shutil.rmtree(work)
    print(json.dumps(summary))
    return 0


def _perturbed(text: str) -> str:
    """The CSV text with the last number of its last data row moved beyond
    every tolerance."""
    lines = text.splitlines()
    for i in reversed(range(len(lines))):
        if lines[i].startswith("#"):
            continue
        cells = lines[i].split(",")
        for j, cell in reversed(list(enumerate(cells))):
            value = verify.parse_cell(cell)
            if isinstance(value, float) and math.isfinite(value):
                cells[j] = repr(value * (1.0 + 1e-6) + 1e-5)
                lines[i] = ",".join(cells)
                return "\n".join(lines) + "\n"
    raise ValueError("no numeric cell to perturb")


def self_check() -> int:
    """Fast check of the benchmark itself; exit 0 when every probe passes."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []

    # 1. every declared metric prints by name with its unit
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = run("small", 0, 1.0, trace)
        text = buffer.getvalue()
        printed = json.loads(text.splitlines()[-1])["metrics"] if code == 0 else {}
        for metric in declared[key]:
            got = printed.get(metric["name"], {}).get("unit")
            if got != metric["unit"] or f"metric {metric['name']} = " not in text:
                problems.append(f"{key} metric {metric['name']} printed with unit {got!r}, "
                                f"declared {metric['unit']!r}")
        if "metric fail_frac = " not in text:
            problems.append("fail_frac is not printed")
    # 2. a perturbed copy of each reference output is counted in fail_frac
    for variant in range(scenarios.VARIANTS):
        for workload in scenarios.WORKLOADS:
            reference = verify.load_reference(variant, workload)
            gate = verify.Gate(reference)
            for item, files in sorted(reference.items()):
                gate.item(item, None, files, str)
                first = min(name for name in files if name.endswith(".csv"))
                gate.item(item, None, dict(files, **{first: _perturbed(files[first])}), str)
            frac = gate.failed / gate.attempted
            if frac != 0.5:
                problems.append(f"variant {variant} {workload}: fail_frac {frac:g} with one "
                                f"perturbed copy per clean item, expected 0.5")
    for problem in problems:
        print(f"self-check: FAILED {problem}")
    print(f"self-check: {'ok' if not problems else 'FAILED'}")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description="tunnellab scenario benchmark")
    parser.add_argument("--workload", choices=scenarios.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="check that every metric prints and perturbed outputs fail")
    args = parser.parse_args()
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
