"""Regenerate the stored reference outputs of every input variant.

    python3 bench/make_reference.py

Runs each workload's items once per variant and stores their outputs in
bench/reference/variant<V>.json.gz.  Do this only at a commit whose outputs
are the accepted ones: the correctness gate compares every later run with
these files.
"""

from __future__ import annotations

import gzip
import json
import os
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"   # as in the benchmark's worker; set before numpy loads

import scenarios  # noqa: E402
import verify  # noqa: E402


def outputs(workload: str, variant: int, scratch: Path) -> dict:
    result = {}
    for item in scenarios.work_items(workload, variant, scratch / "config"):
        directory = scratch / workload / item.name
        directory.mkdir(parents=True)
        item.finish(item.run(directory), directory)
        result[item.name] = {path.name: path.read_text(encoding="utf-8")
                             for path in sorted(directory.iterdir())}
    return result


def main() -> None:
    verify.REFERENCE_DIR.mkdir(exist_ok=True)
    for variant in range(scenarios.VARIANTS):
        with tempfile.TemporaryDirectory(dir=BENCH) as scratch:
            reference = {workload: outputs(workload, variant, Path(scratch))
                         for workload in scenarios.WORKLOADS}
        data = json.dumps(reference, sort_keys=True, indent=0).encode("utf-8")
        verify.reference_path(variant).write_bytes(gzip.compress(data, mtime=0))
        print(f"{verify.reference_path(variant)}: {len(data)} bytes before compression")


if __name__ == "__main__":
    main()
