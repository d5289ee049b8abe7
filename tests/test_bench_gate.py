"""The benchmark's correctness gate as a test: every work item of every
workload, once per input variant, scored against the stored reference.

`bench/` is imported by path and used as it is: `scenarios.work_items` gives
the items and `verify.Gate` scores their outputs with the benchmark's own
tolerances.
"""

import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


scenarios = _load("scenarios")
verify = _load("verify")


@pytest.mark.parametrize("seed", range(scenarios.VARIANTS))
@pytest.mark.parametrize("workload", scenarios.WORKLOADS)
def test_work_items_pass_the_gate(workload, seed, tmp_path):
    gate = verify.Gate(verify.load_reference(scenarios.variant_of(seed), workload))
    for item in scenarios.work_items(workload, seed, tmp_path / "config"):
        directory = tmp_path / "out" / item.name
        directory.mkdir(parents=True)
        item.finish(item.run(directory), directory)
        outputs = {path.name: path for path in sorted(directory.iterdir())}
        gate.item(item.name, None, outputs, lambda path: path.read_text(encoding="utf-8"))
    assert gate.attempted > 0
    assert gate.failed == 0, "\n".join(gate.report())
