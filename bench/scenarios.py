"""Benchmark inputs: the work items of each workload, generated from a seed.

The seed selects one of two input variants (seed mod 2).  Variant 0 is the
scenario defaults, i.e. the paper's figures and Table 1; variant 1 is a
held-out set of perturbed inputs of the same size.  Reference outputs of both
variants are stored under ``reference/``, so every seed is checked.

A work item writes its outputs into the directory it is given.  ``run`` is
the timed part; ``finish`` writes what ``run`` kept in memory and is not timed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

VARIANTS = 2

WORKLOADS = ("packets", "times", "table1", "small")

_SCENARIOS = {
    "packets": ("confront",),
    "times": ("relativistic-times", "symmetric-times"),
    "table1": ("table1",),
    "small": ("free-packet", "above-barrier-naive", "multipeak", "nr-phase", "hartman"),
}

# Config overrides of the held-out variant.  Each keeps the work of the
# default inputs: the same rows, cells, grids and quadrature refinement levels.
_HELD_OUT = {
    "confront": {"L_over_a": 0.7},
    "relativistic-times": {"wL": 1.8 * math.pi, "upsilon_values": [0.0, 1.5, 3.0, 6.0, 12.0]},
    "symmetric-times": {"wL": 3.6 * math.pi},
    "table1": {"k0a": 1.1},
    "free-packet": {"k0": 2.5, "x0": -8.0},
    "above-barrier-naive": {"k0_over_w": 1.5, "L_over_a": 4.5},
    "multipeak": {"L_over_a": 4.5},
    "nr-phase": {"n_values": [0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95]},
    "hartman": {"upsilon": 6.0, "wL": 1.8 * math.pi},
}

# Transmitted packets of the tunneling geometry (k0 a = 1, barrier w a and
# L/a as in Table 1), one field per (w a, t) at n_x = 601.
_TUNNEL = {
    0: {"wa": (4.0, 6.0, 10.0), "L_over_a": 0.3, "times": (8.0, 14.0)},
    1: {"wa": (3.5, 7.0, 12.0), "L_over_a": 0.3, "times": (9.0, 13.0)},
}
_TUNNEL_NX = 601
_TUNNEL_SPAN = 40.0


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def config_text(scenario: str, variant: int) -> str:
    overrides = _HELD_OUT[scenario] if variant == 1 else {}
    return json.dumps({"config": overrides}, sort_keys=True)


class ScenarioItem:
    """parse_config, run_scenario (threads=1) and emit_tables, in process."""

    def __init__(self, scenario: str, variant: int):
        self.name = scenario
        self.text = config_text(scenario, variant)

    def run(self, directory: Path):
        from tunnellab import lab

        spec = lab.parse_config(self.text, self.name)
        tables = lab.run_scenario(spec, threads=1)
        lab.emit_tables(tables, str(directory / self.name))

    def finish(self, kept, directory: Path) -> None:
        pass


class CliItem:
    """``tunnellab run <scenario> --config F --out P --json --no-timestamp``."""

    def __init__(self, scenario: str, variant: int, config_dir: Path):
        self.name = scenario
        self.config_path = config_dir / f"{scenario}.json"
        self.config_path.write_text(config_text(scenario, variant), encoding="utf-8")

    def run(self, directory: Path):
        from tunnellab import cli

        argv = ["run", self.name, "--config", str(self.config_path),
                "--out", str(directory / self.name), "--json", "--no-timestamp"]
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        if code != 0:
            raise RuntimeError(f"tunnellab exited with code {code}")

    def finish(self, kept, directory: Path) -> None:
        pass


class TunnelItem:
    """One propagate_tunnel_transmitted field; its density is written untimed."""

    def __init__(self, index: int, wa: float, L_over_a: float, t: float):
        self.name = f"tunnel-{index}"
        self.params = {"wa": wa, "L_over_a": L_over_a, "t": t}

    def run(self, directory: Path):
        from tunnellab import wavepackets
        from tunnellab.core import PhysicalConfig

        p = self.params
        cfg = PhysicalConfig.tunneling(m=1.0, V0=p["wa"] ** 2 / 2.0, L=p["L_over_a"],
                                       a=1.0, k0=1.0, x0=-8.0)
        half = 0.5 * cfg.L
        grid = wavepackets.SpatialGrid(half, half + _TUNNEL_SPAN, _TUNNEL_NX)
        fld = wavepackets.propagate_tunnel_transmitted(grid, p["t"], cfg)
        return grid.x, fld.density()

    def finish(self, kept, directory: Path) -> None:
        xs, density = kept
        lines = [f"# {key} = {value!r}" for key, value in self.params.items()]
        lines.append("x,density")
        lines += [f"{x:.9g},{d:.9g}" for x, d in zip(xs, density)]
        (directory / "tunnel.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def work_items(workload: str, seed: int, config_dir: Path) -> list:
    """The items of one pass, in order; the same seed gives the same items."""
    if workload not in _SCENARIOS:
        raise ValueError(f"unknown workload {workload!r}; choose one of {', '.join(WORKLOADS)}")
    variant = variant_of(seed)
    if workload == "small":
        config_dir.mkdir(parents=True, exist_ok=True)
        return [CliItem(s, variant, config_dir) for s in _SCENARIOS[workload]]
    items = [ScenarioItem(s, variant) for s in _SCENARIOS[workload]]
    if workload == "packets":
        batch = _TUNNEL[variant]
        fields = [(wa, t) for wa in batch["wa"] for t in batch["times"]]
        items += [TunnelItem(i, wa, batch["L_over_a"], t) for i, (wa, t) in enumerate(fields)]
    return items


def cold_start_args(workload: str, seed: int) -> list[str]:
    """scenario / config-text pairs that the cold start parses."""
    variant = variant_of(seed)
    args = []
    for scenario in _SCENARIOS[workload]:
        args += [scenario, config_text(scenario, variant)]
    return args
