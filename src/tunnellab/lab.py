"""Scenario driver: named reproductions of the reference tables and curves,
structured configuration input, and deterministic CSV/JSON emission.

Each scenario computes one or more result tables in a single thread: the
transit-time scenarios evaluate whole columns at once, and the quadrature
and search scenarios are numpy-bound loops that threads did not speed up.
Output ordering is fixed by row index, and a rerun with the same
configuration yields byte-identical files (the timestamp line is
suppressible).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .core import PhysicalConfig, ZoneError
from .stationary import (
    Parity,
    relativistic_transmission,
)
from .observables import (
    hartman_curve_nr,
    hartman_curve_relativistic,
    hartman_curve_symmetric,
    kmax_find,
    naive_above_barrier_times,
    nr_one_way_rate,
    rel_dwell,
    rel_phase_time,
    rel_rescaled_dwell,
    rel_self_interference,
    rel_variational_residual,
    symmetric_dwell,
    symmetric_phase_time,
    symmetric_self_interference,
)
from .wavepackets import (
    SpatialGrid,
    WaveField,
    field_norm,
    field_peak,
    free_gaussian,
    free_gaussian_peak,
    multipeak_partial_sum_field,
    propagate_component,
    spm_peak_prediction,
)

__all__ = [
    "ConfigError",
    "ScenarioError",
    "ScenarioSpec",
    "Sweep",
    "ResultTable",
    "SCENARIO_NAMES",
    "scenario_defaults",
    "parse_config",
    "run_scenario",
    "emit_tables",
]


class ConfigError(ValueError):
    """Malformed or invalid scenario configuration."""


class ScenarioError(RuntimeError):
    """The scenario itself failed to run."""


@dataclass(frozen=True)
class Sweep:
    parameter: str
    min: float
    max: float
    steps: int

    def values(self) -> np.ndarray:
        return np.linspace(self.min, self.max, self.steps)


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    config: dict = field(default_factory=dict)
    sweep: Sweep | None = None
    output: str | None = None


@dataclass
class ResultTable:
    name: str
    columns: list[str]
    rows: list[tuple]
    provenance: dict


# ---------------------------------------------------------------------------
# configuration parsing
# ---------------------------------------------------------------------------

_SCENARIO_DEFAULTS: dict[str, dict] = {
    "free-packet": {
        "m": 1.0, "a": 1.0, "k0": 2.0, "x0": -10.0,
        "t_max": 4.0, "t_steps": 9, "n_x": 2001,
    },
    "above-barrier-naive": {
        "wa": 1.0e4, "k0_over_w": math.sqrt(2.0), "L_over_a": 5.0,
        "n_snapshots": 6, "n_x": 801,
    },
    "multipeak": {
        "wa": 1.0e4, "k0_over_w": math.sqrt(10.0) / 3.0, "L_over_a": 5.0,
        "n_terms": 3, "n_snapshots": 6, "n_x": 801,
    },
    "confront": {
        "wa": 1.0e4, "k0_over_w": 5.0 * math.sqrt(2.0) / 7.0, "L_over_a": 0.8,
        "n_terms": 3, "n_snapshots": 6, "n_x": 601,
    },
    "table1": {
        "k0a": 1.0,
        "wa_values": [1.5, 2.0, 4.0, 6.0, 8.0, 10.0, 20.0],
        "L_over_a_min": 0.0, "L_over_a_max": 1.0, "L_over_a_step": 0.05,
    },
    "nr-phase": {
        "n_values": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
        "alpha_min": 0.05, "alpha_max": 30.0, "alpha_steps": 120,
        "saturation_tol": 1e-6,
    },
    "symmetric-times": {
        "wL": 4.0 * math.pi, "n_min": 0.02, "n_max": 0.98, "n_steps": 97,
    },
    "relativistic-times": {
        "wL": 2.0 * math.pi, "upsilon_values": [0.0, 1.0, 2.0, 5.0, 10.0],
        "n_sq_steps": 101, "edge_margin": 1e-3,
    },
    "hartman": {
        "n_values": [0.1, 0.3, 0.5, 0.7, 0.9],
        "alpha_max": 60.0, "alpha_steps": 240, "saturation_tol": 1e-6,
        "upsilon": 5.0, "wL": 2.0 * math.pi,
    },
}

SCENARIO_NAMES = tuple(sorted(_SCENARIO_DEFAULTS))

_SWEEPABLE: dict[str, str] = {
    "free-packet": "t",
    "nr-phase": "alpha",
    "symmetric-times": "n",
    "relativistic-times": "n_sq",
}


def scenario_defaults(name: str) -> dict:
    if name not in _SCENARIO_DEFAULTS:
        raise ScenarioError(f"unknown scenario {name!r}; choose one of {', '.join(SCENARIO_NAMES)}")
    return dict(_SCENARIO_DEFAULTS[name])


def parse_config(text: str, scenario: str | None = None) -> ScenarioSpec:
    """Parse a JSON scenario configuration in strict mode.

    Recognized top-level keys: scenario, config, sweep, output.  Unknown keys
    anywhere are rejected; parse errors carry line/column positions.
    """
    try:
        raw = json.loads(text) if text.strip() else {}
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(raw) - {"scenario", "config", "sweep", "output"}
    if unknown:
        raise ConfigError(f"unknown top-level keys: {', '.join(sorted(unknown))}")

    name = raw.get("scenario", scenario)
    if name is None:
        raise ConfigError("no scenario given (neither on the command line nor in the config)")
    if scenario is not None and raw.get("scenario") not in (None, scenario):
        raise ConfigError(
            f"config names scenario {raw['scenario']!r} but {scenario!r} was requested")
    if name not in _SCENARIO_DEFAULTS:
        raise ScenarioError(f"unknown scenario {name!r}; choose one of {', '.join(SCENARIO_NAMES)}")

    defaults = scenario_defaults(name)
    overrides = raw.get("config", {})
    if not isinstance(overrides, dict):
        raise ConfigError("'config' must be an object")
    unknown = set(overrides) - set(defaults)
    if unknown:
        raise ConfigError(
            f"unknown config keys for scenario {name!r}: {', '.join(sorted(unknown))}")
    config = {**defaults, **overrides}
    _validate_config(name, config)

    sweep = None
    if raw.get("sweep") is not None:
        sw = raw["sweep"]
        if not isinstance(sw, dict):
            raise ConfigError("'sweep' must be an object")
        unknown = set(sw) - {"parameter", "min", "max", "steps"}
        if unknown:
            raise ConfigError(f"unknown sweep keys: {', '.join(sorted(unknown))}")
        try:
            sweep = Sweep(parameter=str(sw["parameter"]), min=float(sw["min"]),
                          max=float(sw["max"]), steps=int(sw["steps"]))
        except KeyError as exc:
            raise ConfigError(f"sweep is missing key {exc.args[0]!r}") from exc
        if sweep.steps < 2:
            raise ConfigError("sweep needs steps >= 2")
        if not sweep.min < sweep.max:
            raise ConfigError("sweep needs min < max")
        allowed = _SWEEPABLE.get(name)
        if allowed is None:
            raise ConfigError(f"scenario {name!r} does not accept a sweep")
        if sweep.parameter != allowed:
            raise ConfigError(
                f"scenario {name!r} sweeps over {allowed!r}, not {sweep.parameter!r}")

    output = raw.get("output")
    if output is not None and not isinstance(output, str):
        raise ConfigError("'output' must be a string path prefix")
    return ScenarioSpec(name=name, config=config, sweep=sweep, output=output)


_TABLE1_MAX_CELLS = 100_000


def _table1_rows(config: dict) -> int:
    """Rows of the table1 L/a grid; ConfigError past _TABLE1_MAX_CELLS rows x wa_values."""
    span = (config["L_over_a_max"] - config["L_over_a_min"]) / config["L_over_a_step"]
    n_rows = round(span) + 1 if math.isfinite(span) else math.inf
    n_wa = len(config["wa_values"])
    if n_rows * max(n_wa, 1) > _TABLE1_MAX_CELLS:   # the rows are built even with no wa
        raise ConfigError(f"L_over_a_step = {config['L_over_a_step']!r} gives {n_rows:.6g} rows"
                          f" x {n_wa} wa_values; table1 allows {_TABLE1_MAX_CELLS} cells")
    return n_rows


def _validate_config(name: str, config: dict) -> None:
    def positive(key):
        if not (isinstance(config[key], (int, float)) and config[key] > 0):
            raise ConfigError(f"{key} must be a positive number, got {config[key]!r}")

    for key, value in config.items():
        if isinstance(value, bool) or value is None:
            raise ConfigError(f"{key} must be numeric or a list, got {value!r}")
    if name == "free-packet":
        for key in ("m", "a", "k0", "t_max"):
            positive(key)
    elif name in ("above-barrier-naive", "multipeak", "confront"):
        for key in ("wa", "L_over_a"):
            positive(key)
        if config["k0_over_w"] <= 1.0:
            raise ConfigError("k0_over_w must exceed 1 (above-barrier scenarios)")
    elif name == "table1":
        positive("k0a")
        positive("L_over_a_step")
        if config["L_over_a_min"] > config["L_over_a_max"]:
            raise ConfigError("L_over_a_min must not exceed L_over_a_max")
        _table1_rows(config)
    elif name == "symmetric-times":
        positive("wL")
        if not 0.0 < config["n_min"] < config["n_max"] < 1.0:
            raise ConfigError("need 0 < n_min < n_max < 1")
    elif name == "relativistic-times":
        positive("wL")
    elif name in ("nr-phase", "hartman"):
        pass


# ---------------------------------------------------------------------------
# scenario runners
# ---------------------------------------------------------------------------

def _rows(columns) -> list[tuple]:
    """Table rows of equal-length columns, as tuples of Python floats."""
    return list(zip(*(np.asarray(col, dtype=float).tolist() for col in columns)))


def _above_barrier_cfg(config: dict) -> PhysicalConfig:
    a = 1.0
    w = config["wa"] / a
    k0 = config["k0_over_w"] * w
    L = config["L_over_a"] * a
    x0 = -k0 * L / (2.0 * math.sqrt(k0 * k0 - w * w)) if L > 0 else -5.0 * a
    return PhysicalConfig.above_barrier(m=1.0 / (a * a), V0=w * w * a * a / 2.0,
                                        L=L, a=a, k0=k0, x0=x0)


def _snapshot_times(cfg: PhysicalConfig, n_snapshots: int) -> list[float]:
    q0 = math.sqrt(cfg.k0 ** 2 - cfg.w ** 2)
    unit = cfg.m * cfg.L / q0 if cfg.L > 0 else cfg.m * cfg.a / cfg.k0
    return [n * unit for n in range(n_snapshots)]


def _run_free_packet(config: dict, sweep: Sweep | None) -> list[ResultTable]:
    cfg = PhysicalConfig(m=config["m"], V0=1.0, L=0.0, a=config["a"],
                         k0=config["k0"], x0=config["x0"])
    # sweep and default both quote t in units of the spreading time m a^2
    if sweep is not None:
        times = sweep.values() * cfg.m * cfg.a ** 2
    else:
        times = np.linspace(0.0, config["t_max"] * cfg.m * cfg.a ** 2, int(config["t_steps"]))
    rows = []
    for t in times:
        center = free_gaussian_peak(float(t), cfg)
        spread = cfg.a * math.sqrt(1.0 + (2.0 * t / (cfg.m * cfg.a ** 2)) ** 2)
        grid = SpatialGrid(center - 12.0 * spread, center + 12.0 * spread, int(config["n_x"]))
        fld = WaveField(grid=grid, values=np.asarray(free_gaussian(grid.x, float(t), cfg)),
                        t=float(t), component_tag="free")
        pk = field_peak(fld)
        rows.append((float(t), center, pk.x, field_norm(fld)))
    return [ResultTable(
        name="free_packet",
        columns=["t", "x_peak_predicted", "x_peak_measured", "norm"],
        rows=rows,
        provenance={"grid.n_x": int(config["n_x"])},
    )]


def _run_above_barrier_naive(config: dict, sweep) -> list[ResultTable]:
    cfg = _above_barrier_cfg(config)
    times_at = naive_above_barrier_times(cfg, 0.0)
    times_at_L = naive_above_barrier_times(cfg, cfg.L)
    summary = ResultTable(
        name="naive_times",
        columns=["x", "t_incident", "t_reflected", "t_alpha", "t_beta", "t_transmitted"],
        rows=[
            (0.0, times_at.incident, times_at.reflected, times_at.alpha,
             times_at.beta, times_at.transmitted),
            (cfg.L, times_at_L.incident, times_at_L.reflected, times_at_L.alpha,
             times_at_L.beta, times_at_L.transmitted),
        ],
        provenance={},
    )
    snapshots = _snapshot_times(cfg, int(config["n_snapshots"]))
    rows = []
    for idx, t in enumerate(snapshots):
        for tag in ("incident", "reflected", "alpha", "beta", "transmitted"):
            x_pred = spm_peak_prediction(tag, t, cfg)
            rows.append((idx, t, tag, x_pred))
    peaks = ResultTable(
        name="naive_peak_positions",
        columns=["snapshot", "t", "component", "x_peak_naive"],
        rows=rows,
        provenance={},
    )
    return [summary, peaks]


def _run_multipeak(config: dict, sweep) -> list[ResultTable]:
    cfg = _above_barrier_cfg(config)
    q0 = math.sqrt(cfg.k0 ** 2 - cfg.w ** 2)
    n_terms = int(config["n_terms"])
    snapshots = _snapshot_times(cfg, int(config["n_snapshots"]))
    n_x = int(config["n_x"])
    span = 22.0 * cfg.a + 2.0 * n_terms * (cfg.k0 / q0) * cfg.L
    regions = {
        "reflected": SpatialGrid(-span, 0.0, n_x),
        "alpha": SpatialGrid(0.0, cfg.L, max(101, n_x // 4)) if cfg.L > 0 else None,
        "beta": SpatialGrid(0.0, cfg.L, max(101, n_x // 4)) if cfg.L > 0 else None,
        "transmitted": SpatialGrid(cfg.L, cfg.L + span, n_x),
    }
    rows = []
    for idx, t in enumerate(snapshots):
        for tag, grid in regions.items():
            if grid is None:
                continue
            fld = multipeak_partial_sum_field(tag, n_terms, grid, t, cfg)
            pk = field_peak(fld)
            rows.append((idx, t, tag, pk.x, pk.density))
    peaks = ResultTable(
        name="multipeak_peaks",
        columns=["snapshot", "t", "component", "x_peak", "density_peak"],
        rows=rows,
        provenance={"config.n_terms": n_terms},
    )
    round_trip = ResultTable(
        name="multipeak_recurrence",
        columns=["quantity", "value"],
        rows=[("one_way_transit", cfg.m * cfg.L / q0),
              ("round_trip_delay", 2.0 * cfg.m * cfg.L / q0)],
        provenance={},
    )
    return [peaks, round_trip]


def _run_confront(config: dict, sweep) -> list[ResultTable]:
    cfg = _above_barrier_cfg(config)
    n_terms = int(config["n_terms"])
    n_x = int(config["n_x"])
    snapshots = _snapshot_times(cfg, int(config["n_snapshots"]))
    q0 = math.sqrt(cfg.k0 ** 2 - cfg.w ** 2)
    span = 20.0 * cfg.a + 2.0 * n_terms * (cfg.k0 / q0) * cfg.L
    grids = {
        "incident": SpatialGrid(-span, 0.0, n_x),
        "reflected": SpatialGrid(-span, 0.0, n_x),
        "alpha": SpatialGrid(0.0, cfg.L, max(51, n_x // 4)),
        "beta": SpatialGrid(0.0, cfg.L, max(51, n_x // 4)),
        "transmitted": SpatialGrid(cfg.L, cfg.L + span, n_x),
    }

    sample_stride = max(1, n_x // 80)

    def one(idx, t, tag):
        grid = grids[tag]
        ana = multipeak_partial_sum_field(tag, n_terms, grid, t, cfg)
        num = propagate_component(tag, grid, t, cfg)
        d_ana = ana.density()
        d_num = num.density()
        max_diff = float(np.max(np.abs(d_ana - d_num)))
        pairs = [(idx, t, tag, float(x), float(da), float(dn))
                 for x, da, dn in zip(grid.x[::sample_stride],
                                      d_ana[::sample_stride],
                                      d_num[::sample_stride])]
        return (idx, t, tag, max_diff, float(d_num.max())), pairs

    results = [one(idx, t, tag) for idx, t in enumerate(snapshots) for tag in grids]
    diffs = ResultTable(
        name="confront_summary",
        columns=["snapshot", "t", "component", "max_abs_density_diff", "density_peak_numeric"],
        rows=[r[0] for r in results],
        provenance={"config.n_terms": n_terms, "grid.n_x": n_x},
    )
    fields = ResultTable(
        name="confront_fields",
        columns=["snapshot", "t", "component", "x", "density_analytic", "density_numeric"],
        rows=[row for r in results for row in r[1]],
        provenance={"config.n_terms": n_terms, "grid.n_x": n_x,
                    "grid.sample_stride": sample_stride},
    )
    return [diffs, fields]


def _run_table1(config: dict, sweep) -> list[ResultTable]:
    k0a = config["k0a"]
    L_values = [config["L_over_a_min"] + i * config["L_over_a_step"]
                for i in range(_table1_rows(config))]
    cells = [(float(wa), Lba) for Lba in L_values for wa in config["wa_values"]]
    found = kmax_find([PhysicalConfig(m=1.0, V0=wa * wa / 2.0, L=Lba, a=1.0, k0=k0a)
                       for wa, Lba in cells])
    rows = [(wa, Lba, "*" if result.distorted else result.k_max)
            for (wa, Lba), result in zip(cells, found)]
    return [ResultTable(
        name="table1",
        columns=["wa", "L_over_a", "kmax_a"],
        rows=rows,
        provenance={"config.k0a": k0a, "grid.n_scan": 2000, "grid.tol_ka": 1e-8},
    )]


def _run_nr_phase(config: dict, sweep: Sweep | None) -> list[ResultTable]:
    if sweep is not None:
        alphas = sweep.values()
    else:
        alphas = np.linspace(config["alpha_min"], config["alpha_max"],
                             int(config["alpha_steps"]))
    rows = []
    sat_rows = []
    for n in config["n_values"]:
        n = float(n)
        curve = hartman_curve_nr(n, alphas, tol=float(config["saturation_tol"]))
        boson = np.atleast_1d(np.asarray(symmetric_phase_time(n, alphas, Parity.SYMMETRIC)))
        fermion = np.atleast_1d(np.asarray(symmetric_phase_time(n, alphas, Parity.ANTISYMMETRIC)))
        for a, rate, ratio, tb, tf in zip(curve.parameter, curve.t_over_tau,
                                          curve.ratio_to_limit, boson, fermion):
            rows.append((n, float(a), float(rate), float(ratio), float(tb), float(tf)))
        sat_rows.append((n, curve.saturation_parameter
                         if curve.saturation_parameter is not None else math.nan))
    return [
        ResultTable(name="one_way_rate",
                    columns=["n", "alpha", "t_over_tau", "ratio_to_opaque_limit",
                             "t_over_tau_boson", "t_over_tau_fermion"],
                    rows=rows, provenance={}),
        ResultTable(name="opaque_saturation",
                    columns=["n", "alpha_saturation"], rows=sat_rows,
                    provenance={"config.saturation_tol": config["saturation_tol"]}),
    ]


def _run_symmetric_times(config: dict, sweep: Sweep | None) -> list[ResultTable]:
    wL = float(config["wL"])
    if sweep is not None:
        ns = sweep.values()
    else:
        ns = np.linspace(config["n_min"], config["n_max"], int(config["n_steps"]))
    alpha = wL * np.sqrt(1.0 - ns)
    columns = [ns, alpha]
    for parity in (Parity.SYMMETRIC, Parity.ANTISYMMETRIC):
        tp = symmetric_phase_time(ns, alpha, parity)
        td = symmetric_dwell(ns, alpha, parity)
        ts = symmetric_self_interference(ns, alpha, parity)
        columns += [tp, td, ts, tp - td - ts]
    columns.append(nr_one_way_rate(ns, alpha))
    return [ResultTable(
        name="symmetric_times",
        columns=["n", "alpha",
                 "t_phase_plus", "t_dwell_plus", "t_self_plus", "identity_plus",
                 "t_phase_minus", "t_dwell_minus", "t_self_minus", "identity_minus",
                 "t_one_way"],
        rows=_rows(columns),
        provenance={"config.wL": wL},
    )]


def _run_relativistic_times(config: dict, sweep: Sweep | None) -> list[ResultTable]:
    wL = float(config["wL"])
    margin = float(config["edge_margin"])
    rows = []
    for upsilon in config["upsilon_values"]:
        upsilon = float(upsilon)
        lo = max(0.5 * upsilon - 1.0, 0.0) + margin
        hi = 0.5 * upsilon + 1.0 - margin
        if sweep is not None:
            ns = sweep.values()
        else:
            ns = np.linspace(lo, hi, int(config["n_sq_steps"]))
        ns = ns[(ns > 0.0) & (np.abs(ns - 0.5 * upsilon) < 1.0)]
        if ns.size == 0:
            continue
        T_mag, phi = relativistic_transmission(ns, upsilon, wL)
        if upsilon > 0.0:
            rel_only = [rel_rescaled_dwell(ns, upsilon, wL),
                        rel_self_interference(ns, upsilon, wL),
                        rel_variational_residual(ns, upsilon, wL)]
        else:
            rel_only = [np.full(ns.size, math.nan)] * 3
        rows += _rows([np.full(ns.size, upsilon), ns, T_mag ** 2, phi,
                       rel_phase_time(ns, upsilon, wL), rel_dwell(ns, upsilon, wL),
                       *rel_only])
    return [ResultTable(
        name="relativistic_times",
        columns=["upsilon", "n_sq", "T_sq", "phase", "t_phase", "t_dwell",
                 "t_dwell_rescaled", "t_self", "identity_residual"],
        rows=rows,
        provenance={"config.wL": wL},
    )]


def _run_hartman(config: dict, sweep) -> list[ResultTable]:
    alphas = np.linspace(0.5, float(config["alpha_max"]), int(config["alpha_steps"]))
    tol = float(config["saturation_tol"])
    rows = []
    for n in config["n_values"]:
        n = float(n)
        nr = hartman_curve_nr(n, alphas, tol=tol)
        rows.append(("one-way", n,
                     nr.saturation_parameter if nr.saturation_parameter is not None else math.nan,
                     float(nr.ratio_to_limit[-1])))
        for parity, label in ((Parity.SYMMETRIC, "boson"), (Parity.ANTISYMMETRIC, "fermion")):
            # the symmetric rates decay like 2/alpha: a 5e-2 band is reachable
            # within the default sweep
            sym = hartman_curve_symmetric(n, alphas, parity, tol=5e-2)
            rows.append((f"symmetric-{label}", n,
                         sym.saturation_parameter if sym.saturation_parameter is not None else math.nan,
                         float(sym.t_over_tau[-1])))
    upsilon, wL = float(config["upsilon"]), float(config["wL"])
    lo = max(0.5 * upsilon - 1.0, 0.0) + 1e-3
    hi = 0.5 * upsilon + 1.0 - 1e-3
    rel = hartman_curve_relativistic(upsilon, wL, np.linspace(lo, hi, 101))
    finite = bool(np.all(np.isfinite(rel.t_over_tau)))
    rows.append(("relativistic", upsilon, math.nan, float(np.max(np.abs(rel.t_over_tau)))))
    return [ResultTable(
        name="hartman_saturation",
        columns=["family", "parameter", "alpha_saturation", "terminal_value"],
        rows=rows,
        provenance={"config.saturation_tol": tol, "relativistic_curve_finite": finite},
    )]


_RUNNERS = {
    "free-packet": _run_free_packet,
    "above-barrier-naive": _run_above_barrier_naive,
    "multipeak": _run_multipeak,
    "confront": _run_confront,
    "table1": _run_table1,
    "nr-phase": _run_nr_phase,
    "symmetric-times": _run_symmetric_times,
    "relativistic-times": _run_relativistic_times,
    "hartman": _run_hartman,
}


def run_scenario(spec: ScenarioSpec, threads: int = 1) -> list[ResultTable]:
    """Run one scenario and return its result tables (deterministic).

    ``threads`` is accepted for compatibility and ignored: every scenario
    runs in the calling thread.
    """
    if spec.name not in _RUNNERS:
        raise ScenarioError(f"unknown scenario {spec.name!r}; choose one of {', '.join(SCENARIO_NAMES)}")
    try:
        tables = _RUNNERS[spec.name](spec.config, spec.sweep)
    except (ConfigError, ScenarioError):
        raise
    except (ZoneError, ValueError) as exc:
        raise ConfigError(f"invalid configuration for scenario {spec.name!r}: {exc}") from exc
    for table in tables:
        prov = {"scenario": spec.name, "version": __version__}
        for key in sorted(spec.config):
            prov[f"config.{key}"] = spec.config[key]
        if spec.sweep is not None:
            prov["sweep"] = (f"{spec.sweep.parameter}:{spec.sweep.min}"
                             f":{spec.sweep.max}:{spec.sweep.steps}")
        prov.update(table.provenance)
        table.provenance = prov
    return tables


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def _format_value(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (list, tuple)):
        return "[" + " ".join(_format_value(v) for v in value) + "]"
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    value = float(value)
    if math.isnan(value):
        return "nan"
    return f"{value:.9g}"


def emit_tables(tables: list[ResultTable], prefix: str, *, json_mirror: bool = False,
                timestamp: str | None = None) -> list[Path]:
    """Write each table to <prefix>_<table>.csv (plus .json when asked).

    The CSV starts with '#'-prefixed provenance lines; floats are printed to
    nine significant digits so reruns are byte-identical.
    """
    out_paths: list[Path] = []
    prefix_path = Path(prefix)
    if prefix_path.parent != Path("."):
        prefix_path.parent.mkdir(parents=True, exist_ok=True)
    for table in tables:
        for row in table.rows:
            if len(row) != len(table.columns):
                raise ScenarioError(
                    f"table {table.name!r}: row of width {len(row)} does not "
                    f"match {len(table.columns)} columns")
        lines = []
        for key, value in table.provenance.items():
            lines.append(f"# {key} = {_format_value(value)}")
        if timestamp is not None:
            lines.append(f"# generated_at = {timestamp}")
        lines.append(",".join(table.columns))
        for row in table.rows:
            lines.append(",".join(_format_value(v) for v in row))
        path = prefix_path.parent / f"{prefix_path.name}_{table.name}.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out_paths.append(path)
        if json_mirror:
            payload = {
                "provenance": {k: (v if isinstance(v, str) else _format_value(v))
                               for k, v in table.provenance.items()},
                "columns": table.columns,
                "rows": [[v if isinstance(v, str) else float(v) for v in row]
                         for row in table.rows],
            }
            if timestamp is not None:
                payload["provenance"]["generated_at"] = timestamp
            jpath = path.with_suffix(".json")
            jpath.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")
            out_paths.append(jpath)
    return out_paths
