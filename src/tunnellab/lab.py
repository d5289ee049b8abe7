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
from contextlib import nullcontext
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .core import PhysicalConfig, ZoneError, _in_rel_zone
from .stationary import Parity, relativistic_transmission
from .observables import (
    _KMAX_N_SCAN,
    _KMAX_TOL_KA,
    _saturation_start,
    _symmetric_triple,
    kmax_find,
    naive_above_barrier_times,
    nr_one_way_rate,
    rel_dwell,
    rel_phase_time,
    rel_rescaled_dwell,
    rel_self_interference,
    rel_variational_residual,
    symmetric_phase_time,
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
    provenance: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# configuration parsing
# ---------------------------------------------------------------------------

_MAX_POINTS = 10_000_000   # work limit of every scenario, see _work
_TABLE1_MAX_CELLS = 100_000
_HARTMAN_EDGE_MARGIN = 1e-3


def _table1_rows(config: dict) -> int:
    """Rows of the table1 L/a grid; ConfigError past _TABLE1_MAX_CELLS rows x wa_values."""
    span = (config["L_over_a_max"] - config["L_over_a_min"]) / config["L_over_a_step"]
    n_rows = round(span) + 1 if math.isfinite(span) else math.inf
    n_wa = len(config["wa_values"])
    if n_rows * max(n_wa, 1) > _TABLE1_MAX_CELLS:   # the rows are built even with no wa
        raise ConfigError(f"L_over_a_step = {config['L_over_a_step']!r} gives {n_rows:.6g} rows"
                          f" x {n_wa} wa_values; table1 allows {_TABLE1_MAX_CELLS} cells")
    return n_rows


@dataclass(frozen=True)
class _Scenario:   # one entry of _SCHEMA, the table after the runners
    keys: dict                  # key -> (default, rule), see _coerce
    work: tuple                 # factors of the work estimate, see _work
    run: Callable               # the runner: (config, sweep) -> list[ResultTable]
    sweep: tuple | None = None  # (sweep parameter, the steps key its steps replace)


def scenario_defaults(name: str) -> dict:
    if name not in _SCHEMA:
        raise ScenarioError(f"unknown scenario {name!r}; choose one of {', '.join(SCENARIO_NAMES)}")
    return {key: (list(default) if isinstance(default, list) else default)
            for key, (default, _) in _SCHEMA[name].keys.items()}


def _coerce(key: str, value, default, rule: str, known: dict):
    """``value`` as the type of ``default``, inside ``rule``; ConfigError naming ``key``.

    The default's type is the key's type: an int is a count, a float a
    number, a list a list of numbers. Bools, strings, non-finite numbers and
    non-integral counts are rejected. The rule is an interval such as
    "(0, inf)" or "[1, inf)"; an end that is not a number is the value of an
    earlier key, read from ``known``.
    """
    if isinstance(default, list):
        if not isinstance(value, list):
            raise ConfigError(f"{key} must be a list of numbers, got {value!r}")
        return [_coerce(key, item, 0.0, rule, known) for item in value]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:          # an integer past the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{key} must be finite, got {value!r}")
    if isinstance(default, int):
        if not number.is_integer():
            raise ConfigError(f"{key} must be an integer count, got {value!r}")
        number = int(number)
    lo, hi = (known[end] if end in known else float(end) for end in rule[1:-1].split(", "))
    if not ((lo < number if rule[0] == "(" else lo <= number)
            and (number < hi if rule[-1] == ")" else number <= hi)):
        raise ConfigError(f"{key} must lie in {rule}, got {value!r}")
    return number


def _work(name: str, config: dict, sweep: Sweep | None = None) -> float:
    """Work estimate of a scenario: the product of its work factors.

    A key counts its value, or its list's length (at least 1, since the
    steps grid is built even for an empty list); a sweep's steps replace the
    steps key it stands for; an int is a weight; a callable reads the config.
    """
    scenario = _SCHEMA[name]
    size = 1.0
    for factor in scenario.work:
        if callable(factor):
            size *= factor(config)
        elif isinstance(factor, int):
            size *= factor
        elif sweep is not None and factor == scenario.sweep[1]:
            size *= sweep.steps
        else:
            value = config[factor]
            size *= max(len(value), 1) if isinstance(value, list) else value
    if size > _MAX_POINTS:
        factors = " x ".join(str(f) for f in scenario.work if not callable(f))
        raise ConfigError(f"{factors} gives {size:.6g} points; {name} allows {_MAX_POINTS}")
    return size


def parse_config(text: str, scenario: str | None = None) -> ScenarioSpec:
    """Parse a JSON scenario configuration in strict mode.

    Recognized top-level keys: scenario, config, sweep, output.  Unknown keys
    anywhere are rejected; parse errors carry line/column positions.  Every
    value is checked against the schema and stored as its key's type, and the
    work estimate is checked before anything is built.
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
    if name not in _SCHEMA:
        raise ScenarioError(f"unknown scenario {name!r}; choose one of {', '.join(SCENARIO_NAMES)}")

    schema = _SCHEMA[name]
    overrides = raw.get("config", {})
    if not isinstance(overrides, dict):
        raise ConfigError("'config' must be an object")
    unknown = set(overrides) - set(schema.keys)
    if unknown:
        raise ConfigError(
            f"unknown config keys for scenario {name!r}: {', '.join(sorted(unknown))}")
    config: dict = {}
    for key, (default, rule) in schema.keys.items():
        config[key] = _coerce(key, overrides.get(key, default), default, rule, config)

    sweep = None
    if raw.get("sweep") is not None:
        sw = raw["sweep"]
        if not isinstance(sw, dict) or set(sw) != {"parameter", *_SWEEP_KEYS}:
            raise ConfigError(f"'sweep' must be an object with exactly the keys parameter,"
                              f" min, max and steps; got {sw!r}")
        if schema.sweep is None:
            raise ConfigError(f"scenario {name!r} does not accept a sweep")
        if sw["parameter"] != schema.sweep[0]:
            raise ConfigError(
                f"scenario {name!r} sweeps over {schema.sweep[0]!r}, not {sw['parameter']!r}")
        fields: dict = {}
        for key, (default, rule) in _SWEEP_KEYS.items():
            fields[key] = _coerce(f"sweep {key}", sw[key], default, rule, fields)
        if not fields["min"] < fields["max"]:
            raise ConfigError("sweep needs min < max")
        sweep = Sweep(parameter=schema.sweep[0], **fields)

    _work(name, config, sweep)
    output = raw.get("output")
    if output is not None and not isinstance(output, str):
        raise ConfigError("'output' must be a string path prefix")
    return ScenarioSpec(name=name, config=config, sweep=sweep, output=output)


# ---------------------------------------------------------------------------
# scenario runners
# ---------------------------------------------------------------------------

def _rows(columns) -> list[tuple]:
    """Table rows of equal-length columns, as tuples of Python floats."""
    return list(zip(*(np.asarray(col, dtype=float).tolist() for col in columns)))


def _zone_bounds(upsilon: float, margin: float) -> tuple[float, float]:
    """n^2 bounds of the tunneling zone (n^2 - upsilon/2)^2 < 1, moved in by margin."""
    return max(0.5 * upsilon - 1.0, 0.0) + margin, 0.5 * upsilon + 1.0 - margin


def _above_barrier_cfg(config: dict) -> PhysicalConfig:
    a = 1.0
    w = config["wa"] / a
    k0 = config["k0_over_w"] * w
    L = config["L_over_a"] * a
    x0 = -k0 * L / (2.0 * math.sqrt(k0 * k0 - w * w))
    return PhysicalConfig.above_barrier(m=1.0 / (a * a), V0=w * w * a * a / 2.0,
                                        L=L, a=a, k0=k0, x0=x0)


def _snapshot_times(cfg: PhysicalConfig, n_snapshots: int) -> list[float]:
    q0 = math.sqrt(cfg.k0 ** 2 - cfg.w ** 2)
    unit = cfg.m * cfg.L / q0
    return [n * unit for n in range(n_snapshots)]


def _run_free_packet(config: dict, sweep: Sweep | None) -> list[ResultTable]:
    cfg = PhysicalConfig(m=config["m"], V0=1.0, L=0.0, a=config["a"],
                         k0=config["k0"], x0=config["x0"])
    # sweep and default both quote t in units of the spreading time m a^2
    times = (sweep.values() * cfg.m * cfg.a ** 2 if sweep else
             np.linspace(0.0, config["t_max"] * cfg.m * cfg.a ** 2, config["t_steps"]))
    rows = []
    for t in times:
        center = free_gaussian_peak(float(t), cfg)
        spread = cfg.a * math.sqrt(1.0 + (2.0 * t / (cfg.m * cfg.a ** 2)) ** 2)
        grid = SpatialGrid(center - 12.0 * spread, center + 12.0 * spread, config["n_x"])
        fld = WaveField(grid=grid, values=np.asarray(free_gaussian(grid.x, float(t), cfg)),
                        t=float(t), component_tag="free")
        pk = field_peak(fld)
        rows.append((float(t), center, pk.x, field_norm(fld)))
    return [ResultTable(
        name="free_packet",
        columns=["t", "x_peak_predicted", "x_peak_measured", "norm"],
        rows=rows,
        provenance={"grid.n_x": config["n_x"]},
    )]


def _run_above_barrier_naive(config: dict, sweep) -> list[ResultTable]:
    cfg = _above_barrier_cfg(config)
    times_at = naive_above_barrier_times(cfg, 0.0)
    times_at_L = naive_above_barrier_times(cfg, cfg.L)
    summary = ResultTable(
        name="naive_times",
        columns=["x", "t_incident", "t_reflected", "t_alpha", "t_beta", "t_transmitted"],
        rows=[(x, t.incident, t.reflected, t.alpha, t.beta, t.transmitted)
              for x, t in ((0.0, times_at), (cfg.L, times_at_L))],
    )
    snapshots = _snapshot_times(cfg, config["n_snapshots"])
    rows = []
    for idx, t in enumerate(snapshots):
        for tag in ("incident", "reflected", "alpha", "beta", "transmitted"):
            x_pred = spm_peak_prediction(tag, t, cfg)
            rows.append((idx, t, tag, x_pred))
    peaks = ResultTable(
        name="naive_peak_positions",
        columns=["snapshot", "t", "component", "x_peak_naive"],
        rows=rows,
    )
    return [summary, peaks]


def _run_multipeak(config: dict, sweep) -> list[ResultTable]:
    cfg = _above_barrier_cfg(config)
    q0 = math.sqrt(cfg.k0 ** 2 - cfg.w ** 2)
    n_terms, n_x = config["n_terms"], config["n_x"]
    snapshots = _snapshot_times(cfg, config["n_snapshots"])
    span = 22.0 * cfg.a + 2.0 * n_terms * (cfg.k0 / q0) * cfg.L
    regions = {
        "reflected": SpatialGrid(-span, 0.0, n_x),
        "alpha": SpatialGrid(0.0, cfg.L, max(101, n_x // 4)),
        "beta": SpatialGrid(0.0, cfg.L, max(101, n_x // 4)),
        "transmitted": SpatialGrid(cfg.L, cfg.L + span, n_x),
    }
    rows = []
    for idx, t in enumerate(snapshots):
        for tag, grid in regions.items():
            fld = multipeak_partial_sum_field(tag, n_terms, grid, t, cfg)
            pk = field_peak(fld)
            rows.append((idx, t, tag, pk.x, pk.density))
    peaks = ResultTable(
        name="multipeak_peaks",
        columns=["snapshot", "t", "component", "x_peak", "density_peak"],
        rows=rows,
    )
    round_trip = ResultTable(
        name="multipeak_recurrence",
        columns=["quantity", "value"],
        rows=[("one_way_transit", cfg.m * cfg.L / q0),
              ("round_trip_delay", 2.0 * cfg.m * cfg.L / q0)],
    )
    return [peaks, round_trip]


def _run_confront(config: dict, sweep) -> list[ResultTable]:
    cfg = _above_barrier_cfg(config)
    n_terms, n_x = config["n_terms"], config["n_x"]
    snapshots = _snapshot_times(cfg, config["n_snapshots"])
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

    def one(idx, t, tag, num):
        grid = grids[tag]
        ana = multipeak_partial_sum_field(tag, n_terms, grid, t, cfg)
        d_ana = ana.density()
        d_num = num.density()
        max_diff = float(np.max(np.abs(d_ana - d_num)))
        pairs = [(idx, t, tag, float(x), float(da), float(dn))
                 for x, da, dn in zip(grid.x[::sample_stride],
                                      d_ana[::sample_stride],
                                      d_num[::sample_stride])]
        return (idx, t, tag, max_diff, float(d_num.max())), pairs

    found = {}
    for tag, grid in grids.items():   # one quadrature per component, over every snapshot
        numeric = propagate_component(tag, grid, snapshots, cfg)
        for idx, (t, num) in enumerate(zip(snapshots, numeric)):
            found[idx, tag] = one(idx, t, tag, num)
    results = [found[idx, tag] for idx in range(len(snapshots)) for tag in grids]
    diffs = ResultTable(
        name="confront_summary",
        columns=["snapshot", "t", "component", "max_abs_density_diff", "density_peak_numeric"],
        rows=[r[0] for r in results],
        provenance={"grid.n_x": n_x},
    )
    fields = ResultTable(
        name="confront_fields",
        columns=["snapshot", "t", "component", "x", "density_analytic", "density_numeric"],
        rows=[row for r in results for row in r[1]],
        provenance={"grid.n_x": n_x, "grid.sample_stride": sample_stride},
    )
    return [diffs, fields]


def _run_table1(config: dict, sweep) -> list[ResultTable]:
    L_values = [config["L_over_a_min"] + i * config["L_over_a_step"]
                for i in range(_table1_rows(config))]
    cells = [(wa, Lba) for Lba in L_values for wa in config["wa_values"]]
    found = kmax_find([PhysicalConfig(m=1.0, V0=wa * wa / 2.0, L=Lba, a=1.0, k0=config["k0a"])
                       for wa, Lba in cells])
    rows = [(wa, Lba, "*" if result.distorted else result.k_max)
            for (wa, Lba), result in zip(cells, found)]
    return [ResultTable(
        name="table1",
        columns=["wa", "L_over_a", "kmax_a"],
        rows=rows,
        provenance={"grid.n_scan": _KMAX_N_SCAN, "grid.tol_ka": _KMAX_TOL_KA},
    )]


def _run_nr_phase(config: dict, sweep: Sweep | None) -> list[ResultTable]:
    alphas = sweep.values() if sweep else np.linspace(config["alpha_min"], config["alpha_max"],
                                                      config["alpha_steps"])
    # one (n x alpha) grid per rate; the symmetric rates check 0 < n < 1 and alpha >= 0 first
    ns = np.asarray(config["n_values"], dtype=float)[:, None]
    boson = symmetric_phase_time(ns, alphas, Parity.SYMMETRIC)
    fermion = symmetric_phase_time(ns, alphas, Parity.ANTISYMMETRIC)
    rate = nr_one_way_rate(ns, alphas)
    ratio = 0.5 * alphas * rate
    grid = np.broadcast_arrays(ns, alphas, rate, ratio, boson, fermion)
    rows = _rows([col.ravel() for col in grid])
    starts = [_saturation_start(alphas, band)
              for band in np.abs(ratio - 1.0) < config["saturation_tol"]]
    sat_rows = [(n, math.nan if start is None else start)
                for n, start in zip(config["n_values"], starts)]
    return [
        ResultTable(name="one_way_rate",
                    columns=["n", "alpha", "t_over_tau", "ratio_to_opaque_limit",
                             "t_over_tau_boson", "t_over_tau_fermion"],
                    rows=rows),
        ResultTable(name="opaque_saturation",
                    columns=["n", "alpha_saturation"], rows=sat_rows),
    ]


def _run_symmetric_times(config: dict, sweep: Sweep | None) -> list[ResultTable]:
    wL = config["wL"]
    ns = sweep.values() if sweep else np.linspace(config["n_min"], config["n_max"],
                                                  config["n_steps"])
    alpha = wL * np.sqrt(1.0 - ns)
    columns = [ns, alpha]
    for parity in (Parity.SYMMETRIC, Parity.ANTISYMMETRIC):
        tp, td, ts = _symmetric_triple(ns, alpha, parity)
        columns += [tp, td, ts, tp - td - ts]
    columns.append(nr_one_way_rate(ns, alpha))
    return [ResultTable(
        name="symmetric_times",
        columns=["n", "alpha",
                 "t_phase_plus", "t_dwell_plus", "t_self_plus", "identity_plus",
                 "t_phase_minus", "t_dwell_minus", "t_self_minus", "identity_minus",
                 "t_one_way"],
        rows=_rows(columns),
    )]


def _run_relativistic_times(config: dict, sweep: Sweep | None) -> list[ResultTable]:
    wL = config["wL"]
    rows = []
    for upsilon in config["upsilon_values"]:
        ns = sweep.values() if sweep else np.linspace(
            *_zone_bounds(upsilon, config["edge_margin"]), config["n_sq_steps"])
        ns = ns[_in_rel_zone(ns, upsilon)]
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
    )]


def _run_hartman(config: dict, sweep) -> list[ResultTable]:
    alphas = np.linspace(0.5, config["alpha_max"], config["alpha_steps"])
    # one (n x alpha) grid per family: (label, curve, in-band mask); the one-way
    # curve is its ratio to the opaque limit, the symmetric ones their rates,
    # which decay like 2/alpha, so a 5e-2 band is reachable within the default sweep
    ns = np.asarray(config["n_values"], dtype=float)[:, None]
    ratio = 0.5 * alphas * nr_one_way_rate(ns, alphas)
    families = [("one-way", ratio, np.abs(ratio - 1.0) < config["saturation_tol"])]
    for parity, label in ((Parity.SYMMETRIC, "boson"), (Parity.ANTISYMMETRIC, "fermion")):
        rate = symmetric_phase_time(ns, alphas, parity)
        families.append((f"symmetric-{label}", rate, np.abs(rate) < 5e-2))
    rows = []
    for i, n in enumerate(config["n_values"]):
        for label, curve, band in families:
            start = _saturation_start(alphas, band[i])
            rows.append((label, n, math.nan if start is None else start, float(curve[i, -1])))
    upsilon = config["upsilon"]
    rel = rel_phase_time(np.linspace(*_zone_bounds(upsilon, _HARTMAN_EDGE_MARGIN), 101),
                         upsilon, config["wL"])
    finite = bool(np.all(np.isfinite(rel)))
    rows.append(("relativistic", upsilon, math.nan, float(np.max(np.abs(rel)))))
    return [ResultTable(
        name="hartman_saturation",
        columns=["family", "parameter", "alpha_saturation", "terminal_value"],
        rows=rows,
        provenance={"relativistic_curve_finite": finite},
    )]


# ---------------------------------------------------------------------------
# the scenario table
# ---------------------------------------------------------------------------

_WL_MAX = 1e2   # the largest decade of wL at which every scenario runs without overflow
_UPSILON_MAX = 1e3   # identity_residual grows with upsilon: 2.2e-11 here, 3.5e-9 at 1e6 (D6)
_POSITIVE, _ANY, _WL = "(0, inf)", "(-inf, inf)", f"(0, {_WL_MAX:g}]"
_UPSILON = f"[0, {_UPSILON_MAX:g}]"
_STEPS = "[1, inf)"
_ABOVE_BARRIER = {"wa": (1.0e4, _POSITIVE), "k0_over_w": (math.sqrt(2.0), "(1, inf)"),
                  "L_over_a": (5.0, _POSITIVE), "n_snapshots": (6, _STEPS),
                  "n_x": (801, "[2, inf)")}

# Work factors: a key counts its value (or its list's length, at least 1); an
# int weighs grids per snapshot, columns per row or quadrature nodes per row.
_SCHEMA: dict[str, _Scenario] = {
    "free-packet": _Scenario(
        {"m": (1.0, _POSITIVE), "a": (1.0, _POSITIVE), "k0": (2.0, _POSITIVE),
         "x0": (-10.0, _ANY), "t_max": (4.0, _POSITIVE), "t_steps": (9, _STEPS),
         "n_x": (2001, "[2, inf)")},
        work=("t_steps", "n_x"), sweep=("t", "t_steps"), run=_run_free_packet),
    "above-barrier-naive": _Scenario(
        _ABOVE_BARRIER, work=("n_snapshots", 5), run=_run_above_barrier_naive),
    "multipeak": _Scenario(
        {**_ABOVE_BARRIER, "k0_over_w": (math.sqrt(10.0) / 3.0, "(1, inf)"),
         "n_terms": (3, _STEPS)},
        work=("n_snapshots", "n_terms", "n_x", 3), run=_run_multipeak),
    "confront": _Scenario(
        {**_ABOVE_BARRIER, "k0_over_w": (5.0 * math.sqrt(2.0) / 7.0, "(1, inf)"),
         "L_over_a": (0.8, _POSITIVE), "n_terms": (3, _STEPS), "n_x": (601, "[2, inf)")},
        work=("n_snapshots", "n_terms", "n_x", 4), run=_run_confront),
    "table1": _Scenario(
        {"k0a": (1.0, _POSITIVE), "wa_values": ([1.5, 2.0, 4.0, 6.0, 8.0, 10.0, 20.0], _POSITIVE),
         "L_over_a_min": (0.0, "[0, inf)"), "L_over_a_max": (1.0, "[L_over_a_min, inf)"),
         "L_over_a_step": (0.05, _POSITIVE)},
        work=(_table1_rows, "wa_values"), run=_run_table1),
    "nr-phase": _Scenario(
        {"n_values": ([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9], "(0, 1)"),
         "alpha_min": (0.05, "[0, inf)"), "alpha_max": (30.0, "(alpha_min, inf)"),
         "alpha_steps": (120, _STEPS), "saturation_tol": (1e-6, _POSITIVE)},
        work=("n_values", "alpha_steps", 6), sweep=("alpha", "alpha_steps"), run=_run_nr_phase),
    "symmetric-times": _Scenario(
        {"wL": (4.0 * math.pi, _WL), "n_min": (0.02, "(0, 1)"), "n_max": (0.98, "(n_min, 1)"),
         "n_steps": (97, _STEPS)},
        work=("n_steps", 11), sweep=("n", "n_steps"), run=_run_symmetric_times),
    "relativistic-times": _Scenario(
        {"wL": (2.0 * math.pi, _WL), "upsilon_values": ([0.0, 1.0, 2.0, 5.0, 10.0], _UPSILON),
         "n_sq_steps": (101, _STEPS), "edge_margin": (1e-3, "[0, 1)")},
        work=("upsilon_values", "n_sq_steps", 160), sweep=("n_sq", "n_sq_steps"),
        run=_run_relativistic_times),
    "hartman": _Scenario(
        {"n_values": ([0.1, 0.3, 0.5, 0.7, 0.9], "(0, 1)"), "alpha_max": (60.0, "(0.5, inf)"),
         "alpha_steps": (240, _STEPS), "saturation_tol": (1e-6, _POSITIVE),
         "upsilon": (5.0, _UPSILON), "wL": (2.0 * math.pi, _WL)},
        work=("n_values", "alpha_steps", 3), run=_run_hartman),
}

_SWEEP_KEYS = {"min": (0.0, _ANY), "max": (0.0, _ANY), "steps": (2, "[2, inf)")}

SCENARIO_NAMES = tuple(sorted(_SCHEMA))


def run_scenario(spec: ScenarioSpec, threads: int = 1) -> list[ResultTable]:
    """Run one scenario and return its result tables (deterministic).

    ``threads`` is accepted for compatibility and ignored: every scenario
    runs in the calling thread.
    """
    if spec.name not in _SCHEMA:
        raise ScenarioError(f"unknown scenario {spec.name!r}; choose one of {', '.join(SCENARIO_NAMES)}")
    try:
        tables = _SCHEMA[spec.name].run(spec.config, spec.sweep)
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


# '%' fields that print an exact float, str or int as _format_value does
_CSV_FIELDS = {float: "%.9g", str: "%s", int: "%d"}
# Each JSON row cell starts a line after three spaces: a string cell with a
# quote, a float cell with its repr, so these renames reach only the
# non-finite floats, which json writes as NaN, Infinity and -Infinity
_JSON_NONFINITE = (("\n   nan", "\n   NaN"), ("\n   inf", "\n   Infinity"),
                   ("\n   -inf", "\n   -Infinity"))


def _json_cell(value) -> str:
    """A JSON row cell: an escaped string, else the repr of the value as a float."""
    return encode_basestring_ascii(value) if isinstance(value, str) else repr(float(value))


def _row_templates(signature: tuple) -> tuple:
    """CSV and JSON '%' templates of the rows whose cells have these exact types.

    The CSV template is None when a cell has a type outside _CSV_FIELDS; such
    rows are printed by _format_value cell by cell. In the JSON template an
    exact float is '%r' and every other cell is first rendered by _json_cell.
    """
    csv = (",".join(_CSV_FIELDS[kind] for kind in signature) + "\n"
           if all(kind in _CSV_FIELDS for kind in signature) else None)
    cells = ",".join("\n   %r" if kind is float else "\n   %s" for kind in signature)
    return csv, f"  [{cells}\n  ]" if cells else "  []", all(kind is float for kind in signature)


def emit_tables(tables: list[ResultTable], prefix: str, *, json_mirror: bool = False,
                timestamp: str | None = None) -> list[Path]:
    """Write each table to <prefix>_<table>.csv (plus .json when asked).

    The CSV starts with '#'-prefixed provenance lines; floats are printed to
    nine significant digits so reruns are byte-identical. The JSON mirror is
    what ``json.dumps(indent=1, sort_keys=True)`` writes for the provenance,
    the columns and the rows with every non-string cell as a float.
    Each row is one '%' of the template of its cell types (_row_templates),
    written as it is made, so no copy of the table's text is held.
    """
    out_paths: list[Path] = []
    prefix_path = Path(prefix)
    if prefix_path.parent != Path("."):
        prefix_path.parent.mkdir(parents=True, exist_ok=True)
    for table in tables:
        width = len(table.columns)
        if set(map(len, table.rows)) - {width}:
            bad = next(len(row) for row in table.rows if len(row) != width)
            raise ScenarioError(f"table {table.name!r}: row of width {bad} does not "
                                f"match {width} columns")
        provenance = {key: _format_value(value) for key, value in table.provenance.items()}
        header = [f"# {key} = {value}" for key, value in provenance.items()]
        if timestamp is not None:
            header.append(f"# generated_at = {timestamp}")
            provenance["generated_at"] = timestamp
        header.append(",".join(table.columns))
        path = prefix_path.parent / f"{prefix_path.name}_{table.name}.csv"
        jpath = path.with_suffix(".json")
        with (path.open("w", encoding="utf-8") as csv_file,
              jpath.open("w", encoding="utf-8") if json_mirror else nullcontext() as json_file):
            csv_file.write("\n".join(header) + "\n")
            if json_mirror:
                skeleton = json.dumps({"columns": table.columns, "provenance": provenance,
                                       "rows": []}, indent=1, sort_keys=True)
                head, _, tail = skeleton.rpartition("[]")   # "rows" sorts last
                json_file.write(head + "[")
                separator = "\n"
            templates: dict = {}
            for row in table.rows:
                signature = tuple(map(type, row))
                if signature not in templates:
                    templates[signature] = _row_templates(signature)
                csv, json_row, all_float = templates[signature]
                row = tuple(row)   # '%' takes a list as one argument
                csv_file.write(csv % row if csv is not None
                               else (",".join(map(_format_value, row)) + "\n"))
                if json_mirror:
                    text = json_row % (row if all_float else tuple(
                        value if type(value) is float else _json_cell(value) for value in row))
                    if "n" in text:   # a row without an n holds no nan or inf
                        for name, json_name in _JSON_NONFINITE:
                            text = text.replace(name, json_name)
                    json_file.write(separator + text)
                    separator = ",\n"
            if json_mirror:
                json_file.write(("\n ]" if table.rows else "]") + tail + "\n")
        out_paths.append(path)
        if json_mirror:
            out_paths.append(jpath)
    return out_paths
