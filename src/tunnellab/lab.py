"""Scenario driver: named reproductions of the reference tables and curves
and deterministic CSV/JSON emission.  Configurations are parsed by
``tunnellab.schema``, whose names this module re-exports.

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

import numpy as np

from . import __version__
from .schema import (SCENARIO_NAMES, _SCHEMA, ConfigError, ScenarioError, ScenarioSpec, Sweep,
                     _table1_rows, parse_config, scenario_defaults)
from .core import PhysicalConfig, ZoneError, _in_rel_zone
from .stationary import Parity, _above_momentum
from .observables import (
    _KMAX_N_SCAN,
    _KMAX_TOL_KA,
    _RelZone,
    _saturation_start,
    _symmetric_triple,
    kmax_find,
    naive_above_barrier_times,
    nr_one_way_rate,
    symmetric_phase_time,
)
from .wavepackets import (
    COMPONENT_TAGS,
    SpatialGrid,
    WaveField,
    field_norm,
    field_peak,
    free_gaussian,
    free_gaussian_peak,
    multipeak_partial_sum_field,
    propagate_components,
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


@dataclass
class ResultTable:
    name: str
    columns: list[str]
    rows: list[tuple]
    provenance: dict = field(default_factory=dict)


_HARTMAN_EDGE_MARGIN = 1e-3


# ---------------------------------------------------------------------------
# scenario runners
# ---------------------------------------------------------------------------

def _rows(columns) -> list[tuple]:
    """Table rows of equal-length columns, as tuples of Python floats."""
    return list(zip(*(np.asarray(col, dtype=float).tolist() for col in columns)))


def _zone_bounds(upsilon: float, margin: float) -> tuple[float, float]:
    """n^2 bounds of the tunneling zone, moved in by margin; ConfigError if they meet or cross."""
    lower, upper = max(0.5 * upsilon - 1.0, 0.0), 0.5 * upsilon + 1.0
    if not lower + margin < upper - margin:
        raise ConfigError(f"edge_margin = {margin:g} is at least half the width {upper - lower:g}"
                          f" of the tunneling zone at upsilon = {upsilon:g}")
    return lower + margin, upper - margin


def _above_barrier_cfg(config: dict) -> tuple[PhysicalConfig, float]:
    """The above-barrier configuration of a scenario and its q0 = sqrt(k0^2 - w^2)."""
    a = 1.0
    w = config["wa"] / a
    k0 = config["k0_over_w"] * w
    L = config["L_over_a"] * a
    x0 = -k0 * L / (2.0 * math.sqrt(k0 * k0 - w * w))
    cfg = PhysicalConfig.above_barrier(m=1.0 / (a * a), V0=w * w * a * a / 2.0,
                                       L=L, a=a, k0=k0, x0=x0)
    return cfg, _above_momentum(cfg.k0, cfg.w, "the bounce layout needs")


def _snapshot_times(cfg: PhysicalConfig, q0: float, n_snapshots: int) -> list[float]:
    unit = cfg.m * cfg.L / q0
    return [n * unit for n in range(n_snapshots)]


def _bounce_regions(cfg: PhysicalConfig, q0: float, config: dict, pad: float,
                    interior_min: int) -> dict[str, SpatialGrid]:
    """Each component's grid: n_x points reaching pad a plus n_terms round trips 2 (k0/q0) L
    outside the barrier, max(interior_min, n_x // 4) inside."""
    n_x = config["n_x"]
    span = pad * cfg.a + 2.0 * config["n_terms"] * (cfg.k0 / q0) * cfg.L
    outer = SpatialGrid(-span, 0.0, n_x)
    interior = SpatialGrid(0.0, cfg.L, max(interior_min, n_x // 4))
    return {"incident": outer, "reflected": outer, "alpha": interior, "beta": interior,
            "transmitted": SpatialGrid(cfg.L, cfg.L + span, n_x)}


def _run_free_packet(config: dict, sweep: Sweep | None) -> list[ResultTable]:
    cfg = PhysicalConfig(m=config["m"], V0=1.0, L=0.0, a=config["a"],
                         k0=config["k0"], x0=config["x0"])
    # sweep and default both quote t in units of the spreading time m a^2
    times = (np.linspace(sweep.min, sweep.max, sweep.steps) * cfg.m * (cfg.a * cfg.a)
             if sweep else
             np.linspace(0.0, config["t_max"] * cfg.m * (cfg.a * cfg.a), config["t_steps"]))
    rows = []
    for t in times:
        center = free_gaussian_peak(float(t), cfg)
        spread = cfg.a * math.sqrt(1.0 + (2.0 * t / (cfg.m * (cfg.a * cfg.a))) ** 2)
        grid = SpatialGrid(center - 12.0 * spread, center + 12.0 * spread, config["n_x"])
        fld = WaveField(grid=grid, values=free_gaussian(grid.x, float(t), cfg),
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
    cfg, q0 = _above_barrier_cfg(config)
    times_at = naive_above_barrier_times(cfg, 0.0)
    times_at_L = naive_above_barrier_times(cfg, cfg.L)
    summary = ResultTable(
        name="naive_times",
        columns=["x", "t_incident", "t_reflected", "t_alpha", "t_beta", "t_transmitted"],
        rows=[(x, t.incident, t.reflected, t.alpha, t.beta, t.transmitted)
              for x, t in ((0.0, times_at), (cfg.L, times_at_L))],
    )
    snapshots = _snapshot_times(cfg, q0, config["n_snapshots"])
    x_naive = {tag: spm_peak_prediction(tag, np.array(snapshots), cfg) for tag in COMPONENT_TAGS}
    rows = [(idx, t, tag, float(x_naive[tag][idx])) for idx, t in enumerate(snapshots)
            for tag in COMPONENT_TAGS]
    peaks = ResultTable(
        name="naive_peak_positions",
        columns=["snapshot", "t", "component", "x_peak_naive"],
        rows=rows,
    )
    return [summary, peaks]


def _run_multipeak(config: dict, sweep) -> list[ResultTable]:
    cfg, q0 = _above_barrier_cfg(config)
    snapshots = _snapshot_times(cfg, q0, config["n_snapshots"])
    regions = _bounce_regions(cfg, q0, config, 22.0, 101)
    del regions["incident"]   # the incident packet has no bounces to find
    # one series call per component over every snapshot, its fields dropped once read
    found = {tag: [field_peak(fld) for fld in
                   multipeak_partial_sum_field(tag, config["n_terms"], grid, snapshots, cfg)]
             for tag, grid in regions.items()}
    rows = [(idx, t, tag, found[tag][idx].x, found[tag][idx].density)
            for idx, t in enumerate(snapshots) for tag in regions]
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
    cfg, q0 = _above_barrier_cfg(config)
    n_terms, n_x = config["n_terms"], config["n_x"]
    snapshots = _snapshot_times(cfg, q0, config["n_snapshots"])
    grids = _bounce_regions(cfg, q0, config, 20.0, 51)
    sample_stride = max(1, n_x // 80)

    found, numerics = {}, propagate_components(grids, snapshots, cfg)   # one quadrature per k, q
    for tag, grid in grids.items():   # and one series per component
        analytic = multipeak_partial_sum_field(tag, n_terms, grid, snapshots, cfg)
        xs = grid.x[::sample_stride].tolist()
        for idx, (t, num, ana) in enumerate(zip(snapshots, numerics.pop(tag), analytic)):
            d_ana, d_num = ana.density(), num.density()
            pairs = [(idx, t, tag, *cells) for cells in zip(
                xs, d_ana[::sample_stride].tolist(), d_num[::sample_stride].tolist())]
            found[idx, tag] = (idx, t, tag, float(np.max(np.abs(d_ana - d_num))),
                               float(d_num.max())), pairs
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


def _run_nr_phase(config: dict, sweep) -> list[ResultTable]:
    alphas = np.linspace(config["alpha_min"], config["alpha_max"], config["alpha_steps"])
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


def _run_symmetric_times(config: dict, sweep) -> list[ResultTable]:
    wL = config["wL"]
    ns = np.linspace(config["n_min"], config["n_max"], config["n_steps"])
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
        ns = np.linspace(sweep.min, sweep.max, sweep.steps) if sweep else np.linspace(
            *_zone_bounds(upsilon, config["edge_margin"]), config["n_sq_steps"])
        ns = ns[_in_rel_zone(ns, upsilon)]
        if ns.size == 0:
            continue
        zone = _RelZone(ns, upsilon, wL)   # one solution behind every column of this upsilon
        T_mag, phi = zone.transmission()
        t_dwell = zone.dwell(continuity=False)
        rel_only = ([(zone.S - upsilon) * t_dwell, zone.self_interference(),
                     zone.residual()] if upsilon > 0.0
                    else [np.full(ns.size, math.nan)] * 3)
        rows += _rows([np.full(ns.size, upsilon), ns, T_mag ** 2, phi,
                       zone.phase_time, t_dwell, *rel_only])
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
    rel = _RelZone(np.linspace(*_zone_bounds(upsilon, _HARTMAN_EDGE_MARGIN), 101),
                   upsilon, config["wL"]).phase_time
    finite = bool(np.all(np.isfinite(rel)))
    rows.append(("relativistic", upsilon, math.nan, float(np.max(np.abs(rel)))))
    return [ResultTable(
        name="hartman_saturation",
        columns=["family", "parameter", "alpha_saturation", "terminal_value"],
        rows=rows,
        provenance={"relativistic_curve_finite": finite},
    )]


_RUNNERS = {   # scenario name -> runner: (config, sweep) -> list[ResultTable]
    "free-packet": _run_free_packet, "above-barrier-naive": _run_above_barrier_naive,
    "multipeak": _run_multipeak, "confront": _run_confront, "table1": _run_table1,
    "nr-phase": _run_nr_phase, "symmetric-times": _run_symmetric_times,
    "relativistic-times": _run_relativistic_times, "hartman": _run_hartman,
}


def run_scenario(spec: ScenarioSpec, threads: int = 1) -> list[ResultTable]:
    """Run one scenario and return its result tables (deterministic).

    ``threads`` is ignored: every scenario runs in the calling thread.  It
    stays only because ``bench/scenarios.py`` passes ``threads=1``; it goes
    with ``above-barrier-naive``'s unread ``n_x`` when the benchmark is next
    changed (ROADMAP item 1(d)).
    """
    if spec.name not in _RUNNERS:
        raise ScenarioError(f"unknown scenario {spec.name!r}; choose one of {', '.join(SCENARIO_NAMES)}")
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            tables = _RUNNERS[spec.name](spec.config, spec.sweep)
    except (ConfigError, ScenarioError):
        raise
    except (ZoneError, ValueError, ArithmeticError) as exc:   # no table with inf or NaN cells
        raise ConfigError(f"invalid configuration for scenario {spec.name!r}: {exc}") from exc
    # a sweep's grid stands in for the keys it replaces, so they are not printed
    replaced = (_SCHEMA[spec.name].sweep or ())[1:] if spec.sweep is not None else ()
    for table in tables:
        prov = {"scenario": spec.name, "version": __version__}
        for key in sorted(spec.config):
            if key not in replaced:
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
    return f"{float(value):.9g}"


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
