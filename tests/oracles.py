"""Independent numerical oracles used by the test suite.

These deliberately avoid the library's closed-form route: scattering
amplitudes come from a 2x2 transfer-matrix product over the interfaces,
derivatives come from central finite differences, spectral sums are
accumulated one momentum at a time instead of by FFT, and the filtered
spectrum's maximum is a 40-digit root of its logarithmic derivative, and
its scan bracket comes from the argmax over every point of the scan.
Emitted tables are checked against a cell-by-cell writer that hands the
whole JSON mirror to the standard library's encoder, the grid runners of
``hartman`` and ``symmetric-times`` against per-n and per-quantity loops,
``relativistic-times`` against one public call per column, and ``multipeak``
and ``confront`` against one bounce-series call per snapshot.  The
single-peak readings are checked against their formulas written out per
component, as they were before they became views of one table of lines.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import mpmath
import numpy as np

from tunnellab.core import ZoneError
from tunnellab.lab import ScenarioError, _above_barrier_cfg, _format_value, _snapshot_times
from tunnellab.observables import (
    NaiveTimes,
    nr_one_way_rate,
    nr_transmission_mag,
    rel_dwell,
    rel_phase_time,
    rel_rescaled_dwell,
    rel_self_interference,
    rel_variational_residual,
    symmetric_dwell,
    symmetric_phase_time,
    symmetric_self_interference,
)
from tunnellab.stationary import Parity, above_barrier_phase_derivative, relativistic_transmission
from tunnellab.wavepackets import (
    SpatialGrid,
    field_peak,
    multipeak_partial_sum_field,
    propagate_component,
)


def transfer_matrix_amplitudes(k: float, kappa_inside: complex, L: float):
    """R, T and the interior pair (A2, B2) from interface matching alone.

    The wave is A e^{i kappa x} + B e^{-i kappa x} in each region with
    kappa = k outside and `kappa_inside` inside the barrier [0, L]
    (kappa_inside = i rho describes an evanescent interior).  Returns
    (R, T, A2, B2) for the transmitted convention T e^{ikx}.  The matching
    runs at 60 digits: T, of size e^{-rho L}, is a difference of terms of size
    e^{rho L}, so about 2 rho L / ln 10 digits cancel, and double precision
    keeps no digit of T past rho L of about 18; 60 digits keep 16 to rho L = 50.
    """
    with mpmath.workdps(60):
        k, kappa, L = mpmath.mpf(float(k)), mpmath.mpc(complex(kappa_inside)), mpmath.mpf(L)

        def waves(kk, x):
            e = mpmath.exp(1j * kk * x)
            return mpmath.matrix([[e, 1 / e], [1j * kk * e, -1j * kk / e]])

        def interface(ka, kb, x):
            return waves(kb, x) ** -1 * waves(ka, x)

        m = interface(kappa, k, L) * interface(k, kappa, 0)
        # region III has no left-mover: M @ [1, R] = [T, 0]
        R = -m[1, 0] / m[1, 1]
        T = m[0, 0] + m[0, 1] * R
        inner = interface(k, kappa, 0) * mpmath.matrix([1, R])
        return complex(R), complex(T), complex(inner[0]), complex(inner[1])


def reference_naive_times(cfg, x: float) -> NaiveTimes:
    """The single-peak arrival times at x, one formula per component."""
    k0, m, L, x0 = cfg.k0, cfg.m, cfg.L, cfg.x0
    if not k0 > cfg.w:
        raise ZoneError(f"naive times need an above-barrier configuration (k0 > w = {cfg.w:g})")
    q0 = math.sqrt(k0 * k0 - cfg.w ** 2)
    v_k, v_q = k0 / m, q0 / m
    dtheta = float(above_barrier_phase_derivative(k0, cfg))
    return NaiveTimes(
        incident=(x - x0) / v_k,
        reflected=-(x + x0 - dtheta) / v_k,
        alpha=(x - L) / v_q - (x0 - dtheta) / v_k,
        beta=-(x - L) / v_q - (x0 - dtheta) / v_k,
        transmitted=(x - x0 - L + dtheta) / v_k,
    )


def reference_spm_peak(tag: str, t: float, cfg) -> float:
    """The single-peak position of one component at t, one formula per component."""
    k0, m, L, x0 = cfg.k0, cfg.m, cfg.L, cfg.x0
    v_k = k0 / m
    if tag == "incident":
        x = x0 + v_k * t
    else:
        q0 = math.sqrt(k0 * k0 - cfg.w ** 2) if k0 > cfg.w else None
        if q0 is None:
            raise ZoneError("naive predictions for scattered components need k0 > w")
        v_q = q0 / m
        dtheta = float(above_barrier_phase_derivative(k0, cfg))
        if tag == "reflected":
            x = -x0 + dtheta - v_k * t
        elif tag == "alpha":
            x = L + v_q * (t + (x0 - dtheta) / v_k)
        elif tag == "beta":
            x = L - v_q * (t + (x0 - dtheta) / v_k)
        elif tag == "transmitted":
            x = x0 + L - dtheta + v_k * t
        else:
            raise ValueError(f"unknown component tag {tag!r}")
    return x


def central_difference(fn, x: float, h: float) -> float:
    """Five-point central first derivative."""
    return float((-fn(x + 2 * h) + 8 * fn(x + h) - 8 * fn(x - h) + fn(x - 2 * h)) / (12 * h))


def grid_derivative(values: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Central differences of a sampled track (interior points only)."""
    return (values[2:] - values[:-2]) / (xs[2:] - xs[:-2])


def trapezoid_norm(density: np.ndarray, xs: np.ndarray) -> float:
    return float(np.trapezoid(density, xs))


def direct_spectral_sum(amp: np.ndarray, ks: np.ndarray, xs: np.ndarray,
                        sign: float) -> np.ndarray:
    """sum_j amp_j e^{i sign k_j x} by direct, compensated (Kahan) summation.

    One momentum at a time in ascending order: n_k x n_x complex exponentials,
    each phase formed as the plain product k_j x.
    """
    total = np.zeros(xs.shape, dtype=complex)
    comp = np.zeros(xs.shape, dtype=complex)
    for a, k in zip(amp, ks):
        y = a * np.exp(1j * sign * k * xs) - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def filtered_spectrum_argmax(w: float, a: float, k0: float, L: float,
                             lo: float, hi: float) -> float:
    """Root of d/dk log[g(k - k0)|T(k, L)|] at 40 digits; (lo, hi) must bracket it.

    With rho = sqrt(w^2 - k^2) and h = w^4 sinh^2(rho L) / (4 k^2 rho^2),
    log f = -a^2 (k - k0)^2 / 4 - log(1 + h) / 2 and
    d log h/dk = -2 k L coth(rho L) / rho - 2/k + 2k / rho^2.
    """
    with mpmath.workdps(40):
        w, a, k0, L = (mpmath.mpf(v) for v in (w, a, k0, L))

        def slope(k):
            rho = mpmath.sqrt(w * w - k * k)
            h = w ** 4 * mpmath.sinh(rho * L) ** 2 / (4 * k * k * rho * rho)
            dlog_h = -2 * k * L * mpmath.coth(rho * L) / rho - 2 / k + 2 * k / (rho * rho)
            return -a * a * (k - k0) / 2 - h / (1 + h) * dlog_h / 2

        return float(mpmath.findroot(slope, (mpmath.mpf(lo), mpmath.mpf(hi)),
                                     solver="anderson"))


def full_scan_index(cfg, n_scan: int) -> int:
    """Index of the largest g(k - k0)|T| over all n_scan np.linspace points of one cell."""
    ks = np.linspace(cfg.w * 1e-9, cfg.w * (1.0 - 1e-12), n_scan)
    g = np.exp(-cfg.a * cfg.a * (ks - cfg.k0) ** 2 / 4.0)
    return int(np.argmax(g * nr_transmission_mag(ks, cfg.w, cfg.L)))


def reference_emit(tables, prefix: str, *, json_mirror: bool = False,
                   timestamp: str | None = None) -> list[Path]:
    """The files of ``emit_tables``, written one cell at a time.

    Every CSV cell goes through ``_format_value``; the JSON mirror is one
    ``json.dumps(payload, indent=1, sort_keys=True)`` of the provenance, the
    columns and the rows with every non-string cell as a float.
    """
    out_paths: list[Path] = []
    prefix_path = Path(prefix)
    prefix_path.parent.mkdir(parents=True, exist_ok=True)
    for table in tables:
        for row in table.rows:
            if len(row) != len(table.columns):
                raise ScenarioError(f"table {table.name!r}: row of width {len(row)} does not "
                                    f"match {len(table.columns)} columns")
        lines = [f"# {key} = {_format_value(value)}" for key, value in table.provenance.items()]
        if timestamp is not None:
            lines.append(f"# generated_at = {timestamp}")
        lines.append(",".join(table.columns))
        lines += [",".join(_format_value(v) for v in row) for row in table.rows]
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


def reference_hartman_rows(config: dict) -> list[tuple]:
    """Rows of ``hartman`` from one curve per (family, n), one n at a time.

    A saturation start is the first sweep value from which every later value
    is in band, found by a plain scan; the symmetric band is 5e-2.
    """
    alphas = np.linspace(0.5, config["alpha_max"], config["alpha_steps"])

    def start(band):
        for i in range(band.size):
            if np.all(band[i:]):
                return float(alphas[i])
        return math.nan

    rows = []
    for n in config["n_values"]:
        ratio = 0.5 * alphas * nr_one_way_rate(n, alphas)
        rows.append(("one-way", n, start(np.abs(ratio - 1.0) < config["saturation_tol"]),
                     float(ratio[-1])))
        for parity, label in ((Parity.SYMMETRIC, "boson"), (Parity.ANTISYMMETRIC, "fermion")):
            rate = symmetric_phase_time(n, alphas, parity)
            rows.append((f"symmetric-{label}", n, start(np.abs(rate) < 5e-2), float(rate[-1])))
    upsilon = config["upsilon"]
    n_sq = np.linspace(max(0.5 * upsilon - 1.0, 0.0) + 1e-3, 0.5 * upsilon + 1.0 - 1e-3, 101)
    rate = rel_phase_time(n_sq, upsilon, config["wL"])
    rows.append(("relativistic", upsilon, math.nan, float(np.max(np.abs(rate)))))
    return rows


def reference_symmetric_times_rows(config: dict) -> list[tuple]:
    """Rows of ``symmetric-times`` from one call per quantity and parity."""
    ns = np.linspace(config["n_min"], config["n_max"], config["n_steps"])
    alpha = config["wL"] * np.sqrt(1.0 - ns)
    columns = [ns, alpha]
    for parity in (Parity.SYMMETRIC, Parity.ANTISYMMETRIC):
        tp = symmetric_phase_time(ns, alpha, parity)
        td = symmetric_dwell(ns, alpha, parity)
        ts = symmetric_self_interference(ns, alpha, parity)
        columns += [tp, td, ts, tp - td - ts]
    columns.append(nr_one_way_rate(ns, alpha))
    return list(zip(*(np.asarray(col, dtype=float).tolist() for col in columns)))


def reference_relativistic_times_rows(config: dict) -> list[tuple]:
    """Rows of ``relativistic-times`` from one public call per column and upsilon."""
    wL, margin, rows = config["wL"], config["edge_margin"], []
    for upsilon in config["upsilon_values"]:
        ns = np.linspace(max(0.5 * upsilon - 1.0, 0.0) + margin, 0.5 * upsilon + 1.0 - margin,
                         config["n_sq_steps"])
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
        columns = [np.full(ns.size, upsilon), ns, T_mag ** 2, phi,
                   rel_phase_time(ns, upsilon, wL), rel_dwell(ns, upsilon, wL), *rel_only]
        rows += zip(*(np.asarray(col, dtype=float).tolist() for col in columns))
    return rows


def reference_multipeak_rows(config: dict) -> list[tuple]:
    """Rows of both ``multipeak`` tables from one partial-sum call per snapshot and component."""
    cfg, _ = _above_barrier_cfg(config)
    q0 = math.sqrt(cfg.k0 ** 2 - cfg.w ** 2)
    n_terms, n_x = config["n_terms"], config["n_x"]
    span = 22.0 * cfg.a + 2.0 * n_terms * (cfg.k0 / q0) * cfg.L
    regions = {
        "reflected": SpatialGrid(-span, 0.0, n_x),
        "alpha": SpatialGrid(0.0, cfg.L, max(101, n_x // 4)),
        "beta": SpatialGrid(0.0, cfg.L, max(101, n_x // 4)),
        "transmitted": SpatialGrid(cfg.L, cfg.L + span, n_x),
    }
    rows = []
    for idx, t in enumerate(_snapshot_times(cfg, q0, config["n_snapshots"])):
        for tag, grid in regions.items():
            pk = field_peak(multipeak_partial_sum_field(tag, n_terms, grid, t, cfg))
            rows.append((idx, t, tag, pk.x, pk.density))
    return rows + [("one_way_transit", cfg.m * cfg.L / q0),
                   ("round_trip_delay", 2.0 * cfg.m * cfg.L / q0)]


def reference_confront_rows(config: dict) -> list[tuple]:
    """Rows of both ``confront`` tables from one partial-sum call per snapshot and component.

    The quadrature fields come from one call per component over every
    snapshot, whose rows equal one-time calls; each sampled cell is read with
    ``float``.
    """
    cfg, _ = _above_barrier_cfg(config)
    n_terms, n_x = config["n_terms"], config["n_x"]
    q0 = math.sqrt(cfg.k0 ** 2 - cfg.w ** 2)
    snapshots = _snapshot_times(cfg, q0, config["n_snapshots"])
    span = 20.0 * cfg.a + 2.0 * n_terms * (cfg.k0 / q0) * cfg.L
    grids = {
        "incident": SpatialGrid(-span, 0.0, n_x),
        "reflected": SpatialGrid(-span, 0.0, n_x),
        "alpha": SpatialGrid(0.0, cfg.L, max(51, n_x // 4)),
        "beta": SpatialGrid(0.0, cfg.L, max(51, n_x // 4)),
        "transmitted": SpatialGrid(cfg.L, cfg.L + span, n_x),
    }
    stride = max(1, n_x // 80)
    numeric = {tag: propagate_component(tag, grid, snapshots, cfg) for tag, grid in grids.items()}
    summary, fields = [], []
    for idx, t in enumerate(snapshots):
        for tag, grid in grids.items():
            d_ana = multipeak_partial_sum_field(tag, n_terms, grid, t, cfg).density()
            d_num = numeric[tag][idx].density()
            summary.append((idx, t, tag, float(np.max(np.abs(d_ana - d_num))),
                            float(d_num.max())))
            fields += [(idx, t, tag, float(x), float(da), float(dn))
                       for x, da, dn in zip(grid.x[::stride], d_ana[::stride], d_num[::stride])]
    return summary + fields
