"""Independent numerical oracles used by the test suite.

These deliberately avoid the library's closed-form route: scattering
amplitudes come from a 2x2 transfer-matrix product over the interfaces,
derivatives come from central finite differences, spectral sums are
accumulated one momentum at a time instead of by FFT, and the filtered
spectrum's maximum is a 40-digit root of its logarithmic derivative, and
its scan bracket comes from the argmax over every point of the scan.
Emitted tables are checked against a cell-by-cell writer that hands the
whole JSON mirror to the standard library's encoder, and the grid runners of
``hartman`` and ``symmetric-times`` against per-n and per-quantity loops.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import mpmath
import numpy as np

from tunnellab.lab import ScenarioError, _format_value
from tunnellab.observables import (
    nr_one_way_rate,
    nr_transmission_mag,
    rel_phase_time,
    symmetric_dwell,
    symmetric_phase_time,
    symmetric_self_interference,
)
from tunnellab.stationary import Parity


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
