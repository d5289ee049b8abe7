"""Independent numerical oracles used by the test suite.

These deliberately avoid the library's closed-form route: scattering
amplitudes come from a 2x2 transfer-matrix product over the interfaces,
derivatives come from central finite differences, and spectral sums are
accumulated one momentum at a time instead of by FFT.
"""

from __future__ import annotations

import numpy as np


def transfer_matrix_amplitudes(k: float, kappa_inside: complex, L: float):
    """R, T and the interior pair (A2, B2) from interface matching alone.

    The wave is A e^{i kappa x} + B e^{-i kappa x} in each region with
    kappa = k outside and `kappa_inside` inside the barrier [0, L]
    (kappa_inside = i rho describes an evanescent interior).  Returns
    (R, T, A2, B2) for the transmitted convention T e^{ikx}.
    """

    def interface(ka, kb, x):
        ma = np.array([[np.exp(1j * ka * x), np.exp(-1j * ka * x)],
                       [1j * ka * np.exp(1j * ka * x), -1j * ka * np.exp(-1j * ka * x)]])
        mb = np.array([[np.exp(1j * kb * x), np.exp(-1j * kb * x)],
                       [1j * kb * np.exp(1j * kb * x), -1j * kb * np.exp(-1j * kb * x)]])
        return np.linalg.solve(mb, ma)

    m = interface(kappa_inside, k, L) @ interface(k, kappa_inside, 0.0)
    # region III has no left-mover: M @ [1, R] = [T, 0]
    R = -m[1, 0] / m[1, 1]
    T = m[0, 0] + m[0, 1] * R
    inner = interface(k, kappa_inside, 0.0) @ np.array([1.0 + 0j, R])
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
