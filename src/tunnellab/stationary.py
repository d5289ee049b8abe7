"""Closed-form stationary-state amplitudes for the rectangular barrier.

Conventions
-----------
One-sided incidence uses the barrier on [0, L] with the transmitted wave
written as T(k) e^{ikx}; the symmetric two-packet collision uses the barrier
on [-L/2, L/2].  All phases are evaluated quadrant-aware (atan2) and can be
unwrapped along a momentum grid with :func:`unwrap_phase`.

The above-barrier coefficients, the tunneling amplitude and the relativistic
continuity solution all share the normalizer

    F = |2 k chi cos/cosh + i (k^2 +- chi^2) sin/sinh|

with chi the intra-barrier momentum (q, oscillatory) or rate (rho,
evanescent), which guarantees |R|^2 + |T|^2 = 1 identically.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Dispersion,
    PhysicalConfig,
    ZoneError,
    evanescent_rate,
    kg_zone_from_params,
    propagating_momentum,
    rho_n_squared,
)
from ._hyperbolic import one_way_rate, scaled

__all__ = [
    "Parity",
    "ScatterCoeffs",
    "MultipeakSeries",
    "SymmetricAmplitude",
    "above_barrier_coeffs",
    "above_barrier_phase",
    "above_barrier_phase_derivative",
    "tunnel_amplitude_nr",
    "tunnel_phase",
    "tunnel_phase_derivative",
    "multipeak_coeffs",
    "multipeak_sums",
    "symmetric_amplitudes",
    "symmetric_combined",
    "symmetric_phase",
    "symmetric_intra_barrier_coeffs",
    "relativistic_transmission",
    "kg_scatter_coeffs",
    "unwrap_phase",
]


class Parity(enum.Enum):
    """Exchange symmetry of the two-packet collision."""

    SYMMETRIC = +1       # two identical bosons
    ANTISYMMETRIC = -1   # two identical fermions (spatial part)

    @property
    def sign(self) -> int:
        return self.value


@dataclass(frozen=True)
class ScatterCoeffs:
    """Reflection/transmission amplitudes plus the intra-barrier pair.

    For oscillatory intra-barrier motion, alpha_coef and beta_coef multiply
    e^{iqx} and e^{-iqx}; in the evanescent case they multiply e^{-rho x} and
    e^{+rho x}.  F is the positive normalizer and theta the transmission
    phase (principal value for scalar input).
    """

    R: complex
    T: complex
    alpha_coef: complex
    beta_coef: complex
    F: float
    theta: float


@dataclass(frozen=True)
class MultipeakSeries:
    """Bounce expansion of above-barrier scattering into successive peaks.

    All four coefficient families share the complex ratio
    r = ((k-q)/(k+q))^2 e^{2iqL}; truncation keeps n_max terms per family and
    tail_bound dominates the modulus of every dropped term.
    """

    ratio: complex
    R_terms: np.ndarray
    alpha_terms: np.ndarray
    beta_terms: np.ndarray
    T_terms: np.ndarray
    n_max: int
    tail_bound: float


@dataclass(frozen=True)
class SymmetricAmplitude:
    """Unimodular combined amplitude R +- T of the symmetric collision."""

    phi: float
    parity: Parity
    combined: complex


def unwrap_phase(samples, period: float = math.pi):
    """Remove branch jumps from an ordered phase track.

    The output differs from the input by integer multiples of `period`
    (pi for arctan-based phases, 2*pi for full arguments) and keeps the first
    sample unchanged.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("cannot unwrap an empty phase track")
    return np.unwrap(samples, period=period)


def _coeffs(k: np.ndarray, R, T, alpha, beta, F, theta) -> ScatterCoeffs:
    """ScatterCoeffs of arrays, or of Python scalars for a 0-d k."""
    if k.ndim:
        return ScatterCoeffs(R, T, alpha, beta, F, theta)
    return ScatterCoeffs(complex(R), complex(T), complex(alpha), complex(beta),
                         float(F), float(theta))


# ---------------------------------------------------------------------------
# one-sided incidence, k above the barrier
# ---------------------------------------------------------------------------

def above_barrier_coeffs(k, cfg: PhysicalConfig) -> ScatterCoeffs:
    """Stationary amplitudes for k > w on the barrier [0, L].

    R carries -i w^2 sin(qL)/F, T carries 2kq/F e^{-ikL}, and the
    intra-barrier pair alpha, beta multiplies e^{+-iqx}; all share the phase
    theta = atan2((k^2+q^2) sin qL, 2kq cos qL).
    """
    k = np.asarray(k, dtype=float)
    w, L = cfg.w, cfg.L
    if np.any(k <= w):
        raise ZoneError(f"above-barrier amplitudes need k > w = {w:g}")
    q = np.sqrt(k * k - w * w)
    s, c = np.sin(q * L), np.cos(q * L)
    F = np.hypot(2.0 * k * q * c, (k * k + q * q) * s)
    theta = np.arctan2((k * k + q * q) * s, 2.0 * k * q * c)
    phase = np.exp(1j * theta)
    R = -1j * (w * w / F) * s * phase
    T = (2.0 * k * q / F) * phase * np.exp(-1j * k * L)
    alpha = (k * (k + q) / F) * phase * np.exp(-1j * q * L)
    beta = -(k * (k - q) / F) * phase * np.exp(1j * q * L)
    return _coeffs(k, R, T, alpha, beta, F, theta)


def above_barrier_phase(k_grid, cfg: PhysicalConfig) -> np.ndarray:
    """Transmission phase theta(k) on a grid, unwrapped to a continuous track."""
    k_grid = np.asarray(k_grid, dtype=float)
    theta = above_barrier_coeffs(k_grid, cfg).theta
    return unwrap_phase(theta, period=2.0 * math.pi)


def above_barrier_phase_derivative(k, cfg: PhysicalConfig):
    """Closed-form d theta/dk for k > w.

    d theta/dk = (2/q) [k^2 q (k^2+q^2) L - w^4 sin(qL) cos(qL)] / F^2.

    At a transmission resonance (qL = n pi) this reduces to
    (k^2+q^2) L / (2 q^2); at antiresonance (qL = (n+1/2) pi) to
    2 k^2 L / (k^2+q^2).
    """
    k = np.asarray(k, dtype=float)
    w, L = cfg.w, cfg.L
    if np.any(k <= w):
        raise ZoneError(f"above-barrier phase derivative needs k > w = {w:g}")
    q = np.sqrt(k * k - w * w)
    s, c = np.sin(q * L), np.cos(q * L)
    F2 = 4.0 * k * k * q * q * c * c + (k * k + q * q) ** 2 * s * s
    out = (2.0 / q) * (k * k * q * (k * k + q * q) * L - w ** 4 * s * c) / F2
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# one-sided incidence, non-relativistic tunneling
# ---------------------------------------------------------------------------

def _check_tunnel_zone(k, w: float, what: str) -> None:
    """ZoneError unless 0 < k < w; ``what`` names the quantity, e.g. "tunneling phase needs"."""
    if np.any(np.asarray(k) <= 0.0) or np.any(np.asarray(k) >= w):
        raise ZoneError(f"{what} 0 < k < w = {w:g}")


def _evanescent_parts(k, rho, L: float, diff):
    """sinh(rho L), F and theta of an evanescent interior; diff is k^2 - rho^2."""
    sh, ch = np.sinh(rho * L), np.cosh(rho * L)
    F = np.hypot(2.0 * k * rho * ch, diff * sh)
    theta = np.arctan2(diff * sh, 2.0 * k * rho * ch)
    return sh, F, theta


def _evanescent_coeffs(k: np.ndarray, rho, L: float, diff, K2) -> ScatterCoeffs:
    """R, T and the intra-barrier pair of an evanescent interior on [0, L].

    diff = k^2 - rho^2 and K2 = k^2 + rho^2 come from the caller in its own
    form (2k^2 - w^2 and w^2 for the non-relativistic barrier), so each
    caller keeps its own rounding.
    """
    sh, F, theta = _evanescent_parts(k, rho, L, diff)
    phase = np.exp(1j * theta)
    T_exit = (2.0 * k * rho / F) * phase       # transmitted amp at the exit face
    R = -1j * (K2 / F) * sh * phase
    T = T_exit * np.exp(-1j * k * L)
    alpha = 0.5 * T_exit * (1.0 - 1j * k / rho) * np.exp(rho * L)
    beta = 0.5 * T_exit * (1.0 + 1j * k / rho) * np.exp(-rho * L)
    return _coeffs(k, R, T, alpha, beta, F, theta)


def _tunnel_parts(k, w: float, L: float, what: str):
    """rho, F and theta of the tunneling solution, after the 0 < k < w check."""
    _check_tunnel_zone(k, w, what)
    rho = np.sqrt(w * w - k * k)
    _, F, theta = _evanescent_parts(k, rho, L, 2.0 * k * k - w * w)
    return rho, F, theta


def tunnel_amplitude_nr(k, cfg: PhysicalConfig) -> ScatterCoeffs:
    """Stationary amplitudes for 0 < k < w on the barrier [0, L].

    |T| = 2 k rho / F with F^2 = 4 k^2 rho^2 + w^4 sinh^2(rho L), the
    evanescent analogue of the above-barrier normalizer; alpha_coef and
    beta_coef multiply e^{-rho x} and e^{+rho x}.
    """
    k = np.asarray(k, dtype=float)
    w = cfg.w
    _check_tunnel_zone(k, w, "tunneling amplitudes need")
    return _evanescent_coeffs(k, np.sqrt(w * w - k * k), cfg.L, 2.0 * k * k - w * w, w * w)


def tunnel_phase(k_grid, cfg: PhysicalConfig) -> np.ndarray:
    """Tunneling transmission phase on a grid, unwrapped (monotone in k)."""
    k_grid = np.asarray(k_grid, dtype=float)
    w, L = cfg.w, cfg.L
    theta = _tunnel_parts(k_grid, w, L, "tunneling phase needs")[2]
    return unwrap_phase(theta, period=2.0 * math.pi)


def tunnel_phase_derivative(k, cfg: PhysicalConfig):
    """Closed-form d theta/dk in the tunneling zone.

    d theta/dk = 2 L [w^4 sinh(a) cosh(a) / a - k^2 (2k^2 - w^2)]
                 / (4 k^2 rho^2 + w^4 sinh^2 a),   a = rho L,

    which is L times the one-way rate at n = k^2/w^2, n_bar = rho^2/w^2.
    """
    k = np.asarray(k, dtype=float)
    w, L = cfg.w, cfg.L
    _check_tunnel_zone(k, w, "tunneling phase derivative needs")
    rho_sq = w * w - k * k
    out = L * one_way_rate(k * k / (w * w), rho_sq / (w * w), np.sqrt(rho_sq) * L)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# multiple-peak decomposition (k above the barrier)
# ---------------------------------------------------------------------------

def _bounce_first_terms(k, q, L: float):
    u = (k - q) / (k + q)
    r = u * u * np.exp(2j * q * L)
    R1 = u + 0j
    a1 = 2.0 * k / (k + q) + 0j
    b1 = 2.0 * k * (q - k) / (k + q) ** 2 * np.exp(2j * q * L)
    T1 = 4.0 * k * q / (k + q) ** 2 * np.exp(1j * (q - k) * L)
    R2 = (q / k) * a1 * b1
    return r, R1, a1, b1, T1, R2


def multipeak_coeffs(k: float, cfg: PhysicalConfig, eps: float = 1e-12) -> MultipeakSeries:
    """Successive-bounce coefficients {R_n, alpha_n, beta_n, T_n} for k > w.

    First terms come from the step-by-step continuity conditions at the two
    interfaces; later terms follow the geometric ratio r.  n_max is the
    smallest count whose geometric tail is below eps.
    """
    if eps <= 0.0:
        raise ValueError("tail tolerance eps must be positive")
    w, L = cfg.w, cfg.L
    if not k > w:
        raise ZoneError(f"multipeak decomposition needs k > w = {w:g}")
    q = float(propagating_momentum(k, cfg))
    r, R1, a1, b1, T1, R2 = _bounce_first_terms(k, q, L)
    mod_r = abs(r)
    first = max(abs(R1), abs(R2), abs(a1), abs(b1), abs(T1))
    if mod_r == 0.0:
        n_max = 2
    else:
        n_max = max(2, int(math.ceil(math.log(eps * (1.0 - mod_r) / first)
                                     / math.log(mod_r))) + 1)
    n = np.arange(n_max)
    powers = r ** n
    R_terms = np.empty(n_max, dtype=complex)
    R_terms[0] = R1
    R_terms[1:] = R2 * powers[:-1]
    alpha_terms = a1 * powers
    beta_terms = b1 * powers
    T_terms = T1 * powers
    last = max(abs(R_terms[-1]), abs(alpha_terms[-1]), abs(beta_terms[-1]),
               abs(T_terms[-1]))
    tail_bound = last * mod_r / (1.0 - mod_r) if mod_r < 1.0 else math.inf
    return MultipeakSeries(ratio=complex(r), R_terms=R_terms, alpha_terms=alpha_terms,
                           beta_terms=beta_terms, T_terms=T_terms, n_max=n_max,
                           tail_bound=tail_bound)


def multipeak_sums(k, cfg: PhysicalConfig) -> ScatterCoeffs:
    """Closed geometric sums of the bounce series; equals the one-shot amplitudes."""
    k = np.asarray(k, dtype=float)
    w, L = cfg.w, cfg.L
    if np.any(k <= w):
        raise ZoneError(f"multipeak sums need k > w = {w:g}")
    q = np.sqrt(k * k - w * w)
    r, R1, a1, b1, T1, R2 = _bounce_first_terms(k, q, L)
    geo = 1.0 / (1.0 - r)
    R = R1 + R2 * geo
    alpha = a1 * geo
    beta = b1 * geo
    T = T1 * geo
    F = 2.0 * k * q / np.abs(T)
    theta = np.angle(T * np.exp(1j * k * L))
    return _coeffs(k, R, T, alpha, beta, F, theta)


# ---------------------------------------------------------------------------
# symmetric two-packet collision (barrier on [-L/2, L/2], tunneling zone)
# ---------------------------------------------------------------------------

def symmetric_amplitudes(k, cfg: PhysicalConfig):
    """Reflection and transmission amplitudes seen by either colliding packet.

    Evaluated in the overflow-safe sinh/cosh form
        R = e^{-ikL} w^2 sinh(rho L) / D,   T = e^{-ikL} 2 i k rho / D,
        D = (2k^2 - w^2) sinh(rho L) + 2 i k rho cosh(rho L).
    This equals the exponential form written with the unimodular factor
    e^{i theta(k)}, theta = atan2(2 k rho, 2 k^2 - w^2): the ratio
    2 k rho / (2k^2 - w^2) is tan(theta), not the angle itself (the other
    reading breaks the combined-amplitude phases and is discontinuous at
    2k^2 = w^2).
    """
    k = np.asarray(k, dtype=float)
    w, L = cfg.w, cfg.L
    _check_tunnel_zone(k, w, "symmetric collision amplitudes need")
    rho = np.sqrt(w * w - k * k)
    sh, ch = np.sinh(rho * L), np.cosh(rho * L)
    D = (2.0 * k * k - w * w) * sh + 2j * k * rho * ch
    R = np.exp(-1j * k * L) * w * w * sh / D
    T = np.exp(-1j * k * L) * 2j * k * rho / D
    if k.ndim:
        return R, T
    return complex(R), complex(T)


def symmetric_phase(k, cfg: PhysicalConfig, parity: Parity):
    """Scattering phase of the combined unimodular amplitude R +- T.

    phi_pm = -atan2(2 k rho tanh(rho L), (k^2 - rho^2) +- w^2 / cosh(rho L)),
    continuous across (0, w) and vanishing at the barrier-top end.
    """
    k = np.asarray(k, dtype=float)
    w, L = cfg.w, cfg.L
    _check_tunnel_zone(k, w, "symmetric collision amplitudes need")
    sgn = parity.sign
    rho = np.sqrt(w * w - k * k)
    th = np.tanh(rho * L)
    # numerator/denominator divided by cosh(rho L) for overflow safety
    num = 2.0 * k * rho * th
    den = (k * k - rho * rho) + sgn * w * w / np.cosh(rho * L)
    out = -np.arctan2(num, den)
    return out if out.ndim else float(out)


def symmetric_combined(k: float, cfg: PhysicalConfig, parity: Parity) -> SymmetricAmplitude:
    """Combined amplitude R +- T = exp(-i [kL - phi_pm]); |combined| = 1."""
    R, T = symmetric_amplitudes(k, cfg)
    combined = R + parity.sign * T
    phi = symmetric_phase(k, cfg, parity)
    return SymmetricAmplitude(phi=phi, parity=parity, combined=combined)


def symmetric_intra_barrier_coeffs(k, cfg: PhysicalConfig):
    """Intra-barrier pair (gamma, beta) of the left-incident symmetric solution.

    In the frame with the barrier on [-L/2, L/2] the left-incident stationary
    wave is gamma e^{-rho x} + beta e^{+rho x} inside; the right-incident
    solution is its mirror image x -> -x.  Obtained from the continuity
    conditions at the exit face.
    """
    k = np.asarray(k, dtype=float)
    w, L = cfg.w, cfg.L
    rho, F, theta = _tunnel_parts(k, w, L, "symmetric collision amplitudes need")
    T_exit = (2.0 * k * rho / F) * np.exp(1j * theta)
    half = 0.5 * L
    # frame shift from [0, L]: renormalizing the incident wave contributes e^{-ikL/2}
    shift = np.exp(-1j * k * half)
    gamma = 0.5 * T_exit * (1.0 - 1j * k / rho) * np.exp(rho * half) * shift
    beta = 0.5 * T_exit * (1.0 + 1j * k / rho) * np.exp(-rho * half) * shift
    if k.ndim:
        return gamma, beta
    return complex(gamma), complex(beta)


# ---------------------------------------------------------------------------
# relativistic (Klein-Gordon) transmission
# ---------------------------------------------------------------------------

def relativistic_transmission(n_sq, upsilon: float, wL: float):
    """Transmission modulus and phase in the relativistic tunneling zone.

    |T(n, L)| = [1 + sinh^2(rho_n wL) / (4 n^2 rho_n^2)]^(-1/2)
    phi(n, L) = atan2((n^2 - rho_n^2) tanh(rho_n wL), 2 n rho_n)

    with rho_n from :func:`tunnellab.core.rho_n_squared`.  At upsilon = 0 this
    is exactly the non-relativistic pair (|T|, theta).  |T| is evaluated in
    scaled form, 2 e^{-x} / sqrt(s + m q / (4 n^2 rho_n^2)) at x = rho_n wL
    (tunnellab._hyperbolic), so it is finite at the zone edge and underflows
    to 0 instead of overflowing.  Returns (T_mag, phi).
    """
    n_sq = np.asarray(n_sq, dtype=float)
    zone_d = np.abs(n_sq - 0.5 * upsilon)
    if np.any(zone_d >= 1.0) or np.any(n_sq <= 0.0):
        bad = float(np.asarray(n_sq).flat[int(np.argmax(zone_d))])
        raise ZoneError(
            f"n^2 = {bad:g} is outside the relativistic tunneling zone "
            f"(n^2 - upsilon/2)^2 < 1 (below lies the Klein zone, above the "
            f"above-barrier zone); zone = {kg_zone_from_params(bad, upsilon)}")
    rn_sq = rho_n_squared(n_sq, upsilon)
    rn = np.sqrt(rn_sq)
    n = np.sqrt(n_sq)
    x = rn * wL
    s, _, q, m = scaled(x)
    T_mag = 2.0 * np.exp(-x) / np.sqrt(s + m * q / (4.0 * n_sq * rn_sq))
    phi = np.arctan2((n_sq - rn_sq) * np.tanh(x), 2.0 * n * rn)
    if n_sq.ndim:
        return T_mag, phi
    return float(T_mag), float(phi)


def kg_scatter_coeffs(k, cfg: PhysicalConfig) -> ScatterCoeffs:
    """Exact Klein-Gordon continuity solution on the barrier [0, L].

    Solves the matching conditions of the quadratic wave equation directly,
    so that |R|^2 + |T|^2 = 1 holds and the intra-barrier pair reproduces the
    field used by dwell-time integrals.  Note the modulus differs from
    :func:`relativistic_transmission` away from upsilon = 0: the latter keeps
    the barrier-scale normalizer w^2 where the continuity solution has
    k^2 + rho^2 = V0 (2E - V0).
    """
    if cfg.dispersion is not Dispersion.RELATIVISTIC_KG:
        raise ZoneError("kg_scatter_coeffs needs a relativistic configuration")
    k = np.asarray(k, dtype=float)
    rho = np.asarray(evanescent_rate(k, cfg), dtype=float)
    if np.any(rho == 0.0):
        raise ZoneError("exact coefficients are singular at the zone edge rho = 0")
    return _evanescent_coeffs(k, rho, cfg.L, k * k - rho * rho, k * k + rho * rho)
