"""Closed-form stationary-state amplitudes for the rectangular barrier.

Conventions
-----------
One-sided incidence uses the barrier on [0, L] with the transmitted wave
written as T(k) e^{ikx}; the symmetric two-packet collision uses the barrier
on [-L/2, L/2].  All phases are evaluated quadrant-aware (atan2) and can be
unwrapped along a momentum grid with :func:`unwrap_phase`.

The above-barrier coefficients share the normalizer
F = |2 k q cos qL + i (k^2 + q^2) sin qL|.  Every tunneling-zone amplitude is
a view of one evanescent solution (`_evanescent_parts`) whose normalizer
|2 k rho cosh x + i (k^2 - rho^2) sinh x|, x = rho L, is divided through by
cosh x, so that it is finite at every opacity.  Both give |R|^2 + |T|^2 = 1
identically.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    PhysicalConfig,
    ZoneError,
    _numeric,
    evanescent_rate,
)
from ._hyperbolic import one_way_rate

__all__ = [
    "Parity",
    "ScatterCoeffs",
    "MultipeakSeries",
    "above_barrier_coeffs",
    "above_barrier_phase_derivative",
    "tunnel_amplitude_nr",
    "tunnel_phase_derivative",
    "multipeak_coeffs",
    "multipeak_sums",
    "symmetric_amplitudes",
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
    e^{+rho x}.  theta is the transmission phase, the argument of T e^{ikL}
    (principal value for scalar input).
    """

    R: complex
    T: complex
    alpha_coef: complex
    beta_coef: complex
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


# ---------------------------------------------------------------------------
# one-sided incidence, k above the barrier
# ---------------------------------------------------------------------------

@_numeric()
def _above_momentum(k, w: float, what: str):
    """q = sqrt(k^2 - w^2) after the k > w check (NaN refused); ``what`` is e.g. "sums need".
    k^2 is formed in numpy, so np.errstate sees it overflow, also for a float k."""
    if not (k > w).all():
        raise ZoneError(f"{what} k > w = {w:g}")
    return np.sqrt(k * k - w * w)


@_numeric()
def above_barrier_coeffs(k, cfg: PhysicalConfig) -> ScatterCoeffs:
    """Stationary amplitudes for k > w on the barrier [0, L].

    R carries -i w^2 sin(qL)/F, T carries 2kq/F e^{-ikL}, and the
    intra-barrier pair alpha, beta multiplies e^{+-iqx}; all share the phase
    theta = atan2((k^2+q^2) sin qL, 2kq cos qL).
    """
    w, L = cfg.w, cfg.L
    q = _above_momentum(k, w, "above-barrier amplitudes need")
    s, c = np.sin(q * L), np.cos(q * L)
    F = np.hypot(2.0 * k * q * c, (k * k + q * q) * s)
    theta = np.arctan2((k * k + q * q) * s, 2.0 * k * q * c)
    phase = np.exp(1j * theta)
    R = -1j * (w * w / F) * s * phase
    T = (2.0 * k * q / F) * phase * np.exp(-1j * k * L)
    alpha = (k * (k + q) / F) * phase * np.exp(-1j * q * L)
    beta = -(k * (k - q) / F) * phase * np.exp(1j * q * L)
    return ScatterCoeffs(R, T, alpha, beta, theta)


@_numeric()
def above_barrier_phase_derivative(k, cfg: PhysicalConfig):
    """Closed-form d theta/dk for k > w.

    d theta/dk = (2/q) [k^2 q (k^2+q^2) L - w^4 sin(qL) cos(qL)] / F^2.

    At a transmission resonance (qL = n pi) this reduces to
    (k^2+q^2) L / (2 q^2); at antiresonance (qL = (n+1/2) pi) to
    2 k^2 L / (k^2+q^2).
    """
    w, L = cfg.w, cfg.L
    q = _above_momentum(k, w, "above-barrier phase derivative needs")
    s, c = np.sin(q * L), np.cos(q * L)
    F2 = 4.0 * k * k * q * q * c * c + (k * k + q * q) ** 2 * s * s
    return (2.0 / q) * (k * k * q * (k * k + q * q) * L - w ** 4 * s * c) / F2


def _single_peak_lines(cfg: PhysicalConfig, what: str) -> dict:
    """Each component's single-peak line x(t) = x_ref + v (t - t_ref), as (x_ref, t_ref, v):
    the stationary-phase reading, deliberately uncorrected, fixed by one theta'(k0).  The
    operand orders keep the per-component formulas' values (docs/DECISIONS.md, D15)."""
    k0, m, L, x0 = cfg.k0, cfg.m, cfg.L, cfg.x0
    v_k, v_q = k0 / m, _above_momentum(k0, cfg.w, what) / m
    dtheta = above_barrier_phase_derivative(k0, cfg)
    delay = -(x0 - dtheta) / v_k
    return {"incident": (x0, 0.0, v_k), "reflected": (-x0 + dtheta, 0.0, -v_k),
            "alpha": (L, delay, v_q), "beta": (L, delay, -v_q),
            "transmitted": (x0 + L - dtheta, 0.0, v_k)}


# ---------------------------------------------------------------------------
# one-sided incidence, non-relativistic tunneling
# ---------------------------------------------------------------------------

def _check_tunnel_zone(k, w: float, what: str) -> None:
    """ZoneError unless 0 < k < w (NaN refused); ``what`` is e.g. "tunneling phase needs"."""
    if not np.asarray((k > 0.0) & (k < w)).all():
        raise ZoneError(f"{what} 0 < k < w = {w:g}")


def _evanescent_parts(k, rho, x, diff):
    """tanh x, e^{-x}, c and theta of an evanescent interior at opacity x = rho L.

    diff is k^2 - rho^2.  The normalizer F = |2 k rho cosh x + i diff sinh x|
    divided through by cosh x is hypot(2 k rho, diff tanh x), so
    c = 2 k rho cosh x / F and theta = atan2(diff tanh x, 2 k rho) are finite
    at every x.
    """
    th = np.tanh(x)
    kr = 2.0 * k * rho
    y = diff * th
    return th, np.exp(-x), kr / np.hypot(kr, y), np.arctan2(y, kr)


def _evanescent_coeffs(k: np.ndarray, rho, L: float, K2, parts) -> ScatterCoeffs:
    """R, T and the intra-barrier pair of an evanescent interior on [0, L].

    ``parts`` is :func:`_evanescent_parts` at x = rho L.  With
    a = c e^{i theta} / (1 + e^{-2x}):
        R = -i (K2 / 2 k rho) tanh x c e^{i theta},   T e^{ikL} = 2 e^{-x} a,
        alpha = (1 - i k/rho) a,   beta = (1 + i k/rho) e^{-2x} a,
    so T and beta underflow to 0 for opaque barriers instead of overflowing.
    K2 = k^2 + rho^2, and the diff = k^2 - rho^2 of ``parts``, come from the
    caller in its own form (w^2 and 2k^2 - w^2 for the non-relativistic
    barrier).
    """
    th, e, c, theta = parts
    phase = c * np.exp(1j * theta)
    a = phase / (1.0 + e * e)
    R = -1j * (K2 / (2.0 * k * rho)) * th * phase
    T = 2.0 * e * a * np.exp(-1j * k * L)
    alpha = (1.0 - 1j * k / rho) * a
    beta = (1.0 + 1j * k / rho) * (e * e) * a
    return ScatterCoeffs(R, T, alpha, beta, theta)


def _tunnel_parts(k, w: float, L: float, what: str):
    """rho and the evanescent parts of the tunneling solution, after the 0 < k < w check."""
    _check_tunnel_zone(k, w, what)
    rho = np.sqrt(w * w - k * k)
    return (rho, *_evanescent_parts(k, rho, rho * L, 2.0 * k * k - w * w))


@_numeric()
def tunnel_amplitude_nr(k, cfg: PhysicalConfig) -> ScatterCoeffs:
    """Stationary amplitudes for 0 < k < w on the barrier [0, L].

    |T| = 2 k rho / F with F^2 = 4 k^2 rho^2 + w^4 sinh^2(rho L), the
    evanescent analogue of the above-barrier normalizer, evaluated divided
    through by cosh(rho L) so that every amplitude is finite at every opacity;
    alpha_coef and beta_coef multiply e^{-rho x} and e^{+rho x}.
    """
    rho, *parts = _tunnel_parts(k, cfg.w, cfg.L, "tunneling amplitudes need")
    return _evanescent_coeffs(k, rho, cfg.L, cfg.w * cfg.w, parts)


@_numeric()
def tunnel_phase_derivative(k, cfg: PhysicalConfig):
    """Closed-form d theta/dk in the tunneling zone.

    d theta/dk = 2 L [w^4 sinh(a) cosh(a) / a - k^2 (2k^2 - w^2)]
                 / (4 k^2 rho^2 + w^4 sinh^2 a),   a = rho L,

    which is L times the one-way rate at n = k^2/w^2, n_bar = rho^2/w^2.
    """
    w, L = cfg.w, cfg.L
    _check_tunnel_zone(k, w, "tunneling phase derivative needs")
    rho_sq = w * w - k * k
    return L * one_way_rate(k * k / (w * w), rho_sq / (w * w), np.sqrt(rho_sq) * L)


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


def multipeak_coeffs(k: float, cfg: PhysicalConfig) -> MultipeakSeries:
    """Successive-bounce coefficients {R_n, alpha_n, beta_n, T_n} for k > w.

    First terms come from the step-by-step continuity conditions at the two
    interfaces; later terms follow the geometric ratio r.  n_max is the
    smallest count whose geometric tail is below 1e-12.
    """
    q = _above_momentum(k, cfg.w, "multipeak decomposition needs")
    r, R1, a1, b1, T1, R2 = _bounce_first_terms(k, q, cfg.L)
    mod_r = abs(r)
    first = max(abs(R1), abs(R2), abs(a1), abs(b1), abs(T1))
    if mod_r == 0.0:
        n_max = 2
    else:
        n_max = max(2, int(math.ceil(math.log(1e-12 * (1.0 - mod_r) / first)
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


@_numeric()
def multipeak_sums(k, cfg: PhysicalConfig) -> ScatterCoeffs:
    """Closed geometric sums of the bounce series; equals the one-shot amplitudes."""
    L = cfg.L
    q = _above_momentum(k, cfg.w, "multipeak sums need")
    r, R1, a1, b1, T1, R2 = _bounce_first_terms(k, q, L)
    geo = 1.0 / (1.0 - r)
    R = R1 + R2 * geo
    alpha = a1 * geo
    beta = b1 * geo
    T = T1 * geo
    theta = np.angle(T * np.exp(1j * k * L))
    return ScatterCoeffs(R, T, alpha, beta, theta)


# ---------------------------------------------------------------------------
# symmetric two-packet collision (barrier on [-L/2, L/2], tunneling zone)
# ---------------------------------------------------------------------------

@_numeric()
def symmetric_amplitudes(k, cfg: PhysicalConfig):
    """Reflection and transmission amplitudes seen by either colliding packet.

    (R e^{-ikL}, T) of the one-sided solution on [0, L] (tunnel_amplitude_nr):
    with the barrier on [-L/2, L/2], R picks up e^{-ikL} and T is unchanged.
    In closed form
        R = e^{-ikL} w^2 sinh(rho L) / D,   T = e^{-ikL} 2 i k rho / D,
        D = (2k^2 - w^2) sinh(rho L) + 2 i k rho cosh(rho L).
    This equals the exponential form written with the unimodular factor
    e^{i theta(k)}, theta = atan2(2 k rho, 2 k^2 - w^2): the ratio
    2 k rho / (2k^2 - w^2) is tan(theta), not the angle itself (the other
    reading breaks the combined-amplitude phases and is discontinuous at
    2k^2 = w^2).
    """
    w, L = cfg.w, cfg.L
    rho, *parts = _tunnel_parts(k, w, L, "symmetric collision amplitudes need")
    sc = _evanescent_coeffs(k, rho, L, w * w, parts)
    return sc.R * np.exp(-1j * k * L), sc.T


@_numeric()
def symmetric_phase(k, cfg: PhysicalConfig, parity: Parity):
    """Scattering phase of the combined unimodular amplitude R +- T.

    phi_pm = -atan2(2 k rho tanh(rho L), (k^2 - rho^2) +- w^2 / cosh(rho L)),
    continuous across (0, w) and vanishing at the barrier-top end.  Numerator
    and denominator are divided by cosh(rho L), with 1 / cosh x formed as
    2 e^{-x} / (1 + e^{-2x}).
    """
    w, L = cfg.w, cfg.L
    rho, th, e, _, _ = _tunnel_parts(k, w, L, "symmetric collision amplitudes need")
    sech = 2.0 * e / (1.0 + e * e)
    return -np.arctan2(2.0 * k * rho * th, (2.0 * k * k - w * w) + parity.sign * w * w * sech)


@_numeric()
def symmetric_intra_barrier_coeffs(k, cfg: PhysicalConfig):
    """Intra-barrier pair (gamma, beta) of the left-incident symmetric solution.

    In the frame with the barrier on [-L/2, L/2] the left-incident stationary
    wave is gamma e^{-rho x} + beta e^{+rho x} inside; the right-incident
    solution is its mirror image x -> -x.  This is the pair of the [0, L]
    solution moved by L/2: alpha e^{-x/2} and beta e^{x/2}, x = rho L, with
    the incident wave renormalized by e^{-ikL/2}.  The exponentials are
    folded into gamma ~ e^{-x/2} and beta ~ e^{-3x/2}, so that neither
    factor overflows.
    """
    L = cfg.L
    rho, _, e, c, theta = _tunnel_parts(k, cfg.w, L, "symmetric collision amplitudes need")
    a = c * np.exp(1j * (theta - 0.5 * k * L) - 0.5 * rho * L) / (1.0 + e * e)
    return (1.0 - 1j * k / rho) * a, (1.0 + 1j * k / rho) * e * a


# ---------------------------------------------------------------------------
# relativistic (Klein-Gordon) transmission
# ---------------------------------------------------------------------------

@_numeric()
def relativistic_transmission(n_sq, upsilon: float, wL: float):
    """Transmission modulus and phase in the relativistic tunneling zone.

    |T(n, L)| = [1 + sinh^2(rho_n wL) / (4 n^2 rho_n^2)]^(-1/2)
    phi(n, L) = atan2((n^2 - rho_n^2) tanh(rho_n wL), 2 n rho_n)

    with rho_n from :func:`tunnellab.core.rho_n_squared`.  At upsilon = 0 this
    is exactly the non-relativistic pair (|T|, theta).  phi is the theta of
    the shared evanescent solution (_evanescent_parts).  |T| keeps the
    barrier-scale normalizer in scaled form,
    2 e^{-x} / sqrt(s + m q / (4 n^2 rho_n^2)) at x = rho_n wL
    (tunnellab._hyperbolic), so it is finite at the zone edge and underflows
    to 0 instead of overflowing.  Returns (T_mag, phi), a view of the
    tunneling-zone solution behind every relativistic time (observables._RelZone).
    """
    from .observables import _RelZone   # observables builds on this module

    return _RelZone(n_sq, upsilon, wL).transmission()


@_numeric()
def kg_scatter_coeffs(k, cfg: PhysicalConfig) -> ScatterCoeffs:
    """Exact Klein-Gordon continuity solution on the barrier [0, L], E = sqrt(k^2 + m^2).

    Solves the matching conditions of the quadratic wave equation directly,
    so that |R|^2 + |T|^2 = 1 holds and the intra-barrier pair reproduces the
    field used by dwell-time integrals.  Note the modulus differs from
    :func:`relativistic_transmission` away from upsilon = 0: the latter keeps
    the barrier-scale normalizer w^2 where the continuity solution has
    k^2 + rho^2 = V0 (2E - V0).
    """
    rho = evanescent_rate(k, cfg)
    if np.any(rho == 0.0):
        raise ZoneError("exact coefficients are singular at the zone edge rho = 0")
    parts = _evanescent_parts(k, rho, rho * cfg.L, k * k - rho * rho)
    return _evanescent_coeffs(k, rho, cfg.L, k * k + rho * rho, parts)
