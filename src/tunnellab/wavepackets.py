"""Time-dependent fields: free Gaussian evolution, spectral-quadrature
propagation of the scattered components, the analytic bounce-series packets,
and stationary-phase peak predictors.

Geometry: one-sided incidence with the barrier on [0, L]; region I is x <= 0
(incident + reflected), region II is 0 <= x <= L (intra-barrier pair), region
III is x >= L (transmitted).  All propagation is spectral quadrature of
stationary solutions over the clipped momentum window; there is no PDE
time-stepping anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Dispersion,
    GaussianSpectrum,
    PhysicalConfig,
    ZoneError,
    momentum_window,
)
from .stationary import above_barrier_coeffs, above_barrier_phase_derivative

__all__ = [
    "SpatialGrid",
    "WaveField",
    "FieldPeak",
    "ValidityReport",
    "COMPONENT_TAGS",
    "free_gaussian",
    "free_gaussian_peak",
    "propagate_component",
    "propagate_tunnel_transmitted",
    "multipeak_term_field",
    "multipeak_partial_sum_field",
    "series_validity",
    "spm_peak_prediction",
    "field_norm",
    "field_peak",
]

COMPONENT_TAGS = ("incident", "reflected", "alpha", "beta", "transmitted")

_REGION_TOL = 1e-9
_BLOCK_BUDGET = 1 << 20   # complex values of one FFT block, see _spectral_field


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform spatial grid on [x_min, x_max] with n_points samples."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self) -> None:
        if self.n_points < 2:
            raise ValueError("a grid needs at least 2 points")
        if not self.x_max > self.x_min:
            raise ValueError("grid bounds must be strictly increasing")

    @property
    def spacing(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    @property
    def x(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_points)


@dataclass(frozen=True)
class WaveField:
    """Complex field sampled on a grid at a fixed time."""

    grid: SpatialGrid
    values: np.ndarray
    t: float
    component_tag: str
    n_k: int | None = None      # final momentum node count of a quadrature field
    converged: bool = True      # False when refinement stopped above its tolerance

    def density(self) -> np.ndarray:
        return np.abs(self.values) ** 2


@dataclass(frozen=True)
class FieldPeak:
    x: float
    density: float
    degenerate: bool


def field_norm(f: WaveField) -> float:
    """Integrated probability of the field (trapezoidal rule)."""
    return float(np.trapezoid(f.density(), dx=f.grid.spacing))


def field_peak(f: WaveField) -> FieldPeak:
    """Position and height of the density maximum, lowest-x tie break.

    A field with no structure (all samples equal) is flagged degenerate and
    reports the lowest grid point.
    """
    dens = f.density()
    i = int(np.argmax(dens))  # argmax already takes the first (lowest-x) maximum
    degenerate = bool(np.all(dens == dens[0]))
    if degenerate:
        i = 0
    return FieldPeak(x=float(f.grid.x[i]), density=float(dens[i]), degenerate=degenerate)


# ---------------------------------------------------------------------------
# free Gaussian packet
# ---------------------------------------------------------------------------

def free_gaussian(x, t: float, cfg: PhysicalConfig):
    """Closed-form free Gaussian packet (non-relativistic dispersion).

    Unit norm for all t; |psi|^2 peaks on the ballistic trajectory
    x0 + (k0/m) t and spreads by the factor sqrt(1 + (2t/(m a^2))^2).
    """
    if cfg.dispersion is not Dispersion.NONRELATIVISTIC:
        raise ZoneError("the closed-form free packet is non-relativistic")
    x = np.asarray(x, dtype=float)
    out = _free_envelope(x - cfg.x0, t, cfg)
    return out if out.ndim else complex(out)


def _free_envelope(X, t: float, cfg: PhysicalConfig):
    """Envelope phi[X, t]: the free packet as a function of X = x - x0."""
    m, a, k0 = cfg.m, cfg.a, cfg.k0
    tau = 2.0 * t / (m * a * a)
    prefactor = (math.pi * a * a / 2.0 * (1.0 + tau * tau)) ** -0.25
    E0 = k0 * k0 / (2.0 * m)
    return prefactor * np.exp(
        -(X - k0 * t / m) ** 2 / (a * a * (1.0 + 1j * tau))
        - 0.5j * np.arctan(tau)
        + 1j * (k0 * X - E0 * t))


def free_gaussian_peak(t: float, cfg: PhysicalConfig) -> float:
    """Ballistic peak position x0 + (k0/m) t of the free packet."""
    return cfg.x0 + cfg.k0 * t / cfg.m


# ---------------------------------------------------------------------------
# spectral-quadrature propagation
# ---------------------------------------------------------------------------

def _require_region(tag: str, grid: SpatialGrid, cfg: PhysicalConfig) -> None:
    tol = _REGION_TOL * max(1.0, abs(grid.x_max), abs(grid.x_min), cfg.L)
    if tag in ("incident", "reflected"):
        ok = grid.x_max <= tol
        region = "x <= 0"
    elif tag in ("alpha", "beta"):
        ok = grid.x_min >= -tol and grid.x_max <= cfg.L + tol
        region = "0 <= x <= L"
    elif tag == "transmitted":
        ok = grid.x_min >= cfg.L - tol
        region = "x >= L"
    else:
        raise ValueError(f"unknown component tag {tag!r}; expected one of {COMPONENT_TAGS}")
    if not ok:
        raise ValueError(f"grid [{grid.x_min:g}, {grid.x_max:g}] lies outside the "
                         f"{tag!r} region ({region}, L = {cfg.L:g})")


def _chirp_sum(amp: np.ndarray, k_start: float, dk: float, xs: np.ndarray, dx: float,
               sign: float) -> np.ndarray:
    """sum_j amp[..., j] e^{i sign (k_start + j dk) x_l} on the uniform grid xs (spacing dx).

    Bluestein's chirp-z transform: j l = (j^2 + l^2 - (l - j)^2) / 2 makes the
    sum a convolution with the chirp e^{-i c m^2 / 2}, c = sign dk dx, done by
    FFT in O((n_k + n_x) log) operations.  The chirp phase c r^2 / 2 (|r| <
    max(n_k, n_x)) is of the size of a direct sum's k x; k_start x is
    exponentiated alone.  Every row of amp is summed by one FFT pair along the
    last axis, against one FFT of the chirp.
    """
    n_k, n_x = amp.shape[-1], xs.size
    c = sign * dk * dx
    j = np.arange(n_k, dtype=float)
    r = np.arange(max(n_k, n_x), dtype=float)
    wave = np.exp(-0.5j * c * r * r)                     # the chirp at lags +-r
    size = 1 << (n_k + n_x - 2).bit_length()             # no circular wrap-around
    chirp = np.zeros(size, dtype=complex)
    chirp[:n_x], chirp[size + 1 - n_k:] = wave[:n_x], wave[n_k - 1:0:-1]  # lag l - j mod size
    u = amp * np.exp(1j * (sign * (j * dk) * xs[0] + 0.5 * c * j * j))
    spectrum = np.fft.fft(u, size)
    spectrum *= np.fft.fft(chirp)
    conv = np.fft.ifft(spectrum, out=spectrum)[..., :n_x]   # in place: one block in memory
    return np.exp(1j * (sign * k_start * xs)) * wave[:n_x].conj() * conv


def _spectral_field(amplitude, times: np.ndarray, lo: float, hi: float, xs: np.ndarray,
                    dx: float, sign: float, tol: float, n_k: int, max_n_k: int):
    """Trapezoidal integrals of amplitude(kappa, t) e^{i sign kappa x} over [lo, hi], one per t.

    amplitude(kappa, times) returns the (times, kappa) block; it is called
    once per refinement level, so whatever does not depend on t is computed
    once for all rows.  Refined by nested doubling: the sum on 2n - 1 nodes is
    half the sum on n nodes plus the midpoint sum, so no node is evaluated
    twice.  A row stops refining once its field changes by less than `tol`
    everywhere, or once the grid reaches `max_n_k` nodes; the other rows
    refine on.  The times are taken in chunks of _BLOCK_BUDGET // (FFT length
    at max_n_k nodes) rows, at least one, so memory does not grow with the
    number of times.  Returns (values, final node counts, converged flags),
    one row or entry per time; a row that is never refined is not converged.
    """
    n_t, n_x = times.size, xs.size
    values = np.empty((n_t, n_x), dtype=complex)
    levels = np.full(n_t, n_k)
    converged = np.zeros(n_t, dtype=bool)
    rows = max(1, _BLOCK_BUDGET // (1 << (max(n_k, max_n_k) + n_x - 2).bit_length()))
    for start in range(0, n_t, rows):
        chunk = np.arange(start, min(start + rows, n_t))
        h = (hi - lo) / (n_k - 1)
        f = amplitude(np.linspace(lo, hi, n_k), times[chunk])
        f[:, [0, -1]] *= 0.5
        values[chunk] = h * _chirp_sum(f, lo, h, xs, dx, sign)
        n, active = n_k, chunk
        while n < max_n_k and active.size:
            mid = amplitude(lo + h * (np.arange(n - 1) + 0.5), times[active])
            previous = values[active]
            refined = 0.5 * (previous + h * _chirp_sum(mid, lo + 0.5 * h, h, xs, dx, sign))
            n, h = 2 * n - 1, 0.5 * h
            done = np.max(np.abs(refined - previous), axis=1) < tol
            values[active], levels[active] = refined, n
            converged[active[done]] = True
            active = active[~done]
    return values, levels, converged


def _packet(k: np.ndarray, times: np.ndarray, cfg: PhysicalConfig) -> np.ndarray:
    """g(k) / sqrt(2 pi) e^{-i (E t + k x0)}: the incident packet's spectrum, one row per time."""
    E = k * k / (2.0 * cfg.m)
    return (GaussianSpectrum(cfg.a, cfg.k0).amplitude(k) / math.sqrt(2.0 * math.pi)
            * np.exp(-1j * (E * times[:, None] + k * cfg.x0)))


def _times(t) -> tuple[np.ndarray, bool]:
    """The times of a propagation call as a 1-d array, and whether t was one number."""
    times = np.array(t, dtype=float, ndmin=1)
    if times.ndim != 1:
        raise ValueError("t must be a number or a sequence of numbers")
    return times, np.ndim(t) == 0


def _fields(grid: SpatialGrid, times: np.ndarray, single: bool, tag: str, values,
            levels=None, converged=None) -> WaveField | list[WaveField]:
    """One WaveField per time (a list), or the field alone for a single time."""
    fields = [WaveField(grid=grid, values=values[i], t=float(t), component_tag=tag,
                        n_k=None if levels is None else int(levels[i]),
                        converged=True if converged is None else bool(converged[i]))
              for i, t in enumerate(times)]
    return fields[0] if single else fields


def propagate_component(tag: str, grid: SpatialGrid, t, cfg: PhysicalConfig,
                        *, tol: float = 1e-6, n_k: int = 513,
                        max_n_k: int = 16385) -> WaveField | list[WaveField]:
    """Propagate one scattered component by quadrature over the momentum window.

    The window is k0 +- 8/a clipped to the above-barrier zone (w, inf).  The
    incident, reflected and transmitted components integrate over k; the
    intra-barrier pair oscillates as e^{+-iqx} and integrates over
    q = sqrt(k^2 - w^2) with dk = (q/k) dq, which also cancels the 1/q growth
    of its coefficients at the zone edge.  The trapezoidal grid is refined by
    doubling until the field changes by less than `tol` anywhere.

    `t` is one time, which gives a WaveField, or a sequence of times, which
    gives a list of them in order.  A sequence is one quadrature: the
    stationary coefficients are evaluated once per refinement level for all
    times, and each time's field stops refining where it would alone.
    """
    if cfg.dispersion is not Dispersion.NONRELATIVISTIC:
        raise ZoneError("component propagation uses the non-relativistic solutions")
    _require_region(tag, grid, cfg)
    times, single = _times(t)
    if cfg.L == 0.0:
        # zero-width barrier: free propagation (R = 0, T = 1 identically)
        if tag in ("incident", "transmitted"):
            values = [np.asarray(free_gaussian(grid.x, tt, cfg), dtype=complex)
                      for tt in times.tolist()]
        elif tag == "reflected":
            values = np.zeros((times.size, grid.n_points), dtype=complex)
        else:
            raise ValueError("a zero-width barrier has no interior region")
        return _fields(grid, times, single, tag, values)
    w = cfg.w
    lo, hi = momentum_window(cfg, lower=w * (1.0 + 1e-12))
    if tag == "incident":
        def amplitude(k, times):
            return _packet(k, times, cfg)
    elif tag in ("alpha", "beta"):
        lo, hi = math.sqrt((lo - w) * (lo + w)), math.sqrt((hi - w) * (hi + w))

        def amplitude(q, times):
            k = np.sqrt(q * q + w * w)
            coeffs = above_barrier_coeffs(k, cfg)
            coef = coeffs.alpha_coef if tag == "alpha" else coeffs.beta_coef
            return (q / k) * coef * _packet(k, times, cfg)
    else:
        def amplitude(k, times):
            coeffs = above_barrier_coeffs(k, cfg)
            return (coeffs.R if tag == "reflected" else coeffs.T) * _packet(k, times, cfg)

    sign = -1.0 if tag in ("reflected", "beta") else 1.0     # e^{-ikx}, e^{-iqx}
    return _fields(grid, times, single, tag,
                   *_spectral_field(amplitude, times, lo, hi, grid.x, grid.spacing,
                                    sign, tol, n_k, max_n_k))


def propagate_tunnel_transmitted(grid: SpatialGrid, t, cfg: PhysicalConfig,
                                 *, tol: float = 1e-6, n_k: int = 513,
                                 max_n_k: int = 16385) -> WaveField | list[WaveField]:
    """Transmitted packet of the tunneling geometry (barrier on [-L/2, L/2]).

    Quadrature of |T| e^{i theta} e^{ik(x - L/2)} over the momentum window
    clipped to the tunneling zone (0, w), refined as in `propagate_component`;
    `t` is one time or a sequence of times, as there.
    """
    from .stationary import tunnel_amplitude_nr

    if cfg.dispersion is not Dispersion.NONRELATIVISTIC:
        raise ZoneError("tunnel propagation uses the non-relativistic solutions")
    half = 0.5 * cfg.L
    if grid.x_min < half - _REGION_TOL * max(1.0, abs(grid.x_max)):
        raise ValueError("transmitted grid must lie beyond the exit face x = L/2")
    times, single = _times(t)
    lo, hi = momentum_window(cfg, lower=1e-12 * cfg.w, upper=cfg.w * (1.0 - 1e-12))

    def amplitude(k, times):
        sc = tunnel_amplitude_nr(k, cfg)
        T_exit = (2.0 * k * np.sqrt(cfg.w ** 2 - k * k) / sc.F) * np.exp(1j * sc.theta)
        return T_exit * _packet(k, times, cfg)

    return _fields(grid, times, single, "transmitted-tunnel",
                   *_spectral_field(amplitude, times, lo, hi, grid.x - half, grid.spacing,
                                    1.0, tol, n_k, max_n_k))


# ---------------------------------------------------------------------------
# analytic bounce-series packets
# ---------------------------------------------------------------------------

def _series_basics(cfg: PhysicalConfig):
    k0, w, L = cfg.k0, cfg.w, cfg.L
    if not k0 > w:
        raise ZoneError(f"the bounce series needs k0 > w = {w:g}")
    q0 = math.sqrt(k0 * k0 - w * w)
    u = (k0 - q0) / (k0 + q0)
    step = u * np.exp(-1j * (w * w / q0) * L)   # per-half-bounce factor; terms carry step^(2n)
    return k0, q0, w, L, u, step


def multipeak_term_field(tag: str, n: int, grid: SpatialGrid, t: float,
                         cfg: PhysicalConfig) -> WaveField:
    """n-th analytic bounce term (n >= 1) of one scattered component.

    Built from frozen-coefficient free-Gaussian envelopes with arguments
    shifted by the accumulated intra-barrier path, so each term moves at the
    ballistic speed of its region and successive terms are delayed by one
    round trip 2 (m/q0) L.
    """
    if n < 1:
        raise ValueError("bounce terms are indexed from 1")
    _require_region("incident" if tag == "incident" else tag, grid, cfg)
    k0, q0, w, L, u, step = _series_basics(cfg)
    xs = grid.x
    ratio = k0 / q0

    if tag == "incident":
        values = _free_envelope(xs - cfg.x0, t, cfg) if n == 1 else np.zeros_like(xs, dtype=complex)
    elif tag == "reflected":
        if n == 1:
            values = u * _free_envelope(-xs - cfg.x0, t, cfg)
        else:
            j = n - 2
            pref = (4.0 * k0 * q0 * (q0 - k0) / (k0 + q0) ** 3
                    * np.exp(-2j * (w * w / q0) * L))
            values = pref * step ** (2 * j) * _free_envelope(
                -xs - cfg.x0 + 2.0 * (j + 1) * ratio * L, t, cfg)
    elif tag == "alpha":
        j = n - 1
        pref = 2.0 * k0 / (k0 + q0) * np.exp(-1j * (w * w / q0) * xs)
        values = pref * step ** (2 * j) * _free_envelope(
            (xs + 2.0 * j * L) * ratio - cfg.x0, t, cfg)
    elif tag == "beta":
        j = n - 1
        pref = (2.0 * k0 * (q0 - k0) / (k0 + q0) ** 2
                * np.exp(1j * (w * w / q0) * (xs - 2.0 * L)))
        values = pref * step ** (2 * j) * _free_envelope(
            (2.0 * j * L + 2.0 * L - xs) * ratio - cfg.x0, t, cfg)
    elif tag == "transmitted":
        j = n - 1
        pref = (4.0 * k0 * q0 / (k0 + q0) ** 2
                * np.exp(-1j * (w * w / q0) * L))
        values = pref * step ** (2 * j) * _free_envelope(
            xs - cfg.x0 - L + (2.0 * j + 1.0) * ratio * L, t, cfg)
    else:
        raise ValueError(f"unknown component tag {tag!r}")
    return WaveField(grid=grid, values=np.asarray(values, dtype=complex), t=t,
                     component_tag=f"{tag}:{n}")


def multipeak_partial_sum_field(tag: str, n_terms: int, grid: SpatialGrid, t: float,
                                cfg: PhysicalConfig) -> WaveField:
    """Partial sum of the first n_terms analytic bounce terms of one component."""
    if n_terms < 1:
        raise ValueError("partial sums need at least one term")
    values = np.zeros(grid.n_points, dtype=complex)
    for n in range(1, n_terms + 1):
        values = values + multipeak_term_field(tag, n, grid, t, cfg).values
    return WaveField(grid=grid, values=values, t=t,
                     component_tag=f"{tag}:sum{n_terms}")


@dataclass(frozen=True)
class ValidityReport:
    valid: bool
    margin: float


def series_validity(cfg: PhysicalConfig) -> ValidityReport:
    """Trust predicate for the analytic bounce series.

    The per-bounce intra-barrier phase must not wrap across the momentum
    spread of the packet: (k0/q0) (L/a) < pi.  margin is pi minus that
    product (always pi at L = 0).
    """
    k0, w, L = cfg.k0, cfg.w, cfg.L
    if not k0 > w:
        raise ZoneError(f"series validity applies above the barrier (k0 > w = {w:g})")
    if L == 0.0:
        return ValidityReport(valid=True, margin=math.pi)
    q0 = math.sqrt(k0 * k0 - w * w)
    spread = (k0 / q0) * (L / cfg.a)
    return ValidityReport(valid=spread < math.pi, margin=math.pi - spread)


# ---------------------------------------------------------------------------
# stationary-phase peak predictors (the naive single-peak reading)
# ---------------------------------------------------------------------------

def spm_peak_prediction(tag: str, t: float, cfg: PhysicalConfig,
                        spectral_phase_slope: float | None = None) -> float:
    """Naive stationary-phase peak position of one component at time t.

    These predictions deliberately reproduce the single-peak reading of the
    scattered phases, discontinuities included; the bounce series is the
    corrected account.  `spectral_phase_slope` is d(lambda)/dk at k0 of an
    extra spectral phase and shifts every prediction by its negative, the
    space-translation rule of the free packet.
    """
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
    if spectral_phase_slope is not None:
        x -= spectral_phase_slope
    return x
