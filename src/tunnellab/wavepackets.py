"""Time-dependent fields: free Gaussian evolution, spectral-quadrature
propagation of the scattered components, the analytic bounce-series packets,
and stationary-phase peak predictors.

Geometry: one-sided incidence with the barrier on [0, L]; region I is x <= 0
(incident + reflected), region II is 0 <= x <= L (intra-barrier pair), region
III is x >= L (transmitted).  All propagation is spectral quadrature of
stationary solutions over the momentum window clipped to the zone of k0; there
is no PDE time-stepping anywhere.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .core import GaussianSpectrum, PhysicalConfig, ZoneError, _numeric
from .stationary import _above_momentum, _single_peak_lines, above_barrier_coeffs, tunnel_amplitude_nr

__all__ = [
    "SpatialGrid",
    "WaveField",
    "FieldPeak",
    "ValidityReport",
    "COMPONENT_TAGS",
    "free_gaussian",
    "free_gaussian_peak",
    "propagate_component",
    "propagate_components",
    "propagate_tunnel_transmitted",
    "multipeak_partial_sum_field",
    "series_validity",
    "spm_peak_prediction",
    "field_norm",
    "field_peak",
]

COMPONENT_TAGS = ("incident", "reflected", "alpha", "beta", "transmitted")

_REGION_TOL = 1e-9
_BLOCK_BUDGET = 1 << 20   # complex values per block of rows (_spectral_field, bounce series)
_QUAD_TOL, _QUAD_N_K, _QUAD_MAX_N_K = 1e-6, 513, 16385   # quadrature refinement (_spectral_field)


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

    @functools.cached_property
    def x(self) -> np.ndarray:
        """The sample points, computed once per grid and read-only, as every field shares them."""
        x = np.linspace(self.x_min, self.x_max, self.n_points)
        x.flags.writeable = False
        return x


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


def field_norm(f: WaveField) -> float:
    """Integrated probability of the field (trapezoidal rule)."""
    return float(np.trapezoid(f.density(), dx=f.grid.spacing))


def field_peak(f: WaveField) -> FieldPeak:
    """Position and height of the density maximum, lowest-x tie break.

    A field with no structure (all samples equal) reports the lowest grid point.
    """
    dens = f.density()
    i = int(np.argmax(dens))  # argmax takes the first (lowest-x) maximum
    return FieldPeak(x=float(f.grid.x[i]), density=float(dens[i]))


# ---------------------------------------------------------------------------
# free Gaussian packet
# ---------------------------------------------------------------------------

@_numeric()
def free_gaussian(x, t: float, cfg: PhysicalConfig):
    """Closed-form free Gaussian packet (non-relativistic dispersion).

    Unit norm for all t; |psi|^2 peaks on the ballistic trajectory
    x0 + (k0/m) t and spreads by the factor sqrt(1 + (2t/(m a^2))^2).
    """
    return _free_envelope(x - cfg.x0, t, cfg)


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
    if tag not in COMPONENT_TAGS:
        raise ValueError(f"unknown component tag {tag!r}; expected one of {COMPONENT_TAGS}")
    lo, hi, region = {"alpha": (0.0, cfg.L, "0 <= x <= L"), "beta": (0.0, cfg.L, "0 <= x <= L"),
                      "transmitted": (cfg.L, math.inf, "x >= L")}.get(tag, (-math.inf, 0.0, "x <= 0"))
    tol = _REGION_TOL * max(1.0, abs(grid.x_max), abs(grid.x_min), cfg.L)
    if grid.x_min < lo - tol or grid.x_max > hi + tol:
        raise ValueError(f"grid [{grid.x_min:g}, {grid.x_max:g}] lies outside the "
                         f"{tag!r} region ({region}, L = {cfg.L:g})")


def _fft_size(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n: the FFT lengths pocketfft transforms fastest."""
    best, p5 = 1 << (n - 1).bit_length(), 1
    while p5 < best:
        p = p5
        while p < best:
            best, p = min(best, p << (-(-n // p) - 1).bit_length()), 3 * p
        p5 *= 5
    return best


def _chirp_sum(amp: np.ndarray, k_start: float, dk: float, xs: np.ndarray, dx: float,
               sign: float, plans: dict | None = None) -> np.ndarray:
    """sum_j amp[..., j] e^{i sign (k_start + j dk) x_l} on the uniform grid xs (spacing dx).

    Bluestein's chirp-z transform: j l = (j^2 + l^2 - (l - j)^2) / 2 makes the
    sum a convolution with the chirp e^{-i c m^2 / 2}, c = sign dk dx, done by
    FFT in O((n_k + n_x) log) operations.  The chirp phase c r^2 / 2 (|r| <
    the FFT length) is of the size of a direct sum's k x; k_start x is
    exponentiated alone.  Each row of amp takes one FFT pair of the smallest
    5-smooth length with no wrap-around.  `plans` keeps the chirp's FFT and
    phases by (c, FFT length, xs[0], n_x) for the sums of one spacing dk.
    """
    n_k, n_x = amp.shape[-1], xs.size
    c, size = sign * dk * dx, _fft_size(n_k + n_x - 1)
    plans, key = {} if plans is None else plans, (c, size, float(xs[0]), n_x)
    if key not in plans:
        n_max = size + 1 - n_x                               # the most nodes this length sums
        r = np.arange(max(n_max, n_x), dtype=float)
        wave = np.exp(-0.5j * c * r * r)                     # the chirp at lags +-r
        plans[key] = (np.fft.fft(np.concatenate((wave[:n_x], wave[n_max - 1:0:-1]))),  # lag l - j
                      np.exp(1j * (sign * (r * dk) * xs[0] + 0.5 * c * r * r)), wave[:n_x].conj())
    chirp_fft, pre_phase, post_phase = plans[key]
    spectrum = np.zeros((*amp.shape[:-1], size), dtype=complex)
    np.multiply(amp, pre_phase[:n_k], out=spectrum[..., :n_k])
    spectrum = np.fft.fft(spectrum, out=spectrum)            # in place: one block in memory
    spectrum *= chirp_fft
    conv = np.fft.ifft(spectrum, out=spectrum)[..., :n_x]
    return np.exp(1j * (sign * k_start * xs)) * post_phase * conv


def _spectral_field(level, parts, times: np.ndarray, lo: float, hi: float, cfg: PhysicalConfig):
    """Trapezoidal integrals of weight(kappa) _packet(k, t) e^{i sign kappa x} over [lo, hi].

    The parts (xs, dx, sign) share kappa; level(kappa) gives k and one weight
    per part.  The first level has _QUAD_N_K nodes.  Per nested-doubling level
    (2n - 1 nodes: half the n-node sum plus the midpoint sum), level() and the
    _packet rows of the times still refining are evaluated once; then one
    part's block at a time is formed, chirp-summed and refined.  A part's row
    stops once its field changes by less than _QUAD_TOL, or at _QUAD_MAX_N_K
    nodes, as it would alone.  Times go in chunks of _BLOCK_BUDGET // (largest
    FFT length) rows, at least one.  The constants are read at each call.
    Returns (values, node counts, converged flags) per part, one per time.
    """
    n_t, n_first, n_last = times.size, _QUAD_N_K, _QUAD_MAX_N_K
    values = [np.empty((n_t, xs.size), dtype=complex) for xs, _, _ in parts]
    levels, converged = np.full((len(parts), n_t), n_first), np.zeros((len(parts), n_t), dtype=bool)
    rows = max(1, _BLOCK_BUDGET // _fft_size(max(n_first, n_last) + max(p[0].size for p in parts) - 1))
    for start in range(0, n_t, rows):
        chunk = np.arange(start, min(start + rows, n_t))
        live = np.ones((len(parts), chunk.size), dtype=bool)   # the rows each part refines
        n, h = n_first, (hi - lo) / (n_first - 1)
        nodes, dk, plans = np.linspace(lo, hi, n_first), h, {}
        while True:
            first, union = nodes.size == n, live.any(axis=0)
            k, weights = level(nodes)
            packet = _packet(k, times[chunk[union]], cfg)
            if first:                       # every node, the two ends by half
                packet[:, [0, -1]] *= 0.5
            for p in np.flatnonzero(live.any(axis=1)):      # the parts still refining
                (xs, dx, sign), mine = parts[p], chunk[live[p]]
                field = dk * _chirp_sum(packet[live[p][union]] * weights[p], nodes[0], dk, xs, dx,
                                        sign, plans)
                if not first:
                    previous = values[p][mine]
                    field = 0.5 * (previous + field)
                    done = np.max(np.abs(field - previous), axis=1) < _QUAD_TOL
                    levels[p, mine], converged[p, mine[done]] = n, True
                    live[p, live[p]] = ~done
                values[p][mine] = field
            if n >= n_last or not live.any():
                break
            plans = plans if dk == h else {}     # the spacing dk is finished
            nodes, dk = lo + h * (np.arange(n - 1) + 0.5), h
            n, h = 2 * n - 1, 0.5 * h
    return list(zip(values, levels, converged))


def _packet(k: np.ndarray, times: np.ndarray, cfg: PhysicalConfig) -> np.ndarray:
    """g(k) / sqrt(2 pi) e^{-i (E t + k x0)}: the incident packet's spectrum, one row per time."""
    E = k * k / (2.0 * cfg.m)
    return (GaussianSpectrum(cfg.a, cfg.k0).amplitude(k) / math.sqrt(2.0 * math.pi)
            * np.exp(-1j * (E * times[:, None] + k * cfg.x0)))


def _times(t) -> tuple[np.ndarray, bool]:
    """The times of a propagation call as a finite 1-d array, and whether t was one number."""
    times = np.array(t, dtype=float, ndmin=1)
    if times.ndim != 1:
        raise ValueError("t must be a number or a sequence of numbers")
    if not np.isfinite(times).all():
        raise ValueError(f"times must be finite, got {float(times[~np.isfinite(times)][0])!r}")
    return times, np.ndim(t) == 0


def _window(cfg: PhysicalConfig) -> tuple[float, float]:
    """The momentum window k0 +- 8/a (Gaussian mass outside it below 1e-13), clipped to the
    zone of k0: (w, inf) for k0 >= w, else (0, w), each edge kept out by a relative 1e-12."""
    w, half = cfg.w, 8.0 / cfg.a
    lo, hi = cfg.k0 - half, cfg.k0 + half
    lo, hi = (max(lo, w * (1.0 + 1e-12)), hi) if cfg.k0 >= w else (
        max(lo, 1e-12 * w), min(hi, w * (1.0 - 1e-12)))
    if not lo < hi:
        raise ZoneError(f"the momentum window k0 +- 8/a is empty in the zone of k0 (w = {w:g})")
    return lo, hi


def _fields(grid: SpatialGrid, times: np.ndarray, single: bool, tag: str, values,
            levels=None, converged=None) -> WaveField | list[WaveField]:
    """One WaveField per time (a list), or the field alone for a single time."""
    fields = [WaveField(grid=grid, values=values[i], t=float(t), component_tag=tag,
                        n_k=None if levels is None else int(levels[i]),
                        converged=True if converged is None else bool(converged[i]))
              for i, t in enumerate(times)]
    return fields[0] if single else fields


def propagate_components(grids: dict[str, SpatialGrid], t, cfg: PhysicalConfig) -> dict:
    """Propagate scattered components, {tag: grid}, by quadrature over the momentum window.

    The window is k0 +- 8/a clipped to the zone of k0 (_window), with the amplitudes
    of above_barrier_coeffs above the barrier and of tunnel_amplitude_nr below it.
    The incident, reflected and transmitted components integrate over k; above the
    barrier the intra-barrier pair oscillates as e^{+-iqx} and integrates over
    q = sqrt(k^2 - w^2) with dk = (q/k) dq, which also cancels the 1/q growth of its
    coefficients at the zone edge (a tunneling packet has no such pair: ZoneError).
    The trapezoidal grid is refined by doubling until the field changes by less than
    1e-6 anywhere, or up to 16385 nodes (the field then says it did not converge).

    `t` is one time (a WaveField per tag) or a sequence of times (a list per
    tag).  Each momentum variable is one quadrature of its components at all
    times, each field refined as it would be alone.
    """
    for tag, grid in grids.items():
        _require_region(tag, grid, cfg)
    times, single = _times(t)
    if cfg.L == 0.0:   # zero-width barrier: free propagation (R = 0, T = 1 identically)
        if not grids.keys() <= {"incident", "reflected", "transmitted"}:
            raise ValueError("a zero-width barrier has no interior region")
        return {tag: _fields(grid, times, single, tag, [
                    np.zeros(grid.n_points, dtype=complex) if tag == "reflected"
                    else free_gaussian(grid.x, tt, cfg) for tt in times.tolist()])
                for tag, grid in grids.items()}
    w = cfg.w
    k_tags = [tag for tag in grids if tag in ("incident", "reflected", "transmitted")]
    q_tags = [tag for tag in grids if tag in ("alpha", "beta")]
    if q_tags and cfg.k0 < w:
        raise ZoneError(f"alpha and beta oscillate only above the barrier, k0 >= w = {w:g}")
    lo, hi = _window(cfg)
    coeffs_of = above_barrier_coeffs if cfg.k0 >= w else tunnel_amplitude_nr

    def k_level(k):
        coeffs = coeffs_of(k, cfg) if k_tags != ["incident"] else None
        return k, [1.0 if tag == "incident" else coeffs.R if tag == "reflected" else coeffs.T
                   for tag in k_tags]

    def q_level(q):
        k = np.sqrt(q * q + w * w)
        coeffs = above_barrier_coeffs(k, cfg)
        return k, [(q / k) * (coeffs.alpha_coef if tag == "alpha" else coeffs.beta_coef)
                   for tag in q_tags]

    found = dict.fromkeys(grids)
    q_window = tuple(math.sqrt((k - w) * (k + w)) for k in (lo, hi)) if q_tags else None
    for tags, level, window in ((k_tags, k_level, (lo, hi)), (q_tags, q_level, q_window)):
        if tags:
            parts = [(grids[tag].x, grids[tag].spacing, -1.0 if tag in ("reflected", "beta")
                      else 1.0) for tag in tags]     # e^{-ikx}, e^{-iqx}
            results = _spectral_field(level, parts, times, *window, cfg)
            for tag, result in zip(tags, results):
                found[tag] = _fields(grids[tag], times, single, tag, *result)
    return found


def propagate_component(tag: str, grid: SpatialGrid, t,
                        cfg: PhysicalConfig) -> WaveField | list[WaveField]:
    """One scattered component: propagate_components({tag: grid}, t, cfg)[tag]."""
    return propagate_components({tag: grid}, t, cfg)[tag]


def propagate_tunnel_transmitted(grid: SpatialGrid, t,
                                 cfg: PhysicalConfig) -> WaveField | list[WaveField]:
    """The transmitted component on a grid in the frame of the barrier on [-L/2, L/2].

    A view of propagate_component("transmitted", ...) on the grid moved by
    +L/2, with x0 unmoved, returned on the caller's grid.  Only the barrier
    moves, so the field is the exact transmitted field of the centred barrier
    at x + L/2, not at x (docs/DECISIONS.md, D25).
    """
    half = 0.5 * cfg.L
    fields = propagate_component("transmitted", SpatialGrid(grid.x_min + half, grid.x_max + half,
                                                            grid.n_points), t, cfg)
    view = functools.partial(replace, grid=grid, component_tag="transmitted-tunnel")
    return view(fields) if isinstance(fields, WaveField) else [view(f) for f in fields]


# ---------------------------------------------------------------------------
# analytic bounce-series packets
# ---------------------------------------------------------------------------

def _series_basics(cfg: PhysicalConfig):
    k0, w, L = cfg.k0, cfg.w, cfg.L
    q0 = _above_momentum(k0, w, "the bounce series needs")
    u = (k0 - q0) / (k0 + q0)
    step = u * np.exp(-1j * (w * w / q0) * L)   # per-half-bounce factor; terms carry step^(2n)
    return k0, q0, w, L, u, step


def multipeak_partial_sum_field(tag: str, n_terms: int, grid: SpatialGrid, t,
                                cfg: PhysicalConfig) -> WaveField | list[WaveField]:
    """Partial sum of the first n_terms analytic bounce terms of one scattered component.

    Each term is a frozen-coefficient free-Gaussian envelope whose argument is
    shifted by the accumulated intra-barrier path, so it moves at the
    ballistic speed of its region, and each term is delayed by one round trip
    2 (m/q0) L after the one before.  `t` is one time or a sequence of times,
    as in `propagate_component`.  Blocks of _BLOCK_BUDGET // n_points rows (at
    least one) bound the arrays of a block, whatever the number of times.
    """
    if n_terms < 1:
        raise ValueError("partial sums need at least one term")
    _require_region(tag, grid, cfg)
    basics = _series_basics(cfg)
    times, single = _times(t)
    xs = grid.x
    values = np.zeros((times.size, xs.size), dtype=complex)
    rows = max(1, _BLOCK_BUDGET // xs.size)
    for start in range(0, times.size, rows):
        for n in range(1, n_terms + 1):
            values[start:start + rows] += _bounce_term(tag, n, xs, times[start:start + rows],
                                                       cfg, basics)
    return _fields(grid, times, single, f"{tag}:sum{n_terms}", values)


def _bounce_term(tag: str, n: int, xs: np.ndarray, times: np.ndarray, cfg: PhysicalConfig,
                 basics) -> np.ndarray:
    """The n-th bounce term of one component on xs, one row per time: a weight times an envelope."""
    k0, q0, w, L, u, step = basics
    ratio, j = k0 / q0, n - 1
    if tag == "incident":   # no bounce after the first term: adding 0.0 is adding zeros
        return _envelope_rows(xs - cfg.x0, times, cfg) if n == 1 else 0.0
    if tag == "reflected" and n == 1:
        weight, X = u, -xs - cfg.x0
    elif tag == "reflected":
        j = n - 2
        weight = (4.0 * k0 * q0 * (q0 - k0) / (k0 + q0) ** 3
                  * np.exp(-2j * (w * w / q0) * L) * step ** (2 * j))
        X = -xs - cfg.x0 + 2.0 * (j + 1) * ratio * L
    elif tag == "alpha":
        weight = 2.0 * k0 / (k0 + q0) * np.exp(-1j * (w * w / q0) * xs) * step ** (2 * j)
        X = (xs + 2.0 * j * L) * ratio - cfg.x0
    elif tag == "beta":
        weight = (2.0 * k0 * (q0 - k0) / (k0 + q0) ** 2
                  * np.exp(1j * (w * w / q0) * (xs - 2.0 * L)) * step ** (2 * j))
        X = (2.0 * j * L + 2.0 * L - xs) * ratio - cfg.x0
    else:   # transmitted
        weight = (4.0 * k0 * q0 / (k0 + q0) ** 2
                  * np.exp(-1j * (w * w / q0) * L) * step ** (2 * j))
        X = xs - cfg.x0 - L + (2.0 * j + 1.0) * ratio * L
    envelope = _envelope_rows(X, times, cfg)
    return np.multiply(weight, envelope, out=envelope)


def _envelope_rows(X: np.ndarray, times: np.ndarray, cfg: PhysicalConfig) -> np.ndarray:
    """_free_envelope at each time, one row per time.

    Each row is evaluated as for its time alone: broadcasting over a column of
    times would make numpy buffer a copy of the whole block in every operation.
    """
    rows = np.empty((times.size, X.size), dtype=complex)
    for row, t in zip(rows, times.tolist()):
        row[...] = _free_envelope(X, t, cfg)
    return rows


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
    q0 = _above_momentum(cfg.k0, cfg.w, "series validity needs")
    spread = (cfg.k0 / q0) * (cfg.L / cfg.a)
    return ValidityReport(valid=spread < math.pi, margin=math.pi - spread)


# ---------------------------------------------------------------------------
# stationary-phase peak predictors (the naive single-peak reading)
# ---------------------------------------------------------------------------

def spm_peak_prediction(tag: str, t, cfg: PhysicalConfig):
    """Naive stationary-phase peak position of one component at time t (a number or an array).

    These predictions deliberately reproduce the single-peak reading of the
    scattered phases, discontinuities included; the bounce series is the
    corrected account.
    """
    if tag == "incident":   # needs no scattering solution
        return cfg.x0 + cfg.k0 / cfg.m * t
    if tag not in COMPONENT_TAGS:
        raise ValueError(f"unknown component tag {tag!r}")
    x_ref, t_ref, v = _single_peak_lines(cfg, "naive predictions need")[tag]
    return x_ref + v * (t - t_ref)
