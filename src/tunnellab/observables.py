"""Transit-time observables and spectral diagnostics.

Covers the naive single-peak times of above-barrier scattering, the one-way
tunneling phase time with its opaque limit, the filtered-spectrum maximum
search with the distortion criterion, the symmetric-collision triple
(phase = dwell + self-interference, both parities), and the relativistic
phase/dwell/re-scaled-dwell family with its zone-edge limit laws.

Normalized quantities are ratios t / tau_k with tau_k = L / v(k) the
ballistic traversal time.  Dimensionless arguments follow the barrier
parameterization n = k^2/w^2 (non-relativistic functions), alpha =
wL sqrt(1 - n), and n_sq = k^2/w^2 with upsilon = V0/m (relativistic
functions).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Dispersion,
    PhysicalConfig,
    ZoneError,
    _check_rel_zone,
    _numeric,
    rho_n_squared,
)
from ._hyperbolic import one_way_rate, scaled
from .stationary import (
    Parity,
    _check_tunnel_zone,
    _evanescent_parts,
    _kg_solution,
    _single_peak_lines,
    symmetric_intra_barrier_coeffs,
    tunnel_phase_derivative,
)

__all__ = [
    "NaiveTimes",
    "SpectralMaximum",
    "naive_above_barrier_times",
    "nr_transmission_mag",
    "nr_phase_time",
    "nr_opaque_limit_time",
    "nr_one_way_rate",
    "phase_time_shape",
    "kmax_find",
    "distortion_flag",
    "symmetric_phase_time",
    "symmetric_dwell",
    "symmetric_self_interference",
    "symmetric_dwell_quadrature",
    "fermion_acceleration_predicate",
    "rel_phase_time",
    "rel_phase_time_near_edge",
    "rel_phase_time_zone_edge",
    "rel_dwell",
    "rel_continuity_dwell",
    "rel_dwell_zone_edge",
    "rel_rescaled_dwell",
    "rel_self_interference",
    "rel_transmission_zone_edge",
    "rel_variational_residual",
]

_FIELD_ROWS = 1024    # rows per (rows x nodes) interior field of a dwell integral
_IDENTITY_N_QUAD = 160    # Gauss-Legendre nodes per row of every dwell integral


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Read-only _IDENTITY_N_QUAD Gauss-Legendre nodes and weights on [-1, 1], built once."""
    xs, wq = np.polynomial.legendre.leggauss(_IDENTITY_N_QUAD)
    xs.flags.writeable = False
    wq.flags.writeable = False
    return xs, wq


def _density_integral(alpha, beta, rho, lo: float, hi: float) -> np.ndarray:
    """Integral of |alpha e^{-rho x} + beta e^{rho x}|^2 over [lo, hi] for each row of the 1-D
    arrays, on the cached nodes, in fields of at most _FIELD_ROWS rows (bounding their memory)."""
    xs, wq = _gauss_legendre()
    half = 0.5 * (hi - lo)
    xs, wq = lo + half * (xs + 1.0), wq * half
    integral = np.empty(rho.size)
    for start in range(0, rho.size, _FIELD_ROWS):
        rows = slice(start, start + _FIELD_ROWS)
        field = alpha[rows, None] * np.exp(-rho[rows, None] * xs) \
            + beta[rows, None] * np.exp(rho[rows, None] * xs)
        integral[rows] = np.sum(wq * np.abs(field) ** 2, axis=1)
    return integral


@dataclass(frozen=True)
class NaiveTimes:
    """Single-peak reading of the component peak times at one position."""

    incident: float
    reflected: float
    alpha: float
    beta: float
    transmitted: float


@dataclass(frozen=True)
class SpectralMaximum:
    """Argmax of the filtered spectrum g(k - k0) |T(k, L)| over (0, w)."""

    k_max: float
    distorted: bool
    bracket: tuple[float, float]


# ---------------------------------------------------------------------------
# naive above-barrier times (single-peak reading; deliberately uncorrected)
# ---------------------------------------------------------------------------

def naive_above_barrier_times(cfg: PhysicalConfig, x: float) -> NaiveTimes:
    """Peak arrival times at position x under the single-peak reading.

    Each is t_ref + (x - x_ref) / v on its line (stationary._single_peak_lines),
    returned for any x, though x <= 0 is physical for incident/reflected, [0, L]
    for the intra-barrier pair and x >= L for transmitted: the discontinuities at
    the interfaces are exactly the point of the corrected bounce decomposition.
    """
    lines = _single_peak_lines(cfg, "naive times need")
    return NaiveTimes(**{tag: t_ref + (x - x_ref) / v for tag, (x_ref, t_ref, v) in lines.items()})


# ---------------------------------------------------------------------------
# non-relativistic one-way tunneling times
# ---------------------------------------------------------------------------

@_numeric()
def nr_transmission_mag(k, w: float, L: float):
    """|T| below the barrier, stable through the barrier-top edge k -> w.

    |T| = [1 + w^4 sinh^2(rho L) / (4 k^2 rho^2)]^(-1/2); at k = w the ratio
    sinh^2(rho L)/rho^2 tends to L^2.
    """
    rho_sq = w * w - k * k
    x_sq = rho_sq * L * L
    small = x_sq < 1e-12
    safe = np.where(small, 1.0, x_sq)
    ratio = np.where(small, L * L * (1.0 + x_sq / 3.0),
                     np.sinh(np.sqrt(safe)) ** 2 / np.where(small, 1.0, rho_sq))
    return (1.0 + w ** 4 * ratio / (4.0 * k * k)) ** -0.5


@_numeric()
def nr_phase_time(k_eval, cfg: PhysicalConfig):
    """One-way tunneling phase time (m/k) d theta/dk at momentum k_eval in (0, w).

    That is (m L / k) times the one-way rate at n = k^2/w^2, n_bar = rho^2/w^2
    (stationary.tunnel_phase_derivative), finite from the barrier-top edge to the
    deep-opaque regime.
    """
    return (cfg.m / k_eval) * tunnel_phase_derivative(k_eval, cfg)


@_numeric()
def nr_opaque_limit_time(k, cfg: PhysicalConfig):
    """Opaque-limit saturation value 2m / (k rho(k)) of the phase time."""
    w = cfg.w
    _check_tunnel_zone(k, w, "opaque limit needs")
    return 2.0 * cfg.m / (k * np.sqrt(w * w - k * k))


def _check_opacity(alpha) -> None:
    """ValueError unless every alpha >= 0, NaN refused."""
    if not np.all(alpha >= 0.0):
        raise ValueError("alpha must be >= 0")


@_numeric(arrays=2)
def nr_one_way_rate(n, alpha):
    """Normalized one-way phase time t/tau as a function of (n, alpha), 0 < n <= 1, alpha >= 0.

    (2/alpha) [sinh cosh - alpha n (2n - 1)] / [4 n (1 - n) + sinh^2].
    Limits: 1 + 1/(2n) as alpha -> 0 and 0 as alpha -> infinity.
    """
    if not np.all((n > 0.0) & (n <= 1.0)):
        raise ZoneError("the one-way rate needs 0 < n <= 1")
    _check_opacity(alpha)
    return one_way_rate(n, 1.0 - n, alpha)


@_numeric()
def phase_time_shape(alpha):
    """Shape function G = (sinh cosh - alpha)/sinh^2 = alpha p/q of the barrier-top time.

    G(alpha)/alpha -> 2/3 as alpha -> 0; G -> 1 as alpha -> infinity.
    """
    _check_opacity(alpha)
    _, p, q, _ = scaled(alpha)
    return alpha * p / q


# ---------------------------------------------------------------------------
# filtered-spectrum maximum and distortion criterion
# ---------------------------------------------------------------------------

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_KMAX_N_SCAN = 2000     # kmax_find's scan points per cell
_KMAX_TOL_KA = 1e-8     # kmax_find's final bracket width, in units of 1/a
_DISTORTED = SpectralMaximum(math.nan, True, (math.nan, math.nan))


def distortion_flag(cfg: PhysicalConfig) -> bool:
    """True when the filtered spectrum g(k - k0)|T| develops a maximum at k = w.

    Condition: the logarithmic slope of |T| at the barrier top,
    (w L^2/4)(1 + (wL)^2/3)/(1 + (wL)^2/4), exceeds the Gaussian decay
    a^2 (w - k0)/2.  Past that point the transmitted spectrum piles up at
    the barrier top and the filtered argmax loses its meaning.
    """
    if cfg.L == 0.0:
        return False
    w, a, L = cfg.w, cfg.a, cfg.L
    lhs = a * a * (w - cfg.k0) / 2.0
    wL = w * L
    rhs = (w * L * L / 4.0) * (1.0 + wL * wL / 3.0) / (1.0 + wL * wL / 4.0)
    return lhs < rhs


def kmax_find(cfgs):
    """Argmax of g(k - k0) |T(k, L)| over (0, w) for one config or a sequence.

    A config gives a SpectralMaximum, a sequence a list in order.  A distorted
    cell (distortion_flag) is not searched: its argmax has no meaning, and its
    k_max and bracket are NaN (docs/DECISIONS.md D19).  Every other cell is
    unimodal with its maximum in (k0, w).  It is bracketed by the argmax of
    its _KMAX_N_SCAN np.linspace points, read as every isqrt(_KMAX_N_SCAN)-th
    point, then those within one stride of the best: the same argmax (D12).
    One golden-section loop then refines every cell in lockstep, one
    objective call per iteration, until each bracket is below _KMAX_TOL_KA / a.
    That bounds the bracket, not the error: the objective is flat to rounding
    at its maximum (D5).  A cell whose scan overflows |T| (w L above about
    350) raises ZoneError: the overflowed |T| reads 0 and the scan would
    return an arbitrary point.
    """
    single = isinstance(cfgs, PhysicalConfig)
    cells = [cfgs] if single else list(cfgs)
    for cfg in cells:
        if not 0.0 < cfg.k0 < cfg.w:
            raise ZoneError(f"the filtered-spectrum search needs 0 < k0 < w = {cfg.w:g}")
    found = [_DISTORTED] * len(cells)
    calm = [(i, cfg) for i, cfg in enumerate(cells) if not distortion_flag(cfg)]
    if not calm:
        return found[0] if single else found

    def objective(k, w, a, k0, L):
        return np.exp(-a * a * (k - k0) ** 2 / 4.0) * nr_transmission_mag(k, w, L)

    n_scan = _KMAX_N_SCAN
    w, a, k0, L = np.array([(cfg.w, cfg.a, cfg.k0, cfg.L) for _, cfg in calm]).T.copy()
    # np.linspace's own points: i step + start, stop at the last index.  The indices are
    # floats, as in np.linspace; integer ones run numpy loops worth 0.25 MB of RSS (D12)
    start, stop = w * 1e-9, w * (1.0 - 1e-12)
    step = (stop - start) / (n_scan - 1)

    def points(rows, idx):
        """The scan points at indices idx, one row of idx per cell in rows."""
        return np.where(idx < n_scan - 1, idx * step[rows, None] + start[rows, None], stop[rows, None])

    def scan(rows, idx):
        """The index, among each row of idx, of the cell's largest objective value."""
        f = objective(points(rows, idx), *(x[rows, None] for x in (w, a, k0, L)))
        return np.broadcast_to(idx, f.shape)[np.arange(len(rows)), f.argmax(axis=1)]

    stride = math.isqrt(n_scan)
    width = 2 * stride + 1
    coarse = np.array([[*range(0, n_scan - 1, stride), n_scan - 1]], dtype=float)
    chunk = n_scan // width     # cells per scan call: no call exceeds n_scan points (D12)
    index = np.empty(len(calm))
    with np.errstate(over="raise"):
        try:
            for rows in (np.arange(i, min(i + chunk, len(calm))) for i in range(0, len(calm), chunk)):
                first = np.clip(scan(rows, coarse) - stride, 0, n_scan - width)
                index[rows] = scan(rows, first[:, None] + np.arange(float(width)))
        except FloatingPointError:
            with np.errstate(over="ignore"):    # overflow grows as k falls; only it makes |T| 0
                _, cfg = calm[int(np.argmax(nr_transmission_mag(start, w, L) == 0.0))]
            raise ZoneError(f"the filtered-spectrum scan overflows at w a = {cfg.w * cfg.a:g},"
                            f" L/a = {cfg.L / cfg.a:g}: the barrier is too opaque") from None
    lo, hi = points(slice(None), np.clip(index[:, None] + [-1.0, 1.0], 0, n_scan - 1)).T.copy()
    brackets = list(zip(lo.tolist(), hi.tolist()))
    tol = _KMAX_TOL_KA / a
    c, d = hi - (hi - lo) * _INV_PHI, lo + (hi - lo) * _INV_PHI
    fc, fd = objective(c, w, a, k0, L), objective(d, w, a, k0, L)
    active = np.flatnonzero(hi - lo > tol)
    while active.size:
        left = fc[active] > fd[active]
        lt, rt = active[left], active[~left]
        hi[lt], d[lt], fd[lt] = d[lt], c[lt], fc[lt]
        lo[rt], c[rt], fc[rt] = c[rt], d[rt], fd[rt]
        c[lt] = hi[lt] - (hi[lt] - lo[lt]) * _INV_PHI
        d[rt] = lo[rt] + (hi[rt] - lo[rt]) * _INV_PHI
        f = objective(np.where(left, c[active], d[active]), *(x[active] for x in (w, a, k0, L)))
        fc[lt], fd[rt] = f[left], f[~left]
        active = active[hi[active] - lo[active] > tol[active]]
    for (i, _), low, high, bracket in zip(calm, lo, hi, brackets):
        found[i] = SpectralMaximum(float(0.5 * (low + high)), False, bracket)
    return found[0] if single else found


# ---------------------------------------------------------------------------
# symmetric-collision triple (normalized by tau_k = m L / k)
# ---------------------------------------------------------------------------

@_numeric(arrays=2)
def _symmetric_triple(n, alpha, parity: Parity):
    """(phase, dwell, self-interference) ratios of one parity at (n, alpha).

    Numerators and the denominator 2n - 1 +- cosh alpha are scaled by
    s = 4 e^{-alpha}, the scaled pieces taken at alpha/2: s sinh alpha =
    alpha (s + m p) and s cosh alpha = s + 2 m q.  No sum below cancels;
    2n - 1 + sign is formed as 2n + (sign - 1) for that reason.
    """
    if not np.all((n > 0.0) & (n < 1.0)):
        raise ZoneError("the symmetric triple needs 0 < n < 1")
    _check_opacity(alpha)
    sign = parity.sign
    s, p, q, m = scaled(0.5 * alpha)
    den = (2.0 * n + (sign - 1)) * s + 2.0 * sign * m * q
    nums = ((n + sign) * s + sign * m * p,
            n * ((1 + sign) * s + sign * m * p),
            sign * (1.0 - n) * (s + m * p))
    return tuple(2.0 * num / den for num in nums)


def symmetric_phase_time(n, alpha, parity: Parity):
    """Normalized phase time of the combined (boson/fermion) amplitude.

    t/tau = (2/alpha)(n alpha +- sinh alpha)/(2n - 1 +- cosh alpha); tends to
    1 + 1/n (boson) and 1 (fermion) as alpha -> 0, and to 0 as alpha -> inf.
    """
    return _symmetric_triple(n, alpha, parity)[0]


def symmetric_dwell(n, alpha, parity: Parity):
    """Normalized dwell time (2n/alpha)(alpha +- sinh)/(2n - 1 +- cosh)."""
    return _symmetric_triple(n, alpha, parity)[1]


def symmetric_self_interference(n, alpha, parity: Parity):
    """Normalized overlap delay +-(2/alpha)(1 - n) sinh/(2n - 1 +- cosh).

    Exactly phase - dwell for either parity.
    """
    return _symmetric_triple(n, alpha, parity)[2]


def symmetric_dwell_quadrature(cfg: PhysicalConfig, parity: Parity) -> float:
    """Dwell time from the reconstructed intra-barrier density.

    (m/k) integral over [-L/2, L/2] of |(phi_L +- phi_R)/sqrt(2)|^2, the density of
    ((gamma +- beta) e^{-rho x} + (beta +- gamma) e^{rho x})/sqrt(2) with the intra-barrier
    pair from the continuity conditions.  Matches the closed form for both parities.
    """
    k, L, sign = np.array([cfg.k0]), cfg.L, parity.sign
    gamma, beta = symmetric_intra_barrier_coeffs(k, cfg)
    rho = np.sqrt(cfg.w * cfg.w - k * k)
    pair = ((gamma + sign * beta) / math.sqrt(2.0), (beta + sign * gamma) / math.sqrt(2.0))
    return float(cfg.m / k[0] * _density_integral(*pair, rho, -0.5 * L, 0.5 * L)[0])


def fermion_acceleration_predicate(n, alpha) -> bool:
    """True when the antisymmetric (fermion) phase time beats the ballistic time."""
    return bool(np.all(symmetric_phase_time(n, alpha, Parity.ANTISYMMETRIC) < 1.0))


# ---------------------------------------------------------------------------
# relativistic suite (arguments: n_sq = k^2/w^2, upsilon = V0/m, wL)
# ---------------------------------------------------------------------------

def _rel_phase_brackets(n_sq, upsilon: float, S):
    """Polynomial brackets of the phase-time ratio, S = sqrt(1 + 2 n^2 upsilon);
    zero-order parts vanish at the zone edges."""
    A = 8.0 * n_sq * ((2.0 + 8.0 * n_sq * upsilon + upsilon ** 2)
                      - (4.0 * n_sq + 3.0 * upsilon) * S)
    B = 4.0 * ((4.0 + 4.0 * n_sq * upsilon + upsilon ** 2) * S
               - 2.0 * upsilon * (2.0 + 3.0 * n_sq * upsilon))
    C = 16.0 * n_sq * (2.0 * (1.0 + 2.0 * n_sq * upsilon) - S * (2.0 * n_sq + upsilon))
    D = 2.0 * ((4.0 + 8.0 * n_sq * upsilon + upsilon ** 2) * S
               - 4.0 * upsilon * (1.0 + 2.0 * n_sq * upsilon))
    return A, B, C, D


def _check_rel_args(upsilon: float, wL: float = 0.0) -> None:
    """ZoneError unless upsilon >= 0, ValueError unless wL >= 0; NaN refused (D21).
    wL = 0 is the thin-barrier limit."""
    if not upsilon >= 0.0:
        raise ZoneError("the relativistic family needs upsilon >= 0")
    if not wL >= 0.0:
        raise ValueError("wL must be >= 0")


class _RelZone:
    """The tunneling-zone solution of one (upsilon, wL) at every n_sq, zone checked once:
    S = sqrt(1 + 2 n^2 upsilon), rho_n^2, the scaled parts of x = rho_n wL and, on first
    use, the Klein-Gordon continuity solution.  Each relativistic time is a view (D13)."""

    def __init__(self, n_sq: np.ndarray, upsilon: float, wL: float):
        _check_rel_args(upsilon, wL)
        _check_rel_zone(n_sq, upsilon)
        self.n_sq, self.upsilon, self.wL = n_sq, upsilon, wL
        self.S, self.rn_sq = np.sqrt(1.0 + 2.0 * n_sq * upsilon), rho_n_squared(n_sq, upsilon)
        self.parts = scaled(np.sqrt(self.rn_sq) * wL)

    def transmission(self) -> tuple[np.ndarray, np.ndarray]:
        """(|T|, phi) of stationary.relativistic_transmission: the evanescent phase at
        k = n, rho = rho_n and the barrier-scale modulus from the scaled parts."""
        n_sq, rn_sq, rn = self.n_sq, self.rn_sq, np.sqrt(self.rn_sq)
        _, e, _, phi = _evanescent_parts(np.sqrt(n_sq), rn, rn * self.wL, n_sq - rn_sq)
        s, _, q, m = self.parts
        return 2.0 * e / np.sqrt(s + m * q / (4.0 * n_sq * rn_sq)), phi

    @functools.cached_property
    def phase_time(self) -> np.ndarray:
        A, B, C, D = _rel_phase_brackets(self.n_sq, self.upsilon, self.S)
        s, p, q, m = self.parts
        return ((A + B) * s + B * m * p) / (C * s + D * m * q)

    def dwell(self, continuity: bool) -> np.ndarray:
        """Dwell ratio; K^4 = 1 (barrier scale) or (n^2 + rho_n^2)^2 (continuity) scales sinh^2."""
        n_sq, rn_sq = self.n_sq, self.rn_sq
        K4 = (n_sq + rn_sq) ** 2 if continuity else np.ones_like(n_sq)
        s, p, q, m = self.parts
        num = 2.0 * rn_sq * s + (rn_sq + n_sq) * m * p
        return num / (2.0 * self.S * (rn_sq * s + K4 * m * q / (4.0 * n_sq)))

    @functools.cached_property
    def continuity(self):
        """(k, cfg, rho, coefficients) of the m = 1 continuity solution; any valid k0 in cfg."""
        if self.upsilon <= 0.0:
            raise ZoneError("the relativistic family needs upsilon > 0")
        w = math.sqrt(2.0 * self.upsilon)
        k = np.sqrt(self.n_sq) * w
        cfg = PhysicalConfig(m=1.0, V0=self.upsilon, L=self.wL / w, a=1.0, k0=float(k[0]),
                             dispersion=Dispersion.RELATIVISTIC_KG)
        return (k, cfg, *_kg_solution(k, cfg))

    def self_interference(self) -> np.ndarray:
        k, cfg, _, sc = self.continuity
        return -sc.R.imag / (k * cfg.L)

    def residual(self) -> np.ndarray:
        k, cfg, rho, sc = self.continuity
        E = np.sqrt(k * k + 1.0)
        dwell = (E - cfg.V0) / k * _density_integral(sc.alpha_coef, sc.beta_coef, rho, 0.0, cfg.L)
        return self.phase_time - (dwell / (cfg.L * E / k) + self.self_interference())


@_numeric()
def rel_phase_time(n_sq, upsilon: float, wL: float):
    """Normalized relativistic phase time t_phi/tau in the tunneling zone.

    The analytic derivative of the transmission phase: it matches the
    near-edge closed form as rho_n wL -> 0 and reduces to the
    non-relativistic one-way rate at upsilon = 0.
    """
    return _RelZone(n_sq, upsilon, wL).phase_time


@_numeric()
def rel_phase_time_near_edge(n_sq, upsilon: float):
    """Zone-edge limit of the relativistic phase time (rho_n wL -> 0).

    (4/3) [(4 + 4n^2 u + u^2) S - 2u(2 + 3n^2 u)]
        / [(4 + 8n^2 u + u^2) S - 4u(1 + 2n^2 u)],  S = sqrt(1 + 2 n^2 u).
    """
    _check_rel_args(upsilon)
    _check_rel_zone(n_sq, upsilon)
    _, B, _, D = _rel_phase_brackets(n_sq, upsilon, np.sqrt(1.0 + 2.0 * n_sq * upsilon))
    return (2.0 / 3.0) * B / D


def _zone_edge(upsilon: float, edge: str, wL: float = 0.0) -> tuple[float, int]:
    """(n_sq, sign) of a tunneling-zone edge: n^2 = u/2 + sign, sign -1 (lower) or +1 (upper)."""
    _check_rel_args(upsilon, wL)
    if edge == "lower":
        n_sq = 0.5 * upsilon - 1.0
        if n_sq <= 0.0:
            raise ZoneError("the lower zone edge needs upsilon > 2")
        return n_sq, -1
    if edge == "upper":
        return 0.5 * upsilon + 1.0, 1
    raise ValueError("edge must be 'lower' or 'upper'")


def rel_phase_time_zone_edge(upsilon: float, edge: str) -> tuple[float, float]:
    """(n_sq_edge, t/tau) at a tunneling-zone edge.

    Lower edge n^2 = u/2 - 1 gives -(4/3)/(1 + 2 n^2) (always negative);
    upper edge n^2 = u/2 + 1 gives -(4/3)/(1 - 2 n^2) (positive).
    """
    n_sq, sign = _zone_edge(upsilon, edge)
    return n_sq, -(4.0 / 3.0) / (1.0 - sign * 2.0 * n_sq)


def rel_transmission_zone_edge(upsilon: float, edge: str, wL: float) -> float:
    """Zone-edge transmission modulus [1 + (wL)^2/(2 upsilon -+ 4)]^(-1/2).

    Tends to [1 + (mL)^2]^(-1/2) for upsilon >> 1: complete transmission when
    the barrier is much narrower than the Compton length.
    """
    n_sq, _ = _zone_edge(upsilon, edge, wL)
    return (1.0 + wL * wL / (4.0 * n_sq)) ** -0.5   # 2 upsilon -+ 4 = 4 n^2 exactly


@_numeric()
def rel_dwell(n_sq, upsilon: float, wL: float):
    """Normalized relativistic dwell time t_D/tau in the tunneling zone.

    [ (rho^2 - n^2) + (rho^2 + n^2) sinh(x)cosh(x)/x ]
      / { 2 S [rho^2 + sinh^2(x)/(4 n^2)] },   x = rho wL.

    Always positive; the normalization matches the barrier-scale transmission
    modulus of :func:`tunnellab.stationary.relativistic_transmission`. This is
    the dwell that ``relativistic-times`` emits; the one that the phase time
    splits into exactly is :func:`rel_continuity_dwell` (docs/DECISIONS.md, D1).
    """
    return _RelZone(n_sq, upsilon, wL).dwell(continuity=False)


@_numeric()
def rel_continuity_dwell(n_sq, upsilon: float, wL: float):
    """Normalized dwell t_D/tau of the exact Klein-Gordon continuity solution.

    [ (rho^2 - n^2) + (rho^2 + n^2) sinh(x)cosh(x)/x ]
      / { 2 S [rho^2 + (n^2 + rho^2)^2 sinh^2(x)/(4 n^2)] },   x = rho wL,

    that is (m/k) int |phi_2|^2 / tau with the intra-barrier field of
    :func:`tunnellab.stationary.kg_scatter_coeffs`. Its Lorentz-consistent form
    ((E - V0)/m) t_D/tau is the dwell of the variational identity:
    t_phi/tau = ((E - V0)/m) t_D/tau + t_I/tau exactly. It equals
    :func:`rel_dwell` at upsilon = 0, where n^2 + rho^2 = 1.
    """
    return _RelZone(n_sq, upsilon, wL).dwell(continuity=True)


def rel_dwell_zone_edge(upsilon: float, edge: str, wL: float) -> tuple[float, float]:
    """(n_sq_edge, t/tau): limit of :func:`rel_continuity_dwell` as rho_n -> 0
    at fixed wL.

    [2 + (2/3) n^2 (wL)^2] / (2 S [1 + n^2 (wL)^2/4]),  S = 2 n^2 +- 1,

    at the lower edge n^2 = u/2 - 1 (S = 2n^2 + 1) or the upper edge
    n^2 = u/2 + 1 (S = 2n^2 - 1). With g = 4/(4 + n^2 (wL)^2) it reads
    [g + (4/3)(1 - g)] / S: 1/S as wL -> 0 (the thin-barrier value of the
    (m/k) int |phi|^2 normalization over tau = L E/k) and 4/(3S) as
    wL -> infinity. The latter is also the limit on paths with small fixed
    rho_n wL, on which the phase time reaches its edge law; there t_I -> 0,
    and the identity makes 4/(3S) equal |rel_phase_time_zone_edge|.
    docs/DECISIONS.md (D1) records the quoted curve (1/2)/(2n^2 +- 1) that
    this replaced and what is left open.
    """
    n_sq, sign = _zone_edge(upsilon, edge, wL)
    g = 4.0 / (4.0 + n_sq * wL * wL)
    return n_sq, (g + (4.0 / 3.0) * (1.0 - g)) / (2.0 * n_sq - sign)


@_numeric()
def rel_rescaled_dwell(n_sq, upsilon: float, wL: float):
    """Lorentz-consistent dwell: ((E - V0)/m) t_D/tau.

    Changes sign exactly where E = V0, i.e. n^2 = (upsilon^2 - 1)/(2 upsilon).
    """
    zone = _RelZone(n_sq, upsilon, wL)
    return (zone.S - upsilon) * zone.dwell(continuity=False)


@_numeric()
def rel_self_interference(n_sq, upsilon: float, wL: float):
    """Normalized overlap delay in front of the barrier.

    t_I/tau = -(dk/dE) Im[R] / (k tau) = -Im[R]/(k L), with R from the
    continuity solution.
    """
    return _RelZone(n_sq, upsilon, wL).self_interference()


@_numeric()
def rel_variational_residual(n_sq, upsilon: float, wL: float):
    """Residual of the phase/dwell identity, normalized by tau.

    t_phi/tau - [ ((E - V0)/k) integral |phi_2|^2 / tau + t_I/tau ]
    with the intra-barrier field and R from the continuity solution; zero up
    to quadrature roundoff.
    """
    return _RelZone(n_sq, upsilon, wL).residual()


# ---------------------------------------------------------------------------
# saturation (Hartman) sweeps
# ---------------------------------------------------------------------------

def _saturation_start(parameter: np.ndarray, within: np.ndarray) -> float | None:
    """First sweep value from which every later entry is ``within`` the band.

    That is the value after the last out-of-band entry; None when the last
    entry is out of band or the sweep is empty.
    """
    outside = np.flatnonzero(~within)
    start = outside[-1] + 1 if outside.size else 0
    return float(parameter[start]) if start < parameter.size else None

