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
    evanescent_rate,
    rho_n_squared,
)
from ._hyperbolic import one_way_rate, scaled
from .stationary import (
    Parity,
    _check_tunnel_zone,
    above_barrier_phase_derivative,
    kg_scatter_coeffs,
    symmetric_intra_barrier_coeffs,
)

__all__ = [
    "NaiveTimes",
    "SpectralMaximum",
    "naive_above_barrier_times",
    "reflection_delay",
    "nr_transmission_mag",
    "nr_phase_time",
    "nr_opaque_limit_time",
    "nr_one_way_rate",
    "phase_time_shape",
    "barrier_top_time",
    "kmax_find",
    "distortion_flag",
    "distortion_threshold_length",
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

_FIELD_ROWS = 1024    # rows per (rows x n_quad) interior field of the identity check


def _as_1d(*values):
    """Broadcast the inputs to a common flat shape; report if all were scalars."""
    arrays = np.broadcast_arrays(*[np.asarray(v, dtype=float) for v in values])
    scalar = arrays[0].ndim == 0
    return [np.atleast_1d(arr) for arr in arrays], scalar


def _restore(out: np.ndarray, scalar: bool):
    return float(out[0]) if scalar else out


@functools.lru_cache(maxsize=8)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], built once per n."""
    xs, wq = np.polynomial.legendre.leggauss(n)
    xs.flags.writeable = False
    wq.flags.writeable = False
    return xs, wq


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

    Physical regions are x <= 0 for incident/reflected, 0 <= x <= L for the
    intra-barrier pair and x >= L for the transmitted wave; the formulas are
    returned verbatim for any x because their discontinuities at the
    interfaces are exactly the point of the corrected bounce decomposition.
    """
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


def reflection_delay(k, cfg: PhysicalConfig):
    """Group delay of the reflected peak, d theta/dE = (m/k) d theta/dk.

    At a transmission resonance this is (mL/q)(k^2+q^2)/(2kq); at
    antiresonance (mL/q)(2kq)/(k^2+q^2).
    """
    k = np.asarray(k, dtype=float)
    out = (cfg.m / k) * above_barrier_phase_derivative(k, cfg)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# non-relativistic one-way tunneling times
# ---------------------------------------------------------------------------

def nr_transmission_mag(k, w: float, L: float):
    """|T| below the barrier, stable through the barrier-top edge k -> w.

    |T| = [1 + w^4 sinh^2(rho L) / (4 k^2 rho^2)]^(-1/2); at k = w the ratio
    sinh^2(rho L)/rho^2 tends to L^2.
    """
    (k,), scalar = _as_1d(k)
    rho_sq = w * w - k * k
    x_sq = rho_sq * L * L
    small = x_sq < 1e-12
    safe = np.where(small, 1.0, x_sq)
    ratio = np.where(small, L * L * (1.0 + x_sq / 3.0),
                     np.sinh(np.sqrt(safe)) ** 2 / np.where(small, 1.0, rho_sq))
    return _restore((1.0 + w ** 4 * ratio / (4.0 * k * k)) ** -0.5, scalar)


def nr_phase_time(k_eval, cfg: PhysicalConfig):
    """One-way tunneling phase time at momentum k_eval in (0, w).

    t = (2 m L / (k alpha)) [w^4 sinh(a)cosh(a) - (2k^2 - w^2) k^2 a]
        / [4 k^2 rho^2 + w^4 sinh^2 a],   a = rho L,

    that is (m L / k) times the one-way rate at n = k^2/w^2, n_bar =
    rho^2/w^2, finite from the barrier-top edge to the deep-opaque regime.
    """
    (k,), scalar = _as_1d(k_eval)
    w, L, m = cfg.w, cfg.L, cfg.m
    _check_tunnel_zone(k, w, "phase time needs")
    rho_sq = w * w - k * k
    rate = one_way_rate(k * k / (w * w), rho_sq / (w * w), np.sqrt(rho_sq) * L)
    return _restore(m * L / k * rate, scalar)


def nr_opaque_limit_time(k, cfg: PhysicalConfig):
    """Opaque-limit saturation value 2m / (k rho(k)) of the phase time."""
    (k,), scalar = _as_1d(k)
    w = cfg.w
    _check_tunnel_zone(k, w, "opaque limit needs")
    return _restore(2.0 * cfg.m / (k * np.sqrt(w * w - k * k)), scalar)


def nr_one_way_rate(n, alpha):
    """Normalized one-way phase time t/tau as a function of (n, alpha).

    (2/alpha) [sinh cosh - alpha n (2n - 1)] / [4 n (1 - n) + sinh^2].
    Limits: 1 + 1/(2n) as alpha -> 0 and 0 as alpha -> infinity.
    """
    (n, alpha), scalar = _as_1d(n, alpha)
    return _restore(one_way_rate(n, 1.0 - n, alpha), scalar)


def phase_time_shape(alpha):
    """Shape function G = (sinh cosh - alpha)/sinh^2 = alpha p/q of the barrier-top time.

    G(alpha)/alpha -> 2/3 as alpha -> 0; G -> 1 as alpha -> infinity.
    """
    (alpha,), scalar = _as_1d(alpha)
    _, p, q, _ = scaled(alpha)
    return _restore(alpha * p / q, scalar)


def barrier_top_time(alpha, cfg: PhysicalConfig):
    """Transmission time at the barrier top, (2 m L / (w alpha)) G(alpha) = (2 m L / w) p/q.

    Linear in L with slope 4m/(3w) as alpha -> 0; approaches
    2m/(w sqrt(w^2 - k^2)) deep in the opaque regime.
    """
    (alpha,), scalar = _as_1d(alpha)
    _, p, q, _ = scaled(alpha)
    return _restore(2.0 * cfg.m * cfg.L / cfg.w * p / q, scalar)


# ---------------------------------------------------------------------------
# filtered-spectrum maximum and distortion criterion
# ---------------------------------------------------------------------------

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_KMAX_N_SCAN = 2000     # kmax_find's scan points per cell
_KMAX_TOL_KA = 1e-8     # kmax_find's final bracket width, in units of 1/a


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


def distortion_threshold_length(cfg: PhysicalConfig) -> float:
    """Closed-form necessary bound on L for distortion, a sqrt(3/2 (1 - k0/w)).

    Weaker than :func:`distortion_flag` (it bounds the barrier-top slope by
    wL^2/3); useful as a quick scale estimate only.
    """
    ratio = max(0.0, 1.0 - cfg.k0 / cfg.w)
    return cfg.a * math.sqrt(1.5 * ratio)


def kmax_find(cfgs, *, n_scan: int = _KMAX_N_SCAN, tol_ka: float = _KMAX_TOL_KA):
    """Argmax of g(k - k0) |T(k, L)| over (0, w) for one config or a sequence.

    A config gives a SpectralMaximum, a sequence a list in order.  Each cell
    is bracketed by the argmax of its n_scan np.linspace points; one
    golden-section loop then refines every cell in lockstep, one objective
    call per iteration, until each bracket is below tol_ka / a.  That bounds
    the bracket, not the error: the objective is flat to rounding at its
    maximum (docs/DECISIONS.md D5).  Below the distortion threshold it is
    unimodal with its maximum in (k0, w), so the scan reads every
    isqrt(n_scan)-th point, then those within one stride of the best: the
    same argmax (D12).  Distorted cells are scanned in full.  A cell whose
    scan overflows |T| (w L above about 350) raises ZoneError: the
    overflowed |T| reads 0 and the scan would return an arbitrary point.
    """
    single = isinstance(cfgs, PhysicalConfig)
    cells = [cfgs] if single else list(cfgs)
    for cfg in cells:
        if not 0.0 < cfg.k0 < cfg.w:
            raise ZoneError(f"the filtered-spectrum search needs 0 < k0 < w = {cfg.w:g}")
    if not cells:
        return []

    def objective(k, w, a, k0, L):
        return np.exp(-a * a * (k - k0) ** 2 / 4.0) * nr_transmission_mag(k, w, L)

    flags = [distortion_flag(cfg) for cfg in cells]
    w, a, k0, L = np.array([(cfg.w, cfg.a, cfg.k0, cfg.L) for cfg in cells]).T.copy()
    # np.linspace's own points: i step + start, stop at the last index.  The indices are
    # floats, as in np.linspace; integer ones run numpy loops worth 0.25 MB of RSS (D12)
    start = w * 1e-9
    stop = w * (1.0 - 1e-12) if n_scan > 1 else start
    step = (stop - start) / max(n_scan - 1, 1)

    def points(rows, idx):
        """The scan points at indices idx, one row of idx per cell in rows."""
        return np.where(idx < n_scan - 1, idx * step[rows, None] + start[rows, None], stop[rows, None])

    def scan(rows, idx):
        """The index, among each row of idx, of the cell's largest objective value."""
        f = objective(points(rows, idx), *(x[rows, None] for x in (w, a, k0, L)))
        return np.broadcast_to(idx, f.shape)[np.arange(len(rows)), f.argmax(axis=1)]

    stride = math.isqrt(n_scan)
    width = min(2 * stride + 1, n_scan)
    coarse = np.array([[*range(0, n_scan - 1, stride), n_scan - 1]], dtype=float)
    calm, chunk = [i for i, flag in enumerate(flags) if not flag], max(n_scan // width, 1)
    index = np.empty(len(cells))
    with np.errstate(over="raise"):
        try:
            for i in (j for j, flag in enumerate(flags) if flag):
                index[i] = scan([i], np.arange(float(n_scan))[None])[0]
            for rows in (calm[i:i + chunk] for i in range(0, len(calm), chunk)):
                first = np.clip(scan(rows, coarse) - stride, 0, n_scan - width)
                index[rows] = scan(rows, first[:, None] + np.arange(float(width)))
        except FloatingPointError:
            with np.errstate(over="ignore"):    # overflow grows as k falls; only it makes |T| 0
                cfg = cells[int(np.argmax(nr_transmission_mag(start, w, L) == 0.0))]
            raise ZoneError(f"the filtered-spectrum scan overflows at w a = {cfg.w * cfg.a:g},"
                            f" L/a = {cfg.L / cfg.a:g}: the barrier is too opaque") from None
    lo, hi = points(slice(None), np.clip(index[:, None] + [-1.0, 1.0], 0, n_scan - 1)).T.copy()
    brackets = list(zip(lo.tolist(), hi.tolist()))
    tol = tol_ka / a
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
    found = [SpectralMaximum(float(0.5 * (low + high)), flag, bracket)
             for low, high, flag, bracket in zip(lo, hi, flags, brackets)]
    return found[0] if single else found


# ---------------------------------------------------------------------------
# symmetric-collision triple (normalized by tau_k = m L / k)
# ---------------------------------------------------------------------------

def _symmetric_triple(n, alpha, parity: Parity):
    """(phase, dwell, self-interference) ratios of one parity at (n, alpha).

    Numerators and the denominator 2n - 1 +- cosh alpha are scaled by
    s = 4 e^{-alpha}, the scaled pieces taken at alpha/2: s sinh alpha =
    alpha (s + m p) and s cosh alpha = s + 2 m q.  No sum below cancels;
    2n - 1 + sign is formed as 2n + (sign - 1) for that reason.
    """
    (n, alpha), scalar = _as_1d(n, alpha)
    if np.any(n <= 0.0) or np.any(n >= 1.0):
        raise ZoneError("the symmetric triple needs 0 < n < 1")
    if np.any(alpha < 0.0):
        raise ValueError("alpha must be >= 0")
    sign = parity.sign
    s, p, q, m = scaled(0.5 * alpha)
    den = (2.0 * n + (sign - 1)) * s + 2.0 * sign * m * q
    nums = ((n + sign) * s + sign * m * p,
            n * ((1 + sign) * s + sign * m * p),
            sign * (1.0 - n) * (s + m * p))
    return tuple(_restore(2.0 * num / den, scalar) for num in nums)


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


def symmetric_dwell_quadrature(cfg: PhysicalConfig, parity: Parity,
                               n_quad: int = 200) -> float:
    """Dwell time from the reconstructed intra-barrier density.

    (m/k) integral of |(phi_L +- phi_R)/sqrt(2)|^2 over [-L/2, L/2], with the
    intra-barrier pair taken from the continuity conditions.  Matches the
    closed form for both parities.
    """
    k, L = cfg.k0, cfg.L
    gamma, beta = symmetric_intra_barrier_coeffs(k, cfg)
    rho = math.sqrt(cfg.w ** 2 - k * k)
    xs, wq = _gauss_legendre(n_quad)
    half = 0.5 * L
    xs = xs * half
    wq = wq * half
    left = gamma * np.exp(-rho * xs) + beta * np.exp(rho * xs)
    right = gamma * np.exp(rho * xs) + beta * np.exp(-rho * xs)
    dens = np.abs((left + parity.sign * right) / math.sqrt(2.0)) ** 2
    return float(cfg.m / k * np.sum(wq * dens))


def fermion_acceleration_predicate(n, alpha) -> bool:
    """True when the antisymmetric (fermion) phase time beats the ballistic time."""
    rate = np.asarray(symmetric_phase_time(n, alpha, Parity.ANTISYMMETRIC))
    return bool(np.all(rate < 1.0))


# ---------------------------------------------------------------------------
# relativistic suite (arguments: n_sq = k^2/w^2, upsilon = V0/m, wL)
# ---------------------------------------------------------------------------

def _rel_S(n_sq, upsilon: float):
    return np.sqrt(1.0 + 2.0 * n_sq * upsilon)


def _rel_phase_brackets(n_sq, upsilon: float):
    """Polynomial brackets of the phase-time ratio; zero-order parts vanish
    at the zone edges."""
    S = _rel_S(n_sq, upsilon)
    A = 8.0 * n_sq * ((2.0 + 8.0 * n_sq * upsilon + upsilon ** 2)
                      - (4.0 * n_sq + 3.0 * upsilon) * S)
    B = 4.0 * ((4.0 + 4.0 * n_sq * upsilon + upsilon ** 2) * S
               - 2.0 * upsilon * (2.0 + 3.0 * n_sq * upsilon))
    C = 16.0 * n_sq * (2.0 * (1.0 + 2.0 * n_sq * upsilon) - S * (2.0 * n_sq + upsilon))
    D = 2.0 * ((4.0 + 8.0 * n_sq * upsilon + upsilon ** 2) * S
               - 4.0 * upsilon * (1.0 + 2.0 * n_sq * upsilon))
    return A, B, C, D


def rel_phase_time(n_sq, upsilon: float, wL: float):
    """Normalized relativistic phase time t_phi/tau in the tunneling zone.

    The analytic derivative of the transmission phase: it matches the
    near-edge closed form as rho_n wL -> 0 and reduces to the
    non-relativistic one-way rate at upsilon = 0.
    """
    (n_sq,), scalar = _as_1d(n_sq)
    _check_rel_zone(n_sq, upsilon)
    x = np.sqrt(rho_n_squared(n_sq, upsilon)) * wL
    A, B, C, D = _rel_phase_brackets(n_sq, upsilon)
    s, p, q, m = scaled(x)
    return _restore(((A + B) * s + B * m * p) / (C * s + D * m * q), scalar)


def rel_phase_time_near_edge(n_sq, upsilon: float):
    """Zone-edge limit of the relativistic phase time (rho_n wL -> 0).

    (4/3) [(4 + 4n^2 u + u^2) S - 2u(2 + 3n^2 u)]
        / [(4 + 8n^2 u + u^2) S - 4u(1 + 2n^2 u)],  S = sqrt(1 + 2 n^2 u).
    """
    (n_sq,), scalar = _as_1d(n_sq)
    _, B, _, D = _rel_phase_brackets(n_sq, upsilon)
    return _restore((2.0 / 3.0) * B / D, scalar)


def _zone_edge(upsilon: float, edge: str) -> tuple[float, int]:
    """(n_sq, sign) of a tunneling-zone edge: n^2 = u/2 + sign, sign -1 (lower) or +1 (upper)."""
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
    n_sq, _ = _zone_edge(upsilon, edge)
    return (1.0 + wL * wL / (4.0 * n_sq)) ** -0.5   # 2 upsilon -+ 4 = 4 n^2 exactly


def _rel_dwell_ratio(n_sq, upsilon: float, wL: float, continuity: bool):
    """Shared body of :func:`rel_dwell` and :func:`rel_continuity_dwell`.

    The two differ only in K^2 = (k^2 + rho^2)/w^2, whose square multiplies
    the sinh^2 term: K^2 = 1 (barrier scale) or n^2 + rho_n^2 (continuity).
    """
    (n_sq,), scalar = _as_1d(n_sq)
    _check_rel_zone(n_sq, upsilon)
    S = _rel_S(n_sq, upsilon)
    rn_sq = rho_n_squared(n_sq, upsilon)
    K4 = (n_sq + rn_sq) ** 2 if continuity else np.ones_like(n_sq)
    x = np.sqrt(rn_sq) * wL
    s, p, q, m = scaled(x)
    num = 2.0 * rn_sq * s + (rn_sq + n_sq) * m * p
    den = 2.0 * S * (rn_sq * s + K4 * m * q / (4.0 * n_sq))
    return _restore(num / den, scalar)


def rel_dwell(n_sq, upsilon: float, wL: float):
    """Normalized relativistic dwell time t_D/tau in the tunneling zone.

    [ (rho^2 - n^2) + (rho^2 + n^2) sinh(x)cosh(x)/x ]
      / { 2 S [rho^2 + sinh^2(x)/(4 n^2)] },   x = rho wL.

    Always positive; the normalization matches the barrier-scale transmission
    modulus of :func:`tunnellab.stationary.relativistic_transmission`. This is
    the dwell that ``relativistic-times`` emits; the one that the phase time
    splits into exactly is :func:`rel_continuity_dwell` (docs/DECISIONS.md, D1).
    """
    return _rel_dwell_ratio(n_sq, upsilon, wL, continuity=False)


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
    return _rel_dwell_ratio(n_sq, upsilon, wL, continuity=True)


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
    n_sq, sign = _zone_edge(upsilon, edge)
    g = 4.0 / (4.0 + n_sq * wL * wL)
    return n_sq, (g + (4.0 / 3.0) * (1.0 - g)) / (2.0 * n_sq - sign)


def rel_rescaled_dwell(n_sq, upsilon: float, wL: float):
    """Lorentz-consistent dwell: ((E - V0)/m) t_D/tau.

    Changes sign exactly where E = V0, i.e. n^2 = (upsilon^2 - 1)/(2 upsilon).
    """
    (n_sq,), scalar = _as_1d(n_sq)
    factor = _rel_S(n_sq, upsilon) - upsilon
    out = factor * np.atleast_1d(np.asarray(rel_dwell(n_sq, upsilon, wL)))
    return _restore(out, scalar)


def _kg_continuity(n_sq: np.ndarray, upsilon: float, wL: float):
    """(k, cfg, coefficients) of the m = 1 continuity solution at every n_sq."""
    _check_rel_zone(n_sq, upsilon)
    if upsilon <= 0.0:
        raise ZoneError("the relativistic family needs upsilon > 0")
    w = math.sqrt(2.0 * upsilon)
    k = np.sqrt(n_sq) * w
    # kg_scatter_coeffs reads m, V0 and L from cfg; k0 only has to be valid
    cfg = PhysicalConfig(m=1.0, V0=upsilon, L=wL / w, a=1.0, k0=float(k[0]),
                         dispersion=Dispersion.RELATIVISTIC_KG)
    return k, cfg, kg_scatter_coeffs(k, cfg)


def rel_self_interference(n_sq, upsilon: float, wL: float):
    """Normalized overlap delay in front of the barrier.

    t_I/tau = -(dk/dE) Im[R] / (k tau) = -Im[R]/(k L), with R from the
    continuity solution.
    """
    (n_sq,), scalar = _as_1d(n_sq)
    k, cfg, sc = _kg_continuity(n_sq, upsilon, wL)
    return _restore(-sc.R.imag / (k * cfg.L), scalar)


def rel_variational_residual(n_sq, upsilon: float, wL: float, n_quad: int = 160):
    """Residual of the phase/dwell identity, normalized by tau.

    t_phi/tau - [ ((E - V0)/k) integral |phi_2|^2 / tau + t_I/tau ]
    with the intra-barrier field and R from the continuity solution; zero up
    to quadrature roundoff.  The field is formed on (rows x n_quad) grids of
    at most _FIELD_ROWS rows.
    """
    (n_sq,), scalar = _as_1d(n_sq)
    k, cfg, sc = _kg_continuity(n_sq, upsilon, wL)
    L, V0 = cfg.L, cfg.V0
    E = np.sqrt(k * k + 1.0)
    rho = evanescent_rate(k, cfg)[:, None]   # the rate the coefficients were built with
    xs, wq = _gauss_legendre(n_quad)
    xs = 0.5 * L * (xs + 1.0)
    wq = wq * 0.5 * L
    integral = np.empty_like(k)
    for lo in range(0, k.size, _FIELD_ROWS):   # bounds the field's memory
        rows = slice(lo, lo + _FIELD_ROWS)
        phi2 = sc.alpha_coef[rows, None] * np.exp(-rho[rows] * xs) \
            + sc.beta_coef[rows, None] * np.exp(rho[rows] * xs)
        integral[rows] = np.sum(wq * np.abs(phi2) ** 2, axis=1)
    tau = L * E / k
    t_resc_norm = (E - V0) / k * integral / tau
    t_self_norm = -sc.R.imag / (k * L)
    t_phase_norm = rel_phase_time(n_sq, upsilon, wL)
    return _restore(t_phase_norm - (t_resc_norm + t_self_norm), scalar)


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

