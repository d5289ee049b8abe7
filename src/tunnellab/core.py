"""Physical configuration, dispersion relations, dimensionless parameters,
and the Gaussian momentum spectrum.

Natural units throughout: hbar = c = 1.  A configuration fixes the barrier
(height V0, width L), the particle mass m, the incident Gaussian packet
(width a, central momentum k0, initial peak x0) and the dispersion law.
The momentum scale of the barrier is w = sqrt(2 m V0); it separates the
non-relativistic tunneling zone (k < w) from the above-barrier zone (k > w).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Dispersion",
    "ZoneError",
    "PhysicalConfig",
    "DimensionlessParams",
    "GaussianSpectrum",
    "ChannelMomentum",
    "GAUSS_WINDOW_HALFWIDTH",
    "energy",
    "group_velocity",
    "nr_zone",
    "kg_zone",
    "kg_zone_from_params",
    "channel_momenta",
    "propagating_momentum",
    "evanescent_rate",
    "rho_n_squared",
    "to_dimensionless",
    "from_dimensionless",
    "spectrum_eval",
    "classical_traversal_time",
    "momentum_window",
]

# Half-width of the momentum window used by every spectral integral, in units
# of 1/a.  Gaussian mass outside k0 +- 8/a is below 1e-13.
GAUSS_WINDOW_HALFWIDTH = 8.0


class Dispersion(enum.Enum):
    NONRELATIVISTIC = "nonrelativistic"
    RELATIVISTIC_KG = "relativistic-kg"


class ZoneError(ValueError):
    """The momentum/energy lies outside the zone required by the operation."""


@dataclass(frozen=True)
class PhysicalConfig:
    """Single source of physical truth for one scattering setup."""

    m: float
    V0: float
    L: float
    a: float
    k0: float
    x0: float = 0.0
    dispersion: Dispersion = Dispersion.NONRELATIVISTIC

    def __post_init__(self) -> None:
        for name in ("m", "V0", "a", "k0"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        if not (math.isfinite(self.L) and self.L >= 0.0):
            raise ValueError(f"barrier width L must be >= 0, got {self.L!r}")

    @property
    def w(self) -> float:
        """Barrier momentum scale sqrt(2 m V0)."""
        return math.sqrt(2.0 * self.m * self.V0)

    @classmethod
    def tunneling(cls, *, m: float, V0: float, L: float, a: float, k0: float,
                  x0: float = 0.0) -> "PhysicalConfig":
        """Non-relativistic tunneling setup; enforces k0 < w."""
        cfg = cls(m, V0, L, a, k0, x0)
        if not k0 < cfg.w:
            raise ZoneError(
                f"tunneling configuration requires k0 < w = {cfg.w:g}; got k0 = {k0:g}")
        return cfg

    @classmethod
    def above_barrier(cls, *, m: float, V0: float, L: float, a: float, k0: float,
                      x0: float = 0.0) -> "PhysicalConfig":
        """Non-relativistic above-barrier setup; enforces k0 > w."""
        cfg = cls(m, V0, L, a, k0, x0)
        if not k0 > cfg.w:
            raise ZoneError(
                f"above-barrier configuration requires k0 > w = {cfg.w:g}; got k0 = {k0:g}")
        return cfg

    @classmethod
    def kg_tunneling(cls, *, m: float, V0: float, L: float, a: float, k0: float,
                     x0: float = 0.0) -> "PhysicalConfig":
        """Klein-Gordon setup with k0 inside the evanescent zone |E - V0| < m."""
        cfg = cls(m, V0, L, a, k0, x0, Dispersion.RELATIVISTIC_KG)
        if kg_zone(k0, cfg) != "tunneling":
            E = energy(k0, cfg)
            raise ZoneError(
                f"relativistic tunneling requires |E - V0| < m; got E - V0 = {E - V0:g}")
        return cfg


def energy(k, cfg: PhysicalConfig):
    """Dispersion relation: k^2/(2m) non-relativistic, sqrt(k^2 + m^2) otherwise."""
    k = np.asarray(k, dtype=float)
    if np.any(k < 0.0):
        raise ValueError("momentum k must be >= 0")
    if cfg.dispersion is Dispersion.NONRELATIVISTIC:
        out = k * k / (2.0 * cfg.m)
    else:
        out = np.sqrt(k * k + cfg.m * cfg.m)
    return out if out.ndim else float(out)


def group_velocity(k, cfg: PhysicalConfig):
    """dE/dk; equals k/m (NR) or k/E (relativistic, always < 1)."""
    k = np.asarray(k, dtype=float)
    if np.any(k <= 0.0):
        raise ValueError("group velocity needs k > 0")
    if cfg.dispersion is Dispersion.NONRELATIVISTIC:
        out = k / cfg.m
    else:
        out = k / np.sqrt(k * k + cfg.m * cfg.m)
    return out if out.ndim else float(out)


def nr_zone(k: float, cfg: PhysicalConfig) -> str:
    """Non-relativistic zone of a momentum: 'tunneling', 'boundary' or 'above'."""
    if k <= 0.0:
        raise ValueError("zone classification needs k > 0")
    w = cfg.w
    if k < w:
        return "tunneling"
    if k > w:
        return "above"
    return "boundary"


def kg_zone(k: float, cfg: PhysicalConfig) -> str:
    """Relativistic zone by incident energy: 'klein', 'tunneling', 'above' or a boundary."""
    E = float(energy(k, cfg))
    lo, hi = cfg.V0 - cfg.m, cfg.V0 + cfg.m
    if E < lo:
        return "klein"
    if E > hi:
        return "above"
    if E == lo or E == hi:
        return "boundary"
    return "tunneling"


def kg_zone_from_params(n_sq: float, upsilon: float) -> str:
    """Zone from the dimensionless pair (n^2 = k^2/w^2, upsilon = V0/m)."""
    d = n_sq - 0.5 * upsilon
    if abs(d) < 1.0:
        return "tunneling"
    if d <= -1.0:
        return "klein" if d < -1.0 else "boundary"
    return "above" if d > 1.0 else "boundary"


@dataclass(frozen=True)
class ChannelMomentum:
    """Intra-barrier channel: a real momentum q or an evanescent rate rho."""

    kind: str   # "propagating" or "evanescent"
    value: float


def propagating_momentum(k, cfg: PhysicalConfig):
    """Real intra-barrier momentum q = sqrt(k^2 - w^2) for k above the barrier."""
    k = np.asarray(k, dtype=float)
    w = cfg.w
    if cfg.dispersion is not Dispersion.NONRELATIVISTIC:
        raise ZoneError("propagating intra-barrier momentum is a non-relativistic quantity")
    if np.any(k < w):
        raise ZoneError(f"q is real only above the barrier: valid interval is [w, inf) with w = {w:g}")
    out = np.sqrt(k * k - w * w)
    return out if out.ndim else float(out)


def evanescent_rate(k, cfg: PhysicalConfig):
    """Evanescent decay rate rho inside the barrier.

    Non-relativistic: rho = sqrt(w^2 - k^2) for 0 < k <= w.
    Relativistic:     rho = sqrt(m^2 - (E - V0)^2) for |E - V0| <= m, formed as
    sqrt((V0 - d)(2m + d - V0)) with d = E - m = k^2/(E + m), which does not
    cancel when E and V0 + m are both close to m.
    """
    k = np.asarray(k, dtype=float)
    if cfg.dispersion is Dispersion.NONRELATIVISTIC:
        w = cfg.w
        if np.any(k > w):
            raise ZoneError(f"rho is real only in the tunneling zone: valid interval is (0, w] with w = {w:g}")
        out = np.sqrt(w * w - k * k)
    else:
        d = k * k / (np.asarray(energy(k, cfg), dtype=float) + cfg.m)
        arg = (cfg.V0 - d) * (2.0 * cfg.m + d - cfg.V0)
        if np.any(arg < 0.0):
            raise ZoneError(
                "rho is real only in the relativistic tunneling zone |E - V0| <= m "
                f"(E in [{cfg.V0 - cfg.m:g}, {cfg.V0 + cfg.m:g}]); outside lie the Klein "
                "zone (below) and the above-barrier zone (above)")
        out = np.sqrt(arg)
    return out if out.ndim else float(out)


def channel_momenta(k: float, cfg: PhysicalConfig) -> ChannelMomentum:
    """Classify momentum k and return the matching intra-barrier channel quantity."""
    if cfg.dispersion is Dispersion.NONRELATIVISTIC:
        zone = nr_zone(k, cfg)
        if zone == "above":
            return ChannelMomentum("propagating", propagating_momentum(k, cfg))
        return ChannelMomentum("evanescent", evanescent_rate(k, cfg))
    zone = kg_zone(k, cfg)
    if zone in ("tunneling", "boundary"):
        return ChannelMomentum("evanescent", evanescent_rate(k, cfg))
    raise ZoneError(
        f"momentum k = {k:g} lies in the relativistic '{zone}' zone, which has no "
        "evanescent channel; the tunneling zone is |E - V0| < m")


def rho_n_squared(n_sq, upsilon):
    """Dimensionless evanescent rate squared, rho_n^2 = (rho(k)/w)^2.

    Derived from the quadratic (Klein-Gordon) dispersion with n^2 = k^2/w^2 and
    upsilon = V0/m:

        rho_n^2 = sqrt(1 + 2 n^2 upsilon) - n^2 - upsilon/2
                = [1 - (n^2 - upsilon/2)^2] / [sqrt(1 + 2 n^2 upsilon) + n^2 + upsilon/2]

    The conjugate form avoids cancellation near the zone edges and vanishes
    exactly at n^2 = upsilon/2 -+ 1; at upsilon = 0 it reduces to 1 - n^2.
    """
    n_sq = np.asarray(n_sq, dtype=float)
    d = n_sq - 0.5 * upsilon
    s = np.sqrt(1.0 + 2.0 * n_sq * upsilon)
    out = (1.0 - d * d) / (s + n_sq + 0.5 * upsilon)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class DimensionlessParams:
    """Dimensionless parameterization (n^2, upsilon, wL) of a configuration.

    alpha_opacity = wL * sqrt(1 - n^2) is only defined below the barrier
    (n^2 < 1); rho_n is only defined inside the tunneling zone.  Outside
    those zones the fields are None.
    """

    n_sq: float
    upsilon: float
    wL: float
    alpha_opacity: float | None
    rho_n: float | None


def to_dimensionless(cfg: PhysicalConfig) -> DimensionlessParams:
    """Reduce a configuration to (n^2 = k0^2/w^2, upsilon, wL) plus derived rates.

    upsilon is V0/m for the relativistic dispersion and 0 for the
    non-relativistic one, which is the upsilon -> 0 member of the same family.
    """
    w = cfg.w
    n_sq = cfg.k0 ** 2 / w ** 2
    upsilon = cfg.V0 / cfg.m if cfg.dispersion is Dispersion.RELATIVISTIC_KG else 0.0
    wL = w * cfg.L
    alpha = wL * math.sqrt(1.0 - n_sq) if n_sq < 1.0 else None
    rn_sq = rho_n_squared(n_sq, upsilon)
    rho_n = math.sqrt(rn_sq) if rn_sq >= 0.0 else None
    return DimensionlessParams(n_sq=n_sq, upsilon=upsilon, wL=wL,
                               alpha_opacity=alpha, rho_n=rho_n)


def from_dimensionless(params: DimensionlessParams, *, m: float, L: float,
                       a: float, x0: float = 0.0,
                       dispersion: Dispersion = Dispersion.NONRELATIVISTIC,
                       ) -> PhysicalConfig:
    """Rebuild a configuration from dimensionless parameters.

    The dimensionless triple fixes only ratios; the mass m and the barrier
    width L anchor the absolute scales (w = wL/L requires L > 0).
    """
    if L <= 0.0:
        raise ValueError("reconstruction needs L > 0 to recover the momentum scale")
    w = params.wL / L
    V0 = w * w / (2.0 * m)
    k0 = math.sqrt(params.n_sq) * w
    return PhysicalConfig(m=m, V0=V0, L=L, a=a, k0=k0, x0=x0, dispersion=dispersion)


@dataclass(frozen=True)
class GaussianSpectrum:
    """Gaussian momentum distribution of unit squared norm."""

    a: float
    k0: float

    def __post_init__(self) -> None:
        if self.a <= 0.0:
            raise ValueError("spectrum width a must be positive")

    def amplitude(self, k):
        k = np.asarray(k, dtype=float)
        out = (self.a ** 2 / (2.0 * np.pi)) ** 0.25 * np.exp(
            -self.a ** 2 * (k - self.k0) ** 2 / 4.0)
        return out if out.ndim else float(out)


def spectrum_eval(spectrum: GaussianSpectrum, k):
    """Amplitude of the Gaussian momentum distribution at momentum k."""
    return spectrum.amplitude(k)


def classical_traversal_time(cfg: PhysicalConfig) -> float:
    """Ballistic barrier crossing time L / v(k0); zero for a zero-width barrier."""
    if cfg.L == 0.0:
        return 0.0
    return cfg.L / float(group_velocity(cfg.k0, cfg))


def momentum_window(cfg: PhysicalConfig, lower: float | None = None,
                    upper: float | None = None) -> tuple[float, float]:
    """Momentum window k0 +- 8/a for spectral integrals, clipped to [lower, upper].

    Raises ZoneError when the clip leaves an empty window.
    """
    half = GAUSS_WINDOW_HALFWIDTH / cfg.a
    lo, hi = cfg.k0 - half, cfg.k0 + half
    if lower is not None:
        lo = max(lo, lower)
    if upper is not None:
        hi = min(hi, upper)
    if not lo < hi:
        raise ZoneError(
            f"momentum window is empty after clipping to [{lower}, {upper}]")
    return lo, hi
