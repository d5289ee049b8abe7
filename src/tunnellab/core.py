"""Physical configuration, dispersion relations, the relativistic tunneling
zone in its dimensionless form (n^2, upsilon), and the Gaussian momentum
spectrum.

Natural units throughout: hbar = c = 1.  A configuration fixes the barrier
(height V0, width L), the particle mass m, the incident Gaussian packet
(width a, central momentum k0, initial peak x0) and the dispersion law.
The momentum scale of the barrier is w = sqrt(2 m V0); it separates the
non-relativistic tunneling zone (k < w) from the above-barrier zone (k > w).
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, is_dataclass

import numpy as np

__all__ = [
    "Dispersion",
    "ZoneError",
    "PhysicalConfig",
    "GaussianSpectrum",
    "GAUSS_WINDOW_HALFWIDTH",
    "energy",
    "evanescent_rate",
    "rho_n_squared",
    "momentum_window",
]

# Half-width of the momentum window used by every spectral integral, in units
# of 1/a.  Gaussian mass outside k0 +- 8/a is below 1e-13.
GAUSS_WINDOW_HALFWIDTH = 8.0


def _numeric(arrays: int = 1):
    """The number-or-array rule of the public numeric functions (docs/DECISIONS.md, D20).  The
    first `arrays` positional arguments after a method's self arrive broadcast, as float arrays
    of at least one dimension, so a call with numbers runs an array call's loop and equals its
    element bit for bit; it returns Python float/complex, in a tuple or a dataclass too."""
    def wrap(fn):
        head = int(fn.__code__.co_varnames[0] == "self")
        @functools.wraps(fn)
        def call(*args, **kwargs):
            lead = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in args[head:head + arrays]))
            out = fn(*args[:head], *map(np.atleast_1d, lead), *args[head + arrays:], **kwargs)
            return out if lead[0].ndim else _item(out)
        return call
    return wrap


def _item(out):
    """The Python numbers of one-element arrays, inside a tuple or a dataclass too."""
    if isinstance(out, tuple):
        return tuple(map(_item, out))
    return type(out)(*map(_item, vars(out).values())) if is_dataclass(out) else out.item()


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


@_numeric()
def energy(k, cfg: PhysicalConfig):
    """Dispersion relation: k^2/(2m) non-relativistic, sqrt(k^2 + m^2) otherwise; NaN refused."""
    if not (k >= 0.0).all():
        raise ZoneError("momentum k must be >= 0")
    if cfg.dispersion is Dispersion.NONRELATIVISTIC:
        return k * k / (2.0 * cfg.m)
    return np.sqrt(k * k + cfg.m * cfg.m)


@_numeric()
def evanescent_rate(k, cfg: PhysicalConfig):
    """Klein-Gordon evanescent decay rate rho = sqrt(m^2 - (E - V0)^2) for |E - V0| <= m.

    Formed as sqrt((V0 - d)(2m + d - V0)) with d = E - m = k^2/(E + m), which
    does not cancel when E and V0 + m are both close to m.  NaN is refused.
    """
    if cfg.dispersion is Dispersion.NONRELATIVISTIC:
        raise ZoneError("evanescent_rate needs a relativistic configuration")
    d = k * k / (energy(k, cfg) + cfg.m)
    arg = (cfg.V0 - d) * (2.0 * cfg.m + d - cfg.V0)
    if not (arg >= 0.0).all():
        raise ZoneError(
            "rho is real only in the relativistic tunneling zone |E - V0| <= m "
            f"(E in [{cfg.V0 - cfg.m:g}, {cfg.V0 + cfg.m:g}]); outside lie the Klein "
            "zone (below) and the above-barrier zone (above)")
    return np.sqrt(arg)


@_numeric()
def rho_n_squared(n_sq, upsilon):
    """Dimensionless evanescent rate squared, rho_n^2 = (rho(k)/w)^2.

    Derived from the quadratic (Klein-Gordon) dispersion with n^2 = k^2/w^2 and
    upsilon = V0/m:

        rho_n^2 = sqrt(1 + 2 n^2 upsilon) - n^2 - upsilon/2
                = [1 - (n^2 - upsilon/2)^2] / [sqrt(1 + 2 n^2 upsilon) + n^2 + upsilon/2]

    The conjugate form avoids cancellation near the zone edges and vanishes
    exactly at n^2 = upsilon/2 -+ 1; at upsilon = 0 it reduces to 1 - n^2.
    """
    d = n_sq - 0.5 * upsilon
    s = np.sqrt(1.0 + 2.0 * n_sq * upsilon)
    return (1.0 - d * d) / (s + n_sq + 0.5 * upsilon)


def _in_rel_zone(n_sq, upsilon: float):
    """Mask of the relativistic tunneling zone: n^2 > 0 and (n^2 - upsilon/2)^2 < 1."""
    return (n_sq > 0.0) & (np.abs(n_sq - 0.5 * upsilon) < 1.0)


def _check_rel_zone(n_sq, upsilon: float) -> None:
    """ZoneError naming the first n^2 outside the relativistic tunneling zone."""
    inside = _in_rel_zone(n_sq, upsilon)
    if not np.all(inside):
        bad = float(np.extract(~inside, n_sq)[0])
        raise ZoneError(f"n^2 = {bad:g} is outside the relativistic tunneling zone "
                        "(n^2 - upsilon/2)^2 < 1, n^2 > 0 (below lies the Klein zone, "
                        "above the above-barrier zone)")


@dataclass(frozen=True)
class GaussianSpectrum:
    """Gaussian momentum distribution of unit squared norm."""

    a: float
    k0: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and self.a > 0.0):
            raise ValueError(f"spectrum width a must be finite and positive, got {self.a!r}")

    @_numeric()
    def amplitude(self, k):
        return ((self.a * self.a) / (2.0 * np.pi)) ** 0.25 * np.exp(
            -(self.a * self.a) * (k - self.k0) ** 2 / 4.0)


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
