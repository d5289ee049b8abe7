"""tunnellab: a 1-D rectangular-barrier scattering laboratory.

Stationary amplitudes, Gaussian wave-packet propagation by spectral
quadrature, the multiple-peak (bounce) decomposition of above-barrier
scattering, and the full family of transit-time observables (phase, dwell,
self-interference, re-scaled dwell) for non-relativistic and relativistic
(Klein-Gordon) dispersion.  Natural units, hbar = c = 1.
"""

from .core import (
    Dispersion,
    GaussianSpectrum,
    PhysicalConfig,
    ZoneError,
    energy,
)
from .stationary import Parity, ScatterCoeffs

__version__ = "0.1.0"

__all__ = [
    "Dispersion",
    "GaussianSpectrum",
    "Parity",
    "PhysicalConfig",
    "ScatterCoeffs",
    "ZoneError",
    "energy",
    "__version__",
]
