"""tunnellab: a 1-D rectangular-barrier scattering laboratory.

Stationary amplitudes, Gaussian wave-packet propagation by spectral
quadrature, the multiple-peak (bounce) decomposition of above-barrier
scattering, and the full family of transit-time observables (phase, dwell,
self-interference, re-scaled dwell) for non-relativistic and relativistic
(Klein-Gordon) dispersion.  Natural units, hbar = c = 1.
Each name is imported from its module (``tunnellab.core``, ...): the package
imports none, so importing it loads no numpy (D22).
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
