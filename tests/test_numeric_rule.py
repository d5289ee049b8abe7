"""The number-or-array rule of every public numeric function (docs/DECISIONS.md, D20).

A call made with numbers returns Python float or complex, also inside a tuple or a
ScatterCoeffs, and each equals its element of the array call bit for bit.
"""

import dataclasses
import math

import numpy as np
import pytest

from tunnellab import observables as ob
from tunnellab import stationary as st
from tunnellab.core import (
    Dispersion,
    GaussianSpectrum,
    PhysicalConfig,
    energy,
    evanescent_rate,
    rho_n_squared,
)
from tunnellab.wavepackets import free_gaussian

_DRAWS, _POINTS = 8, 16     # random barriers per function, points per barrier


def _nr(rng, make, k0_over_w):
    w, L, m = rng.uniform(0.3, 3.0), rng.uniform(0.05, 6.0), rng.uniform(0.3, 3.0)
    return make(m=m, V0=w * w / (2.0 * m), L=L, a=rng.uniform(0.5, 4.0), k0=k0_over_w * w)


def above(rng):
    """An above-barrier configuration and momenta k > w."""
    cfg = _nr(rng, PhysicalConfig.above_barrier, 1.5)
    return cfg, cfg.w * (1.0 + rng.uniform(1e-3, 3.0, _POINTS))


def tunnel(rng):
    """A tunneling configuration and momenta 0 < k < w."""
    cfg = _nr(rng, PhysicalConfig.tunneling, 0.5)
    return cfg, cfg.w * rng.uniform(1e-3, 1.0 - 1e-3, _POINTS)


def zone(rng):
    """(upsilon, wL) and n^2 inside the relativistic tunneling zone."""
    upsilon, wL = rng.uniform(0.5, 20.0), rng.uniform(0.1, 10.0)
    low = max(0.5 * upsilon - 1.0, 0.0)
    return (upsilon, wL), rng.uniform(low + 1e-3, 0.5 * upsilon + 1.0 - 1e-3, _POINTS)


def kg(rng):
    """A Klein-Gordon configuration and momenta inside its tunneling zone."""
    (upsilon, wL), n_sq = zone(rng)
    w = math.sqrt(2.0 * upsilon)
    cfg = PhysicalConfig(m=1.0, V0=upsilon, L=wL / w, a=1.0, k0=1.0,
                         dispersion=Dispersion.RELATIVISTIC_KG)
    return cfg, np.sqrt(n_sq) * w


def opacity(rng):
    """No context, and (n, alpha) with 0 < n < 1 and alpha >= 0."""
    return None, rng.uniform(1e-3, 1.0 - 1e-3, _POINTS), rng.uniform(0.0, 30.0, _POINTS)


_CASES = {
    "energy": (above, lambda cfg, k: energy(k, cfg)),
    "energy-kg": (kg, lambda cfg, k: energy(k, cfg)),
    "evanescent_rate": (kg, lambda cfg, k: evanescent_rate(k, cfg)),
    "rho_n_squared": (zone, lambda ctx, n_sq: rho_n_squared(n_sq, ctx[0])),
    "GaussianSpectrum.amplitude":
        (above, lambda cfg, k: GaussianSpectrum(cfg.a, cfg.k0).amplitude(k)),
    "above_barrier_coeffs": (above, lambda cfg, k: st.above_barrier_coeffs(k, cfg)),
    "above_barrier_phase_derivative":
        (above, lambda cfg, k: st.above_barrier_phase_derivative(k, cfg)),
    "multipeak_sums": (above, lambda cfg, k: st.multipeak_sums(k, cfg)),
    "tunnel_amplitude_nr": (tunnel, lambda cfg, k: st.tunnel_amplitude_nr(k, cfg)),
    "tunnel_phase_derivative": (tunnel, lambda cfg, k: st.tunnel_phase_derivative(k, cfg)),
    "symmetric_amplitudes": (tunnel, lambda cfg, k: st.symmetric_amplitudes(k, cfg)),
    "symmetric_phase":
        (tunnel, lambda cfg, k: st.symmetric_phase(k, cfg, st.Parity.ANTISYMMETRIC)),
    "symmetric_intra_barrier_coeffs":
        (tunnel, lambda cfg, k: st.symmetric_intra_barrier_coeffs(k, cfg)),
    "relativistic_transmission":
        (zone, lambda ctx, n_sq: st.relativistic_transmission(n_sq, *ctx)),
    "kg_scatter_coeffs": (kg, lambda cfg, k: st.kg_scatter_coeffs(k, cfg)),
    "nr_transmission_mag": (tunnel, lambda cfg, k: ob.nr_transmission_mag(k, cfg.w, cfg.L)),
    "nr_phase_time": (tunnel, lambda cfg, k: ob.nr_phase_time(k, cfg)),
    "nr_opaque_limit_time": (tunnel, lambda cfg, k: ob.nr_opaque_limit_time(k, cfg)),
    "nr_one_way_rate": (opacity, lambda _, n, alpha: ob.nr_one_way_rate(n, alpha)),
    "phase_time_shape": (opacity, lambda _, n, alpha: ob.phase_time_shape(alpha)),
    "symmetric_phase_time":
        (opacity, lambda _, n, alpha: ob.symmetric_phase_time(n, alpha, st.Parity.SYMMETRIC)),
    "symmetric_dwell":
        (opacity, lambda _, n, alpha: ob.symmetric_dwell(n, alpha, st.Parity.ANTISYMMETRIC)),
    "symmetric_self_interference": (opacity, lambda _, n, alpha:
                                    ob.symmetric_self_interference(n, alpha, st.Parity.SYMMETRIC)),
    "rel_phase_time_near_edge":
        (zone, lambda ctx, n_sq: ob.rel_phase_time_near_edge(n_sq, ctx[0])),
    **{name: (zone, lambda ctx, n_sq, fn=getattr(ob, name): fn(n_sq, *ctx))
       for name in ("rel_phase_time", "rel_dwell", "rel_continuity_dwell", "rel_rescaled_dwell",
                    "rel_self_interference", "rel_variational_residual")},
    "free_gaussian": (above, lambda cfg, k: free_gaussian(k - cfg.k0, 1.7, cfg)),
}


def _parts(result) -> list:
    if isinstance(result, tuple):
        return list(result)
    if dataclasses.is_dataclass(result):
        return [getattr(result, field.name) for field in dataclasses.fields(result)]
    return [result]


@pytest.mark.parametrize("source, call", _CASES.values(), ids=_CASES.keys())
def test_scalar_call_is_its_array_element(source, call):
    rng = np.random.default_rng(26)
    differ = 0
    for _ in range(_DRAWS):
        context, *columns = source(rng)
        whole = [np.asarray(part) for part in _parts(call(context, *columns))]
        for i in range(_POINTS):
            one = _parts(call(context, *(float(column[i]) for column in columns)))
            assert [type(value) for value in one] == [type(part[i].item()) for part in whole]
            assert {type(value) for value in one} <= {float, complex}
            differ += sum(np.asarray(value).tobytes() != part[i].tobytes()
                          for value, part in zip(one, whole))
    assert differ == 0
