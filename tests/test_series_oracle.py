"""Small- and large-argument branches against 50-digit mpmath references.

Each stable helper switches from a Taylor series to the direct formula at a
fixed argument; the samples sit densely on both sides of every switch. The
opaque-barrier transmission switches to a scaled form above _SCALE_ARG.
"""

import mpmath
import numpy as np
import pytest

from tunnellab import observables
from tunnellab.observables import symmetric_dwell
from tunnellab.stationary import Parity, relativistic_transmission

_SWITCHES = (observables._SERIES_EPS, 0.05, observables._SINH_SERIES_X)


def _around_switches():
    xs = [np.geomspace(1e-8, 2.0, 200)]
    for switch in _SWITCHES:
        xs.append(switch * (1.0 + np.array([-1e-3, -1e-6, -1e-12, 0.0, 1e-12, 1e-6, 1e-3])))
    return np.sort(np.concatenate(xs))


def _worst_relative(values, reference):
    return max(abs(v - float(r)) / abs(float(r)) for v, r in zip(values, reference))


@pytest.mark.parametrize("helper, exact", [
    (observables._sinh_minus_x, lambda x: mpmath.sinh(x) - x),
    (observables._shch_over_x_minus_1, lambda x: mpmath.sinh(x) * mpmath.cosh(x) / x - 1),
    (observables._sinh_sq, lambda x: mpmath.sinh(x) ** 2),
])
def test_sinh_helpers_match_mpmath(helper, exact):
    xs = _around_switches()
    with mpmath.workdps(50):
        reference = [exact(mpmath.mpf(float(x))) for x in xs]
    assert _worst_relative(helper(xs), reference) < 1e-14


@pytest.mark.parametrize("n", [0.02, 0.5, 0.9])
def test_fermion_dwell_at_small_alpha(n):
    # (2n/a)(a - sinh a)/(2n - 1 - cosh a): a - sinh a cancels just above
    # the 1e-6 switch to the small-alpha series
    alphas = np.concatenate([1e-6 * (1.0 + np.array([-1e-3, -1e-9, 0.0, 1e-9, 1e-3, 0.06])),
                             np.geomspace(1e-8, 0.1, 60)])
    values = [symmetric_dwell(n, float(a), Parity.ANTISYMMETRIC) for a in alphas]
    reference = []
    with mpmath.workdps(50):
        for a in alphas:
            a, nn = mpmath.mpf(float(a)), mpmath.mpf(n)
            reference.append((2 * nn / a) * (a - mpmath.sinh(a)) / (2 * nn - 1 - mpmath.cosh(a)))
    assert _worst_relative(values, reference) < 1e-12


def _mp_rho_n(n_sq, upsilon):
    d = n_sq - upsilon / 2
    return mpmath.sqrt((1 - d * d) / (mpmath.sqrt(1 + 2 * n_sq * upsilon) + n_sq + upsilon / 2))


@pytest.mark.parametrize("x", [299.9, 300.1, 350.0, 400.0, 800.0])
@pytest.mark.parametrize("n_sq, upsilon", [(0.3, 0.0), (2.2, 5.0), (5.5, 10.0)])
def test_opaque_transmission_matches_mpmath(x, n_sq, upsilon):
    # above the scale switch sinh^2(rho_n wL) overflows past x of about 355;
    # at x = 800 the modulus underflows to 0.0 in double precision
    wL = x / float(_mp_rho_n(mpmath.mpf(n_sq), mpmath.mpf(upsilon)))
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        T_mag, phi = relativistic_transmission(np.array([n_sq]), upsilon, wL)
    with mpmath.workdps(50):
        nn, rn = mpmath.mpf(n_sq), _mp_rho_n(mpmath.mpf(n_sq), mpmath.mpf(upsilon))
        exact = (1 + mpmath.sinh(rn * wL) ** 2 / (4 * nn * rn * rn)) ** -0.5
        phase = mpmath.atan2((nn - rn * rn) * mpmath.tanh(rn * wL), 2 * mpmath.sqrt(nn) * rn)
    assert T_mag[0] == pytest.approx(float(exact), rel=1e-12, abs=0.0)
    assert phi[0] == pytest.approx(float(phase), rel=1e-14)

