"""Small-argument branches against 50-digit mpmath references.

Each stable helper switches from a Taylor series to the direct formula at a
fixed argument; the samples sit densely on both sides of every switch.
"""

import mpmath
import numpy as np
import pytest

from tunnellab import observables
from tunnellab.observables import symmetric_dwell
from tunnellab.stationary import Parity

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
