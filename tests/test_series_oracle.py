"""Scaled hyperbolic pieces and the closed forms built on them, against 50-digit mpmath.

tunnellab._hyperbolic.scaled sums p as a Taylor series below x = 0.5 and uses
the direct form above; the fixed samples sit densely on both sides of that
switch and of 1e-6 and 0.05, where earlier per-formula series switched.  The
property tests draw (n, alpha) over the whole domain: alpha from 1e-8 to 700,
n up to 1.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tunnellab import _hyperbolic
from tunnellab.observables import (
    nr_one_way_rate,
    phase_time_shape,
    symmetric_dwell,
    symmetric_phase_time,
    symmetric_self_interference,
)
from tunnellab.stationary import Parity, relativistic_transmission

_REL = 1e-14
_SWITCHES = (1e-6, 0.05, _hyperbolic._SERIES_X)
_PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)
_ALPHA = st.floats(1e-8, 700.0)
_N = st.one_of(st.floats(1e-6, 1.0, exclude_max=True), st.floats(0.999999, 1.0, exclude_max=True))


def _around_switches():
    xs = [np.geomspace(1e-8, 2.0, 200), np.geomspace(2.0, 350.0, 40), [0.0]]
    for switch in _SWITCHES:
        xs.append(switch * (1.0 + np.array([-1e-3, -1e-6, -1e-12, 0.0, 1e-12, 1e-6, 1e-3])))
    return np.sort(np.concatenate(xs))


def _worst_relative(values, reference):
    return max(abs(v - float(r)) / abs(float(r)) for v, r in zip(values, reference))


def _mp_scaled(x):
    """(s, p, q) of tunnellab._hyperbolic.scaled to 50 digits.

    sinh x cosh x / x - 1 cancels to about x^2, so tiny x gets more digits.
    """
    x = float(x)
    if x == 0.0:
        return mpmath.mpf(4), mpmath.mpf(8) / 3, mpmath.mpf(4)
    with mpmath.workdps(50 + max(0, int(-2 * math.log10(x)))):
        x = mpmath.mpf(x)
        s = 4 * mpmath.exp(-2 * x)
        m = min(x, 1) ** 2
        sh, ch = mpmath.sinh(x), mpmath.cosh(x)
        return s, s * (sh * ch / x - 1) / m, s * sh * sh / m


@pytest.mark.parametrize("piece", ["s", "p", "q"])
def test_scaled_matches_mpmath(piece):
    xs = _around_switches()
    index = "spq".index(piece)
    values = _hyperbolic.scaled(xs)[index]
    assert _worst_relative(values, [_mp_scaled(x)[index] for x in xs]) < _REL


def _shch_over_x_minus_1(x):
    """sinh x cosh x / x - 1 = m p / s, as the one-way rate and phase-time shape use it."""
    s, p, _, m = _hyperbolic.scaled(x)
    return m * p / s


def _sinh_minus_x(x):
    """sinh x - x = x m p / s at x / 2, the cancelling part of the fermion dwell."""
    s, p, _, m = _hyperbolic.scaled(np.asarray(x) / 2.0)
    return x * m * p / s


@pytest.mark.parametrize("helper, exact", [
    (_sinh_minus_x, lambda x: mpmath.sinh(x) - x),
    (_shch_over_x_minus_1, lambda x: mpmath.sinh(x) * mpmath.cosh(x) / x - 1),
])
def test_sinh_helpers_match_mpmath(helper, exact):
    # both vanish at x = 0, where a relative error has no meaning
    xs = _around_switches()
    xs = xs[xs > 0.0]
    with mpmath.workdps(50 + 2 * 8):
        reference = [exact(mpmath.mpf(float(x))) for x in xs]
    assert _worst_relative(helper(xs), reference) < _REL
    assert helper(np.array([0.0]))[0] == 0.0


@_PROPERTY
@given(st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 350.0)))
@example(0.5)
@example(float(np.nextafter(0.5, 0.0)))
def test_scaled_property(x):
    s, p, q, m = _hyperbolic.scaled(np.array([x]))
    root_m = min(x, 1.0)
    assert m[0] == root_m * root_m
    assert _worst_relative([s[0], p[0], q[0]], _mp_scaled(x)) < _REL


@_PROPERTY
@given(_N, _ALPHA)
@example(1.0 - 1e-12, 1e-3)
def test_one_way_rate_property(n, alpha):
    with mpmath.workdps(50):
        nn, a = mpmath.mpf(n), mpmath.mpf(alpha)
        sh, ch = mpmath.sinh(a), mpmath.cosh(a)
        exact = (2 / a) * (sh * ch - a * nn * (2 * nn - 1)) / (4 * nn * (1 - nn) + sh * sh)
    assert _worst_relative([nr_one_way_rate(n, alpha)], [exact]) < _REL


@_PROPERTY
@given(_ALPHA)
@example(0.0499)
@example(0.05)
def test_phase_time_shape_property(alpha):
    with mpmath.workdps(50):
        a = mpmath.mpf(alpha)
        sh, ch = mpmath.sinh(a), mpmath.cosh(a)
        exact = (sh * ch - a) / (sh * sh)
    assert _worst_relative([phase_time_shape(alpha)], [exact]) < _REL


@_PROPERTY
@given(_N, _ALPHA, st.sampled_from(Parity))
@example(0.5, 1.06e-6, Parity.ANTISYMMETRIC)
@example(1e-3, 1.0, Parity.SYMMETRIC)
def test_symmetric_triple_property(n, alpha, parity):
    sign = parity.sign
    with mpmath.workdps(50):
        nn, a = mpmath.mpf(n), mpmath.mpf(alpha)
        den = 2 * nn - 1 + sign * mpmath.cosh(a)
        exact = [(2 / a) * (nn * a + sign * mpmath.sinh(a)) / den,
                 (2 * nn / a) * (a + sign * mpmath.sinh(a)) / den,
                 sign * (2 / a) * (1 - nn) * mpmath.sinh(a) / den]
    values = [f(n, alpha, parity) for f in (symmetric_phase_time, symmetric_dwell,
                                            symmetric_self_interference)]
    assert _worst_relative(values, exact) < _REL


@pytest.mark.parametrize("n", [0.02, 0.5, 0.9])
def test_fermion_dwell_at_small_alpha(n):
    # (2n/a)(a - sinh a)/(2n - 1 - cosh a): a - sinh a cancels unless it is
    # carried by the series of p; samples around 1e-6, where a switch once sat
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
    # sinh^2(rho_n wL) overflows past x of about 355; the scaled form does
    # not, and at x = 800 the modulus underflows to 0.0 in double precision
    wL = x / float(_mp_rho_n(mpmath.mpf(n_sq), mpmath.mpf(upsilon)))
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        T_mag, phi = relativistic_transmission(np.array([n_sq]), upsilon, wL)
    with mpmath.workdps(50):
        nn, rn = mpmath.mpf(n_sq), _mp_rho_n(mpmath.mpf(n_sq), mpmath.mpf(upsilon))
        exact = (1 + mpmath.sinh(rn * wL) ** 2 / (4 * nn * rn * rn)) ** -0.5
        phase = mpmath.atan2((nn - rn * rn) * mpmath.tanh(rn * wL), 2 * mpmath.sqrt(nn) * rn)
    assert T_mag[0] == pytest.approx(float(exact), rel=1e-12, abs=0.0)
    assert phi[0] == pytest.approx(float(phase), rel=1e-14)
