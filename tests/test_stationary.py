import cmath
import dataclasses
import math

import numpy as np
import pytest

from oracles import central_difference, transfer_matrix_amplitudes

from tunnellab.core import PhysicalConfig, ZoneError, evanescent_rate
from tunnellab.observables import nr_phase_time
from tunnellab.stationary import (
    Parity,
    _tunnel_parts,
    above_barrier_coeffs,
    above_barrier_phase_derivative,
    kg_scatter_coeffs,
    multipeak_coeffs,
    multipeak_sums,
    relativistic_transmission,
    symmetric_amplitudes,
    symmetric_intra_barrier_coeffs,
    symmetric_phase,
    tunnel_amplitude_nr,
    tunnel_phase_derivative,
    unwrap_phase,
)


def above_cfg(w=1.0, L=3.0, k0=None, a=1.0):
    k0 = k0 if k0 is not None else math.sqrt(2.0) * w
    return PhysicalConfig.above_barrier(m=1.0, V0=w * w / 2.0, L=L, a=a, k0=k0)


def tunnel_cfg(w=1.0, L=2.0, k0=0.6, a=1.0):
    return PhysicalConfig.tunneling(m=1.0, V0=w * w / 2.0, L=L, a=a, k0=k0)


def assert_scalar_calls_match(coeffs, sc, ks, indices):
    """Each scalar call returns Python scalars equal to its element of the array call."""
    for i in indices:
        one = coeffs(float(ks[i]))
        for field in dataclasses.fields(one):
            value = getattr(one, field.name)
            assert type(value) in (complex, float)
            assert value == getattr(sc, field.name)[i]


def resonant_k(w, L, n):
    """Momentum with q L = n pi."""
    q = n * math.pi / L
    return math.sqrt(q * q + w * w)


class TestAboveBarrier:
    def test_unitarity_dense_grid(self):
        cfg = above_cfg()
        ks = np.linspace(cfg.w * 1.0001, 6.0 * cfg.w, 4000)
        sc = above_barrier_coeffs(ks, cfg)
        assert np.max(np.abs(np.abs(sc.R) ** 2 + np.abs(sc.T) ** 2 - 1.0)) < 1e-12

    def test_even_resonance(self):
        cfg = above_cfg()
        k = resonant_k(cfg.w, cfg.L, 2)
        sc = above_barrier_coeffs(k, cfg)
        assert abs(sc.R) < 1e-12
        assert abs(sc.T) == pytest.approx(1.0, abs=1e-12)
        assert sc.theta == pytest.approx(0.0, abs=1e-12)
        assert sc.T * np.exp(1j * k * cfg.L) == pytest.approx(1.0, abs=1e-12)

    def test_antiresonance(self):
        cfg = above_cfg()
        k = resonant_k(cfg.w, cfg.L, 2.5)
        q = math.sqrt(k * k - cfg.w ** 2)
        sc = above_barrier_coeffs(k, cfg)
        assert sc.theta == pytest.approx(math.pi / 2.0, abs=1e-12)
        expected_R = (k * k - q * q) / (k * k + q * q)
        assert sc.R == pytest.approx(expected_R, abs=1e-12)
        expected_T = (2.0 * k * q / (k * k + q * q)) * np.exp(1j * (math.pi / 2.0 - k * cfg.L))
        assert sc.T == pytest.approx(expected_T, abs=1e-12)

    def test_zero_width_barrier(self):
        cfg = above_cfg(L=0.0)
        sc = above_barrier_coeffs(1.7, cfg)
        assert abs(sc.R) == 0.0
        assert abs(sc.T) == pytest.approx(1.0, abs=1e-14)

    def test_zone_error(self):
        cfg = above_cfg()
        with pytest.raises(ZoneError):
            above_barrier_coeffs(0.5 * cfg.w, cfg)

    def test_transfer_matrix_oracle(self):
        cfg = above_cfg(L=2.3)
        for k in (1.1, 1.7, 2.9):
            q = math.sqrt(k * k - cfg.w ** 2)
            R_o, T_o, A_o, B_o = transfer_matrix_amplitudes(k, q, cfg.L)
            sc = above_barrier_coeffs(k, cfg)
            assert sc.R == pytest.approx(R_o, abs=1e-12)
            assert sc.T == pytest.approx(T_o, abs=1e-12)
            assert sc.alpha_coef == pytest.approx(A_o, abs=1e-12)
            assert sc.beta_coef == pytest.approx(B_o, abs=1e-12)


class TestAboveBarrierPhaseDerivative:
    def test_finite_difference_agreement(self):
        cfg = above_cfg(L=3.0)
        k = math.sqrt(2.0) * cfg.w

        def theta(kk):
            ks = np.linspace(k - 0.02, k + 0.02, 801)
            track = unwrap_phase(above_barrier_coeffs(ks, cfg).theta, 2.0 * math.pi)
            return float(np.interp(kk, ks, track))

        fd = central_difference(theta, k, 1e-4)
        closed = above_barrier_phase_derivative(k, cfg)
        assert closed == pytest.approx(fd, rel=1e-6)

    def test_resonance_closed_forms(self):
        cfg = above_cfg(L=3.0)
        k = resonant_k(cfg.w, cfg.L, 2)
        q = math.sqrt(k * k - cfg.w ** 2)
        assert above_barrier_phase_derivative(k, cfg) == pytest.approx(
            (k * k + q * q) * cfg.L / (2.0 * q * q), rel=1e-12)
        k = resonant_k(cfg.w, cfg.L, 2.5)
        q = math.sqrt(k * k - cfg.w ** 2)
        assert above_barrier_phase_derivative(k, cfg) == pytest.approx(
            2.0 * k * k * cfg.L / (k * k + q * q), rel=1e-12)


class TestMomentumChecks:
    """One k > w check before q, one 0 < k < w check before rho; both refuse NaN."""

    @pytest.mark.parametrize("amplitude, inside", [
        (above_barrier_coeffs, 1.5), (above_barrier_phase_derivative, 1.5),
        (multipeak_sums, 1.5), (tunnel_amplitude_nr, 0.5)])
    def test_nan_momentum_is_refused(self, amplitude, inside):
        cfg = above_cfg(w=1.0)
        amplitude(np.array([inside, inside]), cfg)   # inside the zone: accepted
        for k in (math.nan, np.array([inside, math.nan])):
            with pytest.raises(ZoneError):
                amplitude(k, cfg)


class TestTunnelAmplitude:
    def test_zero_width(self):
        cfg = tunnel_cfg(L=0.0)
        sc = tunnel_amplitude_nr(0.6, cfg)
        assert abs(sc.T) == pytest.approx(1.0, abs=1e-14)
        assert sc.theta == pytest.approx(0.0, abs=1e-14)

    def test_opaque_asymptotics(self):
        # |T| ~ 4 k rho / w^2 exp(-rho L) for thick barriers
        w, k = 1.0, 0.6
        rho = math.sqrt(w * w - k * k)
        for L in (20.0, 40.0):
            cfg = tunnel_cfg(L=L)
            asym = 4.0 * k * rho / w ** 2 * math.exp(-rho * L)
            assert abs(tunnel_amplitude_nr(k, cfg).T) == pytest.approx(asym, rel=1e-8)

    def test_unitarity_and_transfer_matrix(self):
        cfg = tunnel_cfg(L=1.7)
        ks = np.linspace(1e-3, cfg.w * (1 - 1e-9), 3000)
        sc = tunnel_amplitude_nr(ks, cfg)
        assert np.max(np.abs(np.abs(sc.R) ** 2 + np.abs(sc.T) ** 2 - 1.0)) < 1e-12
        for k in (0.2, 0.6, 0.95):
            rho = math.sqrt(cfg.w ** 2 - k * k)
            R_o, T_o, A_o, B_o = transfer_matrix_amplitudes(k, 1j * rho, cfg.L)
            one = tunnel_amplitude_nr(k, cfg)
            assert one.R == pytest.approx(R_o, abs=1e-12)
            assert one.T == pytest.approx(T_o, abs=1e-12)
            assert one.alpha_coef == pytest.approx(A_o, abs=1e-11)
            assert one.beta_coef == pytest.approx(B_o, abs=1e-11)
        assert_scalar_calls_match(lambda k: tunnel_amplitude_nr(k, cfg), sc, ks, (0, 1500, 2999))

    def test_transmission_strictly_increasing(self):
        cfg = tunnel_cfg(L=2.0)
        ks = np.linspace(1e-3, cfg.w * (1 - 1e-9), 2000)
        mags = np.abs(tunnel_amplitude_nr(ks, cfg).T)
        assert np.all(np.diff(mags) > 0)

    def test_phase_monotone_after_unwrap(self):
        cfg = tunnel_cfg(L=6.0)
        ks = np.linspace(1e-3, cfg.w * (1 - 1e-9), 5000)
        theta = _tunnel_parts(ks, cfg.w, cfg.L, "tunneling phase needs")[-1]
        assert np.all(np.diff(unwrap_phase(theta, 2.0 * math.pi)) > 0)

    def test_phase_derivative_fd(self):
        cfg = tunnel_cfg(L=2.0)
        for k in (0.3, 0.6, 0.9):
            fd = central_difference(
                lambda kk: float(tunnel_amplitude_nr(kk, cfg).theta), k, 1e-5)
            assert tunnel_phase_derivative(k, cfg) == pytest.approx(fd, rel=1e-6)

    @pytest.mark.parametrize("rho_L", [400.0, 800.0])
    def test_phase_derivative_of_an_opaque_barrier(self, rho_L):
        # sinh(rho L) overflows past rho L of about 355; d theta/dk = (k/m) t_phase
        m, w, k = 1.5, 2.0, 0.6
        L = rho_L / math.sqrt(w * w - k * k)
        opaque = PhysicalConfig.tunneling(m=m, V0=w * w / (2.0 * m), L=L, a=1.0, k0=k)
        dtheta = tunnel_phase_derivative(k, opaque)
        assert math.isfinite(dtheta)
        assert dtheta == pytest.approx(k / m * nr_phase_time(k, opaque), rel=1e-14)

    @pytest.mark.parametrize("rho_L", [709.0, 711.0, 1.6e4])
    def test_amplitudes_of_an_opaque_barrier(self, rho_L):
        # cosh(rho L) overflows past rho L of about 710; the amplitudes do not
        w, k = 2.0, 1.2
        rho = math.sqrt(w * w - k * k)
        cfg = tunnel_cfg(w=w, L=rho_L / rho, k0=k)
        sc = tunnel_amplitude_nr(k, cfg)
        opaque_theta = math.atan2(2.0 * k * k - w * w, 2.0 * k * rho)
        assert sc.theta == pytest.approx(opaque_theta, abs=1e-15)
        theta = _tunnel_parts(np.array([k]), w, cfg.L, "tunneling phase needs")[-1]
        assert unwrap_phase(theta, 2.0 * math.pi)[0] == sc.theta
        assert abs(sc.R) == pytest.approx(1.0, abs=1e-15)
        assert abs(sc.T) < 1e-300
        assert cmath.isfinite(sc.alpha_coef) and cmath.isfinite(sc.beta_coef)


class TestMultipeak:
    def test_first_reflection_value(self):
        cfg = above_cfg(L=1.0)
        k = math.sqrt(2.0) * cfg.w
        series = multipeak_coeffs(k, cfg)
        expected = (math.sqrt(2.0) - 1.0) / (math.sqrt(2.0) + 1.0)
        assert series.R_terms[0] == pytest.approx(expected, rel=1e-12)

    def test_ratio_recurrence(self):
        cfg = above_cfg(L=1.3)
        series = multipeak_coeffs(1.9, cfg)
        r = series.ratio
        for terms in (series.alpha_terms, series.beta_terms, series.T_terms):
            assert np.allclose(terms[1:], terms[:-1] * r, rtol=1e-12)
        assert np.allclose(series.R_terms[2:], series.R_terms[1:-1] * r, rtol=1e-12)

    def test_partial_conservation_converges(self):
        cfg = above_cfg(L=1.0)
        series = multipeak_coeffs(1.3, cfg)
        partial = np.cumsum(np.abs(series.R_terms) ** 2 + np.abs(series.T_terms) ** 2)
        assert abs(partial[-1] - 1.0) < 1e-10
        deviation = np.abs(partial - 1.0)
        above_floor = deviation > 1e-13
        assert np.all(np.diff(deviation[above_floor]) < 0)

    def test_tail_bound_dominates_dropped_terms(self):
        cfg = above_cfg(L=1.0)
        series = multipeak_coeffs(1.2, cfg)
        r = series.ratio
        nxt = max(abs(series.R_terms[-1] * r), abs(series.T_terms[-1] * r),
                  abs(series.alpha_terms[-1] * r), abs(series.beta_terms[-1] * r))
        assert series.tail_bound >= nxt
        assert series.tail_bound < 1e-12 * 10  # tolerance-driven truncation

    def test_sums_reproduce_one_shot(self):
        cfg = above_cfg(L=2.7)
        ks = np.linspace(cfg.w * 1.001, 5.0, 100)
        sums = multipeak_sums(ks, cfg)
        one = above_barrier_coeffs(ks, cfg)
        for field in ("R", "T", "alpha_coef", "beta_coef"):
            assert np.max(np.abs(getattr(sums, field) - getattr(one, field))) < 1e-10

    def test_sums_zero_width(self):
        cfg = above_cfg(L=0.0)
        sums = multipeak_sums(1.9, cfg)
        assert abs(sums.R) < 1e-14
        assert sums.T == pytest.approx(1.0, abs=1e-14)

    def test_second_reflection_consistency(self):
        # R2 = alpha2 + beta1 = (q/k) alpha1 beta1
        cfg = above_cfg(L=1.1)
        k = 1.8
        q = math.sqrt(k * k - cfg.w ** 2)
        series = multipeak_coeffs(k, cfg)
        alpha2 = series.alpha_terms[1]
        beta1 = series.beta_terms[0]
        assert series.R_terms[1] == pytest.approx(alpha2 + beta1, rel=1e-12)
        assert series.R_terms[1] == pytest.approx(
            (q / k) * series.alpha_terms[0] * beta1, rel=1e-12)


class TestSymmetricCollision:
    def test_reading_of_the_intra_phase(self):
        # the ratio 2 k rho/(2k^2 - w^2) is the tangent of the unimodular
        # phase, not the phase itself: only the quadrant-aware reading
        # reproduces the continuity amplitudes
        cfg = tunnel_cfg(L=2.0)
        for k in (0.3, 0.55, 0.8):
            rho = math.sqrt(cfg.w ** 2 - k * k)
            theta_angle = math.atan2(2.0 * k * rho, 2.0 * k * k - cfg.w ** 2)
            theta_ratio = 2.0 * k * rho / (2.0 * k * k - cfg.w ** 2)
            R, T = symmetric_amplitudes(k, cfg)

            def literal(theta):
                z = np.exp(1j * theta)
                den = 1.0 - np.exp(2.0 * rho * cfg.L) * z * z
                Rl = np.exp(-1j * k * cfg.L) * z * (1.0 - np.exp(2.0 * rho * cfg.L)) / den
                Tl = np.exp(-1j * k * cfg.L) * np.exp(rho * cfg.L) * (1.0 - z * z) / den
                return Rl, Tl

            Ra, Ta = literal(theta_angle)
            assert Ra == pytest.approx(R, abs=1e-12)
            assert Ta == pytest.approx(T, abs=1e-12)
            Rr, Tr = literal(theta_ratio)
            assert abs(Rr - R) + abs(Tr - T) > 1e-3  # the other reading disagrees

    def test_matches_shifted_transfer_matrix(self):
        # barrier on [-L/2, L/2]: R picks up e^{-ikL} relative to [0, L], T is unchanged
        cfg = tunnel_cfg(L=1.4)
        for k in (0.25, 0.6, 0.9):
            rho = math.sqrt(cfg.w ** 2 - k * k)
            R0, T0, _, _ = transfer_matrix_amplitudes(k, 1j * rho, cfg.L)
            R, T = symmetric_amplitudes(k, cfg)
            assert R == pytest.approx(R0 * np.exp(-1j * k * cfg.L), abs=1e-12)
            assert T == pytest.approx(T0, abs=1e-12)

    @staticmethod
    def assert_unitary_and_unimodular(cfg):
        ks = np.linspace(1e-4, cfg.w * (1 - 1e-9), 3000)
        R, T = symmetric_amplitudes(ks, cfg)
        assert np.max(np.abs(np.abs(R) ** 2 + np.abs(T) ** 2 - 1.0)) < 1e-12
        for parity in (Parity.SYMMETRIC, Parity.ANTISYMMETRIC):
            comb = R + parity.sign * T
            assert np.max(np.abs(np.abs(comb) - 1.0)) < 1e-12

    def test_unitarity_and_unimodularity(self):
        self.assert_unitary_and_unimodular(tunnel_cfg(L=2.0))

    # w = 1, so wL is the grid's largest opacity rho L; cosh overflows past 710
    @pytest.mark.parametrize("wL", [709.0, 711.0, 1.6e4])
    def test_unitarity_of_an_opaque_barrier(self, wL):
        cfg = tunnel_cfg(L=wL)
        self.assert_unitary_and_unimodular(cfg)
        # the intra-barrier pair ~ e^{-x/2}, e^{-3x/2} and the phases stay finite
        ks = np.linspace(1e-4, cfg.w * (1 - 1e-9), 300)
        for values in (*symmetric_intra_barrier_coeffs(ks, cfg),
                       symmetric_phase(ks, cfg, Parity.SYMMETRIC),
                       symmetric_phase(ks, cfg, Parity.ANTISYMMETRIC)):
            assert np.all(np.isfinite(values))

    def test_zero_width(self):
        cfg = tunnel_cfg(L=0.0)
        R, T = symmetric_amplitudes(0.6, cfg)
        assert abs(R) < 1e-14
        # transparent barrier: R + T = +1 (no phase), R - T = -1 (pure exchange sign)
        assert symmetric_phase(0.6, cfg, Parity.SYMMETRIC) == pytest.approx(0.0, abs=1e-14)
        assert abs(symmetric_phase(0.6, cfg, Parity.ANTISYMMETRIC)) == pytest.approx(math.pi, abs=1e-14)

    def test_opaque_transmission_vanishes(self):
        cfg = tunnel_cfg(L=40.0)
        _, T = symmetric_amplitudes(0.6, cfg)
        assert abs(T) < 1e-10

    def test_phase_matches_argument_oracle(self):
        cfg = tunnel_cfg(L=2.0)
        ks = np.linspace(1e-3, cfg.w * (1 - 1e-7), 4000)
        R, T = symmetric_amplitudes(ks, cfg)
        for parity in (Parity.SYMMETRIC, Parity.ANTISYMMETRIC):
            comb = (R + parity.sign * T) * np.exp(1j * ks * cfg.L)
            track = unwrap_phase(np.angle(comb), period=2.0 * math.pi)
            phi = symmetric_phase(ks, cfg, parity)
            offset = track[-1] - phi[-1]
            assert abs(offset) < 1e-9  # anchored at the barrier-top end
            assert np.max(np.abs(track - offset - phi)) < 1e-9

    def test_combined_record(self):
        cfg = tunnel_cfg(L=1.0)
        # R - T = exp(-i [kL - phi_-]), unimodular
        R, T = symmetric_amplitudes(0.5, cfg)
        phi = symmetric_phase(0.5, cfg, Parity.ANTISYMMETRIC)
        assert abs(abs(R - T) - 1.0) < 1e-12
        assert R - T == pytest.approx(np.exp(-1j * (0.5 * cfg.L - phi)), abs=1e-12)

    def test_intra_barrier_profile_continuity(self):
        # the reconstructed interior field joins the outer solutions at both faces
        cfg = tunnel_cfg(L=1.4)
        k = 0.7
        gamma, beta = symmetric_intra_barrier_coeffs(k, cfg)
        rho = math.sqrt(cfg.w ** 2 - k * k)
        R, T = symmetric_amplitudes(k, cfg)
        half = cfg.L / 2.0
        inner_right = gamma * np.exp(-rho * half) + beta * np.exp(rho * half)
        outer_right = T * np.exp(1j * k * half)
        assert inner_right == pytest.approx(outer_right, abs=1e-12)
        inner_left = gamma * np.exp(rho * half) + beta * np.exp(-rho * half)
        outer_left = np.exp(-1j * k * half) + R * np.exp(1j * k * half)
        assert inner_left == pytest.approx(outer_left, abs=1e-12)


class TestRelativisticTransmission:
    def test_reduces_to_nr(self):
        cfg = tunnel_cfg(w=1.0, L=3.0)
        for k in np.linspace(0.05, 0.95, 19):
            n_sq = k * k / cfg.w ** 2
            T_mag, phi = relativistic_transmission(n_sq, 0.0, cfg.w * cfg.L)
            sc = tunnel_amplitude_nr(float(k), cfg)
            assert T_mag == pytest.approx(abs(sc.T), rel=1e-12)
            assert phi == pytest.approx(sc.theta, abs=1e-12)

    def test_zone_errors(self):
        with pytest.raises(ZoneError, match="Klein"):
            relativistic_transmission(1.0, 5.0, 1.0)
        with pytest.raises(ZoneError):
            relativistic_transmission(4.0, 5.0, 1.0)

    def test_zone_edge_values(self):
        wL = 2.0 * math.pi
        for upsilon, edge, n_edge, sign in ((5.0, "lower", 1.5, -1), (5.0, "upper", 3.5, +1),
                                            (1.0, "upper", 1.5, +1)):
            n_sq = n_edge - sign * 1e-9
            T_mag, _ = relativistic_transmission(n_sq, upsilon, wL)
            den = 2.0 * upsilon + sign * 4.0 if edge == "upper" else 2.0 * upsilon - 4.0
            closed = (1.0 + wL * wL / den) ** -0.5
            assert T_mag == pytest.approx(closed, rel=1e-6)

    def test_strong_barrier_transparency(self):
        # upsilon >> 1 at the zone edge: |T| -> [1 + (mL)^2]^(-1/2) -> 1 for mL << 1
        upsilon = 1.0e6
        mL = 1e-2
        wL = math.sqrt(2.0 * upsilon) * mL
        n_edge = 0.5 * upsilon + 1.0
        T_mag, _ = relativistic_transmission(n_edge - 1e-4, upsilon, wL)
        assert T_mag == pytest.approx((1.0 + mL * mL) ** -0.5, rel=1e-4)
        assert T_mag > 0.9999

    def test_kg_continuity_solution(self):
        cfg = PhysicalConfig(m=1.0, V0=5.0, L=0.7, a=1.0, k0=math.sqrt(20.0))
        sc = kg_scatter_coeffs(cfg.k0, cfg)
        assert abs(sc.R) ** 2 + abs(sc.T) ** 2 == pytest.approx(1.0, abs=1e-12)
        rho = evanescent_rate(cfg.k0, cfg)
        R_o, T_o, A_o, B_o = transfer_matrix_amplitudes(cfg.k0, 1j * rho, cfg.L)
        assert sc.R == pytest.approx(R_o, abs=1e-12)
        assert sc.T == pytest.approx(T_o, abs=1e-12)
        assert sc.alpha_coef == pytest.approx(A_o, abs=1e-11)
        assert sc.beta_coef == pytest.approx(B_o, abs=1e-11)
        # the phase (not the modulus) agrees with the barrier-scale form
        _, phi = relativistic_transmission(2.0, 5.0, cfg.w * cfg.L)
        assert sc.theta == pytest.approx(phi, abs=1e-12)
        # arrays across the zone, up to rho L = 788: unitarity at every n^2, the
        # transfer matrix at both ends and the middle, scalar calls as elements.
        # At wL = 800 the 60-digit oracle keeps no digit of T or beta (sizes
        # e^{-x} and e^{-2x}, x = rho L), so there theta is read from R = -i |R|
        # e^{i theta}, and T and beta must underflow to 0 wherever e^{-x} and
        # e^{-2x} do; upsilon = 0.05 reaches x = 788, past cosh's overflow at 710.
        for upsilon in (0.05, 0.5, 5.0, 50.0):
            w = math.sqrt(2.0 * upsilon)
            n_sq = np.linspace(max(0.5 * upsilon - 1.0, 0.0), 0.5 * upsilon + 1.0, 203)[1:-1]
            ks = np.sqrt(n_sq) * w
            for wL in (0.1, 2.0 * math.pi, 40.0, 800.0):
                cfg = PhysicalConfig(m=1.0, V0=upsilon, L=wL / w, a=1.0, k0=float(ks[0]))
                sc = kg_scatter_coeffs(ks, cfg)
                assert np.max(np.abs(np.abs(sc.R) ** 2 + np.abs(sc.T) ** 2 - 1.0)) < 1e-12
                rho = evanescent_rate(ks, cfg)
                points = (0, ks.size // 2, ks.size - 1)
                for i in points:
                    R_o, T_o, A_o, B_o = transfer_matrix_amplitudes(ks[i], 1j * rho[i], cfg.L)
                    assert sc.R[i] == pytest.approx(R_o, abs=1e-12)
                    assert sc.alpha_coef[i] == pytest.approx(A_o, rel=1e-12)
                    if wL < 800.0:
                        assert sc.T[i] == pytest.approx(T_o, rel=1e-12)
                        assert sc.beta_coef[i] == pytest.approx(B_o, rel=1e-12)
                    else:
                        assert sc.theta[i] == pytest.approx(cmath.phase(1j * R_o), abs=1e-12)
                if wL == 800.0:
                    x = rho * cfg.L
                    assert np.all(sc.T[np.exp(-x) == 0.0] == 0.0)
                    assert np.all(sc.beta_coef[np.exp(-2.0 * x) == 0.0] == 0.0)
                    if upsilon == 0.05:
                        assert x[0] > 745.0 and sc.T[0] == 0.0 and sc.beta_coef[0] == 0.0
                assert_scalar_calls_match(lambda k: kg_scatter_coeffs(k, cfg), sc, ks, points)


class TestUnwrapPhase:
    def test_constant_unchanged(self):
        xs = np.full(10, 0.3)
        assert np.array_equal(unwrap_phase(xs), xs)

    def test_single_branch_jump_removed(self):
        xs = np.array([1.0, 1.2, 1.4, 1.4 - math.pi, 1.6 - math.pi])
        out = unwrap_phase(xs)
        assert np.allclose(out, [1.0, 1.2, 1.4, 1.4, 1.6])
        assert out[0] == xs[0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            unwrap_phase(np.array([]))
