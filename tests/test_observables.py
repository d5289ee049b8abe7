import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    central_difference,
    filtered_spectrum_argmax,
    full_scan_index,
    reference_naive_times,
    reference_spm_peak,
)

from tunnellab import observables
from tunnellab.core import PhysicalConfig, ZoneError, rho_n_squared
from tunnellab.stationary import (
    Parity,
    above_barrier_phase_derivative,
    relativistic_transmission,
    tunnel_amplitude_nr,
    tunnel_phase_derivative,
)
from tunnellab.lab import scenario_defaults
from tunnellab.wavepackets import COMPONENT_TAGS, spm_peak_prediction
from tunnellab.observables import (
    SpectralMaximum,
    distortion_flag,
    fermion_acceleration_predicate,
    kmax_find,
    naive_above_barrier_times,
    nr_one_way_rate,
    nr_opaque_limit_time,
    nr_phase_time,
    nr_transmission_mag,
    phase_time_shape,
    rel_continuity_dwell,
    rel_dwell,
    rel_dwell_zone_edge,
    rel_phase_time,
    rel_phase_time_near_edge,
    rel_phase_time_zone_edge,
    rel_rescaled_dwell,
    rel_self_interference,
    rel_transmission_zone_edge,
    rel_variational_residual,
    symmetric_dwell,
    symmetric_dwell_quadrature,
    symmetric_phase_time,
    symmetric_self_interference,
)


def above_cfg(w=1.0, L=3.0, k0=None):
    k0 = k0 if k0 is not None else math.sqrt(2.0) * w
    return PhysicalConfig.above_barrier(m=1.0, V0=w * w / 2.0, L=L, a=1.0, k0=k0)


def tunnel_cfg(w=1.0, L=2.0, k0=0.6, a=1.0):
    return PhysicalConfig.tunneling(m=1.0, V0=w * w / 2.0, L=L, a=a, k0=k0)


def resonant_cfg(w, L, cycles):
    q0 = cycles * math.pi / L
    return above_cfg(w=w, L=L, k0=math.sqrt(q0 * q0 + w * w))


class TestNaiveTimes:
    def test_intra_barrier_transits_are_ballistic(self):
        cfg = above_cfg(L=2.2)
        q0 = math.sqrt(cfg.k0 ** 2 - cfg.w ** 2)
        at0 = naive_above_barrier_times(cfg, 0.0)
        atL = naive_above_barrier_times(cfg, cfg.L)
        transit = cfg.m * cfg.L / q0
        assert atL.alpha - at0.alpha == pytest.approx(transit, rel=1e-12)
        assert at0.beta - atL.beta == pytest.approx(transit, rel=1e-12)

    def test_reflected_delay_relation(self):
        cfg = above_cfg(L=1.7)
        at0 = naive_above_barrier_times(cfg, 0.0)
        # the group delay d theta/dE = (m/k) d theta/dk of the reflected peak
        assert at0.reflected - at0.incident == pytest.approx(
            (cfg.m / cfg.k0) * above_barrier_phase_derivative(cfg.k0, cfg), rel=1e-12)

    def test_resonance_sign_flip(self):
        # interior wave appears after the incident peak at resonance,
        # before it at antiresonance
        for cycles, positive in ((3.0, True), (3.5, False)):
            cfg = resonant_cfg(40.0, 2.0, cycles)
            t0 = naive_above_barrier_times(cfg, 0.0).alpha
            assert (t0 > 0) == positive

    def test_reflection_delay_resonance_forms(self):
        cfg = resonant_cfg(1.0, 3.0, 2.0)
        k0 = cfg.k0
        q0 = math.sqrt(k0 ** 2 - cfg.w ** 2)
        expected = (cfg.m * cfg.L / q0) * (k0 ** 2 + q0 ** 2) / (2.0 * k0 * q0)
        assert (cfg.m / k0) * above_barrier_phase_derivative(k0, cfg) == pytest.approx(
            expected, rel=1e-12)
        cfg = resonant_cfg(1.0, 3.0, 2.5)
        k0 = cfg.k0
        q0 = math.sqrt(k0 ** 2 - cfg.w ** 2)
        expected = (cfg.m * cfg.L / q0) * (2.0 * k0 * q0) / (k0 ** 2 + q0 ** 2)
        assert (cfg.m / k0) * above_barrier_phase_derivative(k0, cfg) == pytest.approx(
            expected, rel=1e-12)

    def test_zone_error(self):
        with pytest.raises(ZoneError):
            naive_above_barrier_times(tunnel_cfg(), 0.0)


_ABOVE_CFGS = st.builds(
    lambda w, ratio, L, m, x0: PhysicalConfig.above_barrier(
        m=m, V0=w * w / (2.0 * m), L=L, a=1.0, k0=ratio * w, x0=x0),
    st.floats(0.05, 1e4), st.floats(1.0 + 1e-6, 20.0), st.floats(1e-3, 50.0),
    st.floats(0.1, 10.0), st.floats(-100.0, 100.0))


class TestSinglePeakLines:
    """naive_above_barrier_times and spm_peak_prediction read one table of lines and give
    the numbers of the per-component formulas (oracles.reference_*)."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_ABOVE_CFGS, st.floats(-100.0, 100.0), st.floats(-100.0, 100.0))
    @example(above_cfg(w=12.457, L=1.0, k0=1.5 * 12.457), 3.0, 0.7)   # w ** 2 != w * w
    def test_views_equal_the_formulas(self, cfg, t, x):
        # The formulas squared w with C pow, which misrounds about one square in 1200;
        # the one momentum multiplies, so there q0 moves by an ulp and the alpha and beta
        # lines with it.  The formulas' reflected and transmitted times also add x to x0
        # before theta', where a line adds x0 to theta' first; at x = 0 that is the same sum.
        v_k, v_q = cfg.k0 / cfg.m, math.sqrt(cfg.k0 ** 2 - cfg.w ** 2) / cfg.m
        dtheta = float(above_barrier_phase_derivative(cfg.k0, cfg))
        delay = abs(cfg.x0 - dtheta) / v_k
        span = abs(cfg.x0) + dtheta + cfg.L + abs(x) + (v_k + v_q) * (abs(t) + delay)
        same_q0 = cfg.w ** 2 == cfg.w * cfg.w
        times, at_0 = naive_above_barrier_times(cfg, x), naive_above_barrier_times(cfg, 0.0)
        ref_times, ref_0 = reference_naive_times(cfg, x), reference_naive_times(cfg, 0.0)
        for tag in COMPONENT_TAGS:
            exact = same_q0 or tag not in ("alpha", "beta")
            pairs = [(spm_peak_prediction(tag, t, cfg), reference_spm_peak(tag, t, cfg), span),
                     (getattr(at_0, tag), getattr(ref_0, tag), span / min(v_k, v_q)),
                     (getattr(times, tag), getattr(ref_times, tag), span / min(v_k, v_q))]
            for i, (got, want, scale) in enumerate(pairs):
                if exact and (i < 2 or tag not in ("reflected", "transmitted")):
                    assert got == want, (tag, i)
                else:   # a few roundings of the terms apart
                    assert abs(got - want) <= 4.0 * np.finfo(float).eps * scale, (tag, i)

    def test_incident_line_needs_no_scattering_solution(self):
        cfg = tunnel_cfg()
        assert spm_peak_prediction("incident", 2.0, cfg) == reference_spm_peak("incident", 2.0, cfg)
        with pytest.raises(ZoneError):
            spm_peak_prediction("reflected", 2.0, cfg)
        with pytest.raises(ValueError, match="unknown component tag"):
            spm_peak_prediction("sideways", 2.0, above_cfg())


class TestNrPhaseTime:
    def test_matches_phase_derivative(self):
        cfg = tunnel_cfg(L=2.0)
        for k in (0.2, 0.55, 0.9):
            expected = (cfg.m / k) * float(tunnel_phase_derivative(k, cfg))
            assert nr_phase_time(k, cfg) == pytest.approx(expected, rel=1e-13)

    def test_finite_difference(self):
        cfg = tunnel_cfg(L=2.0)
        k = 0.6
        fd = central_difference(lambda kk: float(tunnel_amplitude_nr(kk, cfg).theta),
                                k, 1e-5)
        assert nr_phase_time(k, cfg) == pytest.approx((cfg.m / k) * fd, rel=1e-6)

    def test_opaque_saturation(self):
        # alpha = 30, n = 0.5: the closed form and the opaque value agree to 1e-6
        w = 1.0
        k = math.sqrt(0.5) * w
        rho = math.sqrt(w * w - k * k)
        cfg = tunnel_cfg(L=30.0 / rho, k0=k)
        assert nr_phase_time(k, cfg) == pytest.approx(
            float(nr_opaque_limit_time(k, cfg)), rel=1e-6)

    def test_consistency_with_dimensionless_rate(self):
        cfg = tunnel_cfg(L=3.0)
        for k in np.linspace(0.1, 0.95, 18):
            n = k * k / cfg.w ** 2
            alpha = math.sqrt(cfg.w ** 2 - k * k) * cfg.L
            tau = cfg.m * cfg.L / k
            assert nr_phase_time(float(k), cfg) == pytest.approx(
                tau * float(nr_one_way_rate(n, alpha)), rel=1e-12)

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(st.floats(0.5, 2.0), st.floats(0.5, 20.0), st.floats(0.1, 5.0), st.floats(0.02, 0.98))
    def test_phase_is_dwell_plus_self_interference(self, m, V0, L, k_over_w):
        # t_phi = t_D + t_I with t_D = (m/k) int_0^L |alpha e^{-rho x} + beta e^{rho x}|^2,
        # the dwell integral every identity check shares, and t_I = -m Im R / k^2.
        # rho L stays at or below 40: the error of the sum grows like rho L times the
        # rounding of e^{rho x} (2e-13 at 40, 1e-12 near 200); reaching rho L = 700 needs
        # the one-way closed forms, which are not written yet
        w = math.sqrt(2.0 * m * V0)
        k = k_over_w * w
        rho = math.sqrt(w * w - k * k)
        cfg = PhysicalConfig.tunneling(m=m, V0=V0, L=min(L, 40.0 / rho), a=1.0, k0=k)
        sc = tunnel_amplitude_nr(np.array([k]), cfg)
        t_dwell = (m / k) * observables._density_integral(
            sc.alpha_coef, sc.beta_coef, np.array([rho]), 0.0, cfg.L)[0]
        t_self = -m * sc.R.imag[0] / (k * k)
        assert t_dwell + t_self == pytest.approx(nr_phase_time(k, cfg), rel=1e-12)

    def test_small_alpha_rate_limit(self):
        for n in (0.1, 0.5, 0.9):
            assert nr_one_way_rate(n, 1e-3) == pytest.approx(1.0 + 1.0 / (2.0 * n), rel=1e-3)


class TestShapeFunction:
    def test_small_alpha_series(self):
        assert phase_time_shape(1e-4) / 1e-4 == pytest.approx(2.0 / 3.0, abs=1e-7)

    def test_alpha_ten_is_one(self):
        g = phase_time_shape(10.0)
        assert g == pytest.approx(1.0, abs=1e-7)
        assert g == pytest.approx(1.0 - 10.0 / math.sinh(10.0) ** 2, abs=1e-8)

    def test_barrier_top_linear_regime(self):
        # the barrier-top time (2mL/(w alpha)) G(alpha) is (mL/w) times the one-way rate at n = 1
        cfg = tunnel_cfg(L=0.5)
        assert cfg.m * cfg.L / cfg.w * nr_one_way_rate(1.0, 1e-3) == pytest.approx(
            4.0 * cfg.m * cfg.L / (3.0 * cfg.w), rel=1e-3)

    def test_barrier_top_opaque_regime(self):
        cfg = tunnel_cfg(L=0.5)
        # (2mL/(w alpha)) G -> 2m/(w rho) with rho = alpha/L
        alpha = 40.0
        assert cfg.m * cfg.L / cfg.w * nr_one_way_rate(1.0, alpha) == pytest.approx(
            2.0 * cfg.m * cfg.L / (cfg.w * alpha), rel=1e-6)


class TestSpectralMaximum:
    def cfg(self, wa, Lba, k0a=1.0):
        return PhysicalConfig(m=1.0, V0=wa * wa / 2.0, L=Lba, a=1.0, k0=k0a)

    def test_reference_cells(self):
        for (wa, Lba), expected in (((4.0, 0.20), 1.6571), ((10.0, 0.50), 2.1170),
                                    ((20.0, 1.00), 2.1392)):
            result = kmax_find(self.cfg(wa, Lba))
            assert not result.distorted
            assert result.k_max == pytest.approx(expected, abs=5e-4)

    def test_zero_width_returns_center(self):
        result = kmax_find(self.cfg(4.0, 0.0))
        assert result.k_max == pytest.approx(1.0, abs=1e-7)
        assert not result.distorted

    def test_bracketing_when_not_distorted(self):
        for Lba in (0.1, 0.4, 0.8):
            cfg = self.cfg(6.0, Lba)
            result = kmax_find(cfg)
            assert not result.distorted
            assert cfg.k0 < result.k_max < cfg.w

    def test_monotone_until_distortion(self):
        previous = 0.0
        for Lba in np.arange(0.0, 1.01, 0.05):
            cfg = self.cfg(2.0, float(Lba))
            result = kmax_find(cfg)
            if result.distorted:
                break
            assert result.k_max >= previous - 1e-9
            previous = result.k_max

    def test_distortion_examples(self):
        assert distortion_flag(self.cfg(1.5, 0.80))
        assert not distortion_flag(self.cfg(1.5, 0.75))
        assert not distortion_flag(self.cfg(4.0, 0.0))
        # k0 at the barrier top: any nonzero width distorts
        top = PhysicalConfig(m=1.0, V0=0.5, L=0.01, a=1.0, k0=1.0)
        assert distortion_flag(top)


def table1_cells(k0a):
    """The cells of the default table1 grid, built as the scenario builds them."""
    config = scenario_defaults("table1")
    lo, step = config["L_over_a_min"], config["L_over_a_step"]
    n_rows = round((config["L_over_a_max"] - lo) / step) + 1
    return [PhysicalConfig(m=1.0, V0=wa * wa / 2.0, L=lo + i * step, a=1.0, k0=k0a)
            for i in range(n_rows) for wa in config["wa_values"]]


@pytest.fixture
def objective_calls(monkeypatch):
    """Counts the calls kmax_find makes to its objective's |T|."""
    calls = []
    original = observables.nr_transmission_mag

    def counted(*args, **kwargs):
        calls.append(np.size(args[0]))
        return original(*args, **kwargs)

    monkeypatch.setattr(observables, "nr_transmission_mag", counted)
    return calls


class TestLockstepSearch:
    """kmax_find over a sequence runs one golden-section loop for every cell."""

    @staticmethod
    def random_cells(n=60, seed=7):
        rng = np.random.default_rng(seed)
        cells = []
        for i in range(n):
            w = float(rng.uniform(1.2, 25.0))
            L = 0.0 if i % 6 == 0 else float(rng.uniform(0.0, 1.3))
            a = float(rng.uniform(0.5, 2.0))
            k0 = float(rng.uniform(0.05, 0.95)) * w
            cells.append(PhysicalConfig(m=1.0, V0=w * w / 2.0, L=L, a=a, k0=k0))
        return cells

    def test_sequence_equals_scalar_calls(self):
        cells = table1_cells(1.0) + table1_cells(1.1) + self.random_cells()
        assert len(cells) == 294 + 60
        found = kmax_find(cells)
        for result, alone in zip(found, [kmax_find(cfg) for cfg in cells], strict=True):
            assert result.distorted == alone.distorted
            if result.distorted:   # NaN, compared as NaN rather than by identity
                assert math.isnan(result.k_max) and math.isnan(alone.k_max)
                assert all(map(math.isnan, result.bracket + alone.bracket))
            else:
                assert result == alone
        assert any(result.distorted for result in found)

    def test_distorted_cells_are_not_searched(self, objective_calls):
        # a distorted cell prints '*': it gets NaN and costs no objective call,
        # even where its scan would overflow |T| (w L = 800)
        opaque = PhysicalConfig(m=1.0, V0=400.0 ** 2 / 2.0, L=2.0, a=1.0, k0=1.0)
        cells = [cfg for cfg in table1_cells(1.0) if distortion_flag(cfg)] + [opaque]
        assert len(cells) == 8 and all(map(distortion_flag, cells))
        for result in kmax_find(cells) + [kmax_find(cells[0])]:
            assert result.distorted and math.isnan(result.k_max)
            assert len(result.bracket) == 2 and all(map(math.isnan, result.bracket))
        assert objective_calls == []

    def test_scalar_call_returns_one_maximum(self):
        result = kmax_find(table1_cells(1.0)[30])
        assert isinstance(result, SpectralMaximum)
        assert isinstance(result.k_max, float)
        assert all(isinstance(edge, float) for edge in result.bracket)

    def test_empty_sequence(self, objective_calls):
        assert kmax_find([]) == []
        assert kmax_find(iter(())) == []
        assert objective_calls == []

    def test_bad_cell_raises_before_any_objective_call(self, objective_calls):
        cells = table1_cells(1.0)[:5]
        cells.insert(3, PhysicalConfig(m=1.0, V0=0.5, L=0.5, a=1.0, k0=1.5))
        with pytest.raises(ZoneError, match="0 < k0 < w"):
            kmax_find(cells)
        assert objective_calls == []

    def test_one_objective_call_per_iteration(self, objective_calls):
        cells = table1_cells(1.0)
        assert len(cells) == 147
        assert sum(map(distortion_flag, cells)) == 7
        kmax_find(cells)
        # the 7 distorted cells are not searched; the other 140 are scanned in
        # chunks of 2000 // 89 = 22 cells (six of 22, one of 8), each a
        # 47-point coarse and an 89-point fine pass; the two first probes,
        # then 31 iterations: the widest bracket (wa = 20) takes 31, the
        # narrowest (wa = 1.5) 25
        assert len(objective_calls) == 47
        assert objective_calls[:14] == [22 * 47, 22 * 89] * 6 + [8 * 47, 8 * 89]
        assert max(objective_calls) == 22 * 89
        assert objective_calls[14:16] == [140, 140]
        probes = objective_calls[16:]
        assert len(probes) == 31
        assert probes[0] == 140 and probes[-1] == sum(cfg.w == 20.0 for cfg in cells)
        assert probes == sorted(probes, reverse=True)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_first_opaque_cell_is_named_across_chunks(self):
        # the undistorted cells are scanned 22 to a call and the distorted ones
        # not at all; whichever call overflows, the error names the first
        # opaque undistorted cell in input order, not the opaque distorted tail
        def cell(wa, Lba):
            return PhysicalConfig(m=1.0, V0=wa * wa / 2.0, L=Lba, a=1.0, k0=1.0)

        table = table1_cells(1.0)
        calm = [cfg for cfg in table if not distortion_flag(cfg)][:40]
        lead, tail = next(filter(distortion_flag, table)), cell(400.0, 2.0)
        assert distortion_flag(tail) and not distortion_flag(cell(350.0, 1.0))
        assert not distortion_flag(cell(1000.0, 1.0))
        for first, second in ((1000.0, 350.0), (350.0, 1000.0)):
            # the first opaque cell is the 11th undistorted one (first chunk),
            # the second the 32nd (second chunk)
            cells = ([lead, tail] + calm[:10] + [cell(first, 1.0)] + calm[10:30]
                     + [cell(second, 1.0)] + calm[30:] + [tail])
            with pytest.raises(ZoneError, match=f"w a = {first:g}, L/a = 1:"):
                kmax_find(cells)


def scan_bracket(cfg, n_scan):
    """The bracket of the full-scan argmax: its two neighbouring scan points."""
    ks = np.linspace(cfg.w * 1e-9, cfg.w * (1.0 - 1e-12), n_scan)
    i = full_scan_index(cfg, n_scan)
    return float(ks[max(i - 1, 0)]), float(ks[min(i + 1, n_scan - 1)])


_SCAN_CELL = st.builds(
    lambda w, a, k0_frac, wL: PhysicalConfig(m=1.0, V0=w * w / 2.0, L=wL / w, a=a, k0=k0_frac * w),
    st.floats(1.2, 60.0), st.floats(0.3, 3.0), st.floats(0.02, 0.98),
    st.one_of(st.just(0.0), st.floats(0.0, 8.0), st.floats(8.0, 300.0)))
_CALM_OR_DISTORTED = st.one_of(_SCAN_CELL.filter(lambda cfg: not distortion_flag(cfg)),
                               _SCAN_CELL.filter(distortion_flag))


class TestScanEquivalence:
    """The coarse-to-fine scan picks the same index as a scan of every point."""

    @staticmethod
    def check_brackets(cells):
        """Undistorted brackets are the full scan's; distorted ones are NaN."""
        found = kmax_find(cells)
        assert [result.distorted for result in found] == [distortion_flag(cfg) for cfg in cells]
        for cfg, result in zip(cells, found, strict=True):
            if result.distorted:
                assert all(map(math.isnan, result.bracket))
            else:
                assert result.bracket == scan_bracket(cfg, observables._KMAX_N_SCAN)

    def test_benchmark_cells(self):
        cells = table1_cells(1.0) + table1_cells(1.1)
        assert len(cells) == 294
        self.check_brackets(cells)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.lists(_CALM_OR_DISTORTED, min_size=1, max_size=30))
    def test_random_cells(self, cells):
        self.check_brackets(cells)


class TestSpectralMaximumOracle:
    """k_max against a 40-digit root of d log f/dk, f = g(k - k0)|T(k, L)|.

    The objective is flat to rounding at its maximum, so tol_ka = 1e-8 bounds
    the final bracket but not the error: over the 278 undistorted cells of
    both benchmark variants the error has median 1.0e-8 and worst 6.9e-8
    (the first cell below).
    """

    # (k0 a, w a, L/a step index on the 0.05 grid)
    CELLS = ((1.1, 10.0, 19), (1.0, 20.0, 17), (1.1, 20.0, 13), (1.1, 6.0, 15),
             (1.0, 4.0, 4), (1.0, 1.5, 10), (1.1, 2.0, 6), (1.0, 10.0, 1))

    def test_error_and_bracket(self):
        for k0a, wa, step in self.CELLS:
            cfg = PhysicalConfig(m=1.0, V0=wa * wa / 2.0, L=step * 0.05, a=1.0, k0=k0a)
            result = kmax_find(cfg)
            assert not result.distorted
            truth = filtered_spectrum_argmax(cfg.w, cfg.a, cfg.k0, cfg.L, *result.bracket)
            assert result.bracket[0] < truth < result.bracket[1]
            assert abs(result.k_max - truth) <= 1e-7, (k0a, wa, step)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_opaque_cells(self):
        # w^4 sinh^2(rho L) overflows from w L of about 350: there the scan
        # read |T| = 0 and returned an arbitrary point (0.50025 at w a = 1000,
        # where the argmax is 2.0027), so such a cell is refused
        cfg = PhysicalConfig(m=1.0, V0=300.0 ** 2 / 2.0, L=1.0, a=1.0, k0=1.0)
        result = kmax_find(cfg)
        truth = filtered_spectrum_argmax(cfg.w, cfg.a, cfg.k0, cfg.L, *result.bracket)
        assert truth == pytest.approx(2.0089121, abs=1e-7)
        assert abs(result.k_max - truth) <= 1e-7
        for wa in (350.0, 1000.0):
            opaque = PhysicalConfig(m=1.0, V0=wa * wa / 2.0, L=1.0, a=1.0, k0=1.0)
            with pytest.raises(ZoneError, match=f"w a = {wa:g}, L/a = 1"):
                kmax_find([cfg, opaque])


class TestSymmetricTriple:
    def test_exact_identity(self):
        wL = 4.0 * math.pi
        n = 0.5
        alpha = wL * math.sqrt(1.0 - n)
        for parity in (Parity.SYMMETRIC, Parity.ANTISYMMETRIC):
            tp = symmetric_phase_time(n, alpha, parity)
            td = symmetric_dwell(n, alpha, parity)
            ts = symmetric_self_interference(n, alpha, parity)
            assert abs(tp - td - ts) < 1e-12

    def test_dwell_quadrature_cross_check(self):
        cfg = tunnel_cfg(w=1.0, L=4.0 * math.pi, k0=math.sqrt(0.5))
        n = 0.5
        alpha = cfg.w * cfg.L * math.sqrt(1.0 - n)
        tau = cfg.m * cfg.L / cfg.k0
        for parity in (Parity.SYMMETRIC, Parity.ANTISYMMETRIC):
            closed = tau * float(symmetric_dwell(n, alpha, parity))
            quad = symmetric_dwell_quadrature(cfg, parity)
            assert quad == pytest.approx(closed, abs=1e-8 * max(1.0, abs(closed)))

    def test_small_alpha_limits(self):
        for n in (0.2, 0.5, 0.8):
            assert symmetric_phase_time(n, 1e-3, Parity.SYMMETRIC) == pytest.approx(
                1.0 + 1.0 / n, rel=1e-3)
            assert symmetric_phase_time(n, 1e-3, Parity.ANTISYMMETRIC) == pytest.approx(
                1.0, rel=1e-3)

    def test_large_alpha_decay(self):
        for parity in (Parity.SYMMETRIC, Parity.ANTISYMMETRIC):
            assert abs(symmetric_phase_time(0.5, 4000.0, parity)) < 1e-3
            assert abs(symmetric_dwell(0.5, 4000.0, parity)) < 1e-3

    def test_fermion_acceleration(self):
        assert fermion_acceleration_predicate(0.5, 4.0)
        assert fermion_acceleration_predicate(0.9, 1.0)
        ns = np.linspace(0.05, 0.95, 31)
        als = np.linspace(0.1, 30.0, 40)
        grid_n, grid_a = np.meshgrid(ns, als)
        assert fermion_acceleration_predicate(grid_n.ravel(), grid_a.ravel())

    def test_boson_not_accelerated_below_threshold(self):
        # boson acceleration needs (alpha/2) tanh(alpha/2) > 1
        ns = np.linspace(0.05, 0.95, 25)
        for alpha in np.linspace(0.1, 2.4, 25):
            if 0.5 * alpha * math.tanh(0.5 * alpha) <= 1.0:
                rates = np.asarray(symmetric_phase_time(ns, alpha, Parity.SYMMETRIC))
                assert np.all(rates >= 1.0 - 1e-12)

    def test_zone_validation(self):
        with pytest.raises(ZoneError):
            symmetric_phase_time(1.2, 1.0, Parity.SYMMETRIC)


class TestOneWayDomain:
    """The one-way rate and the shape function refuse what the symmetric triple refuses:
    alpha < 0 and NaN alpha (ValueError), and n outside their domain (ZoneError)."""

    @pytest.mark.parametrize("fn, args", [
        (nr_one_way_rate, (0.5, -1.0)),
        (nr_one_way_rate, (0.5, math.nan)),
        (nr_one_way_rate, (np.array([0.5, 0.5]), np.array([1.0, -1.0]))),
        (phase_time_shape, (-1.0,)),
        (phase_time_shape, (math.nan,)),
        (symmetric_phase_time, (0.5, math.nan, Parity.SYMMETRIC)),
        (symmetric_dwell, (0.5, math.nan, Parity.ANTISYMMETRIC)),
    ], ids=lambda v: getattr(v, "__name__", None))
    def test_negative_or_nan_alpha_refused(self, fn, args):
        with pytest.raises(ValueError, match="alpha must be >= 0"):
            fn(*args)

    @pytest.mark.parametrize("n", [1.5, 1.0 + 1e-12, -0.5, 0.0, math.nan])
    def test_n_outside_zero_one_refused(self, n):
        with pytest.raises(ZoneError, match=r"0 < n <= 1"):
            nr_one_way_rate(n, 1.0)

    @pytest.mark.parametrize("alpha", [0.0, 1e-170, 1e-160])
    def test_barrier_top_edge_has_a_number(self, alpha):
        # at n = 1 the rate is 2 p/q, 4/3 at alpha = 0, also where m = alpha^2 underflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert nr_one_way_rate(1.0, alpha) == pytest.approx(4.0 / 3.0, rel=1e-15)


class TestRelativisticPhaseTime:
    def test_finite_difference(self):
        wL = 2.0 * math.pi
        for upsilon, n_sq in ((1.0, 0.8), (5.0, 2.0), (10.0, 5.5)):
            def phi(nn_sq):
                return relativistic_transmission(nn_sq, upsilon, wL)[1]

            fd = central_difference(phi, n_sq, 1e-6)
            # t/tau = d phi / d(n) / (wL) with n = sqrt(n_sq): chain rule
            n = math.sqrt(n_sq)
            expected = fd * 2.0 * n / wL
            assert rel_phase_time(n_sq, upsilon, wL) == pytest.approx(expected, rel=1e-6)

    def test_reduces_to_one_way_rate(self):
        wL = 3.0
        for n_sq in np.linspace(0.05, 0.95, 19):
            alpha = wL * math.sqrt(1.0 - n_sq)
            assert rel_phase_time(float(n_sq), 0.0, wL) == pytest.approx(
                float(nr_one_way_rate(n_sq, alpha)), rel=1e-12)

    def test_zone_edge_closed_forms(self):
        n_lo, v_lo = rel_phase_time_zone_edge(5.0, "lower")
        assert (n_lo, v_lo) == (1.5, pytest.approx(-1.0 / 3.0, rel=1e-12))
        n_hi, v_hi = rel_phase_time_zone_edge(5.0, "upper")
        assert (n_hi, v_hi) == (3.5, pytest.approx(2.0 / 9.0, rel=1e-12))

    def test_full_formula_attains_edge_limits(self):
        # approach with rho_n wL = 1e-3 and a vanishing zone offset
        for upsilon, edge, sign in ((5.0, "lower", -1), (5.0, "upper", +1),
                                    (1.0, "upper", +1), (10.0, "lower", -1)):
            n_edge, closed = rel_phase_time_zone_edge(upsilon, edge)
            n_sq = n_edge - sign * 1e-12
            rho = math.sqrt(rho_n_squared(n_sq, upsilon))
            wL = 1e-3 / rho
            full = rel_phase_time(n_sq, upsilon, wL)
            assert full == pytest.approx(closed, rel=1e-5)
            near = rel_phase_time_near_edge(n_sq, upsilon)
            assert full == pytest.approx(near, rel=1e-5)

    def test_zone_errors(self):
        with pytest.raises(ZoneError):
            rel_phase_time(0.4, 5.0, 1.0)


class TestRelativisticDomain:
    """Every relativistic time, the transmission and the zone-edge laws refuse
    upsilon < 0 and NaN upsilon (ZoneError) and wL < 0 and NaN wL (ValueError)."""

    @pytest.mark.parametrize("fn, args", [
        (rel_phase_time, (0.1, -0.5, 1.0)),
        (relativistic_transmission, (0.1, -0.5, 1.0)),
        (rel_phase_time_near_edge, (0.1, -0.5)),
        (rel_phase_time_zone_edge, (-10.0, "upper")),
        (rel_transmission_zone_edge, (-10.0, "upper", 2.0 * math.pi)),
        (rel_dwell_zone_edge, (-10.0, "upper", 1.0)),
        (rel_dwell, (0.5, math.nan, 1.0)),
        (rel_phase_time_near_edge, (0.5, math.nan)),
        (rel_phase_time_zone_edge, (math.nan, "upper")),
    ], ids=lambda v: getattr(v, "__name__", None))
    def test_negative_or_nan_upsilon_refused(self, fn, args):
        with pytest.raises(ZoneError, match="upsilon >= 0"):
            fn(*args)

    @pytest.mark.parametrize("fn, args", [
        (rel_dwell, (0.5, 1.0, -2.0)),
        (rel_phase_time, (0.5, 1.0, math.nan)),
        (rel_transmission_zone_edge, (5.0, "upper", math.nan)),
        (rel_dwell_zone_edge, (5.0, "lower", -1.0)),
    ], ids=lambda v: getattr(v, "__name__", None))
    def test_negative_or_nan_width_refused(self, fn, args):
        with pytest.raises(ValueError, match="wL must be >= 0"):
            fn(*args)

    def test_near_edge_law_checks_the_zone(self):
        with pytest.raises(ZoneError, match="outside the relativistic tunneling zone"):
            rel_phase_time_near_edge(5.0, 1.0)

    def test_thin_barrier_limit_kept(self):
        # wL = 0 is the limit the thin-barrier values are quoted at
        assert rel_transmission_zone_edge(5.0, "upper", 0.0) == 1.0
        assert rel_dwell_zone_edge(5.0, "lower", 0.0) == (1.5, 0.25)
        assert math.isfinite(rel_phase_time(0.5, 1.0, 0.0))

    @pytest.mark.filterwarnings("error")
    def test_thin_barrier_self_interference_is_its_limit(self):
        # -Im R / (k L) is 0/0 at wL = 0; its limit is (n^2 + rho_n^2) / (2 n^2)
        assert rel_self_interference(2.5, 5.0, 0.0) == pytest.approx(0.5198039027185570, rel=1e-15)
        for n_sq, upsilon in ((2.5, 5.0), (0.5, 1.0), (1.6, 5.0), (5.5, 10.0)):
            limit = (n_sq + rho_n_squared(n_sq, upsilon)) / (2.0 * n_sq)
            assert rel_self_interference(n_sq, upsilon, 0.0) == limit
            assert rel_self_interference(n_sq, upsilon, 1e-9) == pytest.approx(limit, rel=1e-13)
        ns = np.array([1.6, 2.5, 3.4])
        assert np.array_equal(rel_self_interference(ns, 5.0, 0.0),
                              [rel_self_interference(n, 5.0, 0.0) for n in ns])

    def test_thin_barrier_residual_refused(self):
        # the identity's interior quadrature has no interior at wL = 0
        with pytest.raises(ValueError, match="wL > 0"):
            rel_variational_residual(2.5, 5.0, 0.0)


def interior_dwell_quadrature(n_sq, upsilon, wL, scaled):
    """(m/k) int |phi_2|^2 / tau by 160-node Gauss-Legendre over the interior
    field of the continuity solution, normalized by the barrier-scale
    transmission modulus when ``scaled``."""
    from tunnellab.core import evanescent_rate
    from tunnellab.stationary import kg_scatter_coeffs
    m = 1.0
    w = math.sqrt(2.0 * upsilon) * m
    cfg = PhysicalConfig(m=m, V0=upsilon, L=wL / w, a=1.0, k0=math.sqrt(n_sq) * w)
    sc = kg_scatter_coeffs(cfg.k0, cfg)
    scale = 1.0
    if scaled:
        T_scaled, _ = relativistic_transmission(n_sq, upsilon, wL)
        scale = T_scaled / abs(sc.T)
    rho = evanescent_rate(cfg.k0, cfg)
    xs, wq = np.polynomial.legendre.leggauss(160)
    xs = 0.5 * cfg.L * (xs + 1.0)
    wq = wq * 0.5 * cfg.L
    phi2 = scale * (sc.alpha_coef * np.exp(-rho * xs) + sc.beta_coef * np.exp(rho * xs))
    E = math.sqrt(cfg.k0 ** 2 + m * m)
    tau = cfg.L * E / cfg.k0
    return (m / cfg.k0) * float(np.sum(wq * np.abs(phi2) ** 2)) / tau


class TestRelativisticDwell:
    def test_always_positive(self):
        for upsilon in (1.0, 2.0, 5.0, 10.0):
            lo = max(0.5 * upsilon - 1.0, 0.0) + 1e-3
            hi = 0.5 * upsilon + 1.0 - 1e-3
            ns = np.linspace(lo, hi, 50)
            vals = np.asarray(rel_dwell(ns, upsilon, 2.0 * math.pi))
            assert np.all(vals > 0.0)

    def test_matches_scaled_interior_quadrature(self):
        upsilon, wL, n_sq = 5.0, 1.0, 2.0
        quad = interior_dwell_quadrature(n_sq, upsilon, wL, scaled=True)
        assert rel_dwell(n_sq, upsilon, wL) == pytest.approx(quad, rel=1e-10)

    def test_continuity_dwell_matches_quadrature(self):
        for n_sq, upsilon, wL in ((2.0, 5.0, 1.0), (2.0005, 5.0, 2.0 * math.pi),
                                  (0.3, 1.0, 20.0), (5.5, 10.0, 0.01)):
            quad = interior_dwell_quadrature(n_sq, upsilon, wL, scaled=False)
            assert rel_continuity_dwell(n_sq, upsilon, wL) == pytest.approx(quad, rel=1e-10)
        # opaque branch, x = rho wL > 300
        n_sq, upsilon, wL = 2.0, 5.0, 400.0
        x = math.sqrt(rho_n_squared(n_sq, upsilon)) * wL
        S = math.sqrt(1.0 + 2.0 * n_sq * upsilon)
        assert rel_continuity_dwell(n_sq, upsilon, wL) == pytest.approx(
            2.0 * n_sq / (S * (n_sq + rho_n_squared(n_sq, upsilon)) * x), rel=1e-12)
        ns = np.linspace(0.05, 0.95, 7)
        np.testing.assert_array_equal(rel_continuity_dwell(ns, 0.0, 2.0),
                                      rel_dwell(ns, 0.0, 2.0))

    def test_continuity_dwell_splits_phase_time(self):
        # closed forms only: t_phi = ((E - V0)/m) t_D + t_I, no quadrature
        # (worst 3.8e-13)
        for upsilon in (1.0, 5.0, 10.0):
            for n_sq in np.linspace(max(0.5 * upsilon - 0.9, 0.05),
                                    0.5 * upsilon + 0.9, 7):
                for wL in (0.5, 2.0 * math.pi, 20.0):
                    e_minus_v0 = math.sqrt(1.0 + 2.0 * n_sq * upsilon) - upsilon
                    split = (e_minus_v0 * rel_continuity_dwell(n_sq, upsilon, wL)
                             + rel_self_interference(float(n_sq), upsilon, wL))
                    assert float(rel_phase_time(n_sq, upsilon, wL)) == pytest.approx(
                        split, rel=1e-12)

    def test_zone_edge_curve_values(self):
        # thin barrier: 1/S, S = 2 n^2 +- 1
        assert rel_dwell_zone_edge(5.0, "lower", 1e-8) == (1.5, pytest.approx(0.25, rel=1e-12))
        assert rel_dwell_zone_edge(5.0, "upper", 1e-8) == (
            3.5, pytest.approx(1.0 / 6.0, rel=1e-12))
        # wL = 2 pi, lower edge (n^2 = 3/2): (1 + 2 pi^2)/(4 + 6 pi^2) = 0.3280605...
        assert rel_dwell_zone_edge(5.0, "lower", 2.0 * math.pi)[1] == pytest.approx(
            (1.0 + 2.0 * math.pi ** 2) / (4.0 + 6.0 * math.pi ** 2), rel=1e-14)
        # opaque barrier: 4/(3S) = |phase-time edge law|
        for edge, S in (("lower", 4.0), ("upper", 6.0)):
            opaque = rel_dwell_zone_edge(5.0, edge, 1e8)[1]
            assert opaque == pytest.approx(4.0 / (3.0 * S), rel=1e-12)
            assert opaque == pytest.approx(abs(rel_phase_time_zone_edge(5.0, edge)[1]),
                                           rel=1e-12)
        # the law against the continuity quadrature and against the identity
        # t_phi = ((E - V0)/m) t_D + t_I, 1e-9 inside each edge: the law's gap
        # is the approach term (~1e-9), the phase time's cancellation near the
        # edge (~1e-7) bounds the second check
        wL = 2.0 * math.pi
        for edge, sign in (("lower", -1), ("upper", +1)):
            n_edge, closed = rel_dwell_zone_edge(5.0, edge, wL)
            n_sq = n_edge - sign * 1e-9
            quad = interior_dwell_quadrature(n_sq, 5.0, wL, scaled=False)
            assert closed == pytest.approx(quad, rel=1e-8)
            split = sign * closed + rel_self_interference(n_sq, 5.0, wL)
            assert float(rel_phase_time(n_sq, 5.0, wL)) == pytest.approx(split, rel=1e-6)
        with pytest.raises(ZoneError):
            rel_dwell_zone_edge(1.0, "lower", wL)

    def test_rescaled_sign_flip(self):
        upsilon, wL = 5.0, 2.0 * math.pi
        flip = (upsilon ** 2 - 1.0) / (2.0 * upsilon)
        assert rel_rescaled_dwell(flip - 1e-6, upsilon, wL) < 0.0
        assert rel_rescaled_dwell(flip + 1e-6, upsilon, wL) > 0.0
        assert abs(rel_rescaled_dwell(flip, upsilon, wL)) < 1e-12
        assert rel_rescaled_dwell(2.0, upsilon, wL) == pytest.approx(
            (math.sqrt(1.0 + 2.0 * 2.0 * upsilon) - upsilon) * rel_dwell(2.0, upsilon, wL),
            rel=1e-12)

    def test_variational_identity(self):
        for upsilon in (1.0, 5.0):
            for n_sq in np.linspace(max(0.5 * upsilon - 0.9, 0.05),
                                    0.5 * upsilon + 0.9, 7):
                res = rel_variational_residual(float(n_sq), upsilon, 2.0 * math.pi)
                assert abs(res) < 1e-10


# (wL, upsilon values) of the two relativistic-times input variants of the benchmark
_REL_VARIANTS = ((2.0 * math.pi, (1.0, 2.0, 5.0, 10.0)),
                 (1.8 * math.pi, (1.5, 3.0, 6.0, 12.0)))


class TestRelativisticArrayCalls:
    @pytest.mark.parametrize("wL, upsilons", _REL_VARIANTS)
    def test_array_equals_stacked_scalars(self, wL, upsilons):
        for upsilon in upsilons:
            ns = np.linspace(max(0.5 * upsilon - 1.0, 0.0) + 1e-3,
                             0.5 * upsilon + 1.0 - 1e-3, 101)
            for fn in (rel_variational_residual, rel_self_interference):
                stacked = np.array([fn(float(n_sq), upsilon, wL) for n_sq in ns])
                np.testing.assert_array_equal(fn(ns, upsilon, wL), stacked)

    def test_field_blocks(self, monkeypatch):
        from tunnellab import observables
        ns = np.linspace(1.6, 3.4, 20)
        whole = rel_variational_residual(ns, 5.0, 2.0 * math.pi)
        monkeypatch.setattr(observables, "_FIELD_ROWS", 7)
        np.testing.assert_array_equal(rel_variational_residual(ns, 5.0, 2.0 * math.pi), whole)

    def test_scalar_call_returns_float(self):
        for fn in (rel_variational_residual, rel_self_interference):
            assert type(fn(2.0, 5.0, 2.0 * math.pi)) is float
            assert type(fn(np.float64(2.0), 5.0, 2.0 * math.pi)) is float

    def test_checks_kept(self):
        for fn in (rel_variational_residual, rel_self_interference):
            with pytest.raises(ZoneError):
                fn(np.array([2.0, 0.4]), 5.0, 1.0)
            with pytest.raises(ZoneError, match="upsilon > 0"):
                fn(np.array([0.5]), 0.0, 1.0)

    def test_nodes_built_once(self, monkeypatch):
        # the residual and the symmetric dwell read one cached node set
        from tunnellab import observables
        calls = []
        real = np.polynomial.legendre.leggauss

        def counting(n):
            calls.append(n)
            return real(n)

        observables._gauss_legendre.cache_clear()
        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
        try:
            ns = np.linspace(1.6, 3.4, 5)
            for _ in range(3):
                rel_variational_residual(ns, 5.0, 2.0 * math.pi)
                rel_variational_residual(2.0, 5.0, 1.0)
                symmetric_dwell_quadrature(tunnel_cfg(), Parity.SYMMETRIC)
                symmetric_dwell_quadrature(tunnel_cfg(), Parity.ANTISYMMETRIC)
        finally:
            observables._gauss_legendre.cache_clear()
        assert calls == [160]

    def test_cached_nodes_read_only(self):
        from tunnellab import observables
        xs, wq = observables._gauss_legendre()
        assert not xs.flags.writeable and not wq.flags.writeable
        with pytest.raises(ValueError):
            xs[0] = 0.0
        ref_xs, ref_wq = np.polynomial.legendre.leggauss(160)
        np.testing.assert_array_equal(xs, ref_xs)
        np.testing.assert_array_equal(wq, ref_wq)


class TestZoneEdgeTransmission:
    def test_closed_forms(self):
        wL = 2.0 * math.pi
        assert rel_transmission_zone_edge(5.0, "lower", wL) == pytest.approx(
            (1.0 + wL * wL / 6.0) ** -0.5, rel=1e-12)
        assert rel_transmission_zone_edge(5.0, "upper", wL) == pytest.approx(
            (1.0 + wL * wL / 14.0) ** -0.5, rel=1e-12)
        with pytest.raises(ZoneError):
            rel_transmission_zone_edge(1.0, "lower", wL)


class TestHartman:
    def test_nr_saturates_by_thirty(self):
        alphas = np.linspace(1.0, 40.0, 79)
        for n in (0.1, 0.5, 0.9):
            ratio = 0.5 * alphas * nr_one_way_rate(n, alphas)
            start = observables._saturation_start(alphas, np.abs(ratio - 1.0) < 1e-6)
            assert start is not None
            assert start <= 30.0
            assert abs(ratio[-1] - 1.0) < 1e-12

    def test_symmetric_rates_vanish(self):
        alphas = np.linspace(1.0, 500.0, 120)
        for parity in (Parity.SYMMETRIC, Parity.ANTISYMMETRIC):
            rate = symmetric_phase_time(0.5, alphas, parity)
            assert observables._saturation_start(alphas, np.abs(rate) < 1e-2) is not None
            assert abs(rate[-1]) < 1e-2

    def test_relativistic_curve_finite(self):
        grid = np.linspace(1.5 + 1e-4, 3.5 - 1e-4, 301)
        assert np.all(np.isfinite(rel_phase_time(grid, 5.0, 2.0 * math.pi)))

    @pytest.mark.parametrize("within, expected", [
        ([True, True, True, True], 1.0),       # all in band: the first value
        ([False, False, False, False], None),  # none in band
        ([True, True, True, False], None),     # only the last value out
        ([True, False, True, True], 3.0),      # back in band after an excursion
        ([], None),                            # empty sweep
    ])
    def test_saturation_start_cases(self, within, expected):
        parameter = np.arange(1.0, 1.0 + len(within))
        assert observables._saturation_start(parameter, np.array(within, dtype=bool)) == expected

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.booleans(), max_size=12))
    def test_saturation_start_is_first_index_of_an_in_band_tail(self, within):
        parameter = np.linspace(0.5, 7.0, len(within))
        tails = [i for i in range(len(within)) if all(within[i:])]
        expected = float(parameter[tails[0]]) if tails else None
        assert observables._saturation_start(parameter, np.array(within, dtype=bool)) == expected


class TestNrTransmissionMag:
    def test_stable_at_barrier_top(self):
        w, L = 1.0, 2.0
        edge = nr_transmission_mag(w * (1.0 - 1e-13), w, L)
        assert edge == pytest.approx((1.0 + (w * L / 2.0) ** 2) ** -0.5, rel=1e-9)

    def test_matches_amplitude(self):
        cfg = tunnel_cfg(L=1.3)
        ks = np.linspace(0.05, 0.95, 10)
        mags = nr_transmission_mag(ks, cfg.w, cfg.L)
        exact = np.abs(tunnel_amplitude_nr(ks, cfg).T)
        assert np.allclose(mags, exact, rtol=1e-12)

    def test_above_barrier_and_nan_refused(self):
        # the series branch x^2 < 1e-12 once caught every k > w: |T| read 1.0 at k = 2w
        # and 1.024 at k = 3w, where the above-barrier |T| is 0.990 and 0.99984
        for k in (2.0, 3.0, 1.0 + 1e-12, math.nan, np.array([0.5, 2.0]), np.array([0.5, math.nan])):
            with pytest.raises(ZoneError, match="k <= w"):
                nr_transmission_mag(k, 1.0, 1.0)
        assert nr_transmission_mag(1.0, 1.0, 1.0) == pytest.approx(0.8 ** 0.5, rel=1e-15)
