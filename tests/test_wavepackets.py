import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oracles import direct_spectral_sum, trapezoid_norm

from tunnellab import lab, wavepackets
from tunnellab.core import GaussianSpectrum, PhysicalConfig, ZoneError
from tunnellab.stationary import above_barrier_coeffs, tunnel_amplitude_nr
from tunnellab.wavepackets import (
    _chirp_sum,
    _fft_size,
    SpatialGrid,
    WaveField,
    field_norm,
    field_peak,
    free_gaussian,
    free_gaussian_peak,
    multipeak_partial_sum_field,
    propagate_component,
    propagate_components,
    propagate_tunnel_transmitted,
    series_validity,
    spm_peak_prediction,
)


def free_cfg(**kw):
    base = dict(m=1.0, V0=1.0, L=0.0, a=1.0, k0=2.0, x0=-3.0)
    base.update(kw)
    return PhysicalConfig(**base)


def scatter_cfg(wa=500.0, k0_over_w=math.sqrt(10.0) / 3.0, L_over_a=5.0):
    a = 1.0
    w = wa / a
    k0 = k0_over_w * w
    q0 = math.sqrt(k0 * k0 - w * w)
    x0 = -k0 * L_over_a * a / (2.0 * q0) if L_over_a > 0 else -5.0 * a
    return PhysicalConfig.above_barrier(m=1.0, V0=w * w / 2.0, L=L_over_a * a,
                                        a=a, k0=k0, x0=x0)


def bounce_term(tag, n, grid, t, cfg):
    """Term n of the bounce series: the partial sum of n terms less that of n - 1."""
    total = multipeak_partial_sum_field(tag, n, grid, t, cfg)
    if n == 1:
        return total
    less = multipeak_partial_sum_field(tag, n - 1, grid, t, cfg)
    if isinstance(total, WaveField):
        return dataclasses.replace(total, values=total.values - less.values)
    return [dataclasses.replace(f, values=f.values - g.values) for f, g in zip(total, less)]


def quadrature(monkeypatch, tol=wavepackets._QUAD_TOL, n_k=wavepackets._QUAD_N_K,
               max_n_k=wavepackets._QUAD_MAX_N_K):
    """Set the refinement constants that every quadrature reads at its call."""
    for name, value in (("_QUAD_TOL", tol), ("_QUAD_N_K", n_k), ("_QUAD_MAX_N_K", max_n_k)):
        monkeypatch.setattr(wavepackets, name, value)


class TestGrid:
    def test_spacing(self):
        g = SpatialGrid(-1.0, 1.0, 201)
        assert g.spacing == pytest.approx(0.01)
        assert g.x[0] == -1.0 and g.x[-1] == 1.0

    def test_points_are_computed_once_and_read_only(self):
        g = SpatialGrid(-1.0, 1.0, 201)
        assert g.x is g.x and not g.x.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            g.x[0] = 0.0
        assert np.array_equal(g.x, np.linspace(-1.0, 1.0, 201))

    def test_validation(self):
        with pytest.raises(ValueError):
            SpatialGrid(0.0, 1.0, 1)
        with pytest.raises(ValueError):
            SpatialGrid(1.0, 1.0, 10)


class TestFreeGaussian:
    def test_peak_modulus_at_origin(self):
        cfg = free_cfg()
        value = free_gaussian(cfg.x0, 0.0, cfg)
        assert abs(value) == pytest.approx((math.pi * cfg.a ** 2 / 2.0) ** -0.25, rel=1e-14)

    def test_ballistic_trajectory(self):
        cfg = free_cfg()
        for t in (0.0, 0.7, 2.5):
            center = free_gaussian_peak(t, cfg)
            assert center == pytest.approx(cfg.x0 + cfg.k0 * t / cfg.m, rel=1e-15)
            grid = SpatialGrid(center - 10.0, center + 10.0, 4001)
            dens = np.abs(free_gaussian(grid.x, t, cfg)) ** 2
            assert grid.x[int(np.argmax(dens))] == pytest.approx(center, abs=2 * grid.spacing)

    def test_norm_late_time(self):
        cfg = free_cfg()
        t = 5.0 * cfg.m * cfg.a ** 2
        spread = cfg.a * math.sqrt(1.0 + (2.0 * t / (cfg.m * cfg.a ** 2)) ** 2)
        center = free_gaussian_peak(t, cfg)
        xs = np.linspace(center - 12.0 * spread, center + 12.0 * spread, 20001)
        norm = trapezoid_norm(np.abs(free_gaussian(xs, t, cfg)) ** 2, xs)
        assert norm == pytest.approx(1.0, abs=1e-8)


class TestFieldHelpers:
    def test_zero_field_degenerate(self):
        grid = SpatialGrid(-1.0, 1.0, 51)
        fld = WaveField(grid=grid, values=np.zeros(51, complex), t=0.0, component_tag="zero")
        assert field_norm(fld) == 0.0
        pk = field_peak(fld)
        assert pk.x == grid.x_min and pk.density == 0.0

    def test_free_packet_norm_and_peak(self):
        cfg = free_cfg()
        grid = SpatialGrid(cfg.x0 - 12.0, cfg.x0 + 12.0, 8001)
        fld = WaveField(grid=grid, values=np.asarray(free_gaussian(grid.x, 0.0, cfg)),
                        t=0.0, component_tag="free")
        assert field_norm(fld) == pytest.approx(1.0, abs=1e-8)
        assert field_peak(fld).x == pytest.approx(cfg.x0, abs=grid.spacing)


class TestPropagation:
    def test_incident_matches_free_packet(self):
        cfg = scatter_cfg()
        t = 0.2 * cfg.m * abs(cfg.x0) / cfg.k0
        grid = SpatialGrid(cfg.x0 - 8.0 * cfg.a, min(cfg.x0 + 8.0 * cfg.a, 0.0), 1201)
        fld = propagate_component("incident", grid, t, cfg)
        exact = free_gaussian(grid.x, t, cfg)
        assert np.max(np.abs(fld.values - exact)) < 1e-6

    def test_determinism(self):
        cfg = scatter_cfg()
        grid = SpatialGrid(-20.0, 0.0, 301)
        a = propagate_component("reflected", grid, 1e-3, cfg)
        b = propagate_component("reflected", grid, 1e-3, cfg)
        assert np.array_equal(a.values, b.values)

    def test_region_mismatch_rejected(self):
        cfg = scatter_cfg()
        with pytest.raises(ValueError, match="region"):
            propagate_component("reflected", SpatialGrid(1.0, 2.0, 11), 0.0, cfg)
        with pytest.raises(ValueError, match="region"):
            propagate_component("transmitted", SpatialGrid(-2.0, -1.0, 11), 0.0, cfg)
        with pytest.raises(ValueError):
            propagate_component("nonsense", SpatialGrid(-2.0, -1.0, 11), 0.0, cfg)

    def test_probability_conservation(self):
        cfg = scatter_cfg(wa=500.0)
        q0 = math.sqrt(cfg.k0 ** 2 - cfg.w ** 2)
        # domains wide enough to hold every bounce peak at the latest snapshot
        span = (5.0 * (cfg.k0 / q0) * cfg.L + abs(cfg.x0) + 14.0 * cfg.a)
        times = [n * cfg.m * cfg.L / q0 for n in (0, 2, 5)]
        gI = SpatialGrid(-span, 0.0, 6001)
        gII = SpatialGrid(0.0, cfg.L, 1001)
        gIII = SpatialGrid(cfg.L, cfg.L + span, 6001)
        inc = propagate_component("incident", gI, times, cfg)
        ref = propagate_component("reflected", gI, times, cfg)
        al = propagate_component("alpha", gII, times, cfg)
        be = propagate_component("beta", gII, times, cfg)
        tr = propagate_component("transmitted", gIII, times, cfg)
        for i in range(len(times)):
            total = 0.0
            total += trapezoid_norm(np.abs(inc[i].values + ref[i].values) ** 2, gI.x)
            total += trapezoid_norm(np.abs(al[i].values + be[i].values) ** 2, gII.x)
            total += trapezoid_norm(np.abs(tr[i].values) ** 2, gIII.x)
            assert total == pytest.approx(1.0, abs=1e-4)

    def test_resonant_transmission_norm(self):
        # q0 L = pi: |T(k0)| = 1 and a narrow spectrum transmits essentially fully
        a = 1.0
        w = 2000.0
        k0 = math.sqrt(10.0) / 3.0 * w
        q0 = math.sqrt(k0 * k0 - w * w)
        L = math.pi / q0
        cfg = PhysicalConfig.above_barrier(m=1.0, V0=w * w / 2.0, L=L, a=a, k0=k0,
                                           x0=-5.0 * a)
        t_late = (abs(cfg.x0) + cfg.L + 25.0 * a) * cfg.m / cfg.k0
        grid = SpatialGrid(cfg.L, cfg.L + 60.0 * a, 4001)
        tr = propagate_component("transmitted", grid, t_late, cfg)
        norm = trapezoid_norm(tr.density(), grid.x)
        assert norm == pytest.approx(1.0, abs=2e-3)

    def test_zero_width_bypass(self):
        cfg = PhysicalConfig.above_barrier(m=1.0, V0=0.5, L=0.0, a=1.0, k0=5.0, x0=-4.0)
        grid = SpatialGrid(-12.0, 0.0, 801)
        inc = propagate_component("incident", grid, 0.1, cfg)
        assert np.allclose(inc.values, free_gaussian(grid.x, 0.1, cfg), atol=1e-14)
        assert inc.n_k is None and inc.converged    # closed form, no quadrature
        ref = propagate_component("reflected", grid, 0.1, cfg)
        assert np.all(ref.values == 0.0)
        with pytest.raises(ValueError, match="interior"):
            propagate_component("alpha", SpatialGrid(-1e-12, 1e-12, 3), 0.1, cfg)

    def test_peak_tracks_naive_prediction(self):
        # for the incident packet the quadrature peak follows the
        # stationary-phase prediction within a grid spacing
        cfg = scatter_cfg(wa=500.0)
        for frac in (0.1, 0.45):
            t = frac * cfg.m * abs(cfg.x0) / cfg.k0
            x_pred = spm_peak_prediction("incident", t, cfg)
            grid = SpatialGrid(x_pred - 6.0 * cfg.a, min(x_pred + 6.0 * cfg.a, 0.0), 2401)
            fld = propagate_component("incident", grid, t, cfg)
            assert field_peak(fld).x == pytest.approx(x_pred, abs=grid.spacing)

    def test_series_matches_quadrature_in_valid_regime(self):
        # all five channels agree once the validity bound holds
        cfg = scatter_cfg(wa=1.0e4, k0_over_w=5.0 * math.sqrt(2.0) / 7.0, L_over_a=0.3)
        assert series_validity(cfg).valid
        q0 = math.sqrt(cfg.k0 ** 2 - cfg.w ** 2)
        grids = {
            "reflected": SpatialGrid(-20.0 * cfg.a, 0.0, 1601),
            "alpha": SpatialGrid(0.0, cfg.L, 301),
            "beta": SpatialGrid(0.0, cfg.L, 301),
            "transmitted": SpatialGrid(cfg.L, cfg.L + 20.0 * cfg.a, 1601),
        }
        peak = 0.0
        diffs = {}
        times = [n * cfg.m * cfg.L / q0 for n in (1, 3, 5)]
        for tag, grid in grids.items():
            for t, num in zip(times, propagate_component(tag, grid, times, cfg)):
                ana = multipeak_partial_sum_field(tag, 3, grid, t, cfg)
                peak = max(peak, float(num.density().max()))
                diffs[tag] = max(diffs.get(tag, 0.0),
                                 float(np.max(np.abs(num.density() - ana.density()))))
        for tag, diff in diffs.items():
            assert diff < 1e-3 * peak, (tag, diff / peak)

    def test_tunnel_transmitted_runs(self):
        cfg = PhysicalConfig.tunneling(m=1.0, V0=50.0, L=0.1, a=1.0, k0=5.0, x0=-6.0)
        t_late = (abs(cfg.x0) + 15.0) * cfg.m / cfg.k0
        grid = SpatialGrid(cfg.L / 2.0, cfg.L / 2.0 + 40.0, 2001)
        fld = propagate_tunnel_transmitted(grid, t_late, cfg)
        norm = trapezoid_norm(fld.density(), grid.x)
        # transmitted probability is bounded by the filtered spectrum weight
        assert 0.0 < norm < 1.0
        ks = np.linspace(1e-3, cfg.w * (1 - 1e-9), 4001)
        g2 = np.sqrt(cfg.a ** 2 / (2.0 * np.pi)) * np.exp(-cfg.a ** 2 * (ks - cfg.k0) ** 2 / 2.0)
        expected = np.trapezoid(g2 * np.abs(tunnel_amplitude_nr(ks, cfg).T) ** 2, ks)
        assert norm == pytest.approx(expected, rel=2e-2)

    def test_tunnel_transmitted_of_an_opaque_barrier(self):
        # w = 200, L = 8: rho L is about 1600 over the whole window, past cosh's
        # overflow at 710; the transmitted amplitude underflows to 0 instead
        cfg = PhysicalConfig.tunneling(m=1.0, V0=200.0 ** 2 / 2.0, L=8.0, a=1.0, k0=1.0,
                                       x0=-8.0)
        grid = SpatialGrid(cfg.L / 2.0, cfg.L / 2.0 + 40.0, 601)
        fld = propagate_tunnel_transmitted(grid, 8.0, cfg)
        assert np.all(np.isfinite(fld.values))
        assert fld.converged
        assert np.max(fld.density()) == 0.0


class TestMultipeakSeries:
    def test_first_transmitted_peak_delay(self):
        # the first transmitted peak crosses x = L one transit time m L/q0
        # after the incident peak reaches x = 0
        cfg = scatter_cfg(wa=500.0)
        q0 = math.sqrt(cfg.k0 ** 2 - cfg.w ** 2)
        t_inc0 = -cfg.x0 * cfg.m / cfg.k0
        transit = cfg.m * cfg.L / q0
        grid = SpatialGrid(cfg.L, cfg.L + 40.0 * cfg.a, 8001)
        fld = bounce_term("transmitted", 1, grid, t_inc0 + transit, cfg)
        assert field_peak(fld).x == pytest.approx(cfg.L, abs=0.02 * cfg.a)

    def test_successive_peaks_one_round_trip_apart(self):
        cfg = scatter_cfg(wa=500.0)
        q0 = math.sqrt(cfg.k0 ** 2 - cfg.w ** 2)
        round_trip = 2.0 * (cfg.k0 / q0) * cfg.L
        t = 6.0 * cfg.m * cfg.L / q0
        grid = SpatialGrid(cfg.L, cfg.L + 80.0 * cfg.a, 16001)
        x1 = field_peak(bounce_term("transmitted", 1, grid, t, cfg)).x
        x2 = field_peak(bounce_term("transmitted", 2, grid, t, cfg)).x
        assert x1 - x2 == pytest.approx(round_trip, abs=0.03 * cfg.a)

    def test_partial_sum_is_sum_of_terms(self):
        cfg = scatter_cfg(wa=500.0)
        grid = SpatialGrid(-40.0, 0.0, 501)
        t = 2.0 * cfg.m * cfg.L / math.sqrt(cfg.k0 ** 2 - cfg.w ** 2)
        total = multipeak_partial_sum_field("reflected", 3, grid, t, cfg)
        basics = wavepackets._series_basics(cfg)
        acc = sum(wavepackets._bounce_term("reflected", n, grid.x, np.array([t]), cfg, basics)[0]
                  for n in (1, 2, 3))
        assert np.allclose(total.values, acc, atol=1e-15)

    def test_term_index_validated(self):
        cfg = scatter_cfg()
        with pytest.raises(ValueError, match="at least one term"):
            multipeak_partial_sum_field("reflected", 0, SpatialGrid(-1.0, 0.0, 11), 0.0, cfg)


class TestSeriesValidity:
    def test_zero_width_always_valid(self):
        rep = series_validity(scatter_cfg(L_over_a=0.0))
        assert rep.valid and rep.margin == pytest.approx(math.pi)

    def test_direct_inequality(self):
        # k0/q0 = 2, L = 2a: product 4 > pi -> invalid
        a = 1.0
        k0_over_w = 2.0 / math.sqrt(3.0)
        cfg = scatter_cfg(wa=100.0, k0_over_w=k0_over_w, L_over_a=2.0)
        rep = series_validity(cfg)
        assert not rep.valid
        assert rep.margin == pytest.approx(math.pi - 4.0, rel=1e-9)

    def test_confrontation_configuration_value(self):
        # L = 0.8 a, k0 = (5 sqrt2/7) w: k0/q0 = sqrt(50), product 4 sqrt2 > pi.
        # The bound is conservative: the reflected/transmitted series still
        # match the quadrature there (see acceptance), but the flag is honest.
        cfg = scatter_cfg(wa=1.0e4, k0_over_w=5.0 * math.sqrt(2.0) / 7.0, L_over_a=0.8)
        rep = series_validity(cfg)
        assert rep.margin == pytest.approx(math.pi - 4.0 * math.sqrt(2.0), rel=1e-12)
        assert not rep.valid

    def test_zone_error_below_barrier(self):
        cfg = PhysicalConfig.tunneling(m=1.0, V0=0.5, L=1.0, a=1.0, k0=0.5)
        with pytest.raises(ZoneError):
            series_validity(cfg)


class TestSpmPredictions:
    def test_incident_tracks_free_packet(self):
        cfg = free_cfg()
        for t in (0.0, 1.0, 3.0):
            x = spm_peak_prediction("incident", t, cfg)
            assert x == pytest.approx(free_gaussian_peak(t, cfg), rel=1e-14)
            grid = SpatialGrid(x - 8.0, x + 8.0, 4001)
            fld = WaveField(grid=grid, values=np.asarray(free_gaussian(grid.x, t, cfg)),
                            t=t, component_tag="free")
            assert field_peak(fld).x == pytest.approx(x, abs=grid.spacing)

    def test_alpha_appearance_times_at_resonances(self):
        # q0 L = n pi: the interior wave "appears" at x = 0 after the incident
        # peak; q0 L = (n + 1/2) pi: before it (the single-peak reading's flaw)
        a = 1.0
        w = 40.0
        for cycles, positive in ((4.0, True), (4.5, False)):
            q0 = cycles * math.pi / (2.0 * a)
            k0 = math.sqrt(q0 ** 2 + w ** 2)
            cfg = PhysicalConfig.above_barrier(m=1.0, V0=w * w / 2.0, L=2.0 * a,
                                               a=a, k0=k0, x0=0.0)
            from tunnellab.observables import naive_above_barrier_times
            t_alpha0 = naive_above_barrier_times(cfg, 0.0).alpha
            assert (t_alpha0 > 0) == positive
            expected = (cfg.m * cfg.L / q0) * (k0 - q0) ** 2
            expected /= (2.0 * k0 * q0) if positive else -(k0 ** 2 + q0 ** 2)
            assert t_alpha0 == pytest.approx(expected, rel=1e-10)


class TestQuadratureConvergence:
    def test_doubling_changes_little(self, monkeypatch):
        cfg = scatter_cfg(wa=500.0)
        grid = SpatialGrid(-30.0, 0.0, 401)
        t = 3.0 * cfg.m * cfg.L / math.sqrt(cfg.k0 ** 2 - cfg.w ** 2)
        # the refinement loop stops when this is already < 1e-6
        converged = propagate_component("reflected", grid, t, cfg)
        quadrature(monkeypatch, n_k=2 * 2049 - 1, max_n_k=2 * 2049 - 1)
        finer = propagate_component("reflected", grid, t, cfg)
        assert finer.n_k == 4097
        assert np.max(np.abs(converged.values - finer.values)) < 1e-6


def _five_smooth(n):
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


class TestChirpKernel:
    # 513 + 613 - 1 = 1125 = 3^2 5^3: the FFT length with no slack for wrap-around
    @pytest.mark.parametrize("n_k, n_x", [(16385, 51), (513, 4001), (513, 613)])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("x_min, x_max", [(-60.0, 0.0), (0.0, 60.0)])
    def test_matches_direct_sum(self, n_k, n_x, sign, x_min, x_max):
        # a spreading packet at k ~ 1.01e4 with its peak inside the grid: the
        # phases k x reach 6e5, the size they have in the confrontation scenario
        lo, hi = 10094.0, 10110.0
        dk = (hi - lo) / (n_k - 1)
        ks = lo + dk * np.arange(n_k)
        dx = (x_max - x_min) / (n_x - 1)
        xs = x_min + dx * np.arange(n_x)
        x_peak = 0.5 * (x_min + x_max)
        amp = dk * np.exp(-(ks - 10102.0) ** 2 / 4.0
                          - 1j * (5e-4 * ks * ks + sign * ks * x_peak))
        ref = direct_spectral_sum(amp, ks, xs, sign)
        got = _chirp_sum(amp, lo, dk, xs, dx, sign)
        assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))

    @given(st.integers(1, 40000))
    @example(1125)
    def test_fft_length_is_the_smallest_five_smooth_one(self, n):
        size = _fft_size(n)
        assert size >= n and _five_smooth(size)
        assert not any(_five_smooth(m) for m in range(n, size))


class TestRunRecord:
    def test_converged_field_reports_its_grid(self):
        cfg = scatter_cfg(wa=500.0)
        fld = propagate_component("reflected", SpatialGrid(-30.0, 0.0, 401), 1e-3, cfg)
        assert fld.converged and fld.n_k in (1025, 2049, 4097, 8193, 16385)

    def test_unconverged_field_says_so(self, monkeypatch):
        cfg = scatter_cfg(wa=500.0)
        grid = SpatialGrid(-30.0, 0.0, 401)
        quadrature(monkeypatch, tol=1e-300, max_n_k=1025)
        capped = propagate_component("reflected", grid, 1e-3, cfg)
        assert (capped.n_k, capped.converged) == (1025, False)
        quadrature(monkeypatch, n_k=513, max_n_k=513)
        unrefined = propagate_component("reflected", grid, 1e-3, cfg)
        assert (unrefined.n_k, unrefined.converged) == (513, False)

    def test_nested_refinement_is_the_finer_trapezoid(self, monkeypatch):
        # 513 nodes refined once by midpoints give the 1025-node rule itself
        cfg = scatter_cfg(wa=500.0)
        grid = SpatialGrid(0.0, cfg.L, 101)
        for tag in ("alpha", "beta"):
            quadrature(monkeypatch, tol=1e-300, max_n_k=1025)
            nested = propagate_component(tag, grid, 1e-3, cfg)
            quadrature(monkeypatch, n_k=1025, max_n_k=1025)
            direct = propagate_component(tag, grid, 1e-3, cfg)
            assert (nested.n_k, direct.n_k) == (1025, 1025)
            assert np.max(np.abs(nested.values - direct.values)) < 1e-12


def _same_fields(batch, singles):
    for got, want in zip(batch, singles, strict=True):
        assert np.array_equal(got.values, want.values)
        assert (got.t, got.n_k, got.converged) == (want.t, want.n_k, want.converged)


class TestTimeBatches:
    """A sequence of times is one quadrature whose rows equal single-time calls.

    The batched FFTs run row by row in pocketfft, so the rows are bit-identical
    to one-row calls; the assertions are exact.
    """

    TIMES = (0.0, 0.03, 0.3, 1.0, 3.0)    # rows stop at 1025 to 4097 nodes

    @pytest.mark.parametrize("tag, tol", [("incident", 1e-9), ("reflected", 1e-6),
                                          ("alpha", 1e-6), ("beta", 1e-6),
                                          ("transmitted", 1e-6)])
    def test_rows_equal_single_calls(self, tag, tol, monkeypatch):
        cfg = scatter_cfg(wa=500.0)
        region = {"alpha": (0.0, cfg.L, 51), "beta": (0.0, cfg.L, 51),
                  "transmitted": (cfg.L, cfg.L + 30.0, 201)}.get(tag, (-30.0, 0.0, 201))
        grid = SpatialGrid(*region)
        quadrature(monkeypatch, tol=tol)
        batch = propagate_component(tag, grid, list(self.TIMES), cfg)
        _same_fields(batch, [propagate_component(tag, grid, t, cfg) for t in self.TIMES])
        assert len({f.n_k for f in batch}) > 1 and all(f.converged for f in batch)
        quadrature(monkeypatch, tol=1e-300, max_n_k=1025)
        capped = propagate_component(tag, grid, self.TIMES, cfg)
        _same_fields(capped, [propagate_component(tag, grid, t, cfg) for t in self.TIMES])
        assert {(f.n_k, f.converged) for f in capped} == {(1025, False)}

    def test_zero_width_rows(self):
        cfg = PhysicalConfig.above_barrier(m=1.0, V0=0.5, L=0.0, a=1.0, k0=5.0, x0=-4.0)
        grid = SpatialGrid(-12.0, 0.0, 201)
        for tag in ("incident", "reflected"):
            batch = propagate_component(tag, grid, np.array(self.TIMES), cfg)
            _same_fields(batch, [propagate_component(tag, grid, t, cfg) for t in self.TIMES])
        assert propagate_component("incident", grid, [], cfg) == []

    def test_tunnel_rows_equal_single_calls(self):
        # the benchmark's tunnel cells: k0 a = 1, L/a = 0.3, 601 points over 40 a
        levels = set()
        for wa in (4.0, 6.0, 10.0):
            cfg = PhysicalConfig.tunneling(m=1.0, V0=wa * wa / 2.0, L=0.3, a=1.0, k0=1.0,
                                           x0=-8.0)
            grid = SpatialGrid(0.15, 40.15, 601)
            batch = propagate_tunnel_transmitted(grid, (8.0, 14.0), cfg)
            _same_fields(batch, [propagate_tunnel_transmitted(grid, t, cfg) for t in (8.0, 14.0)])
            levels |= {f.n_k for f in batch}
        assert levels == {1025, 2049, 4097}

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("call", [
        lambda g, t, cfg: propagate_components({"reflected": g}, t, cfg),
        lambda g, t, cfg: propagate_component("reflected", g, t, cfg),
        lambda g, t, cfg: propagate_tunnel_transmitted(SpatialGrid(cfg.L, 10.0, 11), t,
                                                       dataclasses.replace(cfg, k0=0.5 * cfg.w)),
        lambda g, t, cfg: multipeak_partial_sum_field("reflected", 2, g, t, cfg),
    ], ids=["components", "component", "tunnel", "series"])
    def test_nonfinite_times_refused(self, call, bad):
        # a NaN or infinite time refined every row to 16385 nodes and returned NaN
        cfg, grid = scatter_cfg(wa=500.0), SpatialGrid(-10.0, 0.0, 11)
        for t in (bad, [0.0, bad], -bad):
            with pytest.raises(ValueError, match="times must be finite"):
                call(grid, t, cfg)

    def test_work_is_shared_across_times(self, monkeypatch):
        # one call over reflected and transmitted: per refinement level one
        # coefficient call for both, and one FFT and one inverse FFT of each
        # component's block; one FFT of each component's chirp per distinct
        # spacing, as the first midpoint level sums on the spacing of the first
        counts = {"coeffs": 0, "fft": 0, "ifft": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(wavepackets, "above_barrier_coeffs",
                            counted("coeffs", above_barrier_coeffs))
        monkeypatch.setattr(np.fft, "fft", counted("fft", np.fft.fft))
        monkeypatch.setattr(np.fft, "ifft", counted("ifft", np.fft.ifft))
        cfg = scatter_cfg(wa=500.0)
        times = [*self.TIMES, 0.1]
        grids = {"reflected": SpatialGrid(-30.0, 0.0, 201),
                 "transmitted": SpatialGrid(cfg.L, cfg.L + 30.0, 201)}
        batch = propagate_components(grids, times, cfg)
        levels = {tag: [1 + int(math.log2((f.n_k - 1) // 512)) for f in fields]
                  for tag, fields in batch.items()}
        summed = [max(rows) for rows in levels.values()]
        assert counts == {"coeffs": max(summed), "fft": sum(2 * n - 1 for n in summed),
                          "ifft": sum(summed)}
        assert max(summed) < sum(summed) < sum(map(sum, levels.values()))   # per component, time

    def test_memory_does_not_grow_with_the_times(self, monkeypatch):
        # 8 rows per chunk: the blocks of 200 times at once would peak near 14 MiB
        budget = 1 << 18
        monkeypatch.setattr(wavepackets, "_BLOCK_BUDGET", budget)
        cfg = scatter_cfg(wa=500.0)
        grid = SpatialGrid(-30.0, 0.0, 101)
        times = np.linspace(0.0, 0.3, 200)
        tracemalloc.start()
        try:
            batch = propagate_component("reflected", grid, times, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * budget * np.dtype(complex).itemsize
        _same_fields(batch[::67], [propagate_component("reflected", grid, t, cfg)
                                   for t in times[::67]])


class TestSeriesBatches:
    """A sequence of times gives the bounce terms and partial sums of one-time calls, exactly."""

    TIMES = (0.0, 0.015, 0.03, 0.09, 0.3)     # 0 to 10 one-way transits m L / q0

    @staticmethod
    def grid(tag, cfg):
        return {"alpha": SpatialGrid(0.0, cfg.L, 101), "beta": SpatialGrid(0.0, cfg.L, 101),
                "transmitted": SpatialGrid(cfg.L, cfg.L + 40.0, 301)}.get(
                    tag, SpatialGrid(-40.0, 0.0, 301))

    @pytest.mark.parametrize("tag", wavepackets.COMPONENT_TAGS)
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("series", [bounce_term, multipeak_partial_sum_field],
                             ids=["term", "partial-sum"])
    def test_rows_equal_one_time_calls(self, series, n, tag):
        cfg = scatter_cfg(wa=500.0)
        grid = self.grid(tag, cfg)
        batch = series(tag, n, grid, list(self.TIMES), cfg)
        singles = [series(tag, n, grid, t, cfg) for t in self.TIMES]
        _same_fields(batch, singles)
        assert {f.component_tag for f in batch} == {singles[0].component_tag}
        (first,) = series(tag, n, grid, [0.0], cfg)
        _same_fields([first], [series(tag, n, grid, 0, cfg)])
        assert isinstance(singles[0], WaveField) and singles[0].t == 0.0

    def test_memory_does_not_grow_with_the_times(self, monkeypatch):
        # 13 rows per block; the arrays of 400 times at once peak near 3.9 MB
        budget = 1 << 12
        monkeypatch.setattr(wavepackets, "_BLOCK_BUDGET", budget)
        cfg = scatter_cfg(wa=500.0)
        grid = self.grid("transmitted", cfg)
        times = np.linspace(0.0, 0.3, 400)
        tracemalloc.start()
        try:
            batch = multipeak_partial_sum_field("transmitted", 3, grid, times, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        itemsize = np.dtype(complex).itemsize
        assert peak < (times.size * grid.n_points + 16 * budget) * itemsize
        _same_fields(batch[::133], [multipeak_partial_sum_field("transmitted", 3, grid, t, cfg)
                                    for t in times[::133]])


class TestComponentBatches:
    """One propagate_components call is one quadrature per momentum variable;
    each component's fields equal those of a call for it alone, bit for bit."""

    @staticmethod
    def case(name):
        if name == "confront":
            config = lab.scenario_defaults("confront")
            cfg, q0 = lab._above_barrier_cfg(config)
            return (cfg, lab._bounce_regions(cfg, q0, config, 20.0, 51),
                    lab._snapshot_times(cfg, q0, config["n_snapshots"]))
        # D2's zone edge: the components stop at 2049 to 16385 nodes; incident's first row
        # and reflected's last stop at 8193, so each refines a different subset of rows
        cfg = PhysicalConfig(m=1.0, V0=12.5, L=1.0, a=1.0, k0=5.25, x0=-10.0)
        outer = SpatialGrid(-20.0, 0.0, 201)
        return (cfg, {"incident": outer, "reflected": outer, "alpha": SpatialGrid(0.0, 1.0, 51),
                      "beta": SpatialGrid(0.0, 1.0, 51),
                      "transmitted": SpatialGrid(1.0, 21.0, 201)}, [1.0, 1.5, 2.0, 2.5, 3.0])

    @pytest.mark.parametrize("name", ["confront", "zone-edge"])
    def test_a_batch_is_a_view(self, name):
        cfg, grids, times = self.case(name)
        batch = propagate_components(grids, times, cfg)
        assert list(batch) == list(grids)
        for tag, grid in grids.items():
            _same_fields(batch[tag], propagate_component(tag, grid, times, cfg))
        assert len({f.n_k for fields in batch.values() for f in fields}) > 1

    def test_a_subset_equals_single_time_calls(self):
        cfg, grids, times = self.case("zone-edge")
        subset = {tag: grids[tag] for tag in ("transmitted", "beta", "reflected")}
        batch = propagate_components(subset, times, cfg)
        assert list(batch) == list(subset)
        for tag, fields in batch.items():
            _same_fields(fields, [propagate_component(tag, subset[tag], t, cfg) for t in times])
        assert len({f.n_k for f in batch["reflected"]}) > 1
        (single,) = propagate_components({"beta": grids["beta"]}, 2.0, cfg).values()
        assert isinstance(single, WaveField) and single.component_tag == "beta"

    def test_a_confront_pass_evaluates_each_level_once(self, monkeypatch):
        # incident stops at 1025 nodes, the others at 2049: 3 levels over k and 3 over q,
        # where one call per component made 14 packet and 12 coefficient evaluations
        counts = {"packet": 0, "coeffs": 0, "fft": 0, "ifft": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(wavepackets, "_packet", counted("packet", wavepackets._packet))
        monkeypatch.setattr(wavepackets, "above_barrier_coeffs",
                            counted("coeffs", above_barrier_coeffs))
        monkeypatch.setattr(np.fft, "fft", counted("fft", np.fft.fft))
        monkeypatch.setattr(np.fft, "ifft", counted("ifft", np.fft.ifft))
        cfg, grids, times = self.case("confront")
        propagate_components(grids, times, cfg)
        assert (counts["packet"], counts["coeffs"], counts["ifft"]) == (6, 6, 14)
        # one chirp FFT per component and spacing, 1 + 2 + 2 + 2 + 2, not one per block
        assert counts["fft"] - counts["ifft"] == 9


class TestQuadratureOptions:
    """The refinement settings are module constants (docs/DECISIONS.md, D24), not options."""

    @pytest.mark.parametrize("option, value", [
        ("n_k", 1), ("n_k", 0), ("n_k", -3), ("n_k", 513.0), ("max_n_k", 1025.0),
        ("max_n_k", None), ("tol", math.nan), ("tol", 0.0), ("tol", -1e-6), ("tol", math.inf)])
    @pytest.mark.parametrize("tag", ["reflected", "alpha"])
    def test_bad_options_are_named(self, tag, option, value):
        # a call that still passes a setting fails naming it, not silently at the defaults
        cfg = scatter_cfg(wa=500.0)
        grid = SpatialGrid(-30.0, 0.0, 51) if tag == "reflected" else SpatialGrid(0.0, cfg.L, 51)
        with pytest.raises(TypeError, match=f"'{option}'"):
            propagate_component(tag, grid, 0.0, cfg, **{option: value})

    def test_smallest_legal_options(self, monkeypatch):
        cfg = scatter_cfg(wa=500.0)
        quadrature(monkeypatch, tol=1e-300, n_k=2, max_n_k=3)
        fld = propagate_component("reflected", SpatialGrid(-30.0, 0.0, 51), 0.0, cfg)
        assert (fld.n_k, fld.converged) == (3, False)


class TestZoneEdgeInteriorPair:
    def test_alpha_beta_converge_to_the_direct_sum(self):
        # k0 - 8/a < w clips the window at k = w, where alpha_coef and
        # beta_coef grow like 1/q.  On a k grid the endpoint node at
        # k = w(1 + 1e-12) adds a nearly constant false term (alpha(0) near
        # 4.25 + 6.93i, no convergence by 16385 nodes); over q the Jacobian q/k
        # cancels the growth.  The reference is a direct sum on 32769 q nodes.
        cfg = PhysicalConfig(m=1.0, V0=12.5, L=1.0, a=1.0, k0=5.25, x0=-10.0)
        t = 2.0
        grid = SpatialGrid(0.0, cfg.L, 51)
        w = cfg.w
        q_lo = math.sqrt(w * w * ((1.0 + 1e-12) ** 2 - 1.0))
        q_hi = math.sqrt((cfg.k0 + 8.0 / cfg.a) ** 2 - w * w)
        qs = np.linspace(q_lo, q_hi, 32769)
        ks = np.sqrt(qs * qs + w * w)
        weights = np.full(qs.size, qs[1] - qs[0])
        weights[[0, -1]] *= 0.5
        spectrum = GaussianSpectrum(cfg.a, cfg.k0).amplitude(ks) / math.sqrt(2.0 * math.pi)
        phase = np.exp(-1j * (ks * ks / (2.0 * cfg.m) * t + ks * cfg.x0))
        integrand = weights * (qs / ks) * spectrum * phase
        coeffs = above_barrier_coeffs(ks, cfg)
        for tag, coef, sign in (("alpha", coeffs.alpha_coef, 1.0),
                                ("beta", coeffs.beta_coef, -1.0)):
            fld = propagate_component(tag, grid, t, cfg)
            assert fld.converged, (tag, fld.n_k)
            ref = direct_spectral_sum(integrand * coef, qs, grid.x, sign)
            assert np.max(np.abs(fld.values - ref)) < 1e-6, tag


def _gauss_legendre(lo, hi, n):
    u, wu = np.polynomial.legendre.leggauss(n)
    return lo + 0.5 * (hi - lo) * (u + 1.0), 0.5 * (hi - lo) * wu


class TestTunnelingPacket:
    """Below the barrier the packet integrates over (0, w) with tunnel_amplitude_nr (D25)."""

    CFG = PhysicalConfig.tunneling(m=1.0, V0=2.0, L=0.5, a=8.0, k0=1.0, x0=-40.0)

    def test_window_is_clipped_to_the_zone_of_k0(self):
        above = PhysicalConfig(m=1.0, V0=0.5, L=1.0, a=2.0, k0=1.5)   # w = 1
        assert wavepackets._window(above) == (1.0 + 1e-12, 1.5 + 4.0)
        assert wavepackets._window(dataclasses.replace(above, a=100.0)) == (1.5 - 0.08, 1.5 + 0.08)
        below = dataclasses.replace(above, k0=0.6)
        assert wavepackets._window(below) == (1e-12, 1.0 - 1e-12)
        assert wavepackets._window(dataclasses.replace(below, a=100.0)) == (0.6 - 0.08, 0.6 + 0.08)
        for k0 in (1.0 - 1e-13, 1e-13):   # k0 +- 8/a lies outside the open zone
            with pytest.raises(ZoneError, match="empty"):
                wavepackets._window(dataclasses.replace(below, k0=k0, a=1e14))

    def test_transmitted_field_is_the_dense_sum(self):
        # an independent trapezoid of g T e^{i(kx - Et - k x0)} / sqrt(2 pi) on 40001
        # nodes of [0, w]; the tunnel view on the grid L/2 lower reads the same points,
        # so it is the exact field at x + L/2 (the offset that D25 records)
        cfg, t = self.CFG, 70.0
        grid = SpatialGrid(cfg.L, 80.0, 121)
        ks = np.linspace(0.0, cfg.w, 40001)[1:-1]   # the end nodes carry T = 0 and g(w) < 1e-6
        amp = ((ks[1] - ks[0]) / math.sqrt(2.0 * math.pi) * GaussianSpectrum(cfg.a, cfg.k0).amplitude(ks)
               * tunnel_amplitude_nr(ks, cfg).T * np.exp(-1j * (ks * ks / 2.0 * t + ks * cfg.x0)))
        exact = sum(np.exp(1j * np.outer(grid.x, ks[s:s + 4000])) @ amp[s:s + 4000]
                    for s in range(0, ks.size, 4000))
        peak = np.max(np.abs(exact))
        field = propagate_component("transmitted", grid, t, cfg)
        view = propagate_tunnel_transmitted(SpatialGrid(0.5 * cfg.L, 80.0 - 0.5 * cfg.L, 121),
                                            t, cfg)
        assert field.converged and view.converged
        assert np.max(np.abs(field.values - exact)) < 1e-9 * peak
        assert np.max(np.abs(view.values - exact)) < 1e-9 * peak

    def test_reflected_and_transmitted_norms(self):
        # by t = 250 all of the (0, w) spectrum above k = 0.16 has left the barrier
        cfg, t = self.CFG, 250.0
        reflected = propagate_component("reflected", SpatialGrid(-520.0, 0.0, 2001), t, cfg)
        transmitted = propagate_component("transmitted", SpatialGrid(cfg.L, 520.0, 2001), t, cfg)
        ks, wk = _gauss_legendre(0.0, cfg.w, 200)
        g2 = GaussianSpectrum(cfg.a, cfg.k0).amplitude(ks) ** 2
        T2 = np.abs(tunnel_amplitude_nr(ks, cfg).T) ** 2
        assert field_norm(transmitted) == pytest.approx(np.sum(wk * g2 * T2), abs=1e-9)
        assert field_norm(reflected) + field_norm(transmitted) == pytest.approx(
            np.sum(wk * g2), abs=1e-9)

    @pytest.mark.parametrize("tag", ["alpha", "beta"])
    def test_interior_pair_refused(self, tag):
        with pytest.raises(ZoneError, match="above the barrier"):
            propagate_component(tag, SpatialGrid(0.0, self.CFG.L, 11), 1.0, self.CFG)


class TestPacketDwell:
    """The barrier's time-integrated occupancy is the spectral average of Buttiker's dwell.

    int dt e^{-i(E - E')t} = 2 pi (m/k) delta(k - k'), so
    int dt int_0^L |psi_alpha + psi_beta|^2 = int g^2 t_D dk over the packet's window, with
    t_D = (m/k) int_0^L |alpha e^{iqx} + beta e^{-iqx}|^2 (M. Buttiker, Phys. Rev. B 27,
    6178 (1983)); no stationary-phase step enters.  Where the window is cut at k = w and g(w)
    is not small, the occupancy falls off only as P(t) = c2/t^2 + c3/t^3 + c4/t^4 + ...: the
    interior state phi_w at q -> 0 is finite, and c2 = int_0^L |(m/w) g(w) phi_w|^2 / (2 pi).
    The times beyond [-T, T] add 2 c2/T + 2 c4/(3 T^3), the odd orders cancelling, where
    c4/T^4 is the even part of P(+-T) less c2/T^2.
    """

    @staticmethod
    def _interior(q, cfg):
        """int_0^L |alpha e^{iqx} + beta e^{-iqx}|^2 dx at each q, by Gauss-Legendre."""
        x, wx = _gauss_legendre(0.0, cfg.L, 40)
        c = above_barrier_coeffs(np.sqrt(q * q + cfg.w ** 2), cfg)
        field = (c.alpha_coef[:, None] * np.exp(1j * q[:, None] * x)
                 + c.beta_coef[:, None] * np.exp(-1j * q[:, None] * x))
        return np.abs(field) ** 2 @ wx

    @pytest.mark.parametrize("cfg, T", [
        (PhysicalConfig(m=1.0, V0=0.5, L=2.0, a=10.0, k0=1.5, x0=-40.0), 80.0),
        (PhysicalConfig(m=1.0, V0=12.5, L=1.0, a=1.0, k0=5.25, x0=-10.0), 20.0),   # D2
    ], ids=["above-barrier", "zone-edge"])
    def test_occupancy_is_the_spectral_dwell(self, cfg, T):
        w, g = cfg.w, GaussianSpectrum(cfg.a, cfg.k0).amplitude
        # over the q window of the packet quadrature
        k_lo, k_hi = max(cfg.k0 - 8.0 / cfg.a, w * (1.0 + 1e-12)), cfg.k0 + 8.0 / cfg.a
        q, wq = _gauss_legendre(*(math.sqrt((k - w) * (k + w)) for k in (k_lo, k_hi)), 160)
        k = np.sqrt(q * q + w * w)
        spectral = np.sum(wq * (q / k) * g(k) ** 2 * (cfg.m / k) * self._interior(q, cfg))

        grid, times = SpatialGrid(0.0, cfg.L, 201), np.linspace(-T, T, round(20.0 * T) + 1)
        fields = propagate_components({"alpha": grid, "beta": grid}, times, cfg)
        P = np.array([trapezoid_norm(np.abs(a.values + b.values) ** 2, grid.x)
                      for a, b in zip(fields["alpha"], fields["beta"])])
        c2 = (cfg.m / w * g(w)) ** 2 / (2.0 * math.pi) * self._interior(np.array([1e-5]), cfg)[0]
        tail = 2.0 * c2 / T + (2.0 / 3.0) * (0.5 * (P[0] + P[-1]) * T - c2 / T)
        assert np.trapezoid(P, times) + tail == pytest.approx(spectral, rel=1e-5)
