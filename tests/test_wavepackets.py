import math
import tracemalloc

import numpy as np
import pytest

from oracles import direct_spectral_sum, trapezoid_norm

from tunnellab import wavepackets
from tunnellab.core import GaussianSpectrum, PhysicalConfig, ZoneError
from tunnellab.stationary import above_barrier_coeffs, tunnel_amplitude_nr
from tunnellab.wavepackets import (
    _chirp_sum,
    SpatialGrid,
    WaveField,
    field_norm,
    field_peak,
    free_gaussian,
    free_gaussian_peak,
    multipeak_partial_sum_field,
    multipeak_term_field,
    propagate_component,
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


class TestGrid:
    def test_spacing(self):
        g = SpatialGrid(-1.0, 1.0, 201)
        assert g.spacing == pytest.approx(0.01)
        assert g.x[0] == -1.0 and g.x[-1] == 1.0

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

    def test_requires_nonrelativistic(self):
        from tunnellab.core import Dispersion
        cfg = PhysicalConfig(m=1.0, V0=1.0, L=0.0, a=1.0, k0=1.0,
                             dispersion=Dispersion.RELATIVISTIC_KG)
        with pytest.raises(ZoneError):
            free_gaussian(0.0, 0.0, cfg)


class TestFieldHelpers:
    def test_zero_field_degenerate(self):
        grid = SpatialGrid(-1.0, 1.0, 51)
        fld = WaveField(grid=grid, values=np.zeros(51, complex), t=0.0, component_tag="zero")
        assert field_norm(fld) == 0.0
        pk = field_peak(fld)
        assert pk.degenerate and pk.x == grid.x_min and pk.density == 0.0

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


class TestMultipeakSeries:
    def test_first_transmitted_peak_delay(self):
        # the first transmitted peak crosses x = L one transit time m L/q0
        # after the incident peak reaches x = 0
        cfg = scatter_cfg(wa=500.0)
        q0 = math.sqrt(cfg.k0 ** 2 - cfg.w ** 2)
        t_inc0 = -cfg.x0 * cfg.m / cfg.k0
        transit = cfg.m * cfg.L / q0
        grid = SpatialGrid(cfg.L, cfg.L + 40.0 * cfg.a, 8001)
        fld = multipeak_term_field("transmitted", 1, grid, t_inc0 + transit, cfg)
        assert field_peak(fld).x == pytest.approx(cfg.L, abs=0.02 * cfg.a)

    def test_successive_peaks_one_round_trip_apart(self):
        cfg = scatter_cfg(wa=500.0)
        q0 = math.sqrt(cfg.k0 ** 2 - cfg.w ** 2)
        round_trip = 2.0 * (cfg.k0 / q0) * cfg.L
        t = 6.0 * cfg.m * cfg.L / q0
        grid = SpatialGrid(cfg.L, cfg.L + 80.0 * cfg.a, 16001)
        x1 = field_peak(multipeak_term_field("transmitted", 1, grid, t, cfg)).x
        x2 = field_peak(multipeak_term_field("transmitted", 2, grid, t, cfg)).x
        assert x1 - x2 == pytest.approx(round_trip, abs=0.03 * cfg.a)

    def test_partial_sum_is_sum_of_terms(self):
        cfg = scatter_cfg(wa=500.0)
        grid = SpatialGrid(-40.0, 0.0, 501)
        t = 2.0 * cfg.m * cfg.L / math.sqrt(cfg.k0 ** 2 - cfg.w ** 2)
        total = multipeak_partial_sum_field("reflected", 3, grid, t, cfg)
        acc = sum(multipeak_term_field("reflected", n, grid, t, cfg).values
                  for n in (1, 2, 3))
        assert np.allclose(total.values, acc, atol=1e-15)

    def test_term_index_validated(self):
        cfg = scatter_cfg()
        with pytest.raises(ValueError):
            multipeak_term_field("reflected", 0, SpatialGrid(-1.0, 0.0, 11), 0.0, cfg)


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

    def test_spectral_phase_slope_translates(self):
        cfg = free_cfg()
        base = spm_peak_prediction("incident", 1.0, cfg)
        shifted = spm_peak_prediction("incident", 1.0, cfg, spectral_phase_slope=0.7)
        assert shifted == pytest.approx(base - 0.7, rel=1e-14)

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
    def test_doubling_changes_little(self):
        cfg = scatter_cfg(wa=500.0)
        grid = SpatialGrid(-30.0, 0.0, 401)
        t = 3.0 * cfg.m * cfg.L / math.sqrt(cfg.k0 ** 2 - cfg.w ** 2)
        coarse = propagate_component("reflected", grid, t, cfg, n_k=513, max_n_k=513)
        fine = propagate_component("reflected", grid, t, cfg, n_k=1025, max_n_k=1025)
        # the refinement loop stops when this is already < 1e-6
        converged = propagate_component("reflected", grid, t, cfg)
        finer = propagate_component("reflected", grid, t, cfg,
                                    n_k=2 * 2049 - 1, max_n_k=2 * 2049 - 1)
        assert np.max(np.abs(converged.values - finer.values)) < 1e-6


class TestChirpKernel:
    @pytest.mark.parametrize("n_k, n_x", [(16385, 51), (513, 4001)])
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


class TestRunRecord:
    def test_converged_field_reports_its_grid(self):
        cfg = scatter_cfg(wa=500.0)
        fld = propagate_component("reflected", SpatialGrid(-30.0, 0.0, 401), 1e-3, cfg)
        assert fld.converged and fld.n_k in (1025, 2049, 4097, 8193, 16385)

    def test_unconverged_field_says_so(self):
        cfg = scatter_cfg(wa=500.0)
        grid = SpatialGrid(-30.0, 0.0, 401)
        capped = propagate_component("reflected", grid, 1e-3, cfg, tol=1e-300, max_n_k=1025)
        assert (capped.n_k, capped.converged) == (1025, False)
        unrefined = propagate_component("reflected", grid, 1e-3, cfg, n_k=513, max_n_k=513)
        assert (unrefined.n_k, unrefined.converged) == (513, False)

    def test_nested_refinement_is_the_finer_trapezoid(self):
        # 513 nodes refined once by midpoints give the 1025-node rule itself
        cfg = scatter_cfg(wa=500.0)
        grid = SpatialGrid(0.0, cfg.L, 101)
        for tag in ("alpha", "beta"):
            nested = propagate_component(tag, grid, 1e-3, cfg, tol=1e-300, max_n_k=1025)
            direct = propagate_component(tag, grid, 1e-3, cfg, n_k=1025, max_n_k=1025)
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
    def test_rows_equal_single_calls(self, tag, tol):
        cfg = scatter_cfg(wa=500.0)
        region = {"alpha": (0.0, cfg.L, 51), "beta": (0.0, cfg.L, 51),
                  "transmitted": (cfg.L, cfg.L + 30.0, 201)}.get(tag, (-30.0, 0.0, 201))
        grid = SpatialGrid(*region)
        batch = propagate_component(tag, grid, list(self.TIMES), cfg, tol=tol)
        _same_fields(batch, [propagate_component(tag, grid, t, cfg, tol=tol)
                             for t in self.TIMES])
        assert len({f.n_k for f in batch}) > 1 and all(f.converged for f in batch)
        capped = propagate_component(tag, grid, self.TIMES, cfg, tol=1e-300, max_n_k=1025)
        _same_fields(capped, [propagate_component(tag, grid, t, cfg, tol=1e-300, max_n_k=1025)
                              for t in self.TIMES])
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

    def test_work_is_shared_across_times(self, monkeypatch):
        # per refinement level: one coefficient call, one FFT of the chirp,
        # one FFT and one inverse FFT of the whole block
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
        batch = propagate_component("reflected", SpatialGrid(-30.0, 0.0, 201), times, cfg)
        row_levels = [1 + int(math.log2((f.n_k - 1) // 512)) for f in batch]
        assert counts == {"coeffs": max(row_levels), "fft": 2 * max(row_levels),
                          "ifft": max(row_levels)}
        assert max(row_levels) < sum(row_levels)    # what one call per time would make

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
