import importlib
import math
import pkgutil
from fractions import Fraction

import numpy as np
import pytest

import tunnellab
from tunnellab.core import (
    Dispersion,
    GaussianSpectrum,
    PhysicalConfig,
    ZoneError,
    _in_rel_zone,
    energy,
    evanescent_rate,
    momentum_window,
    rho_n_squared,
)


def nr_cfg(**kw):
    base = dict(m=1.0, V0=0.5, L=2.0, a=1.0, k0=0.6)
    base.update(kw)
    return PhysicalConfig(**base)


def kg_cfg(**kw):
    base = dict(m=1.0, V0=5.0, L=1.0, a=1.0, k0=math.sqrt(24.0),
                dispersion=Dispersion.RELATIVISTIC_KG)  # E = 5 = V0
    base.update(kw)
    return PhysicalConfig(**base)


class TestConfig:
    def test_positivity_enforced(self):
        for bad in (dict(m=-1.0), dict(V0=0.0), dict(a=-2.0), dict(k0=0.0), dict(L=-0.1)):
            with pytest.raises(ValueError):
                nr_cfg(**bad)

    def test_w_identity(self):
        cfg = nr_cfg(m=2.0, V0=3.0)
        assert cfg.w == pytest.approx(math.sqrt(12.0), rel=1e-15)

    def test_scenario_constructors_enforce_zone(self):
        PhysicalConfig.tunneling(m=1.0, V0=0.5, L=1.0, a=1.0, k0=0.5)
        with pytest.raises(ZoneError):
            PhysicalConfig.tunneling(m=1.0, V0=0.5, L=1.0, a=1.0, k0=1.5)
        PhysicalConfig.above_barrier(m=1.0, V0=0.5, L=1.0, a=1.0, k0=1.5)
        with pytest.raises(ZoneError):
            PhysicalConfig.above_barrier(m=1.0, V0=0.5, L=1.0, a=1.0, k0=0.5)


class TestDispersion:
    def test_energy_examples(self):
        assert energy(0.0, nr_cfg()) == 0.0
        assert energy(0.0, kg_cfg()) == pytest.approx(1.0, rel=1e-15)
        cfg = nr_cfg()
        assert energy(cfg.w, cfg) == pytest.approx(cfg.V0, rel=1e-14)

    def test_energy_monotone_and_negative_rejected(self):
        ks = np.linspace(0.0, 5.0, 200)
        for cfg in (nr_cfg(), kg_cfg()):
            es = energy(ks, cfg)
            assert np.all(np.diff(es) > 0)
        with pytest.raises(ValueError):
            energy(-0.1, nr_cfg())

    def test_nan_momentum_refused(self):
        # NaN compares False with the k >= 0 bound: it must still be refused
        for cfg in (nr_cfg(), kg_cfg()):
            for k in (math.nan, np.array([1.0, math.nan])):
                with pytest.raises(ZoneError, match="k must be >= 0"):
                    energy(k, cfg)


class TestChannels:
    def test_zone_boundary_both_vanish(self):
        # E = 5/4 exactly at k = 3/4, m = 1: the lower edge V0 - m = E and the upper V0 + m = E
        for V0 in (2.25, 0.25):
            assert evanescent_rate(0.75, kg_cfg(V0=V0)) == 0.0

    def test_relativistic_center_rate(self):
        cfg = kg_cfg()  # E = V0 exactly
        assert evanescent_rate(cfg.k0, cfg) == pytest.approx(cfg.m, rel=1e-12)

    def test_zone_errors_name_interval(self):
        for k in (1.0, 6.0):   # E - V0 = sqrt(2) - 5 (Klein zone) and sqrt(37) - 5 > m (above)
            with pytest.raises(ZoneError, match="Klein"):
                evanescent_rate(k, kg_cfg())

    def test_rate_refuses_nan(self):
        cfg = kg_cfg()
        for k in (math.nan, np.array([cfg.k0, math.nan])):
            with pytest.raises(ZoneError):
                evanescent_rate(k, cfg)

    def test_rate_is_klein_gordon_only(self):
        with pytest.raises(ZoneError, match="relativistic configuration"):
            evanescent_rate(0.5, nr_cfg())

    def test_zone_partition_exhaustive(self):
        # the dimensionless zone (n^2 - upsilon/2)^2 < 1 is the energy window
        # |E - V0| < m, and the rate is real exactly there
        cfg = kg_cfg()
        for k in np.linspace(1e-3, 12.0, 301):
            E = energy(float(k), cfg)
            inside = _in_rel_zone(k * k / (cfg.w * cfg.w), cfg.V0 / cfg.m)
            assert inside == (cfg.V0 - cfg.m < E < cfg.V0 + cfg.m)
            if inside:
                assert evanescent_rate(float(k), cfg) > 0.0
            else:
                with pytest.raises(ZoneError):
                    evanescent_rate(float(k), cfg)


class TestDimensionless:
    def test_nr_reduction_exact(self):
        for n_sq in np.linspace(1e-3, 1.0 - 1e-3, 97):
            assert rho_n_squared(n_sq, 0.0) == pytest.approx(1.0 - n_sq, abs=1e-15)

    def test_upper_zone_edge_vanishes(self):
        # solve rho_n^2 = 0 with the dispersion-derived formula: edge at u/2 + 1
        assert rho_n_squared(3.5, 5.0) == pytest.approx(0.0, abs=1e-12)
        assert rho_n_squared(1.5, 5.0) == pytest.approx(0.0, abs=1e-12)

    def test_rho_n_matches_channel_rate(self):
        cfg = kg_cfg(k0=math.sqrt(20.0))
        rn_sq = rho_n_squared(cfg.k0 * cfg.k0 / (cfg.w * cfg.w), cfg.V0 / cfg.m)
        assert math.sqrt(rn_sq) * cfg.w == pytest.approx(evanescent_rate(cfg.k0, cfg), rel=1e-12)


class TestSpectrum:
    def test_peak_value_and_symmetry(self):
        s = GaussianSpectrum(a=2.0, k0=1.5)
        assert s.amplitude(1.5) == pytest.approx((4.0 / (2.0 * math.pi)) ** 0.25, rel=1e-14)
        for d in (0.1, 0.7, 2.3):
            assert s.amplitude(1.5 + d) == pytest.approx(s.amplitude(1.5 - d), rel=1e-14)
            assert s.amplitude(1.5 + d) > 0.0

    def test_unit_norm_by_quadrature(self):
        # log-spaced width sweep; window k0 +- 10/a
        for a in np.logspace(-2, 2, 9):
            s = GaussianSpectrum(a=float(a), k0=3.0)
            ks = np.linspace(3.0 - 10.0 / a, 3.0 + 10.0 / a, 4001)
            norm = np.trapezoid(s.amplitude(ks) ** 2, ks)
            assert norm == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("a", [0.0, -1.0, math.nan, math.inf])
    def test_width_must_be_finite_and_positive(self, a):
        with pytest.raises(ValueError, match="finite and positive"):
            GaussianSpectrum(a=a, k0=1.0)

    def test_width_enters_as_its_correct_square(self):
        # C pow rounds 2.759 ** 2 to 7.612080999999999 on glibc 2.36; a * a is 7.612081
        square = float(Fraction(2.759) ** 2)
        s = GaussianSpectrum(a=2.759, k0=1.0)
        prefactor = (square / (2.0 * math.pi)) ** 0.25
        assert s.amplitude(1.0) == prefactor
        assert s.amplitude(3.0) == prefactor * np.exp(-square)


class TestTraversalAndWindow:
    def test_momentum_window_clip(self):
        cfg = nr_cfg(k0=1.5, a=2.0)
        lo, hi = momentum_window(cfg)
        assert (lo, hi) == (1.5 - 4.0, 1.5 + 4.0)
        lo, hi = momentum_window(cfg, lower=0.0)
        assert lo == 0.0
        with pytest.raises(ZoneError):
            momentum_window(cfg, lower=hi + 1.0)


_MODULES = ["tunnellab"] + [f"tunnellab.{info.name}"
                            for info in pkgutil.iter_modules(tunnellab.__path__)]


@pytest.mark.parametrize("name", _MODULES)
def test_every_export_resolves(name):
    # a deletion that leaves its name in __all__ breaks `import *`
    module = importlib.import_module(name)
    missing = [export for export in getattr(module, "__all__", []) if not hasattr(module, export)]
    assert missing == []
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(getattr(module, "__all__", [])) <= set(namespace)
