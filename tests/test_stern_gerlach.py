import math

import numpy as np
import pytest

from qratio.catalog import catalog_lookup
from qratio.constants import BOHR_MAGNETON as MUB, HBAR
from qratio.core import Classification, GaussianPacket, quantum_ratio
from qratio.errors import DomainError, StepSizeError
from qratio.grid import FreePotential, Grid, initialize_gaussian, observables, propagate
from qratio.spin import SpinCoherentState, distribution
from qratio.stern_gerlach import (SGFieldConfig, SpinorField, band_separation,
                                  gradient_potentials, large_spin_bands,
                                  max_coupled_dt, precession_frequency,
                                  propagate_coupled, propagate_decoupled)

ME = 9.1093837015e-31


def spinor_1d(c_up=1.0, c_down=0.0, n=256, extent=2e-6, width=1.2e-7):
    grid = Grid.make(n, extent)
    pk = GaussianPacket(0.0, width, 0.0, ME)
    up = initialize_gaussian(grid, pk)
    down = initialize_gaussian(grid, pk)
    return grid, SpinorField(up, down, c_up, c_down)


def spinor_2d(n=64, extent=1e-6, width=None):
    grid = Grid.make((n, n), (extent, extent))
    width = width or 8 * grid.spacings[0]
    pk = GaussianPacket(0.0, width, 0.0, ME)
    c = 1 / math.sqrt(2)
    return grid, SpinorField(initialize_gaussian(grid, (pk, pk)),
                             initialize_gaussian(grid, (pk, pk)), c, c)


def desk_config(grid, width, ratio=200.0, transit_fraction=0.4):
    tau_diff = ME * width ** 2 / HBAR
    duration = transit_fraction * tau_diff
    b0 = 2 * ME * (width / 8) / (MUB * duration ** 2)
    y_max = grid.extents[0] / 2
    return SGFieldConfig(ratio * b0 * y_max, b0, duration, 1.0), duration


def run_pair(grid, spinor, config, duration, workers=1):
    steps = int(math.ceil(duration / max_coupled_dt(config)))
    dt = duration / steps
    coupled, pops = propagate_coupled(spinor, config, dt, steps, workers=workers)
    decoupled = propagate_decoupled(spinor, config, dt, steps, z_axis=1,
                                    workers=workers)
    nu_c, nd_c = coupled.densities()
    nu_d, nd_d = decoupled.densities()
    l1 = float((np.abs(nu_c - nu_d).sum() + np.abs(nd_c - nd_d).sum())
               * grid.cell_volume)
    return coupled, decoupled, l1


class TestDecoupled:
    def test_single_component_momentum_kick(self):
        grid, sp = spinor_1d(1.0, 0.0)
        config = SGFieldConfig(1.0, 5e8, 1e-12, 1.0)
        steps = 400
        dt = 2e-12 / steps
        out = propagate_decoupled(sp, config, dt, steps, z_axis=0)
        t = out.up.time
        pz = observables(out.up).mean_momentum[0]
        assert pz == pytest.approx(MUB * 5e8 * t, rel=1e-10)

    def test_mirror_symmetry(self):
        grid, sp = spinor_1d(1 / math.sqrt(2), 1 / math.sqrt(2))
        config = SGFieldConfig(1.0, 5e8, 1e-12, 1.0)
        out = propagate_decoupled(sp, config, 5e-15, 300, z_axis=0)
        dens_up = out.up.density()
        dens_down = out.down.density()
        # grid points map z -> -z under reversal plus a one-sample roll
        mirrored = np.roll(dens_down[::-1], 1)
        assert np.max(np.abs(dens_up - mirrored)) < 1e-9 * dens_up.max()

    def test_component_norms_conserved(self):
        grid, sp = spinor_1d(0.6, 0.8)
        config = SGFieldConfig(1.0, 5e8, 1e-12, 1.0)
        out = propagate_decoupled(sp, config, 5e-15, 200, z_axis=0)
        assert out.up.norm_drift < 1e-10 * 200
        assert out.down.norm_drift < 1e-10 * 200
        assert abs(out.up.norm() - 1.0) < 1e-9

    def test_band_separation_matches_kinematics(self):
        # magnet region for tau, then free drift; Ehrenfest is exact for
        # linear potentials so the closed form must match the grid run
        grid, sp = spinor_1d(1 / math.sqrt(2), 1 / math.sqrt(2))
        b0 = 4e8
        tau = 1.2e-12
        steps = 300
        config = SGFieldConfig(1.0, b0, tau, 1.0)
        out = propagate_decoupled(sp, config, tau / steps, steps, z_axis=0)
        t_drift = 0.8e-12
        drift_steps = 200
        up = propagate(out.up, FreePotential(), t_drift / drift_steps, drift_steps)
        down = propagate(out.down, FreePotential(), t_drift / drift_steps,
                         drift_steps)
        dz = observables(up).mean_position[0] - observables(down).mean_position[0]
        expected = band_separation(config, ME, t_drift)
        assert dz == pytest.approx(expected, rel=1e-9)

    def test_potentials_have_opposite_signs(self):
        v_up, v_down = gradient_potentials(SGFieldConfig(1.0, 5e8, 1e-12, 1.0), 0)
        assert v_up.slope == -v_down.slope
        assert v_up.slope < 0.0


class TestCoupled:
    def test_zero_gradient_keeps_populations(self):
        grid, sp = spinor_2d()
        config = SGFieldConfig(5.0, 0.0, 1e-12, 1.0)
        steps = int(math.ceil(4e-13 / max_coupled_dt(config)))
        out, pops = propagate_coupled(sp, config, 4e-13 / steps, steps,
                                      record_populations_every=max(1, steps // 8))
        for _, p_up, p_down in pops:
            assert abs(p_up - 0.5) < 1e-10
            assert abs(p_down - 0.5) < 1e-10

    def test_agrees_with_decoupled_at_large_bias(self):
        grid, sp = spinor_2d()
        config, duration = desk_config(grid, 8 * grid.spacings[0], ratio=200.0)
        _, _, l1 = run_pair(grid, sp, config, duration)
        assert l1 < 0.01

    def test_halving_bias_increases_deviation(self):
        grid, sp = spinor_2d()
        width = 8 * grid.spacings[0]
        cfg_hi, duration = desk_config(grid, width, ratio=200.0)
        cfg_lo, _ = desk_config(grid, width, ratio=100.0)
        _, _, l1_hi = run_pair(grid, sp, cfg_hi, duration)
        _, _, l1_lo = run_pair(grid, sp, cfg_lo, duration)
        assert l1_lo > l1_hi

    def test_requires_2d(self):
        grid, sp = spinor_1d()
        config = SGFieldConfig(10.0, 1e4, 1e-12, 1.0)
        with pytest.raises(DomainError):
            propagate_coupled(sp, config, 1e-16, 1)

    def test_bias_floor_enforced(self):
        grid, sp = spinor_2d()
        config = SGFieldConfig(1e-6, 1e6, 1e-12, 1.0)
        with pytest.raises(DomainError) as err:
            propagate_coupled(sp, config, 1e-18, 1)
        assert "B0" in str(err.value)

    def test_spectral_band_enforced(self):
        # a bias weak enough that the precession bound is not the limit
        grid, sp = spinor_2d()
        config = SGFieldConfig(1.0, 1e3, 1e-12, 1.0)
        dt = max_coupled_dt(config)
        with pytest.raises(StepSizeError) as err:
            propagate_coupled(sp, config, dt, 1)
        assert "suggest" in str(err.value)

    def test_precession_resolution_enforced(self):
        grid, sp = spinor_2d()
        config = SGFieldConfig(1e4, 1e6, 1e-12, 1.0)
        with pytest.raises(StepSizeError):
            propagate_coupled(sp, config, 10 * max_coupled_dt(config), 1)


class TestPrecession:
    def test_kilogauss_value(self):
        # 0.1 T: 1.7588e10 rad/s, inside the expected decade
        w = precession_frequency(0.1)
        assert w == pytest.approx(1.7588200107e10, rel=1e-9)
        assert 1e10 <= w <= 1e11

    def test_zero_field(self):
        assert precession_frequency(0.0) == 0.0

    def test_linear_scaling(self):
        assert precession_frequency(0.35) == pytest.approx(
            3.5 * precession_frequency(0.1), rel=1e-12)


class TestLargeSpinBands:
    config = SGFieldConfig(0.1, 1000.0, 0.035, 600.0)
    mass_ag = catalog_lookup("Ag").mass

    def test_spin_half_weights(self):
        theta = 1.1
        hist = large_spin_bands(0.5, theta, 0.0, self.config, 0.0, self.mass_ag)
        assert hist.weights[1] == pytest.approx(math.cos(theta / 2) ** 2, rel=1e-12)
        assert hist.weights[0] == pytest.approx(math.sin(theta / 2) ** 2, rel=1e-12)

    def test_13_half_band_count_and_symmetry(self):
        hist = large_spin_bands(6.5, math.pi / 2, 0.0, self.config, 0.0,
                                self.mass_ag)
        assert len(hist.m_values) == 14
        assert np.allclose(hist.weights, hist.weights[::-1], atol=1e-15)

    def test_weights_match_distribution_exactly(self):
        hist = large_spin_bands(8.0, 0.8, 0.3, self.config, 0.0, self.mass_ag)
        dist = distribution(SpinCoherentState.from_j(8.0, 0.8, 0.3))
        assert np.array_equal(hist.weights, dist.weights)
        assert abs(hist.weights.sum() - 1.0) < 1e-9

    def test_large_spin_classical_trajectory(self):
        j = 2 * 10 ** 5
        theta = math.pi / 4
        hist = large_spin_bands(j, theta, 0.0, self.config, 0.0, self.mass_ag)
        # mean deflection sits on the m = j cos(theta) classical trajectory
        k = np.argmin(np.abs(hist.m_values - j * math.cos(theta)))
        z_classical = hist.deflections[k]
        assert hist.mean_deflection() == pytest.approx(z_classical, rel=1e-3)
        sigma_m = math.sqrt(2 * j) * math.sqrt(0.25)  # x0(1-x0) max 1/4
        dz = abs(hist.deflections[1] - hist.deflections[0])
        outside = 1.0 - hist.weight_within(z_classical, 3 * sigma_m * dz)
        assert outside < 0.01

    def test_spin_capped(self):
        with pytest.raises(DomainError):
            large_spin_bands(2e6, 1.0, 0.0, self.config, 0.0, self.mass_ag)


class TestHistoricalSilver:
    def test_split_reproduces_reported_magnitude(self):
        # 10 T/cm over 3.5 cm at 600 m/s splits a silver beam by ~0.2 mm,
        # about a million times the atom's 1.4 angstrom size
        ag = catalog_lookup("Ag")
        config = SGFieldConfig(0.1, 1000.0, 0.035, 600.0)
        split = band_separation(config, ag.mass, 0.0)
        assert split == pytest.approx(0.2e-3, rel=0.15)
        res = quantum_ratio(split, ag.size_L0)
        assert res.classification is Classification.QUANTUM
        assert 0.3e6 <= res.ratio <= 3e6
