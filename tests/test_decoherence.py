import math

import numpy as np
import pytest

from qratio.constants import ELECTRON_MASS as ME, HBAR
from qratio.core import GaussianPacket
from qratio.decoherence import (EnvironmentSpec, TimescaleReport, RELIABLE,
                                RANDOM_MOTION, ORDERING_VIOLATED,
                                apply_damping, coherence, decohere_step,
                                decohered_sg_scenario, pure_to_density,
                                timescale_report)
from qratio.errors import CoherenceUndefinedError, DomainError, StepSizeError
from qratio.grid import FreePotential, Grid, WaveField, initialize_gaussian


def split_state(grid, c1, c2, width=25e-9, separation=250e-9, momentum=0.0):
    f1 = initialize_gaussian(grid, GaussianPacket(-separation / 2, width,
                                                  -momentum, ME))
    f2 = initialize_gaussian(grid, GaussianPacket(+separation / 2, width,
                                                  +momentum, ME))
    psi = c1 * f1.psi + c2 * f2.psi
    psi /= math.sqrt(float(np.sum(np.abs(psi) ** 2)) * grid.cell_volume)
    return WaveField(grid, psi, ME)


@pytest.fixture
def grid():
    return Grid.make(256, 1e-6)


class TestPureToDensity:
    def test_purity_one(self, grid):
        f = initialize_gaussian(grid, GaussianPacket(0.0, 5e-8, 0.0, ME))
        rho = pure_to_density(f)
        assert rho.purity() == pytest.approx(1.0, abs=1e-9)
        assert rho.trace() == pytest.approx(1.0, abs=1e-9)

    def test_diagonal_is_density(self, grid):
        f = initialize_gaussian(grid, GaussianPacket(1e-7, 5e-8, 0.0, ME))
        rho = pure_to_density(f)
        np.testing.assert_allclose(rho.position_density(), f.density(),
                                   rtol=1e-12)

    def test_split_packet_off_diagonal_block(self, grid):
        c1, c2 = 0.6, 0.8
        sep, width = 250e-9, 25e-9
        f = split_state(grid, c1, c2, width, sep)
        rho = pure_to_density(f)
        x = grid.axis(0)
        i1 = int(np.argmin(np.abs(x + sep / 2)))
        i2 = int(np.argmin(np.abs(x - sep / 2)))
        # analytic Gaussian overlap: block magnitude |c1 c2| x peak amplitudes
        peak1 = math.sqrt(rho.rho[i1, i1].real)
        peak2 = math.sqrt(rho.rho[i2, i2].real)
        # peaks carry |c1|, |c2|; the cross block divides them out exactly
        assert abs(rho.rho[i1, i2]) == pytest.approx(peak1 * peak2, rel=1e-6)
        assert coherence(rho, -sep / 2, sep / 2) == pytest.approx(1.0, rel=1e-9)


class TestDampingStep:
    env = EnvironmentSpec(lambda_env=25e-9, rate_Lambda=1e12)

    def test_zero_distance_rate_vanishes(self):
        assert self.env.damping_rate(0.0) == 0.0

    def test_saturated_rate(self):
        assert float(self.env.damping_rate(2.5e-7)) == pytest.approx(
            1e12, rel=1e-6)

    def test_rate_at_one_wavelength(self):
        # Lambda (1 - 1/e)
        assert float(self.env.damping_rate(25e-9)) == pytest.approx(
            1e12 * (1 - math.exp(-1)), rel=1e-12)

    def test_diagonal_invariant_under_pure_damping(self, grid):
        f = split_state(grid, 0.6, 0.8)
        rho = pure_to_density(f)
        before = rho.position_density()
        stepped = rho
        for _ in range(20):
            stepped = decohere_step(stepped, self.env, None, 1e-13)
        assert np.max(np.abs(stepped.position_density() - before)) < 1e-12

    def test_scalar_exponential_decay(self, grid):
        # separation >> lambda: coherence falls exactly as exp(-Lambda t)
        f = split_state(grid, 1 / math.sqrt(2), 1 / math.sqrt(2),
                        separation=2.5e-7, width=2e-8)
        rho = pure_to_density(f)
        t = 3.0 / self.env.rate_Lambda
        damped = apply_damping(rho, self.env, t)
        ratio = (coherence(damped, -1.25e-7, 1.25e-7)
                 / coherence(rho, -1.25e-7, 1.25e-7))
        assert ratio == pytest.approx(math.exp(-3.0), abs=1e-6)

    def test_one_over_rate_decay(self, grid):
        f = split_state(grid, 1 / math.sqrt(2), 1 / math.sqrt(2),
                        separation=2.5e-7, width=2e-8)
        rho = pure_to_density(f)
        damped = apply_damping(rho, self.env, 1.0 / self.env.rate_Lambda)
        assert coherence(damped, -1.25e-7, 1.25e-7) == pytest.approx(
            math.exp(-1.0), abs=1e-3)

    def test_trace_and_hermiticity_preserved(self, grid):
        f = split_state(grid, 0.6, 0.8)
        rho = pure_to_density(f)
        for _ in range(50):
            rho = decohere_step(rho, self.env, FreePotential(), 2e-14)
        assert abs(rho.trace() - 1.0) < 1e-9
        assert rho.hermiticity_defect() < 1e-10

    def test_purity_non_increasing_without_hamiltonian(self, grid):
        f = split_state(grid, 0.6, 0.8)
        rho = pure_to_density(f)
        purities = [rho.purity()]
        for _ in range(100):
            rho = decohere_step(rho, self.env, None, 5e-14)
            purities.append(rho.purity())
        assert all(b <= a + 1e-12 for a, b in zip(purities, purities[1:]))
        assert purities[-1] < purities[0]

    def test_positivity_after_long_evolution(self, grid):
        f = split_state(grid, 0.6, 0.8)
        rho = pure_to_density(f)
        for _ in range(150):
            rho = decohere_step(rho, self.env, FreePotential(), 1.5e-14)
        assert rho.smallest_eigenvalue() >= -1e-8

    def test_unitary_part_matches_pure_evolution(self, grid):
        # with a vanishing damping rate the step reduces to U rho U+
        from qratio.grid import propagate
        weak = EnvironmentSpec(25e-9, 1e-300)
        f = split_state(grid, 0.6, 0.8, momentum=1e-26)
        rho = pure_to_density(f)
        dt = 2e-14
        for _ in range(10):
            rho = decohere_step(rho, weak, FreePotential(), dt)
        evolved = propagate(f, FreePotential(), dt, 10)
        np.testing.assert_allclose(rho.position_density(), evolved.density(),
                                   atol=1e-9 * evolved.density().max())

    def test_spectral_band_enforced(self, grid):
        rho = pure_to_density(split_state(grid, 0.6, 0.8))
        with pytest.raises(StepSizeError) as err:
            decohere_step(rho, self.env, FreePotential(), 1e-9)
        assert "suggest" in str(err.value)


class TestCoherence:
    def test_fully_decohered_mixture(self, grid):
        f = split_state(grid, 0.6, 0.8)
        rho = pure_to_density(f)
        env = EnvironmentSpec(25e-9, 1e12)
        damped = apply_damping(rho, env, 40.0 / env.rate_Lambda)
        assert coherence(damped, -1.25e-7, 1.25e-7) < 1e-6

    def test_undefined_on_empty_region(self, grid):
        f = initialize_gaussian(grid, GaussianPacket(0.0, 2e-8, 0.0, ME))
        rho = pure_to_density(f)
        with pytest.raises(CoherenceUndefinedError):
            coherence(rho, 0.0, 4.5e-7)


class TestTimescales:
    env = EnvironmentSpec(lambda_env=1e-7, rate_Lambda=1e13)

    def test_reliable_regime(self):
        # heavy molecule, 10 nm packets split by 10 um in a 100 nm
        # environment: every margin-10 ordering holds
        rep = timescale_report(packet_width=1e-8, separation=1e-5,
                               env=self.env, transit_length=1e-4,
                               transit_speed=1e3, mass=1e-22,
                               tau_diss=1.0)
        assert rep.cond_times and rep.cond_split and rep.cond_wavelength
        assert rep.verdict == RELIABLE

    def test_wavelength_ordering_violated(self):
        rep = timescale_report(packet_width=1e-8, separation=5e-8,
                               env=self.env, transit_length=1e-4,
                               transit_speed=1e3, mass=1e-22)
        assert not rep.cond_wavelength
        assert rep.verdict == ORDERING_VIOLATED

    def test_random_motion_regime(self):
        rep = timescale_report(packet_width=1e-8, separation=1e-5,
                               env=self.env, transit_length=1e-4,
                               transit_speed=1e3, mass=1e-22,
                               tau_diss=1e-9)
        assert rep.verdict == RANDOM_MOTION

    def test_times_positive(self):
        rep = timescale_report(1e-8, 1e-5, self.env, 1e-4, 1e3, 1e-22)
        assert rep.tau_dec > 0 and rep.tau_trans > 0 and rep.tau_diff > 0
        assert math.isinf(rep.tau_diss)


class TestDecoheredBands:
    env = EnvironmentSpec(lambda_env=60e-9, rate_Lambda=2e13)

    def test_equal_split(self, grid):
        rep = decohered_sg_scenario(1 / math.sqrt(2), 1 / math.sqrt(2),
                                    self.env, grid, 25e-9, 250e-9, ME,
                                    steps=80)
        assert rep.intensities[0] == pytest.approx(0.5, abs=1e-3)
        assert rep.intensities[1] == pytest.approx(0.5, abs=1e-3)
        assert rep.coherence < 0.05
        assert rep.trace_drift < 1e-9

    def test_single_band_untouched(self, grid):
        rep = decohered_sg_scenario(1.0, 0.0, self.env, grid, 25e-9, 250e-9,
                                    ME, steps=40)
        assert rep.intensities[0] == pytest.approx(1.0, abs=1e-6)
        assert rep.intensities[1] == pytest.approx(0.0, abs=1e-6)

    def test_intensity_ratio_invariant_across_rates(self, grid):
        ratios = []
        for rate in (2e12, 2e13, 2e14):
            env = EnvironmentSpec(60e-9, rate)
            # slower rates mean longer runs; keep dt inside the kinetic bound
            steps = max(40, int(math.ceil((5.0 / rate) / 1.5e-14)))
            rep = decohered_sg_scenario(0.6, 0.8, env, grid, 25e-9, 250e-9,
                                        ME, steps=steps)
            ratios.append(rep.intensities[0] / rep.intensities[1])
        for r in ratios:
            assert r == pytest.approx(0.36 / 0.64, rel=1e-4)

    def test_matches_pure_band_weights(self, grid):
        rep = decohered_sg_scenario(0.6, 0.8, self.env, grid, 25e-9, 250e-9,
                                    ME, steps=60)
        assert rep.intensities[0] == pytest.approx(rep.pure_intensities[0],
                                                   abs=1e-3)
        assert rep.intensities[1] == pytest.approx(rep.pure_intensities[1],
                                                   abs=1e-3)

    def test_amplitude_normalization_checked(self, grid):
        with pytest.raises(DomainError):
            decohered_sg_scenario(1.0, 1.0, self.env, grid, 25e-9, 250e-9, ME)


def test_density_matrix_grid_cap():
    import numpy as _np
    big = Grid.make(2048, 1e-6)
    with pytest.raises(DomainError):
        pure_to_density(WaveField(big, _np.ones(2048, dtype=complex), ME))
