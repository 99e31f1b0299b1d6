import math
import tracemalloc

import numpy as np
import pytest

from qratio.catalog import catalog_lookup
from qratio.constants import BOHR_MAGNETON as MUB, HBAR
from qratio.core import Classification, GaussianPacket, quantum_ratio
from qratio.errors import BoundaryError, DomainError
from qratio.grid import (MAX_APPLICATIONS, MAX_CHUNK_ALPHA, FreePotential,
                         Grid, ceiling_dt, chebyshev_coefficients,
                         fourier_multiply, initialize_gaussian, kinetic_phase,
                         observables, propagate)
from qratio.spin import SpinCoherentState, distribution
from qratio import stern_gerlach
from qratio.stern_gerlach import (SGFieldConfig, SpinorField, band_deflection,
                                  band_separation, coupled_alpha,
                                  gradient_potentials, large_spin_bands,
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
    return SGFieldConfig(ratio * b0 * y_max, b0), duration


def precession_dt(config):
    """A tenth of a radian of Larmor precession: hbar / (2 mu_B B0) / 10."""
    return HBAR / (2.0 * MUB * abs(config.field_B0)) / 10.0


def stacked(spinor):
    """The (up, down) field with the spin amplitudes folded in."""
    return np.array([spinor.c_up * spinor.up.psi, spinor.c_down * spinor.down.psi])


def density_gap(grid, a, b):
    """L1 distance of the spin-resolved densities of two stacked fields."""
    return float(np.abs(np.abs(a) ** 2 - np.abs(b) ** 2).sum() * grid.cell_volume)


def strang_coupled(spinor, config, dt, steps):
    """The split-operator reference, O(dt^2): a half spin kick
    exp(+i dt mu_B sigma.B / 2 hbar), the kinetic step and another half
    kick per step.  Returns the stacked (up, down) field."""
    grid = spinor.up.grid
    y, z = grid.open_axes()
    b_y = -config.gradient_b0 * y
    b_z = config.field_B0 + config.gradient_b0 * z
    b_mag = np.hypot(b_y, b_z)
    angle = 0.5 * dt * MUB * b_mag / HBAR
    c, s = np.cos(angle), np.sin(angle) / b_mag
    u = np.array([[c + 1j * s * b_z, s * b_y], [-s * b_y, c - 1j * s * b_z]])
    kin = kinetic_phase(grid, spinor.up.mass, dt)
    psi = stacked(spinor)
    for _ in range(steps):
        psi = np.einsum("ij...,j...->i...", u, psi)
        psi = np.einsum("ij...,j...->i...", u, fourier_multiply(psi, kin))
    return psi


def run_pair(grid, spinor, config, duration):
    coupled, _ = propagate_coupled(spinor, config, duration, 1)
    # the decoupled reference runs at the spectral ceiling, as in the runner
    steps = int(math.ceil(duration / ceiling_dt(grid, ME)))
    decoupled = propagate_decoupled(spinor, config, duration / steps, steps)
    return coupled, decoupled, density_gap(grid, stacked(coupled),
                                           stacked(decoupled))


@pytest.mark.parametrize("c_up,c_down", [(math.nan, 0.5), (0.6, math.nan),
                                          (math.inf, 0.0)])
def test_non_finite_spin_amplitudes_rejected(c_up, c_down):
    with pytest.raises(DomainError, match="must equal 1"):
        spinor_1d(c_up, c_down)


class TestDecoupled:
    def test_single_component_momentum_kick(self):
        grid, sp = spinor_1d(1.0, 0.0)
        config = SGFieldConfig(1.0, 5e8)
        steps = 400
        dt = 2e-12 / steps
        out = propagate_decoupled(sp, config, dt, steps)
        t = out.up.time
        pz = observables(out.up).mean_momentum[0]
        assert pz == pytest.approx(MUB * 5e8 * t, rel=1e-10)

    def test_mirror_symmetry(self):
        grid, sp = spinor_1d(1 / math.sqrt(2), 1 / math.sqrt(2))
        config = SGFieldConfig(1.0, 5e8)
        out = propagate_decoupled(sp, config, 5e-15, 300)
        dens_up = out.up.density()
        dens_down = out.down.density()
        # grid points map z -> -z under reversal plus a one-sample roll
        mirrored = np.roll(dens_down[::-1], 1)
        assert np.max(np.abs(dens_up - mirrored)) < 1e-9 * dens_up.max()

    def test_component_norms_conserved(self):
        grid, sp = spinor_1d(0.6, 0.8)
        config = SGFieldConfig(1.0, 5e8)
        out = propagate_decoupled(sp, config, 5e-15, 200)
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
        config = SGFieldConfig(1.0, b0)
        out = propagate_decoupled(sp, config, tau / steps, steps)
        t_drift = 0.8e-12
        drift_steps = 200
        up = propagate(out.up, FreePotential(), t_drift / drift_steps, drift_steps)
        down = propagate(out.down, FreePotential(), t_drift / drift_steps,
                         drift_steps)
        dz = (observables(up).mean_position[0]
              - observables(down).mean_position[0])
        expected = 2.0 * band_deflection(MUB * b0, ME, tau, t_drift)
        assert dz == pytest.approx(expected, rel=1e-9)

    def test_kinetic_ceiling_step_gives_the_fine_step_densities(self):
        # Strang splitting is exact up to a global phase for a linear
        # potential, so the step size leaves the densities as they are
        grid, sp = spinor_2d()
        config, duration = desk_config(grid, 8 * grid.spacings[0])
        duration /= 8
        fine = int(math.ceil(duration / precession_dt(config)))
        coarse = int(math.ceil(duration / ceiling_dt(grid, ME)))
        assert coarse * 10 < fine
        a = propagate_decoupled(sp, config, duration / fine, fine)
        b = propagate_decoupled(sp, config, duration / coarse, coarse)
        for x, y in zip(a.densities(), b.densities()):
            assert np.abs(x - y).sum() * grid.cell_volume <= 1e-10

    def test_potentials_have_opposite_signs(self):
        v_up, v_down = gradient_potentials(SGFieldConfig(1.0, 5e8), 0)
        assert v_up.slope == -v_down.slope
        assert v_up.slope < 0.0


class TestCoupled:
    def test_zero_gradient_keeps_populations(self):
        grid, sp = spinor_2d()
        config = SGFieldConfig(5.0, 0.0)
        out = sp
        for _ in range(4):
            out, _ = propagate_coupled(out, config, 1e-13, 1)
            assert abs(out.c_up ** 2 - 0.5) < 1e-10
            assert abs(out.c_down ** 2 - 0.5) < 1e-10

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

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 7.5, 100.0, -40.0])
    def test_coefficients_expand_the_exponential(self, alpha):
        # exp(-i alpha x) = sum_k a_k T_k(x) on [-1, 1]
        x = np.linspace(-1.0, 1.0, 201)
        a = chebyshev_coefficients(alpha)
        err = np.abs(np.polynomial.chebyshev.chebval(x, a) - np.exp(-1j * alpha * x))
        assert np.max(err) < 1e-13
        assert len(a) >= 2 and len(a) > abs(alpha)

    def test_strang_reference_converges_at_second_order(self):
        # halving the Strang step divides its gap to the Chebyshev result
        # by about 4; the steps are coarser than the precession resolution
        # so that the gap stays far above rounding
        grid, sp = spinor_2d()
        config, duration = desk_config(grid, 8 * grid.spacings[0])
        duration /= 4
        exact = stacked(propagate_coupled(sp, config, duration, 1)[0])
        steps = int(math.ceil(duration / (4 * precession_dt(config))))
        gaps = [density_gap(grid, strang_coupled(sp, config, duration / n, n),
                            exact) for n in (steps, 2 * steps, 4 * steps)]
        for coarse, fine in zip(gaps, gaps[1:]):
            assert 3.5 < coarse / fine < 4.5, gaps

    @pytest.mark.parametrize("ratio", [200.0, 1600.0])
    def test_norm_drift(self, ratio):
        grid, sp = spinor_2d()
        config, duration = desk_config(grid, 8 * grid.spacings[0], ratio=ratio)
        out, applications = propagate_coupled(sp, config, duration, 1)
        assert out.up.norm_drift <= 1e-12
        assert abs(out.c_up ** 2 + out.c_down ** 2 - 1.0) < 1e-15
        assert applications > coupled_alpha(sp, config, duration)

    def test_any_chunk_length_gives_the_same_state(self):
        # there is no step rule: one expansion over the whole run and one
        # per interval agree to rounding
        grid, sp = spinor_2d()
        config, duration = desk_config(grid, 8 * grid.spacings[0])
        duration /= 10
        assert coupled_alpha(sp, config, duration) <= MAX_CHUNK_ALPHA
        one, n_one = propagate_coupled(sp, config, duration, 1)
        many, n_many = propagate_coupled(sp, config, duration / 8, 8)
        assert n_one < n_many
        scale = np.max(np.abs(stacked(one)))
        assert np.max(np.abs(stacked(one) - stacked(many))) < 1e-12 * scale

    def test_interval_is_cut_into_the_fewest_chunks(self):
        # alpha = 3.5 MAX_CHUNK_ALPHA takes four chunks, each the same
        # expansion as one interval of a quarter of the run
        grid, sp = spinor_2d()
        config, _ = desk_config(grid, 8 * grid.spacings[0])
        duration = 3.5 * MAX_CHUNK_ALPHA / coupled_alpha(sp, config, 1.0)
        one, n_one = propagate_coupled(sp, config, duration, 1)
        four, n_four = propagate_coupled(sp, config, duration / 4, 4)
        assert n_one == n_four > 4 * 0.875 * MAX_CHUNK_ALPHA
        assert one.up.time == four.up.time
        assert np.array_equal(stacked(one), stacked(four))

    def test_requires_2d(self):
        grid, sp = spinor_1d()
        config = SGFieldConfig(10.0, 1e4)
        with pytest.raises(DomainError):
            propagate_coupled(sp, config, 1e-16, 1)

    def test_bias_floor_enforced(self):
        grid, sp = spinor_2d()
        config = SGFieldConfig(1e-6, 1e6)
        with pytest.raises(DomainError) as err:
            propagate_coupled(sp, config, 1e-18, 1)
        assert "B0" in str(err.value)

    @pytest.mark.parametrize("dt", [1.0, 1e300, math.inf])
    def test_application_cap_checked_before_the_loop(self, monkeypatch, dt):
        def no_transform(*args):
            raise AssertionError("H applied before the cap check")
        monkeypatch.setattr(stern_gerlach, "fourier_multiply", no_transform)
        grid, sp = spinor_2d()
        config, _ = desk_config(grid, 8 * grid.spacings[0])
        with pytest.raises(DomainError) as err:
            propagate_coupled(sp, config, dt, 1)
        assert "cap" in str(err.value) and str(MAX_APPLICATIONS) in str(err.value)

    def test_packet_reaching_the_margin_is_an_error(self):
        # a packet moving along z; without the monitor it wraps around
        grid = Grid.make((64, 64), (1e-6, 1e-6))
        width = 8 * grid.spacings[0]
        at_rest = GaussianPacket(0.0, width, 0.0, ME)
        moving = GaussianPacket(0.0, width, HBAR * 5e7, ME)
        c = 1 / math.sqrt(2)
        sp = SpinorField(initialize_gaussian(grid, (at_rest, moving)),
                         initialize_gaussian(grid, (at_rest, moving)), c, c)
        config = SGFieldConfig(5.0, 0.0)
        duration = 2000 * precession_dt(config)
        assert coupled_alpha(sp, config, duration) > MAX_CHUNK_ALPHA
        with pytest.raises(BoundaryError) as err:
            propagate_coupled(sp, config, duration, 1)
        # the monitor reads the field at the first chunk end
        assert "margin" in str(err.value) and "(step 1)" in str(err.value)


class TestLargeSpinBands:
    config = SGFieldConfig(0.1, 1000.0)
    transit = 0.035 / 600.0   # 3.5 cm at 600 m/s
    mass_ag = catalog_lookup("Ag").mass

    def test_spin_half_weights(self):
        theta = 1.1
        hist = large_spin_bands(0.5, theta, self.config, self.transit, 0.0,
                                self.mass_ag)
        weight = dict(zip(hist.m_values.tolist(), hist.weights))
        assert weight[0.5] == pytest.approx(math.cos(theta / 2) ** 2, rel=1e-12)
        assert weight[-0.5] == pytest.approx(math.sin(theta / 2) ** 2, rel=1e-12)

    def test_13_half_band_count_and_symmetry(self):
        hist = large_spin_bands(6.5, math.pi / 2, self.config, self.transit,
                                0.0, self.mass_ag)
        assert len(hist.m_values) == 14
        assert np.allclose(hist.weights, hist.weights[::-1], atol=1e-15)

    def test_weights_match_distribution_exactly(self):
        # at any azimuth: the J_z weights do not depend on phi
        hist = large_spin_bands(8.0, 0.8, self.config, self.transit, 0.0,
                                self.mass_ag)
        dist = distribution(SpinCoherentState.from_j(8.0, 0.8, 0.3))
        assert np.array_equal(hist.weights, dist.weights)
        assert abs(hist.weights.sum() - 1.0) < 1e-9

    def test_large_spin_classical_trajectory(self):
        j = 2 * 10 ** 5
        theta = math.pi / 4
        hist = large_spin_bands(j, theta, self.config, self.transit, 0.0,
                                self.mass_ag)
        # mean deflection sits on the m = j cos(theta) classical trajectory
        k = np.argmin(np.abs(hist.m_values - j * math.cos(theta)))
        z_classical = hist.deflections[k]
        assert hist.mean_deflection() == pytest.approx(z_classical, rel=1e-3)
        sigma_m = math.sqrt(2 * j) * math.sqrt(0.25)  # x0(1-x0) max 1/4
        dz = abs(hist.deflections[1] - hist.deflections[0])
        near = np.abs(hist.deflections - z_classical) <= 3 * sigma_m * dz
        outside = 1.0 - hist.weights[near].sum()
        assert outside < 0.01

    def test_a_large_spin_allocates_its_support_alone(self):
        # 47,043 of the 2,000,001 bands at j = 10^6, pi/3 carry weight;
        # computed for every band, the histogram peaked at 96 MB
        tracemalloc.start()
        try:
            hist = large_spin_bands(1e6, math.pi / 3, self.config,
                                    self.transit, 0.0, self.mass_ag)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6, f"tracemalloc peak {peak / 1e6:.1f} MB"
        assert len(hist.m_values) == len(hist.deflections) == len(hist.weights)
        assert hist.weights.all() and len(hist.weights) < 50_000

    def test_spin_capped(self):
        with pytest.raises(DomainError):
            large_spin_bands(2e6, 1.0, self.config, self.transit, 0.0,
                             self.mass_ag)


class TestHistoricalSilver:
    def test_split_reproduces_reported_magnitude(self):
        # 10 T/cm over 3.5 cm at 600 m/s splits a silver beam by ~0.2 mm,
        # about a million times the atom's 1.4 angstrom size
        ag = catalog_lookup("Ag")
        config = SGFieldConfig(0.1, 1000.0)
        split = band_separation(config, ag.mass, 0.035 / 600.0)
        assert split == pytest.approx(0.2e-3, rel=0.15)
        res = quantum_ratio(split, ag.size_L0)
        assert res.classification is Classification.QUANTUM
        assert 0.3e6 <= res.ratio <= 3e6
