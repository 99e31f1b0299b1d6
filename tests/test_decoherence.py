import math
import tracemalloc

import numpy as np
import pytest
from scipy import fft

from qratio.constants import ELECTRON_MASS as ME
from qratio.core import GaussianPacket
from qratio.decoherence import (EnvironmentSpec, RELIABLE,
                                RANDOM_MOTION, ORDERING_VIOLATED, MAX_STEPS,
                                DensityMatrix, _apply_unitary,
                                apply_damping, coherence, damping_kernel,
                                decohere_step,
                                decohered_sg_scenario, propagate_density,
                                pure_to_density, timescale_report,
                                two_band_state)
from qratio import decoherence
from qratio.errors import (BoundaryError, CoherenceUndefinedError, DomainError,
                           StepSizeError)
from qratio.grid import (FreePotential, Grid, WaveField, ceiling_dt,
                         initialize_gaussian, kinetic_phase, liouville_phase,
                         liouville_step)


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
        damped = apply_damping(rho, self.env, 20 * 1e-13)
        assert np.max(np.abs(damped.position_density() - before)) < 1e-12

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
        rho = propagate_density(rho, self.env, 2e-14, 50)
        assert abs(rho.trace() - 1.0) < 1e-9
        m = rho.rho
        assert np.max(np.abs(m - m.conj().T)) < 1e-10

    def test_purity_non_increasing_without_hamiltonian(self, grid):
        f = split_state(grid, 0.6, 0.8)
        rho = pure_to_density(f)
        purities = [rho.purity()]
        for _ in range(100):
            rho = apply_damping(rho, self.env, 5e-14)
            purities.append(rho.purity())
        assert all(b <= a + 1e-12 for a, b in zip(purities, purities[1:]))
        assert purities[-1] < purities[0]

    def test_positivity_after_long_evolution(self, grid):
        f = split_state(grid, 0.6, 0.8)
        rho = pure_to_density(f)
        rho = propagate_density(rho, self.env, 1.5e-14, 150)
        assert rho.smallest_eigenvalue() >= -1e-8

    def test_unitary_part_matches_pure_evolution(self, grid):
        # with a vanishing damping rate the step reduces to U rho U+
        from qratio.grid import propagate
        weak = EnvironmentSpec(25e-9, 1e-300)
        f = split_state(grid, 0.6, 0.8, momentum=1e-26)
        rho = pure_to_density(f)
        dt = 2e-14
        rho = propagate_density(rho, weak, dt, 10)
        evolved = propagate(f, FreePotential(), dt, 10)
        np.testing.assert_allclose(rho.position_density(), evolved.density(),
                                   atol=1e-9 * evolved.density().max())

    def test_unitary_matches_two_pass_form(self):
        # (U (U rho)^H)^H, transposing between two column passes
        g = Grid.make(128, 1e-6)
        dt = 1e-14
        kin = kinetic_phase(g, ME, dt)

        def columns(mat):
            return fft.ifft(kin[:, None] * fft.fft(mat, axis=0), axis=0)

        rng = np.random.default_rng(4)
        a = rng.normal(size=(128, 128)) + 1j * rng.normal(size=(128, 128))
        rho = DensityMatrix(g, a + a.conj().T, ME)
        m = columns(columns(rho.rho).conj().T)
        expected = 0.5 * (m.conj().T + m)
        got = _apply_unitary(rho, dt)
        assert (np.max(np.abs(got.rho - expected))
                <= 1e-12 * np.max(np.abs(expected)))
        assert got.time == dt and rho.time == 0.0

    def test_spectral_band_enforced(self, grid):
        rho = pure_to_density(split_state(grid, 0.6, 0.8))
        with pytest.raises(StepSizeError) as err:
            decohere_step(rho, self.env, 1e-9)
        assert "suggest" in str(err.value)


class TestPropagateDensity:
    env = EnvironmentSpec(lambda_env=25e-9, rate_Lambda=1e12)

    def test_matches_single_steps(self, grid):
        rho = pure_to_density(split_state(grid, 0.6, 0.8, momentum=1e-26))
        stepped = rho
        for _ in range(20):
            stepped = decohere_step(stepped, self.env, 2e-14)
        got = propagate_density(rho, self.env, 2e-14, 20)
        assert (np.max(np.abs(got.rho - stepped.rho))
                <= 1e-12 * np.max(np.abs(stepped.rho)))
        assert got.time == stepped.time

    @pytest.mark.parametrize("env", [None, env])
    def test_input_kept_and_output_hermitian(self, env):
        # undamped, as the tunnel's transverse flight, and damped
        g = Grid.make(128, 1e-6)
        rng = np.random.default_rng(5)
        a = rng.normal(size=(128, 128)) + 1j * rng.normal(size=(128, 128))
        rho = DensityMatrix(g, a @ a.conj().T, ME)
        before = rho.rho.copy()
        out = propagate_density(rho, env, 1e-14, 5,
                                observe=lambda state, step: None)
        assert np.array_equal(rho.rho, before) and rho.time == 0.0
        m = out.rho
        assert np.array_equal(m, m.conj().T)

    def test_observer_sees_every_step(self, grid):
        rho = pure_to_density(split_state(grid, 0.6, 0.8))
        seen = []
        out = propagate_density(rho, self.env, 2e-14, 7,
                                observe=lambda state, step:
                                seen.append((step, state.time)))
        assert [step for step, _ in seen] == list(range(1, 8))
        assert [t for _, t in seen] == pytest.approx(
            [i * 2e-14 for i in range(1, 8)], rel=1e-12)
        assert out.time == seen[-1][1]

    def test_damping_alone_is_one_shot(self, grid):
        # one kernel over the whole duration is 40 kernels of its parts
        rho = pure_to_density(split_state(grid, 0.6, 0.8))
        once = apply_damping(rho, self.env, 40 * 5e-14)
        stepped = rho
        for _ in range(40):
            stepped = apply_damping(stepped, self.env, 5e-14)
        assert (np.max(np.abs(stepped.rho - once.rho))
                <= 1e-12 * np.max(np.abs(once.rho)))
        assert stepped.time == pytest.approx(once.time, rel=1e-14)
        assert once.time == 40 * 5e-14 and rho.time == 0.0

    def test_spectral_band_enforced(self, grid):
        rho = pure_to_density(split_state(grid, 0.6, 0.8))
        with pytest.raises(StepSizeError) as err:
            propagate_density(rho, self.env, 1e-9, 10)
        assert "suggest" in str(err.value)

    def test_steps_at_least_one(self, grid):
        rho = pure_to_density(split_state(grid, 0.6, 0.8))
        with pytest.raises(DomainError):
            propagate_density(rho, self.env, 2e-14, 0)


def random_hermitian(n, seed):
    """A positive Hermitian matrix of full rank, trace-normalized on a 1 um
    grid of n points."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = a @ a.conj().T
    h = 0.5 * (h + h.conj().T)
    return h / (np.trace(h).real * 1e-6 / n)


class TestPackedForm:
    """R = Re rho + Im rho, stepped with real transforms, against the
    complex Liouville form."""

    env = EnvironmentSpec(lambda_env=25e-9, rate_Lambda=1e14)

    @pytest.mark.parametrize("n", [64, 512])
    def test_step_matches_complex_liouville(self, n):
        g = Grid.make(n, 1e-6)
        dt = 0.5 * ceiling_dt(g, ME)
        kin = kinetic_phase(g, ME, dt)
        kernel = damping_kernel(g, self.env, dt)

        def columns(mat):
            return fft.ifft(kin[:, None] * fft.fft(mat, axis=0), axis=0)

        rho = DensityMatrix(g, random_hermitian(n, n), ME)
        expected = rho.rho
        for _ in range(3):
            expected = kernel * columns(columns(expected).conj().T)
        got = propagate_density(rho, self.env, dt, 3)
        assert np.min(kernel) < 0.9
        assert (np.max(np.abs(got.rho - expected))
                <= 1e-13 * np.max(np.abs(expected)))

    @pytest.mark.parametrize("n", [64, 512])
    def test_step_matches_one_irfftn_bit_for_bit(self, n):
        g = Grid.make(n, 1e-6)
        dt = 0.5 * ceiling_dt(g, ME)
        kin = liouville_phase(g, ME, dt)
        kernel = damping_kernel(g, self.env, dt)

        def one_irfftn(r):
            # the gather, the products and one 2D inverse transform
            h = n // 2
            f = fft.rfftn(r)
            t = np.empty_like(f)
            t[:h + 1] = f[:h + 1, :h + 1].T
            t[h + 1:, 0] = f[0, h - 1:0:-1].conj()
            t[h + 1:, 1:] = f[:h - 1:-1, h - 1:0:-1].T.conj()
            f *= kin.cos
            t *= kin.sin
            f += t
            return fft.irfftn(f, s=r.shape)

        got = expected = DensityMatrix(g, random_hermitian(n, 5), ME).packed
        for _ in range(3):
            got = kernel * liouville_step(got, kin)
            expected = kernel * one_irfftn(expected)
        # equal as bytes, signed zeros included
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [64, 512])
    def test_pack_then_unpack(self, n):
        g = Grid.make(n, 1e-6)
        rho = random_hermitian(n, 7)
        back = DensityMatrix(g, rho, ME).rho
        assert np.array_equal(back, back.conj().T)
        assert np.array_equal(np.diagonal(back), np.diagonal(rho))
        # R_ij = a + b and R_ji = a - b round once each, so a and b come
        # back to within one rounding of |rho_ij|, not always exactly
        eps = np.finfo(float).eps
        assert np.all(np.abs(back - rho) <= eps * np.abs(rho))
        # with Re rho or Im rho zero there is nothing to round
        for part in (rho.real, 1j * rho.imag + np.diag(np.diagonal(rho.real))):
            assert np.array_equal(DensityMatrix(g, part, ME).rho, part)

    def test_observer_sees_exactly_hermitian_states(self):
        g = Grid.make(128, 1e-6)
        rho = DensityMatrix(g, random_hermitian(128, 3), ME)
        hermitian = []
        propagate_density(rho, self.env, 1e-14, 6,
                          observe=lambda state, step: hermitian.append(
                              np.array_equal(state.rho, state.rho.conj().T)))
        assert hermitian == [True] * 6

    @pytest.mark.parametrize("n", [64, 512])
    def test_observables_match_complex_form(self, n):
        g = Grid.make(n, 1e-6)
        dx = g.spacings[0]
        state = propagate_density(DensityMatrix(g, random_hermitian(n, 11), ME),
                                  self.env, 0.5 * ceiling_dt(g, ME), 2)
        rho = state.rho
        assert state.purity() == pytest.approx(
            np.sum(np.abs(rho) ** 2) * dx * dx, rel=1e-14)
        assert state.trace() == pytest.approx(
            np.real(np.trace(rho)) * dx, rel=1e-14)
        assert np.array_equal(state.position_density(), np.real(np.diagonal(rho)))
        x = g.axis(0)
        i1, i2 = n // 4, 3 * n // 4
        d1, d2 = rho[i1, i1].real, rho[i2, i2].real
        assert coherence(state, x[i1], x[i2]) == pytest.approx(
            abs(rho[i1, i2]) / math.sqrt(d1 * d2), rel=1e-14)


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
                               transit_speed=1e3, mass=1e-22,
                               tau_diss=math.inf)
        assert not rep.cond_wavelength
        assert rep.verdict == ORDERING_VIOLATED

    def test_random_motion_regime(self):
        rep = timescale_report(packet_width=1e-8, separation=1e-5,
                               env=self.env, transit_length=1e-4,
                               transit_speed=1e3, mass=1e-22,
                               tau_diss=1e-9)
        assert rep.verdict == RANDOM_MOTION

    def test_times_positive(self):
        rep = timescale_report(1e-8, 1e-5, self.env, 1e-4, 1e3, 1e-22,
                               math.inf)
        assert rep.tau_dec > 0 and rep.tau_trans > 0 and rep.tau_diff > 0
        assert math.isinf(rep.tau_diss)


class TestDecoheredBands:
    env = EnvironmentSpec(lambda_env=60e-9, rate_Lambda=2e13)
    duration = 5.0 / env.rate_Lambda

    def test_equal_split(self, grid):
        rep = decohered_sg_scenario(1 / math.sqrt(2), 1 / math.sqrt(2),
                                    self.env, grid, 25e-9, 250e-9, ME, 0.0,
                                    self.duration, 80)
        assert rep.intensities[0] == pytest.approx(0.5, abs=1e-3)
        assert rep.intensities[1] == pytest.approx(0.5, abs=1e-3)
        assert rep.coherence < 0.05
        assert rep.trace_drift < 1e-9

    def test_single_band_untouched(self, grid):
        rep = decohered_sg_scenario(1.0, 0.0, self.env, grid, 25e-9, 250e-9,
                                    ME, 0.0, self.duration, 40)
        assert rep.intensities[0] == pytest.approx(1.0, abs=1e-6)
        assert rep.intensities[1] == pytest.approx(0.0, abs=1e-6)

    def test_intensity_ratio_invariant_across_rates(self, grid):
        ratios = []
        for rate in (2e12, 2e13, 2e14):
            env = EnvironmentSpec(60e-9, rate)
            # slower rates mean longer runs; keep dt inside the kinetic bound
            steps = max(40, int(math.ceil((5.0 / rate) / 1.5e-14)))
            rep = decohered_sg_scenario(0.6, 0.8, env, grid, 25e-9, 250e-9,
                                        ME, 0.0, 5.0 / rate, steps)
            ratios.append(rep.intensities[0] / rep.intensities[1])
        for r in ratios:
            assert r == pytest.approx(0.36 / 0.64, rel=1e-4)

    def test_matches_pure_band_weights(self, grid):
        rep = decohered_sg_scenario(0.6, 0.8, self.env, grid, 25e-9, 250e-9,
                                    ME, 0.0, self.duration, 60)
        assert rep.intensities[0] == pytest.approx(rep.pure_intensities[0],
                                                   abs=1e-3)
        assert rep.intensities[1] == pytest.approx(rep.pure_intensities[1],
                                                   abs=1e-3)

    def test_pure_reference_matches_density_matrix_run(self):
        # narrow packets closing in on each other, so the band weights move
        g = Grid.make(128, 0.3e-6)
        width, sep, p = 10e-9, 50e-9, -2e-26
        steps, duration = 30, 1e-13
        rep = decohered_sg_scenario(0.6, 0.8, self.env, g, width, sep, ME,
                                    momentum=p, duration=duration,
                                    steps=steps)
        rho = pure_to_density(split_state(g, 0.6, 0.8, width, sep, p))
        x, dx = g.axis(0), g.spacings[0]
        weights = []

        def band_weights(state, step):
            diag = state.position_density()
            weights.append((diag[x < 0.0].sum() * dx,
                            diag[x >= 0.0].sum() * dx))

        propagate_density(rho, None, duration / steps, steps,
                          observe=band_weights)
        assert abs(weights[-1][0] - weights[-2][0]) > 1e-9
        assert rep.pure_intensities == pytest.approx(weights[-1], abs=1e-12)

    def test_amplitude_normalization_checked(self, grid):
        with pytest.raises(DomainError):
            decohered_sg_scenario(1.0, 1.0, self.env, grid, 25e-9, 250e-9, ME,
                                  0.0, self.duration, 200)

    @pytest.mark.parametrize("c1,c2", [(math.nan, 0.8), (0.6, math.inf)])
    def test_non_finite_amplitudes_rejected(self, grid, c1, c2):
        with pytest.raises(DomainError):
            decohered_sg_scenario(c1, c2, self.env, grid, 25e-9, 250e-9, ME,
                                  0.0, self.duration, 200)

    def test_density_matrix_run_watches_its_margin(self, grid, monkeypatch):
        # the bands fly 330 nm out, into the outer 5% of the 1 um grid; the
        # density-matrix run itself must stop, before the wave-function
        # reference is stepped
        def reference(*args, **kwargs):
            raise AssertionError("the density-matrix run went unchecked")

        monkeypatch.setattr(decoherence, "propagate", reference)
        with pytest.raises(BoundaryError, match="margin"):
            decohered_sg_scenario(0.6, 0.8, self.env, grid, 25e-9, 250e-9, ME,
                                  momentum=3e-26, duration=1e-11, steps=1000)


def test_density_matrix_grid_cap():
    import numpy as _np
    big = Grid.make(2048, 1e-6)
    with pytest.raises(DomainError):
        pure_to_density(WaveField(big, _np.ones(2048, dtype=complex), ME))


def test_density_matrix_cap_checked_before_allocating():
    field = WaveField(Grid.make(2048, 1e-6), np.ones(2048, dtype=complex), ME)
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="cap"):
            pure_to_density(field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_scenario_steps_cap_checked_before_allocating(grid):
    env = EnvironmentSpec(60e-9, 2e13)
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="cap"):
            decohered_sg_scenario(0.6, 0.8, env, grid, 25e-9, 250e-9, ME,
                                  0.0, 5.0 / env.rate_Lambda, MAX_STEPS + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_two_band_state_matches_split_state(grid):
    packets = (GaussianPacket(-125e-9, 25e-9, 0.0, ME),
               GaussianPacket(+125e-9, 25e-9, 0.0, ME))
    field = two_band_state(grid, 0.6, 0.8, packets)
    assert np.array_equal(field.psi, split_state(grid, 0.6, 0.8).psi)
    assert field.norm() == pytest.approx(1.0, abs=1e-12)
