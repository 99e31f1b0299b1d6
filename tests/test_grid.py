import math

import numpy as np
import pytest

from qratio.constants import HBAR
from qratio.core import GaussianPacket, packet_width_at
from qratio.errors import (BoundaryError, DomainError, ResolutionError,
                           StepSizeError)
from qratio.grid import (FreePotential, Grid, LinearPotential,
                         SampledPotential, ehrenfest_residual,
                         initialize_gaussian, kinetic_ceiling, observables,
                         propagate, read_field_array, suggest_dt,
                         write_field_array)

ME = 9.1093837015e-31


def electron_field(n=1024, extent=4e-6, width=2e-7, momentum=5e-26, center=-5e-7):
    grid = Grid.make(n, extent)
    return grid, initialize_gaussian(
        grid, GaussianPacket(center, width, momentum, ME))


class TestGrid:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(DomainError):
            Grid.make(100, 1e-6)

    def test_rejects_too_few_points(self):
        with pytest.raises(DomainError):
            Grid.make(32, 1e-6)

    def test_rejects_3d(self):
        with pytest.raises(DomainError):
            Grid.make((64, 64, 64), (1e-6, 1e-6, 1e-6))

    def test_spacing(self):
        g = Grid.make(128, 1e-6)
        assert g.spacings[0] == pytest.approx(1e-6 / 128)
        assert g.axis(0)[0] == pytest.approx(-5e-7)


class TestInitialize:
    def test_norm_is_one(self):
        _, f = electron_field()
        assert abs(f.norm() - 1.0) < 1e-12

    def test_mean_position(self):
        grid, f = electron_field()
        snap = observables(f)
        assert abs(snap.mean_position[0] + 5e-7) < grid.spacings[0] / 10

    def test_mean_momentum_spectral(self):
        grid, f = electron_field()
        snap = observables(f)
        assert abs(snap.mean_momentum[0] - 5e-26) < HBAR / (10 * grid.extents[0])

    def test_width_is_density_half_width(self):
        _, f = electron_field()
        snap = observables(f)
        assert snap.widths[0] == pytest.approx(2e-7 / math.sqrt(2), rel=1e-9)

    def test_under_resolved_width_rejected(self):
        grid = Grid.make(64, 4e-6)   # spacing 62.5 nm
        with pytest.raises(ResolutionError) as err:
            initialize_gaussian(grid, GaussianPacket(0.0, 1e-7, 0.0, ME))
        assert "4 spacings" in str(err.value)

    def test_boundary_margin_rejected(self):
        grid = Grid.make(512, 4e-6)
        with pytest.raises(ResolutionError) as err:
            initialize_gaussian(grid, GaussianPacket(-1.6e-6, 2e-7, 0.0, ME))
        assert "boundary" in str(err.value)

    def test_band_overflow_rejected(self):
        grid = Grid.make(512, 4e-6)
        with pytest.raises(ResolutionError) as err:
            initialize_gaussian(grid, GaussianPacket(0.0, 2e-7, 1e-24, ME))
        assert "spectral band" in str(err.value)

    def test_2d_product(self):
        grid = Grid.make((64, 128), (1e-6, 2e-6))
        pk = GaussianPacket(0.0, 1e-7, 0.0, ME)
        f = initialize_gaussian(grid, (pk, pk))
        assert abs(f.norm() - 1.0) < 1e-12
        snap = observables(f)
        assert len(snap.mean_position) == 2


class TestFreeEvolution:
    def test_ballistic_mean_and_width(self):
        grid, f0 = electron_field()
        dt = suggest_dt(grid, FreePotential(), ME)
        steps = 400
        f1 = propagate(f0, FreePotential(), dt, steps)
        t = f1.time
        snap = observables(f1)
        expected_x = -5e-7 + 5e-26 * t / ME
        assert abs(snap.mean_position[0] - expected_x) < 1e-3 * grid.extents[0]
        expected_w = packet_width_at(GaussianPacket(-5e-7, 2e-7, 5e-26, ME),
                                     t) / math.sqrt(2)
        assert snap.widths[0] == pytest.approx(expected_w, rel=5e-3)

    def test_norm_drift_per_step(self):
        grid, f0 = electron_field()
        dt = suggest_dt(grid, FreePotential(), ME)
        f1 = propagate(f0, FreePotential(), dt, 500)
        assert f1.norm_drift / 500 < 1e-10

    def test_time_reversal(self):
        grid, f0 = electron_field()
        dt = suggest_dt(grid, FreePotential(), ME)
        f1 = propagate(f0, FreePotential(), dt, 300)
        f2 = propagate(f1, FreePotential(), -dt, 300)
        err = math.sqrt(float(np.sum(np.abs(f2.psi - f0.psi) ** 2))
                        * grid.cell_volume)
        assert err < 1e-8

    def test_spectral_width_error_at_floor(self):
        # Gaussians are spectrally exact at any permitted resolution, so the
        # error must already sit at the rounding floor on the coarse grid and
        # stay there when the spacing halves.
        pk = GaussianPacket(0.0, 2.5e-7, 0.0, ME)
        errs = []
        for n in (64, 128):
            grid = Grid.make(n, 4e-6)
            f0 = initialize_gaussian(grid, pk)
            dt = suggest_dt(grid, FreePotential(), ME)
            steps = 200
            f1 = propagate(f0, FreePotential(), dt, steps)
            w = observables(f1).widths[0]
            expected = packet_width_at(pk, f1.time) / math.sqrt(2)
            errs.append(abs(w - expected) / expected)
        floor = 1e-10
        assert errs[1] <= max(errs[0] / 4, floor)
        assert errs[0] < floor


class TestLinearPotential:
    def test_momentum_kick_exact(self):
        grid, f0 = electron_field()
        force = 1e-20
        dt = suggest_dt(grid, LinearPotential(-force, 0), ME)
        f1 = propagate(f0, LinearPotential(-force, 0), dt, 300)
        snap = observables(f1)
        expected = 5e-26 + force * f1.time
        assert snap.mean_momentum[0] == pytest.approx(expected, rel=1e-10)


class TestBoundaryMonitor:
    def test_aborts_before_wraparound(self):
        grid = Grid.make(128, 2e-6)
        f0 = initialize_gaussian(grid, GaussianPacket(0.0, 1.2e-7, 1e-26, ME))
        dt = suggest_dt(grid, FreePotential(), ME)
        with pytest.raises(BoundaryError) as err:
            propagate(f0, FreePotential(), dt, 100000)
        assert "margin" in str(err.value)


class TestStepSize:
    def test_rejects_coarse_step(self):
        grid, f0 = electron_field()
        dt_max = (math.pi / 4) * HBAR / kinetic_ceiling(grid, ME)
        with pytest.raises(StepSizeError) as err:
            propagate(f0, FreePotential(), 2 * dt_max, 10)
        assert "suggest" in str(err.value)

    def test_suggestion_is_stable(self):
        grid, f0 = electron_field()
        dt = suggest_dt(grid, LinearPotential(1e-20, 0), ME)
        assert dt * kinetic_ceiling(grid, ME) / HBAR < math.pi / 4


class TestEhrenfest:
    def test_free_particle_residuals(self):
        grid, f0 = electron_field()
        dt = suggest_dt(grid, FreePotential(), ME)
        f1 = propagate(f0, FreePotential(), dt, 240, record_every=24)
        res_r, res_p = ehrenfest_residual(f1.trace, ME)
        assert res_r < 1e-6 and res_p < 1e-6

    def test_linear_potential_residuals(self):
        grid, f0 = electron_field()
        pot = LinearPotential(-1e-20, 0)
        dt = suggest_dt(grid, pot, ME)
        f1 = propagate(f0, pot, dt, 240, record_every=24)
        res_r, res_p = ehrenfest_residual(f1.trace, ME)
        assert res_r < 1e-6 and res_p < 1e-6

    def test_quartic_potential_residuals(self):
        # anharmonic potential with analytic gradient; residuals limited by
        # the central-difference sampling of the trace
        grid = Grid.make(512, 4e-6)
        f0 = initialize_gaussian(grid, GaussianPacket(-3e-7, 2e-7, 0.0, ME))
        c4 = 2e-21 / (1e-6) ** 4
        pot = SampledPotential(lambda x: c4 * x ** 4,
                               grad_fns=(lambda x: 4 * c4 * x ** 3,))
        dt = suggest_dt(grid, pot, ME)
        f1 = propagate(f0, pot, dt, 1200, record_every=12)
        res_r, res_p = ehrenfest_residual(f1.trace, ME)
        assert res_r < 1e-3 and res_p < 1e-3

    def test_short_trace_rejected(self):
        grid, f0 = electron_field()
        dt = suggest_dt(grid, FreePotential(), ME)
        f1 = propagate(f0, FreePotential(), dt, 10, record_every=10)
        with pytest.raises(DomainError):
            ehrenfest_residual(f1.trace, ME)


def test_field_array_round_trip(tmp_path):
    grid = Grid.make((64, 64), (1e-6, 2e-6))
    f = initialize_gaussian(grid, (GaussianPacket(0.0, 1e-7, 0.0, ME),
                                   GaussianPacket(0.0, 2e-7, 0.0, ME)))
    path = tmp_path / "field.bin"
    write_field_array(path, f.psi, grid.spacings, grid.origins)
    data, spacings, origins = read_field_array(path)
    assert np.array_equal(data, f.psi)
    assert spacings == grid.spacings
    assert origins == grid.origins
