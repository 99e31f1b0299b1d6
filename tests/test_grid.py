import math
import re
import tracemalloc

import numpy as np
import pytest

from qratio import grid as grid_module
from qratio.constants import HBAR
from qratio.core import GaussianPacket, packet_width_at
from qratio.errors import (BoundaryError, DomainError, ResolutionError,
                           StepSizeError)
from qratio.decoherence import propagate_density, pure_to_density
from qratio.grid import (BOUNDARY_TOLERANCE, MAX_POINTS, FreePotential, Grid,
                         LinearPotential, WaveField, boundary_monitor,
                         ceiling_dt, chebyshev_propagate, field_array_bytes,
                         fourier_multiply, half_kick, initialize_gaussian,
                         kinetic_ceiling, kinetic_phase, observables,
                         propagate, read_field_array)
from qratio.stern_gerlach import SGFieldConfig, SpinorField, propagate_coupled

ME = 9.1093837015e-31


def strang_step(psi, kin, kick):
    """The textbook Strang step: ``kick``, the kinetic phase ``kin`` in
    Fourier space, ``kick``; leading axes of ``psi`` stack components."""
    return kick(fourier_multiply(kick(psi), kin))


class SampledPotential:
    """V given by a callable of the open (``np.ix_``) coordinate axes, whose
    result is broadcast to the grid."""

    def __init__(self, fn):
        self.fn = fn

    def values(self, grid):
        return np.broadcast_to(self.fn(*grid.open_axes()), grid.points)


def suggest_dt(grid, potential, mass):
    """Conservative step: 0.1 * hbar / (max|V| + max kinetic eigenvalue)."""
    v = potential.values(grid)
    vmax = float(np.max(np.abs(v))) if not np.isscalar(v) else abs(v)
    return 0.1 * HBAR / (vmax + kinetic_ceiling(grid, mass))


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

    def test_rejects_more_than_max_points(self):
        # 65536² points would be 64 GiB per complex field; the largest
        # accepted grid is exactly at the cap
        with pytest.raises(DomainError, match="cap"):
            Grid.make((65536, 65536), (1e-6, 1e-6))
        assert math.prod(Grid.make((4096, 1024), (1e-6, 1e-6)).points) == MAX_POINTS

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

    def test_nan_momentum_rejected(self):
        grid = Grid.make(512, 4e-6)
        with pytest.raises(ResolutionError) as err:
            initialize_gaussian(grid, GaussianPacket(0.0, 2e-7, math.nan, ME))
        assert "spectral band" in str(err.value)

    def test_2d_product(self):
        grid = Grid.make((64, 128), (1e-6, 2e-6))
        pk = GaussianPacket(0.0, 1e-7, 0.0, ME)
        f = initialize_gaussian(grid, (pk, pk))
        assert abs(f.norm() - 1.0) < 1e-12
        snap = observables(f)
        assert len(snap.mean_position) == 2


def meshgrid_observables(field):
    """The snapshot :func:`observables` gives, formed on full ``np.meshgrid``
    copies of the coordinate and wave-number axes."""
    grid = field.grid
    dens = field.density()
    dv = grid.cell_volume
    norm2 = float(np.sum(dens) * dv)
    xs = np.meshgrid(*map(grid.axis, range(grid.ndim)), indexing="ij")
    ks = np.meshgrid(*map(grid.kaxis, range(grid.ndim)), indexing="ij")
    # the library's axis order, first to last (numpy.fft's fftn runs its
    # axes last to first)
    pdens = np.abs(grid_module._fft.fftn(
        field.psi, axes=tuple(reversed(range(grid.ndim))))) ** 2
    mean_x, widths = [], []
    for x in xs:
        mx = float(np.sum(dens * x) * dv) / norm2
        mean_x.append(mx)
        widths.append(math.sqrt(2.0 * float(np.sum(dens * (x - mx) ** 2) * dv) / norm2))
    mean_p = [HBAR * float(np.sum(pdens * k)) / float(np.sum(pdens)) for k in ks]
    return grid_module.Snapshot(tuple(mean_x), tuple(mean_p), tuple(widths),
                                math.sqrt(norm2))


def moving_2d_field():
    grid = Grid.make((64, 128), (1e-6, 2e-6))
    return initialize_gaussian(grid, (GaussianPacket(0.5e-7, 1e-7, 5e-27, ME),
                                      GaussianPacket(-2e-7, 1.5e-7, -1e-26, ME)))


@pytest.mark.parametrize("make", [moving_2d_field, lambda: electron_field()[1]],
                         ids=["2d-product", "1d"])
def test_observables_match_the_meshgrid_reference(make):
    field = make()
    assert observables(field) == meshgrid_observables(field)


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

    @pytest.mark.parametrize("points, shape, free", [
        ((128,), (128,), ()),
        ((64, 128), (64, 128), ()),
        ((64, 64), (2, 64, 64), ()),              # stacked spinor
        ((256, 64), (64, 256), (1,)),             # (z, x) held as (x, z)
        ((64, 128), (64, 128), (0,)),             # (y, z) held as it is
    ], ids=["1d", "2d", "stacked", "free-x", "free-y"])
    def test_slab_mass_is_the_union_of_the_margins(self, points, shape, free):
        grid = Grid.make(points, (1e-6,) * len(points))
        rng = np.random.default_rng(5)
        psi = 1e-6 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        # the margin as a mask over the held layout, gathered by flat index
        axes = free + tuple(a for a in range(grid.ndim) if a not in free)
        held = tuple(grid.points[a] for a in axes)
        mask = np.ones(held, dtype=bool)
        mask[tuple(slice(None) if a in free else
                   slice(grid_module._margin_width(n), n - grid_module._margin_width(n))
                   for a, n in zip(axes, held))] = False
        e = np.take(psi, np.flatnonzero(np.broadcast_to(mask, shape)))
        gathered = float(np.vdot(e, e).real * grid.cell_volume)
        mass = boundary_monitor(grid, free)(psi, 0.0, 0)
        assert abs(mass - gathered) <= 1e-14 * gathered


class TestStrangStep:
    def test_stacked_components_step_as_if_alone(self):
        grid = Grid.make((64, 64), (1e-6, 1e-6))
        rng = np.random.default_rng(3)
        psi = rng.standard_normal((2, 64, 64)) + 1j * rng.standard_normal((2, 64, 64))
        kin = kinetic_phase(grid, ME, 1e-15)
        half = np.exp(1j * rng.standard_normal((64, 64)))
        both = strang_step(psi, kin, lambda p: half * p)
        for c in range(2):
            alone = strang_step(psi[c], kin, lambda p: half * p)
            assert np.array_equal(both[c], alone)


class TestStepSize:
    def test_rejects_coarse_step(self):
        grid, f0 = electron_field()
        dt_max = (math.pi / 4) * HBAR / kinetic_ceiling(grid, ME)
        with pytest.raises(StepSizeError) as err:
            propagate(f0, FreePotential(), 2 * dt_max, 10)
        assert "suggest" in str(err.value)

    def test_coupled_axes_phase_is_the_k0_row(self):
        # the free-axis stepper builds its factor on the coupled axes only
        grid = Grid.make((64, 128), (1e-6, 3e-6))
        full = kinetic_phase(grid, ME, 1e-16)
        assert np.array_equal(kinetic_phase(grid, ME, 1e-16, (1,)), full[0])
        assert np.array_equal(kinetic_phase(grid, ME, 1e-16, (0,)), full[:, 0])
        # the step-size check keeps the whole grid's ceiling
        dt_max = (math.pi / 4) * HBAR / kinetic_ceiling(grid, ME)
        for axes in (None, (0,), (1,)):
            kinetic_phase(grid, ME, 0.999 * dt_max, axes)
            with pytest.raises(StepSizeError):
                kinetic_phase(grid, ME, dt_max, axes)

    def test_suggestion_is_stable(self):
        grid, f0 = electron_field()
        dt = suggest_dt(grid, LinearPotential(1e-20, 0), ME)
        assert dt * kinetic_ceiling(grid, ME) / HBAR < math.pi / 4


# ---------------------------------------------------------------------------
# every record of a run against an oracle that uses nothing of the Strang
# loop: a closed form where V is linear, and the Chebyshev propagator of
# the same H where it is not.  Each pin holds the value measured at this
# tree (in the comment) with about 5x headroom, so a tenfold regression
# fails.

PACKET = GaussianPacket(-5e-7, 2e-7, 5e-26, ME)      # electron_field's


def closed_form_gaps(potential, slope):
    """The largest gap of each moment of :func:`electron_field`'s packet,
    run 240 steps in V = ``slope`` x and recorded every 24, from its closed
    form.  A Gaussian in a linear potential stays Gaussian, and Strang
    splitting is exact there up to a global phase, so <x> = x0 + p0 t / m -
    slope t^2 / 2m, <p> = p0 - slope t and the width is
    core.packet_width_at / sqrt(2) (the convention of the trace's widths)."""
    grid, f0 = electron_field()
    f1 = propagate(f0, potential, suggest_dt(grid, potential, ME), 240,
                   record_every=24)
    t = np.asarray(f1.trace.times)
    assert len(t) == 11 and t[0] == 0.0
    x, p, w = (np.asarray(getattr(f1.trace, name))[:, 0]
               for name in ("mean_position", "mean_momentum", "widths"))
    m, x0, p0, a = ME, PACKET.center, PACKET.momentum, PACKET.width
    w_exact = np.array([packet_width_at(PACKET, ti) for ti in t]) / math.sqrt(2.0)
    return {
        "x_in_widths":
            np.max(np.abs(x - (x0 + p0 * t / m - slope * t ** 2 / (2.0 * m)))) / a,
        "p_in_hbar_per_width": np.max(np.abs(p - (p0 - slope * t))) * a / HBAR,
        "widths_relative": np.max(np.abs(w / w_exact - 1.0)),
    }


CLOSED_FORM_PINS = {
    "free": {"x_in_widths": 5e-15,                 # 1.06e-15
             "p_in_hbar_per_width": 1.1e-13,       # 2.18e-14
             "widths_relative": 1.5e-14},          # 3.00e-15
    "linear": {"x_in_widths": 1e-14,               # 2.12e-15
               "p_in_hbar_per_width": 1.6e-13,     # 3.27e-14
               "widths_relative": 2.8e-14},        # 5.66e-15
}


@pytest.mark.parametrize("run, potential, slope", [
    ("free", FreePotential(), 0.0),
    ("linear", LinearPotential(-1e-20, 0), -1e-20),
], ids=["free", "linear"])
def test_every_record_matches_the_closed_form(run, potential, slope):
    gaps = closed_form_gaps(potential, slope)
    for key, pin in CLOSED_FORM_PINS[run].items():
        assert gaps[key] < pin, (key, gaps[key])


def quartic_gap(scale, steps):
    """The relative L2 gap between :func:`propagate` and
    :func:`chebyshev_propagate`, exact to rounding, after ``steps`` steps of
    ``scale`` times the suggested step in V = c4 x^4 (an anharmonic well,
    where no closed form holds) from a packet at rest off its centre."""
    grid = Grid.make(512, 4e-6)
    f0 = initialize_gaussian(grid, GaussianPacket(-3e-7, 2e-7, 0.0, ME))
    potential = SampledPotential(lambda x: 2e-21 * (x / 1e-6) ** 4)
    dt = scale * suggest_dt(grid, potential, ME)
    strang = propagate(f0, potential, dt, steps).psi
    # H = hbar^2 k^2 / 2m + V, its spectrum in [0, kinetic ceiling + max V]
    v = potential.values(grid)
    kin = grid.k2() * (HBAR ** 2 / (2.0 * ME))
    half_width = 0.5 * (kinetic_ceiling(grid, ME) + float(v.max()))

    def twice_h_norm(p, out):
        fourier_multiply(p, kin, out)
        out += (v - half_width) * p
        out *= 2.0 / half_width
        return out
    exact = chebyshev_propagate(f0.psi, twice_h_norm, half_width, half_width,
                                steps * dt, 1, boundary_monitor(grid))[0]
    return np.linalg.norm(strang - exact) / np.linalg.norm(exact)


def test_quartic_well_matches_the_exact_propagator():
    # the suggested step over 1,200 steps, then half and twice that step
    # over the same time
    gap, finer, coarser = (quartic_gap(1.0, 1200), quartic_gap(0.5, 2400),
                           quartic_gap(2.0, 600))
    assert gap < 3e-11                                 # 5.91e-12
    # Strang splitting is second order: halving the step quarters the gap
    # (measured 3.80 and 3.98)
    assert 3.5 < gap / finer < 4.5
    assert 3.5 < coarser / gap < 4.5


def _write_field(path, data, grid):
    # each chunk is copied before the next is taken
    path.write_bytes(b"".join(map(bytes, field_array_bytes(
        data, grid.spacings, grid.origins))))


def test_field_array_round_trip(tmp_path):
    grid = Grid.make((64, 64), (1e-6, 2e-6))
    f = initialize_gaussian(grid, (GaussianPacket(0.0, 1e-7, 0.0, ME),
                                   GaussianPacket(0.0, 2e-7, 0.0, ME)))
    path = tmp_path / "field.bin"
    _write_field(path, f.psi, grid)
    data, spacings, origins = read_field_array(path)
    assert np.array_equal(data, f.psi)
    assert spacings == grid.spacings
    assert origins == grid.origins


def test_field_array_truncated_file_is_a_domain_error(tmp_path):
    grid = Grid.make(64, 1e-6)
    path = tmp_path / "field.bin"
    _write_field(path, np.ones(64, dtype=complex), grid)
    whole = path.read_bytes()
    for size in (10, 20, len(whole) - 1):
        path.write_bytes(whole[:size])
        with pytest.raises(DomainError) as err:
            read_field_array(path)
        assert "truncated" in str(err.value)


def test_field_array_corrupt_shape_is_a_domain_error(tmp_path):
    grid = Grid.make((64, 64), (1e-6, 1e-6))
    path = tmp_path / "field.bin"
    _write_field(path, np.ones((64, 64), dtype=complex), grid)
    whole = path.read_bytes()
    # a shape claiming ~2.7e20 bytes must not size a read buffer
    path.write_bytes(whole[:12] + np.uint32(2 ** 32 - 1).tobytes() + whole[16:])
    with pytest.raises(DomainError) as err:
        read_field_array(path)
    assert "truncated" in str(err.value)


@pytest.mark.parametrize("ndim", [0, 3, 2 ** 32 - 1])
def test_field_array_bad_ndim_is_a_domain_error(tmp_path, ndim):
    grid = Grid.make(64, 1e-6)
    path = tmp_path / "field.bin"
    _write_field(path, np.ones(64, dtype=complex), grid)
    whole = path.read_bytes()
    path.write_bytes(whole[:8] + np.uint32(ndim).tobytes() + whole[12:])
    with pytest.raises(DomainError) as err:
        read_field_array(path)
    assert "axes" in str(err.value)


# ---------------------------------------------------------------------------
# free axes: a potential that depends on z only leaves x, axis 0, to exact
# free motion

XZ = Grid.make((64, 256), (1e-6, 2e-6))          # (x, z); z is coupled
BARRIER = SampledPotential(lambda xm, zm: 2e-21 * np.exp(-(zm / 5e-8) ** 2))


def xz_field(pz=3e-26, px=1e-26, z0=-3e-7, x0=1e-7):
    return initialize_gaussian(XZ, (GaussianPacket(x0, 8e-8, px, ME),
                                    GaussianPacket(z0, 1e-7, pz, ME)))


def boundary_step(call):
    with pytest.raises(BoundaryError) as err:
        call()
    return int(re.search(r"\(step (\d+)\)", str(err.value)).group(1))


def full_grid_steps(field, potential, dt, steps, record_every):
    """psi after ``steps`` steps of every axis, and a snapshot at each record."""
    grid = field.grid
    kin = kinetic_phase(grid, field.mass, dt)
    half = half_kick(potential.values(grid), dt)
    out = WaveField(grid, field.psi, field.mass)
    snaps = [observables(out)]
    for step in range(1, steps + 1):
        out.psi = strang_step(out.psi, kin, lambda p: p * half)
        if step % record_every == 0 or step == steps:
            snaps.append(observables(out))
    return out.psi, snaps


def full_grid_boundary_step(field, potential, dt, steps):
    """Step at which stepping every axis, checked on the full grid, stops."""
    grid = field.grid
    kin = kinetic_phase(grid, field.mass, dt)
    half = half_kick(potential.values(grid), dt)
    check = boundary_monitor(grid)
    psi = field.psi.copy()

    def run():
        nonlocal psi
        for step in range(1, steps + 1):
            psi = strang_step(psi, kin, lambda p: p * half)
            check(psi, step * dt, step)
    return boundary_step(run)


class TestFreeAxes:
    # a product field splits where V is a 2D array constant along axis 0
    @pytest.mark.parametrize("potential, split", [
        (FreePotential(), False),
        (LinearPotential(1e-20, 0), False),
        (LinearPotential(0.0, 1), True),           # constant along both
        (BARRIER, True),
        (SampledPotential(lambda xm, zm: 1e-14 * xm * zm), False),
    ], ids=["free", "linear-x", "constant", "barrier", "both"])
    def test_free_axes_are_read_off_v(self, monkeypatch, potential, split):
        calls, product_split = [], grid_module._product_split

        def logged(psi):
            calls.append(psi.shape)
            return product_split(psi)
        monkeypatch.setattr(grid_module, "_product_split", logged)
        propagate(xz_field(), potential, suggest_dt(XZ, potential, ME), 1)
        assert calls == ([XZ.points] if split else [])

    def test_matches_stepping_every_axis(self):
        f0 = xz_field()
        dt = suggest_dt(XZ, BARRIER, ME)
        a = propagate(f0, BARRIER, dt, 300, record_every=50)
        psi, snaps = full_grid_steps(f0, BARRIER, dt, 300, 50)
        assert a.psi.shape == f0.psi.shape
        assert np.max(np.abs(a.psi - psi)) < 1e-12 * np.max(np.abs(psi))
        assert len(a.trace.times) == len(snaps)
        for name in ("mean_position", "mean_momentum", "widths"):
            x = np.asarray(getattr(a.trace, name))
            y = np.asarray([getattr(s, name) for s in snaps])
            assert np.max(np.abs(x - y)) <= 1e-12 * np.max(np.abs(y))

    # 50 steps recorded every 20: the records at steps 0, 20, 40 and 50
    @pytest.mark.parametrize("potential", [LinearPotential(1e-20, 1), BARRIER],
                             ids=["linear-z", "barrier"])
    def test_records_match_observables_on_the_built_field(self, monkeypatch,
                                                          potential):
        pairs, product = [], grid_module._product_observables

        def logged(grid, u, b, fu2):
            snap = product(grid, u, b, fu2)
            built = WaveField(grid, u @ b, ME)
            pairs.append((snap, observables(built), built.psi))
            return snap
        monkeypatch.setattr(grid_module, "_product_observables", logged)
        dt = suggest_dt(XZ, potential, ME)
        out = propagate(xz_field(), potential, dt, 50, record_every=20)
        assert out.trace.times == pytest.approx([0.0, 20 * dt, 40 * dt, 50 * dt])
        assert len(pairs) == 4 and np.array_equal(pairs[-1][2], out.psi)
        for name in ("mean_position", "mean_momentum", "widths"):
            got = np.asarray([getattr(snap, name) for snap, _, _ in pairs])
            want = np.asarray([getattr(ref, name) for _, ref, _ in pairs])
            assert np.array_equal(got, np.asarray(getattr(out.trace, name)))
            # each column against its own scale
            assert np.all(np.abs(got - want)
                          <= 1e-14 * np.max(np.abs(want), axis=0)), name
        assert all(abs(snap.norm - ref.norm) <= 1e-14 for snap, ref, _ in pairs)

    def test_unsplit_field_matches_two_half_kicks(self):
        # V varies along both axes: every axis is stepped by the same loop
        potential = SampledPotential(
            lambda xm, zm: 2e-21 * np.exp(-(zm / 5e-8) ** 2 - (xm / 2e-7) ** 2))
        f0 = xz_field()
        dt = suggest_dt(XZ, potential, ME)
        a = propagate(f0, potential, dt, 300, record_every=50)
        psi, snaps = full_grid_steps(f0, potential, dt, 300, 50)
        assert np.max(np.abs(a.psi - psi)) < 1e-12 * np.max(np.abs(psi))
        x = np.asarray(a.trace.mean_momentum)
        y = np.asarray([s.mean_momentum for s in snaps])
        assert np.max(np.abs(x - y)) <= 1e-12 * np.max(np.abs(y))

    @pytest.mark.parametrize("potential", [
        LinearPotential(1e-20, 1),        # (y, z): split on axis 0
        LinearPotential(1e-20, 0),        # (z, x): every axis stepped
    ], ids=["yz", "zx"])
    def test_never_mutates_its_input(self, potential):
        f0 = xz_field()
        before = f0.psi.copy()
        dt = suggest_dt(XZ, potential, ME)
        out = propagate(f0, potential, dt, 20, record_every=10)
        assert np.array_equal(f0.psi, before) and f0.time == 0.0
        back = propagate(out, potential, -dt, 20)
        assert np.max(np.abs(back.psi - before)) < 1e-10 * np.max(np.abs(before))

    # each packet starts off the barrier and moves along one axis only
    @pytest.mark.parametrize("pz, px, z0, x0", [(0.0, 1e-26, -4e-7, 1e-7),
                                                (-2e-26, 0.0, -6e-7, 0.0)],
                             ids=["free-margin", "coupled-margin"])
    def test_margin_aborts_no_later_than_full_grid(self, pz, px, z0, x0):
        f0 = xz_field(pz=pz, px=px, z0=z0, x0=x0)
        dt = suggest_dt(XZ, BARRIER, ME)
        reference = full_grid_boundary_step(f0, BARRIER, dt, 100_000)
        step = boundary_step(lambda: propagate(f0, BARRIER, dt, 100_000))
        assert reference - 2 <= step <= reference

    def test_long_run_holds_nothing_sized_by_steps(self):
        f0 = xz_field(pz=-2e-26, px=0.0, z0=-6e-7, x0=0.0)
        dt = suggest_dt(XZ, BARRIER, ME)
        peaks, stops = [], []
        for steps in (2_000, 100_000):
            tracemalloc.start()
            try:
                stops.append(boundary_step(lambda: propagate(f0, BARRIER, dt, steps)))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert stops[0] == stops[1] < 2_000
        # one float per step would add 0.8 MB
        assert peaks[1] - peaks[0] < 64_000


class _CountingFFT:
    """Stands in for grid._fft and logs every transform it is asked for,
    complex or real (by input shape and axes, and by name and input shape),
    and the shape and thread count of those that name their workers."""

    TRANSFORMS = ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft", "rfftn",
                  "irfftn")

    def __init__(self, real):
        self.real, self.calls, self.named, self.threaded = real, [], [], []

    def __getattr__(self, name):
        fn = getattr(self.real, name)
        if name not in self.TRANSFORMS:
            return fn

        def logged(x, *args, **kwargs):
            self.calls.append((np.shape(x), kwargs.get("axes", kwargs.get("axis"))))
            self.named.append((name, np.shape(x)))
            if "workers" in kwargs:
                self.threaded.append((np.shape(x), kwargs["workers"]))
            return fn(x, *args, **kwargs)
        return logged


@pytest.mark.parametrize("record_every", [0, 20])
def test_steps_transform_only_the_coupled_axis(monkeypatch, record_every):
    proxy = _CountingFFT(grid_module._fft)
    monkeypatch.setattr(grid_module, "_fft", proxy)
    f0 = xz_field()
    steps = 60
    propagate(f0, BARRIER, suggest_dt(XZ, BARRIER, ME), steps,
              record_every=record_every)
    n_x, n_z = XZ.points
    # a product field steps its one coupled-axis row (a 1D fft and ifft
    # along its last axis), reads its free factor (transformed once before
    # the loop) at every step, and reads each record from its factors: one
    # 1D fft of the row, and no transform of the full grid
    per_step = [c for c in proxy.calls if c == ((1, n_z), None)]
    free_axis = [c for c in proxy.calls if c == ((n_x, 1), 0)]
    per_record = [c for c in proxy.calls if c == ((n_z,), None)]
    records = steps // record_every + 1 if record_every else 0
    assert len(per_step) == 2 * steps
    assert proxy.named.count(("fft", (1, n_z))) == steps
    assert proxy.named.count(("ifft", (1, n_z))) == steps
    assert len(free_axis) == steps + 1
    assert proxy.named.count(("fft", (n_z,))) == len(per_record) == records
    assert all(math.prod(shape) < n_x * n_z for shape, _ in proxy.calls)
    assert len(proxy.calls) == len(per_step) + len(free_axis) + len(per_record)


@pytest.mark.parametrize("record_every", [0, 20])
def test_non_product_field_transforms_the_full_grid(monkeypatch, record_every):
    proxy = _CountingFFT(grid_module._fft)
    monkeypatch.setattr(grid_module, "_fft", proxy)
    steps = 60
    propagate(rank2_field(), BARRIER, suggest_dt(XZ, BARRIER, ME), steps,
              record_every=record_every)
    # the transform pair of each step and one transform per snapshot, all
    # on the full (n_x, n_z) grid, axis 0 first
    records = steps // record_every + 1 if record_every else 0
    assert proxy.calls == [(XZ.points, (-1, -2))] * (2 * steps + records)


def density_step():
    g = Grid.make(512, 1e-6)
    rho = pure_to_density(initialize_gaussian(g, GaussianPacket(0.0, 5e-8, 0.0, ME)))
    propagate_density(rho, None, ceiling_dt(g, ME), 1)
    return 1        # transform pairs: one Liouville step


def spinor_step():
    g = Grid.make((64, 64), (1e-6, 1e-6))
    pk = GaussianPacket(0.0, 1.25e-7, 0.0, ME)
    c = 1.0 / math.sqrt(2.0)
    spinor = SpinorField(initialize_gaussian(g, (pk, pk)),
                         initialize_gaussian(g, (pk, pk)), c, c)
    config = SGFieldConfig(200 * 5e-7, 1.0)
    return propagate_coupled(spinor, config, ceiling_dt(g, ME), 1)[1]   # H-applications


def free_axis_step():
    g = Grid.make((64, 2048), (1e-6, 2e-6))
    f0 = initialize_gaussian(g, (GaussianPacket(1e-7, 8e-8, 1e-26, ME),
                                 GaussianPacket(-3e-7, 1e-7, 3e-26, ME)))
    propagate(f0, BARRIER, suggest_dt(g, BARRIER, ME), 1)
    return 1


@pytest.mark.parametrize("step,calls", [
    # a density matrix's real R and the half spectrum n x (n/2 + 1) of it,
    # transformed in two passes each way: the rows, then the columns in
    # place, and back the columns in place, then the rows
    (density_step, (("rfft", (512, 512)), ("fft", (512, 257)),
                    ("ifft", (512, 257)), ("irfft", (512, 257)))),
    (spinor_step, (("fftn", (2, 64, 64)), ("ifftn", (2, 64, 64)))),
    (free_axis_step, (("fft", (1, 2048)), ("ifft", (1, 2048)))),
], ids=["density-512", "spinor-2x64x64", "free-axis-row-2048"])
def test_every_transform_runs_on_one_thread(monkeypatch, step, calls):
    proxy = _CountingFFT(grid_module._fft)
    monkeypatch.setattr(grid_module, "_fft", proxy)
    pairs = step()
    # the forward and inverse transforms of the one Strang step, or of each
    # H-application of the coupled spinor's expansion; numpy.fft runs on
    # one thread, and no call names workers
    for call in calls:
        assert proxy.named.count(call) == pairs
    assert proxy.threaded == []


# ---------------------------------------------------------------------------
# the free-axis rows a run steps: one row b of a product field u b, or every
# row of any other field

def rank2_field(second=(2e-26, -1e-26, 2e-7, -1.2e-7)):
    """Sum of two product packets, normalized."""
    psi = xz_field().psi + xz_field(*second).psi
    return WaveField(XZ, psi / math.sqrt(np.sum(np.abs(psi) ** 2)
                                         * XZ.cell_volume), ME)


def seeded_field(seed=20260):
    """Complex Gaussian noise under a Gaussian envelope well inside the
    margins: full rank, with every row of it independent."""
    rng = np.random.default_rng(seed)
    xm, zm = XZ.open_axes()
    envelope = np.exp(-((zm + 3e-7) / 1.5e-7) ** 2 - (xm / 1.2e-7) ** 2)
    psi = envelope * (rng.standard_normal(XZ.points)
                      + 1j * rng.standard_normal(XZ.points))
    return WaveField(XZ, psi / math.sqrt(np.sum(np.abs(psi) ** 2)
                                         * XZ.cell_volume), ME)


def full_grid_fields(field, potential, dt, steps, record_every):
    """psi at step 0, at each record and at the end, stepping every axis."""
    grid = field.grid
    kin = kinetic_phase(grid, field.mass, dt)
    half = half_kick(potential.values(grid), dt)
    psi, fields = field.psi, [field.psi]
    for step in range(1, steps + 1):
        psi = strang_step(psi, kin, lambda p: p * half)
        if step % record_every == 0 or step == steps:
            fields.append(psi)
    return fields


def recorded_fields(monkeypatch, field, potential, dt, steps, record_every):
    """psi at each record of :func:`propagate` and at its return."""
    fields = []

    def logged(f):
        fields.append(f.psi.copy())
        return observables(f)
    monkeypatch.setattr(grid_module, "observables", logged)
    out = propagate(field, potential, dt, steps, record_every=record_every)
    assert np.array_equal(fields[-1], out.psi)
    return fields


def margin_masses(monkeypatch, field, potential, dt, steps):
    """The margin mass of each checked step, and the BoundaryError text."""
    masses = []

    def logged(grid, free=()):
        check = boundary_monitor(grid, free)

        def logged_check(*args):
            masses.append(check(*args))
            return masses[-1]
        return logged_check
    monkeypatch.setattr(grid_module, "boundary_monitor", logged)
    with pytest.raises(BoundaryError) as err:
        propagate(field, potential, dt, steps)
    return masses, str(err.value)


class TestRowBasis:
    @pytest.mark.parametrize("make, product", [(xz_field, True),
                                               (rank2_field, False),
                                               (seeded_field, False)],
                             ids=["product", "rank-2", "seeded"])
    def test_splits_only_a_product_field(self, make, product):
        psi = make().psi
        split = grid_module._product_split(psi)
        if not product:
            assert split is None
            return
        u, b = split
        assert u.shape == (XZ.points[0], 1) and b.shape == (1, XZ.points[1])
        assert abs(np.linalg.norm(u) - 1.0) < 1e-15
        assert np.linalg.norm(u @ b - psi) <= 1e-15 * np.linalg.norm(psi)

    @pytest.mark.parametrize("make", [rank2_field, seeded_field],
                             ids=["rank-2", "seeded"])
    def test_matches_stepping_every_axis(self, monkeypatch, make):
        f0 = make()
        dt = suggest_dt(XZ, BARRIER, ME)
        got = recorded_fields(monkeypatch, f0, BARRIER, dt, 60, 20)
        want = full_grid_fields(f0, BARRIER, dt, 60, 20)
        assert len(got) == len(want) == 4
        for a, b in zip(got, want):
            assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)

    # a product packet that moves out along x, the free axis, or along z
    @pytest.mark.parametrize("packet", [(0.0, 1e-26, -4e-7, 1e-7),
                                        (-2e-26, 0.0, -6e-7, 0.0)],
                             ids=["free-margin", "coupled-margin"])
    def test_margin_mass_and_stop_match_every_row(self, monkeypatch, packet):
        f0 = xz_field(*packet)
        dt = suggest_dt(XZ, BARRIER, ME)
        masses, stop = margin_masses(monkeypatch, f0, BARRIER, dt, 100_000)
        # every row stepped on the full grid: the coupled (z) axis's outer
        # slabs plus the free (x) axis's, each across the whole grid
        kin = kinetic_phase(XZ, ME, dt)
        half = half_kick(BARRIER.values(XZ), dt)
        w_x, w_z = map(grid_module._margin_width, XZ.points)
        psi, want = f0.psi, []
        while not want or want[-1] < BOUNDARY_TOLERANCE:
            psi = strang_step(psi, kin, lambda p: p * half)
            slabs = (psi[:w_x], psi[-w_x:], psi[:, :w_z], psi[:, -w_z:])
            want.append(sum(np.vdot(e, e).real for e in slabs) * XZ.cell_volume)
        # the check that raises returns no mass
        assert len(masses) == len(want) - 1 > 100
        assert (np.max(np.abs(np.subtract(masses, want[:-1])))
                <= 1e-9 * BOUNDARY_TOLERANCE)
        assert f"(step {len(want)})" in stop


# ---------------------------------------------------------------------------
# the Chebyshev propagator's numerics on numpy alone

BESSEL_ALPHAS = ([0.0, 1e-3, 0.5, 1.0, 10.0, 57.3, 99.99999, 100.0]
                 + list(np.random.default_rng(2027).uniform(0.0, 100.0, 200))
                 + [-1e-3, -0.5, -10.0, -57.3, -100.0, 1e-9, -1e-300])


def test_bessel_j_matches_scipy():
    jv = pytest.importorskip("scipy.special").jv
    for alpha in BESSEL_ALPHAS:
        n = int(2.0 * abs(alpha)) + 64
        err = np.abs(grid_module.bessel_j(alpha, n) - jv(np.arange(n), alpha))
        assert err.max() <= 1e-14, alpha


def test_bessel_j_at_zero_and_in_the_series_limit():
    assert grid_module.bessel_j(0.0, 4).tolist() == [1.0, 0.0, 0.0, 0.0]
    # J_k(alpha) = (alpha/2)^k / k! to rounding for tiny alpha
    assert grid_module.bessel_j(-2e-9, 3).tolist() == [1.0, -1e-9, 0.5e-18]


def textbook_propagate(psi, twice_h_norm, centre, half_width, dt, steps):
    """The three-term recurrence as written, with a fresh array per term
    (the chunking of :func:`~qratio.grid.chebyshev_propagate`)."""
    chunks = max(1, math.ceil(abs(half_width * dt / HBAR)
                              / grid_module.MAX_CHUNK_ALPHA))
    dt /= chunks
    coeffs = (grid_module.chebyshev_coefficients(half_width * dt / HBAR)
              * np.exp(-1j * centre * dt / HBAR))
    for _ in range(steps * chunks):
        prev, cur = psi, 0.5 * twice_h_norm(psi, np.empty_like(psi))
        psi = coeffs[0] * prev + coeffs[1] * cur
        for a in coeffs[2:]:
            nxt = twice_h_norm(cur, np.empty_like(cur)) - prev
            prev, cur = cur, nxt
            psi = psi + a * cur
    return psi


@pytest.mark.parametrize("shape", [(256,), (2, 64, 64)],
                         ids=["1d", "stacked-2x64x64"])
def test_buffered_recurrence_is_the_textbook_one_bit_for_bit(shape):
    # 2 H_n = a kinetic factor in Fourier space, a pointwise potential and,
    # for two stacked components, a pointwise coupling between them
    points = shape[-2:]
    grid = Grid.make(points, (1e-6,) * len(points))
    k2 = grid.k2()
    kin = 2.0 * k2 / k2.max() - 1.0
    rng = np.random.default_rng(7)
    v = rng.uniform(-0.5, 0.5, shape)
    off = rng.uniform(-0.3, 0.3, shape) * 1j if len(shape) == 3 else None
    psi = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    psi /= np.linalg.norm(psi)

    def twice_h_norm(p, out):
        grid_module.fourier_multiply(p, kin, out)
        out += v * p
        if off is not None:
            out += off * p[::-1]
        return out

    before = psi.copy()
    dt, half_width = 1e-15, 150.0 * HBAR / 1e-15    # two chunks per step
    got, t, _ = grid_module.chebyshev_propagate(
        psi, twice_h_norm, 0.2 * half_width, half_width, dt, 2,
        lambda p, t, chunk: None)
    expected = textbook_propagate(psi, twice_h_norm, 0.2 * half_width,
                                  half_width, dt, 2)
    assert got.tobytes() == expected.tobytes()
    assert psi.tobytes() == before.tobytes()      # the input is kept
    assert t == 2 * dt
