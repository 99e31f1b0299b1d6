"""Two-component spinor dynamics in an inhomogeneous magnet.

The field B = (0, -b0*y, B0 + b0*z) is divergence- and curl-free.  For
|B0| >> |b0*y| the fast precession around the z axis averages the
transverse force to zero and the two spin components decouple into
independent scalar equations with potentials -/+ mu_B*b0*z (the constant
e^{+/- i mu_B B0 t/hbar} phase is removed analytically and never
time-stepped).  ``propagate_coupled`` keeps the full 2x2 coupling,
including the fast precession, and is used to validate that approximation.
Its Hamiltonian is time-independent with an exactly bounded spectrum, so
grid's Chebyshev propagator runs it, exact to rounding, on this module's
2x2 H-application and spectrum, with no steps to resolve the precession.

Large-spin beams are handled analytically: a spin-j coherent state splits
into bands at deflections proportional to m with binomial weights |c_k|^2,
which concentrate at m = j cos(theta) as j grows.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy import fft as _fft  # noqa: F401  kept: bench/tracer.py proxies it

from .constants import BOHR_MAGNETON, HBAR
from .core import check_amplitudes, square
from .errors import DomainError
from .grid import (LinearPotential, WaveField, boundary_monitor,
                   chebyshev_propagate, fourier_multiply, kinetic_ceiling,
                   propagate)
from .spin import SpinCoherentState, distribution

# ratio |B0| / max|b0*y| above which the decoupled equations are trusted
MIN_FIELD_RATIO = 50.0
# Strang steps per decoupled propagate call, such as the count an [sg]
# run derives from its duration and the spectral step ceiling
MAX_STEPS = 200_000


@dataclass(frozen=True)
class SGFieldConfig:
    """Magnet field: bias field B0 (T) and gradient b0 (T/m)."""

    field_B0: float
    gradient_b0: float

    def check_bias(self, y_max):
        if abs(self.field_B0) < MIN_FIELD_RATIO * abs(self.gradient_b0 * y_max):
            raise DomainError(
                f"|B0| = {abs(self.field_B0):.3e} T too small for decoupling: "
                f"needs >= {MIN_FIELD_RATIO} * |b0*y_max| = "
                f"{MIN_FIELD_RATIO * abs(self.gradient_b0 * y_max):.3e} T")


@dataclass
class SpinorField:
    """Spin-up and spin-down components with amplitudes (c_up, c_down).

    Each component field is individually normalized; the amplitudes carry
    the spin weights, |c_up|^2 + |c_down|^2 = 1.
    """

    up: WaveField
    down: WaveField
    c_up: complex
    c_down: complex

    def __post_init__(self):
        check_amplitudes(self.c_up, self.c_down)

    def densities(self):
        """Spin-weighted position densities (n_up, n_down)."""
        return (abs(self.c_up) ** 2 * self.up.density(),
                abs(self.c_down) ** 2 * self.down.density())


def gradient_potentials(config, axis):
    """The decoupled potentials (-mu_B b0 z for up, +mu_B b0 z for down)."""
    slope = BOHR_MAGNETON * config.gradient_b0
    return LinearPotential(-slope, axis), LinearPotential(+slope, axis)


def propagate_decoupled(spinor, config, dt, steps, record_every=0):
    """Evolve both components under their decoupled linear potentials along
    the last grid axis.  Components are never mixed; each conserves its own
    norm.
    """
    if not 1 <= steps <= MAX_STEPS:
        raise DomainError(f"steps must be >= 1 and within the cap {MAX_STEPS}, "
                          f"got {steps}")
    v_up, v_down = gradient_potentials(config, spinor.up.grid.ndim - 1)
    up = propagate(spinor.up, v_up, dt, steps, record_every=record_every)
    down = propagate(spinor.down, v_down, dt, steps, record_every=record_every)
    return SpinorField(up, down, spinor.c_up, spinor.c_down)


def _field(grid, config):
    """B_y = -b0 y and B_z = B0 + b0 z, each broadcast to the whole (y, z)
    grid, so that the products the Chebyshev loop forms of them are
    contiguous."""
    y, z = grid.open_axes()
    return np.broadcast_arrays(-config.gradient_b0 * y,
                               config.field_B0 + config.gradient_b0 * z)


def _spectrum(grid, mass, b_y, b_z):
    """(E_min, E_max): H's eigenvalues lie in [-mu_B |B|max, kinetic
    ceiling + mu_B |B|max], since -mu_B sigma.B has eigenvalues
    -/+ mu_B |B| at each point."""
    zeeman = BOHR_MAGNETON * float(np.max(np.hypot(b_y, b_z)))
    return -zeeman, kinetic_ceiling(grid, mass) + zeeman


def coupled_alpha(spinor, config, t):
    """alpha = (E_max - E_min) t / 2 hbar of a coupled run of length t: one
    Chebyshev expansion over t applies H a little more than alpha times."""
    b_y, b_z = _field(spinor.up.grid, config)
    e_min, e_max = _spectrum(spinor.up.grid, spinor.up.mass, b_y, b_z)
    return (e_max - e_min) * t / (2.0 * HBAR)


def propagate_coupled(spinor, config, dt, steps):
    """Full two-component evolution on a 2D (y, z) grid over ``steps``
    intervals of length ``dt``: :func:`~qratio.grid.chebyshev_propagate` of
    H = hbar^2 k^2 / 2m - mu_B sigma.B, spectrum in [E_min, E_max] (see
    :func:`coupled_alpha`), each H-application one FFT pair and a pointwise
    2x2 product.  Returns (spinor, applications), the H-application count.
    """
    grid = spinor.up.grid
    if grid.ndim != 2:
        raise DomainError("coupled propagation needs a 2D (y, z) grid")
    y = grid.axis(0)
    config.check_bias(max(abs(y[0]), abs(y[-1])))
    if steps < 1:
        raise DomainError(f"steps must be >= 1, got {steps}")
    b_y, b_z = _field(grid, config)
    e_min, e_max = _spectrum(grid, spinor.up.mass, b_y, b_z)
    half_width = 0.5 * (e_max - e_min)
    centre = e_min + half_width

    # 2 H_n = 2 (H - E_c) / (dE / 2): the kinetic part and the shift act in
    # Fourier space, -mu_B sigma.B pointwise as diag * p + off * p[::-1]
    kin = (HBAR ** 2 / spinor.up.mass * grid.k2() - 2.0 * centre) / half_width
    s = 2.0 * BOHR_MAGNETON / half_width
    # complex once here: a product with the complex spinor would cast a
    # real factor at every H-application, to the same values
    kin = kin.astype(complex)
    diag = np.array([-s * b_z, s * b_z], dtype=complex)
    off = np.array([1j * s * b_y, -1j * s * b_y])

    psi = np.array([spinor.c_up * spinor.up.psi, spinor.c_down * spinor.down.psi])
    scratch = np.empty_like(psi)

    def twice_h_norm(p, out):
        fourier_multiply(p, kin, out)
        out += np.multiply(diag, p, out=scratch)
        out += np.multiply(off, p[::-1], out=scratch)
        return out

    psi, t, applications = chebyshev_propagate(
        psi, twice_h_norm, centre, half_width, dt, steps,
        boundary_monitor(grid), spinor.up.time)

    dv = grid.cell_volume
    psi_u, psi_d = psi
    p_up = float(np.sum(np.abs(psi_u) ** 2) * dv)
    p_down = float(np.sum(np.abs(psi_d) ** 2) * dv)
    total = math.sqrt(p_up + p_down)   # unitary up to rounding; drift recorded
    drift = abs(total - 1.0)
    c_up = math.sqrt(p_up) / total
    c_down = math.sqrt(p_down) / total
    up = WaveField(grid, psi_u / (total * (c_up if c_up > 0 else 1.0)),
                   spinor.up.mass, t, norm_drift=drift)
    down = WaveField(grid, psi_d / (total * (c_down if c_down > 0 else 1.0)),
                     spinor.down.mass, t, norm_drift=drift)
    return SpinorField(up, down, c_up, c_down), applications


def band_deflection(force, mass, transit_time, drift_time):
    """Deflection after the magnet plus free flight: F t^2/2m + (F t/m) t_drift."""
    acc = force / mass
    return (0.5 * acc * square(transit_time, "transit time")
            + acc * transit_time * drift_time)


def band_separation(config, mass, transit_time):
    """Distance between the two spin-1/2 bands at the magnet's exit."""
    return 2.0 * band_deflection(BOHR_MAGNETON * config.gradient_b0, mass,
                                 transit_time, 0.0)


@dataclass(frozen=True)
class BandHistogram:
    m_values: np.ndarray
    deflections: np.ndarray  # m
    weights: np.ndarray

    def mean_deflection(self):
        return float(self.weights @ self.deflections)


def large_spin_bands(j, theta, config, transit_time, drift_time, mass):
    """Deflection histogram of a spin-j coherent beam polarized at polar
    angle ``theta``, after ``transit_time`` in the magnet and ``drift_time``
    of free flight.

    Band k (m = -j + k) feels the linear-potential force (m/j) * moment * b0,
    with the full-polarization moment 2j mu_B, so that j = 1/2 reproduces
    the single-Bohr-magneton force.  Weights are exactly the spin-coherent
    J_z distribution, which the azimuth phi does not change.
    """
    state = SpinCoherentState.from_j(j, theta)
    if mass <= 0.0:
        raise DomainError("mass must be positive")
    jj = state.two_j / 2.0
    moment = state.two_j * BOHR_MAGNETON
    dist = distribution(state)
    m_values = dist.m_values
    forces = (m_values / jj) * moment * config.gradient_b0 if jj > 0 else m_values * 0.0
    z = band_deflection(forces, mass, transit_time, drift_time)
    return BandHistogram(m_values, z, dist.weights)
