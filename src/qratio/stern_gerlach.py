"""Two-component spinor dynamics in an inhomogeneous magnet.

The field B = (0, -b0*y, B0 + b0*z) is divergence- and curl-free.  For
|B0| >> |b0*y| the fast precession around the z axis averages the
transverse force to zero and the two spin components decouple into
independent scalar equations with potentials -/+ mu_B*b0*z (the constant
e^{+/- i mu_B B0 t/hbar} phase is removed analytically and never
time-stepped).  ``propagate_coupled`` keeps the full 2x2 coupling,
including the fast precession, and is used to validate that approximation.

Large-spin beams are handled analytically: a spin-j coherent state splits
into bands at deflections proportional to m with binomial weights |c_k|^2,
which concentrate at m = j cos(theta) as j grows.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import fft as _fft  # noqa: F401  kept: bench/tracer.py proxies it

from .constants import BOHR_MAGNETON, HBAR
from .errors import DomainError, StepSizeError
from .grid import (LinearPotential, WaveField, boundary_monitor, kinetic_phase,
                   propagate, strang_step)
from .spin import SpinCoherentState, distribution

# ratio |B0| / max|b0*y| above which the decoupled equations are trusted
MIN_FIELD_RATIO = 50.0
# Strang steps per propagate call: [sg] steps, or the count derived from
# the duration and the step ceiling
MAX_STEPS = 200_000


def _check_steps(steps):
    if not 1 <= steps <= MAX_STEPS:
        raise DomainError(f"steps must be >= 1 and within the cap {MAX_STEPS}, "
                          f"got {steps}")


@dataclass(frozen=True)
class SGFieldConfig:
    """Magnet parameters: bias field B0 (T), gradient b0 (T/m), length of
    the field region (m) and the beam's transit speed (m/s)."""

    field_B0: float
    gradient_b0: float
    region_length: float
    transit_speed: float

    def __post_init__(self):
        if self.region_length <= 0.0 or self.transit_speed <= 0.0:
            raise DomainError("region length and transit speed must be positive")

    @property
    def transit_time(self):
        return self.region_length / self.transit_speed

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
        s = abs(self.c_up) ** 2 + abs(self.c_down) ** 2
        if abs(s - 1.0) > 1e-12:
            raise DomainError(f"|c_up|^2 + |c_down|^2 = {s} != 1")

    def densities(self):
        """Spin-weighted position densities (n_up, n_down)."""
        return (abs(self.c_up) ** 2 * self.up.density(),
                abs(self.c_down) ** 2 * self.down.density())


def gradient_potentials(config, axis):
    """The decoupled potentials (-mu_B b0 z for up, +mu_B b0 z for down)."""
    slope = BOHR_MAGNETON * config.gradient_b0
    return LinearPotential(-slope, axis), LinearPotential(+slope, axis)


def propagate_decoupled(spinor, config, dt, steps, z_axis=None,
                        record_every=0):
    """Evolve both components under their decoupled linear potentials.

    ``z_axis`` defaults to the last grid axis.  Components are never mixed;
    each conserves its own norm.
    """
    _check_steps(steps)
    if z_axis is None:
        z_axis = spinor.up.grid.ndim - 1
    v_up, v_down = gradient_potentials(config, z_axis)
    up = propagate(spinor.up, v_up, dt, steps, record_every=record_every)
    down = propagate(spinor.down, v_down, dt, steps, record_every=record_every)
    return SpinorField(up, down, spinor.c_up, spinor.c_down)


def precession_frequency(field_B0):
    """Larmor angular frequency 2 mu_B B0 / hbar (rad/s) for a spin-1/2
    moment of one Bohr magneton (electron g ~ 2 folded in)."""
    if field_B0 < 0.0:
        raise DomainError("B0 must be non-negative")
    return 2.0 * BOHR_MAGNETON * field_B0 / HBAR


def max_coupled_dt(config):
    """Step ceiling resolving the precession: (hbar / 2 mu_B B0) / 10."""
    return HBAR / (2.0 * BOHR_MAGNETON * abs(config.field_B0)) / 10.0


def propagate_coupled(spinor, config, dt, steps, record_populations_every=0):
    """Full two-component evolution on a 2D (y, z) grid.

    The potential is the exact 2x2 spin coupling -mu_B (sigma . B) with
    B = (0, -b0 y, B0 + b0 z), exponentiated in closed form per grid point,
    so each kick is exactly unitary.  The time step must resolve the
    precession period (see :func:`max_coupled_dt`).

    Returns (spinor, populations) where populations is a list of
    (t, P_up, P_down) samples of the total spin populations.
    """
    _check_steps(steps)
    grid = spinor.up.grid
    if grid.ndim != 2:
        raise DomainError("coupled propagation needs a 2D (y, z) grid")
    y = grid.axis(0)
    y_max = max(abs(y[0]), abs(y[-1]))
    config.check_bias(y_max)
    if abs(dt) > max_coupled_dt(config) * (1.0 + 1e-12):
        raise StepSizeError(
            f"|dt| = {abs(dt):.3e} s does not resolve the precession; "
            f"need <= {max_coupled_dt(config):.3e} s")
    kin = kinetic_phase(grid, spinor.up.mass, dt)

    ym, zm = grid.meshes()
    b_y = -config.gradient_b0 * ym
    b_z = config.field_B0 + config.gradient_b0 * zm
    b_mag = np.sqrt(b_y ** 2 + b_z ** 2)

    def spin_kick(angle):
        """exp(+i (angle / |B|) sigma.B) on the stacked (up, down) field."""
        cos_a, sin_over_b = np.cos(angle), np.sin(angle) / b_mag
        diag = np.array([cos_a + 1j * sin_over_b * b_z, cos_a - 1j * sin_over_b * b_z])
        off = np.array([sin_over_b * b_y, -sin_over_b * b_y])   # i * (-i b_y) = +b_y
        return lambda p: diag * p + off * p[::-1]

    # half kick of exp(+i dt mu_B (sigma.B) / 2 hbar); the held field lacks
    # its trailing half kick, so each step applies one full kick
    angle = 0.5 * dt * BOHR_MAGNETON * b_mag / HBAR
    half, full = spin_kick(angle), spin_kick(2.0 * angle)

    psi = np.array([spinor.c_up * spinor.up.psi, spinor.c_down * spinor.down.psi])
    check = boundary_monitor(grid)
    dv = grid.cell_volume
    populations = []
    t = spinor.up.time
    for step in range(1, steps + 1):
        psi = (half if step == 1 else full)(psi)
        psi = strang_step(psi, kin)
        t += dt
        check(psi, t, step)
        if record_populations_every and step % record_populations_every == 0:
            u, d = half(psi)
            populations.append((t, float(np.sum(np.abs(u) ** 2) * dv),
                                float(np.sum(np.abs(d) ** 2) * dv)))

    psi_u, psi_d = half(psi)
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
    out = SpinorField(up, down, c_up, c_down)
    return out, populations


def band_deflection(force, mass, transit_time, drift_time):
    """Deflection after the magnet plus free flight: F t^2/2m + (F t/m) t_drift."""
    acc = force / mass
    return 0.5 * acc * transit_time ** 2 + acc * transit_time * drift_time


def band_separation(config, mass, drift_time=0.0, moment=BOHR_MAGNETON):
    """Distance between the two spin-1/2 bands after transit plus drift."""
    tau = config.transit_time
    return 2.0 * band_deflection(moment * config.gradient_b0, mass, tau, drift_time)


@dataclass(frozen=True)
class BandHistogram:
    m_values: np.ndarray
    deflections: np.ndarray  # m
    weights: np.ndarray

    def mean_deflection(self):
        return float(self.weights @ self.deflections)

    def weight_within(self, center, half_width):
        sel = np.abs(self.deflections - center) <= half_width
        return float(self.weights[sel].sum())


def large_spin_bands(j, theta, phi, config, drift_time, mass, moment=None):
    """Deflection histogram of a spin-j coherent beam.

    Band k (m = -j + k) feels the linear-potential force (m/j) * moment * b0;
    ``moment`` is the full-polarization magnetic moment and defaults to
    2j mu_B so that j = 1/2 reproduces the single-Bohr-magneton force.
    Weights are exactly the spin-coherent J_z distribution.
    """
    state = SpinCoherentState.from_j(j, theta, phi)
    if mass <= 0.0:
        raise DomainError("mass must be positive")
    jj = state.two_j / 2.0
    if moment is None:
        moment = state.two_j * BOHR_MAGNETON
    dist = distribution(state)
    m_values = dist.m_values
    forces = (m_values / jj) * moment * config.gradient_b0 if jj > 0 else m_values * 0.0
    tau = config.transit_time
    z = band_deflection(forces, mass, tau, drift_time)
    return BandHistogram(m_values, z, dist.weights)
