"""Position-basis density matrices under environment-induced localization.

A monitoring environment with de Broglie wavelength lambda damps spatial
coherences rho(x, x') at the saturated rate Lambda once |x - x'| >> lambda,
while separations well inside one packet (|x - x'| << lambda) are
unresolved and undamped.  The interpolating kernel used here,

    F(d) = Lambda * (1 - exp(-d^2 / lambda^2)),

is quadratic at short distance and saturates at Lambda, the minimal smooth
form with both limits; it is completely positive (Gaussian kernel, Schur
products) and leaves the diagonal strictly untouched.  Damping drives a
split packet into a position mixture - "either here or there" - which is
decohered but still fully quantum mechanical.

A density matrix is held as one real matrix R = Re rho + Im rho: rho is
Hermitian, so Re rho is symmetric and Im rho antisymmetric, and R carries
both.  One loop, :func:`propagate_density`, steps every density matrix
in free flight: the free step of both indices
(:func:`~qratio.grid.liouville_step`, real transforms of half the
spectrum), then the damping kernel, both built once per call;
:func:`apply_damping` is the kernel alone.  Every state is Hermitian
exactly, by construction.
"""

import copy
import math
from dataclasses import dataclass

import numpy as np
from numpy import fft as _fft  # noqa: F401  kept: bench/tracer.py proxies it

from .constants import HBAR
from .core import GaussianPacket, check_amplitudes
from .errors import CoherenceUndefinedError, DomainError
from .grid import (FreePotential, WaveField, boundary_monitor,
                   initialize_gaussian, liouville_phase, liouville_step,
                   propagate)

MAX_STEPS = 100_000     # density-matrix steps per run, and history samples


@dataclass(frozen=True)
class EnvironmentSpec:
    """Environment de Broglie wavelength (m) and saturated damping rate (1/s)."""

    lambda_env: float
    rate_Lambda: float

    def __post_init__(self):
        if self.lambda_env <= 0.0 or self.rate_Lambda <= 0.0:
            raise DomainError("environment wavelength and rate must be positive")

    def damping_rate(self, separation):
        """F(d) = Lambda (1 - exp(-d^2/lambda^2))."""
        d = np.asarray(separation, dtype=float)
        return self.rate_Lambda * (-np.expm1(-(d / self.lambda_env) ** 2))


class DensityMatrix:
    """rho(x, x') on a 1D grid with continuum normalization Tr = Int rho dx.

    The constructor takes a complex matrix and keeps its Hermitian part as
    ``packed``, R = Re rho + Im rho; ``rho`` unpacks it on demand.  The
    observables read R: Re rho is its diagonal, and |rho_ij|^2 =
    (R_ij^2 + R_ji^2) / 2.
    """

    MAX_POINTS = 1024   # N^2 storage; scenarios are sized to fit

    def __init__(self, grid, rho, mass, time=0.0):
        n = _matrix_points(grid)
        if np.shape(rho) != (n, n):
            raise DomainError("rho shape must match the grid")
        self.grid, self.mass, self.time = grid, mass, time
        # R = Re H + Im H of H = (rho + rho^H) / 2
        re, im = np.real(rho), np.imag(rho)
        self.packed = re + im
        self.packed += (re - im).T
        self.packed *= 0.5

    @property
    def rho(self):
        r = self.packed
        out = np.empty(r.shape, dtype=complex)
        np.add(r, r.T, out=out.real)
        np.subtract(r, r.T, out=out.imag)
        out *= 0.5
        return out

    def trace(self):
        return float(np.trace(self.packed) * self.grid.spacings[0])

    def purity(self):
        # sum |rho|^2 = sum R^2: the cross terms of Re rho and Im rho cancel
        dx = self.grid.spacings[0]
        v = self.packed.ravel()
        return float(np.einsum("i,i->", v, v) * dx * dx)

    def smallest_eigenvalue(self):
        """Least eigenvalue of the trace-normalized operator (on demand)."""
        w = np.linalg.eigvalsh(self.rho * self.grid.spacings[0])
        return float(w[0])

    def position_density(self):
        return np.diagonal(self.packed).copy()

    def copy(self):
        out = copy.copy(self)
        out.packed = self.packed.copy()
        return out


def _matrix_points(grid):
    """The point count n of a grid that may carry an n x n density matrix."""
    if grid.ndim != 1:
        raise DomainError("density matrices are 1D only")
    n = grid.points[0]
    if n > DensityMatrix.MAX_POINTS:
        raise DomainError(f"density-matrix grids are capped at "
                          f"{DensityMatrix.MAX_POINTS} points, got {n}")
    return n


def pure_to_density(field):
    """rho = psi psi* for a normalized 1D wave field (purity 1)."""
    _matrix_points(field.grid)      # before the n^2 allocation
    psi = field.psi
    return DensityMatrix(field.grid, np.outer(psi, psi.conj()), field.mass,
                         field.time)


def damping_kernel(grid, env, duration):
    """Elementwise factor exp(-F(|x - x'|) * duration)."""
    x = grid.axis(0)
    return np.exp(-env.damping_rate(np.abs(x[:, None] - x[None, :])) * duration)


def apply_damping(rho, env, duration):
    """Pure localization over ``duration`` (no Hamiltonian): the exact
    kernel, once.  ``rho`` is not changed."""
    state = rho.copy()
    state.packed *= damping_kernel(state.grid, env, duration)
    state.time += duration
    return state


def propagate_density(rho, env, dt, steps, observe=None):
    """Evolve ``steps`` Trotter steps of size ``dt`` of free flight under
    localization: the free step of both indices (the Liouville form,
    kinetic factor K(k) K*(k'); K is even in k, so U^H = F K* F^-1), then
    elementwise damping, both on the packed R = Re rho + Im rho; the real,
    symmetric damping kernel D takes R to D o R.  ``env=None`` leaves out
    the damping.  ``observe(state, step)`` sees steps 1 .. ``steps``; every
    state is Hermitian exactly.  ``rho`` is not changed.
    """
    if steps < 1:
        raise DomainError("steps must be >= 1")
    state = rho.copy()
    del rho     # a caller that let go of the input frees it here
    kin = liouville_phase(state.grid, state.mass, dt)
    kernel = None if env is None else damping_kernel(state.grid, env, dt)
    for step in range(1, steps + 1):
        state.packed = liouville_step(state.packed, kin)
        if kernel is not None:
            state.packed *= kernel
        state.time += dt
        if observe is not None:
            observe(state, step)
    return state


def diagonal_monitor(grid):
    """observe(state, step) for :func:`propagate_density`: the
    :func:`~qratio.grid.boundary_monitor` check of rho's diagonal."""
    check = boundary_monitor(grid)
    # the check sums |psi|^2; diagonal rounding near -1e-20 counts as 0
    return lambda state, step: check(
        np.sqrt(np.maximum(state.position_density(), 0.0)), state.time, step)


def _apply_unitary(rho, dt):
    """rho' = U rho U^H with U one free step."""
    return propagate_density(rho, None, dt, 1)


def decohere_step(rho, env, dt):
    """One Trotter step of :func:`propagate_density`."""
    return propagate_density(rho, env, dt, 1)


def coherence(rho, x1, x2):
    """|rho(x1, x2)| / sqrt(rho(x1, x1) rho(x2, x2)) at the nearest grid points."""
    x = rho.grid.axis(0)
    i1 = int(np.argmin(np.abs(x - x1)))
    i2 = int(np.argmin(np.abs(x - x2)))
    r = rho.packed
    d1, d2 = float(r[i1, i1]), float(r[i2, i2])
    if d1 <= 0.0 or d2 <= 0.0:
        raise CoherenceUndefinedError(
            f"vanishing diagonal density at x = {x[i1]:.3e} or {x[i2]:.3e}")
    # |rho_12| = sqrt((R_12^2 + R_21^2) / 2)
    return math.hypot(r[i1, i2], r[i2, i1]) / math.sqrt(2.0 * d1 * d2)


# ---------------------------------------------------------------------------
# timescale bookkeeping


RELIABLE = "localization model reliable"
RANDOM_MOTION = "random-motion regime: localization model unreliable"
ORDERING_VIOLATED = "timescale ordering violated: localization model unreliable"

_MARGIN = 10.0


@dataclass(frozen=True)
class TimescaleReport:
    tau_dec: float
    tau_trans: float
    tau_diff: float
    tau_diss: float
    cond_times: bool        # tau_dec << tau_trans << tau_diff, tau_diss
    cond_split: bool        # separation >> packet width
    cond_wavelength: bool   # width << lambda << separation
    verdict: str


def timescale_report(packet_width, separation, env, transit_length,
                     transit_speed, mass, tau_diss):
    """Check the hierarchy under which per-packet dynamics stays pure.

    tau_dec is evaluated at the configured separation, tau_diff = m a^2/hbar,
    tau_trans = transit length / speed; the dissipation time has no general
    closed form and is passed through as supplied.  Each ordering is flagged
    with a margin factor of 10.
    """
    if min(packet_width, separation, transit_length, transit_speed, mass) <= 0.0:
        raise DomainError("all scenario parameters must be positive")
    rate = float(env.damping_rate(separation))
    tau_dec = 1.0 / rate if rate > 0.0 else math.inf
    tau_trans = transit_length / transit_speed
    tau_diff = mass * packet_width ** 2 / HBAR
    cond_times = (_MARGIN * tau_dec <= tau_trans
                  and _MARGIN * tau_trans <= tau_diff
                  and _MARGIN * tau_trans <= tau_diss)
    cond_split = separation >= _MARGIN * packet_width
    cond_wavelength = (_MARGIN * packet_width <= env.lambda_env
                       and _MARGIN * env.lambda_env <= separation)
    if tau_diss < tau_trans:
        verdict = RANDOM_MOTION
    elif cond_times and cond_split and cond_wavelength:
        verdict = RELIABLE
    else:
        verdict = ORDERING_VIOLATED
    return TimescaleReport(tau_dec, tau_trans, tau_diff, tau_diss,
                           cond_times, cond_split, cond_wavelength, verdict)


# ---------------------------------------------------------------------------
# decohered two-band scenario


@dataclass
class BandIntensityReport:
    intensities: tuple        # weight in each half-plane band
    pure_intensities: tuple   # same bands from an undamped wave-function run
    coherence: float          # between the band centers
    initial_coherence: float
    trace_drift: float
    purity: float
    times: np.ndarray
    coherence_history: np.ndarray
    purity_history: np.ndarray
    final_rho: DensityMatrix = None


def two_band_state(grid, c1, c2, packets):
    """The normalized c1 psi_1 + c2 psi_2 of two Gaussian packets on a 1D
    grid; :func:`~qratio.grid.initialize_gaussian` validates both."""
    f1, f2 = (initialize_gaussian(grid, p) for p in packets)
    psi = c1 * f1.psi + c2 * f2.psi
    psi /= math.sqrt(np.sum(np.abs(psi) ** 2) * grid.cell_volume)
    return WaveField(grid, psi, f1.mass)


def decohered_sg_scenario(c1, c2, env, grid, packet_width, separation, mass,
                          momentum, duration, steps):
    """Two deflected bands c1|left> + c2|right> under localization.

    The packets fly apart with -/+ ``momentum`` while the environment damps
    their mutual coherence; band intensities stay at |c1|^2 : |c2|^2 exactly
    as in the pure run while the off-diagonal block dies.  Returns a
    :class:`BandIntensityReport` comparing against the undamped reference.
    """
    check_amplitudes(c1, c2)
    if separation < 4.0 * packet_width:
        raise DomainError("bands must be separated by >> their width")
    if not 1 <= steps <= MAX_STEPS:
        raise DomainError(f"steps must be >= 1 and within the cap {MAX_STEPS}")

    field = two_band_state(grid, c1, c2, (
        GaussianPacket(-0.5 * separation, packet_width, -momentum, mass),
        GaussianPacket(+0.5 * separation, packet_width, +momentum, mass)))

    dt = duration / steps
    x = grid.axis(0)
    x1, x2 = -0.5 * separation, +0.5 * separation
    dx = grid.spacings[0]

    def band_weights(diag):
        return (float(diag[x < 0.0].sum() * dx),
                float(diag[x >= 0.0].sum() * dx))

    times, cohs, purs = [], [], []
    watch = diagonal_monitor(grid)

    def record(state, step):
        watch(state, step)
        drift = momentum * state.time / mass
        times.append(state.time)
        # an empty band has nothing to decohere against
        empty = min(abs(c1), abs(c2)) < 1e-9
        cohs.append(0.0 if empty else coherence(state, x1 - drift, x2 + drift))
        purs.append(state.purity())

    # the initial matrix is built twice rather than held through the loop
    record(pure_to_density(field), 0)
    rho = propagate_density(pure_to_density(field), env, dt, steps,
                            observe=record)

    # the damping leaves the diagonal alone and diag(U rho U^H) = |U psi|^2,
    # so the undamped reference needs only the wave function
    pure = propagate(field, FreePotential(), dt, steps)

    return BandIntensityReport(
        intensities=band_weights(rho.position_density()),
        pure_intensities=band_weights(pure.density()),
        coherence=cohs[-1],
        initial_coherence=cohs[0],
        trace_drift=abs(rho.trace() - 1.0),
        purity=purs[-1],
        times=np.asarray(times),
        coherence_history=np.asarray(cohs),
        purity_history=np.asarray(purs),
        final_rho=rho,
    )
