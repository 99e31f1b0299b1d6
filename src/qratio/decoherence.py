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

One loop, :func:`propagate_density`, steps every density matrix: a Strang
step of both indices, then the damping kernel, both built once per call.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import fft as _fft  # noqa: F401  kept: bench/tracer.py proxies it

from .constants import HBAR
from .core import GaussianPacket
from .errors import CoherenceUndefinedError, DomainError
from .grid import (FreePotential, Grid, WaveField, half_kick,
                   initialize_gaussian, kinetic_phase, propagate, strang_step)

MAX_STEPS = 100_000     # Trotter steps per scenario run, and history samples


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


@dataclass
class DensityMatrix:
    """rho(x, x') on a 1D grid with continuum normalization Tr = Int rho dx."""

    grid: Grid
    rho: np.ndarray
    mass: float
    time: float = 0.0

    MAX_POINTS = 1024   # N^2 storage; scenarios are sized to fit

    def __post_init__(self):
        n = _matrix_points(self.grid)
        if self.rho.shape != (n, n):
            raise DomainError("rho shape must match the grid")

    def trace(self):
        return float(np.real(np.trace(self.rho)) * self.grid.spacings[0])

    def purity(self):
        # sum |rho|^2 as one pass over the real and imaginary parts
        dx = self.grid.spacings[0]
        v = np.ascontiguousarray(self.rho, dtype=complex).view(np.float64).ravel()
        return float(np.einsum("i,i->", v, v) * dx * dx)

    def hermiticity_defect(self):
        return float(np.max(np.abs(self.rho - self.rho.conj().T)))

    def smallest_eigenvalue(self):
        """Least eigenvalue of the trace-normalized operator (on demand)."""
        w = np.linalg.eigvalsh(self.rho * self.grid.spacings[0])
        return float(w[0])

    def position_density(self):
        return np.real(np.diagonal(self.rho)).copy()

    def copy(self):
        return DensityMatrix(self.grid, self.rho.copy(), self.mass, self.time)


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
    """Pure localization over ``duration`` (no Hamiltonian): exact one-shot."""
    return propagate_density(rho, env, None, duration, 1)


def propagate_density(rho, env, potential, dt, steps, observe=None,
                      workers=1):
    """Evolve ``steps`` Trotter steps of size ``dt``: a Strang step of both
    indices (the Liouville form, kinetic factor K(k) K*(k'); K is even in
    k, so U^H = F K* F^-1), then elementwise damping.  ``env=None`` leaves
    out the damping, ``potential=None`` the Hamiltonian.  ``observe(state,
    step)`` sees steps 1 .. ``steps``, Hermitian to rounding; only the
    returned matrix is re-symmetrized.  ``rho`` is not changed.
    """
    if steps < 1:
        raise DomainError("steps must be >= 1")
    if potential is None and observe is None:
        dt, steps = steps * dt, 1       # damping alone: one exact kernel
    state = rho.copy()
    del rho     # a caller that let go of the input frees it here
    kin = kick = None
    if potential is not None:
        k = kinetic_phase(state.grid, state.mass, dt)
        kin = k[:, None] * k.conj()[None, :]
        half = half_kick(potential.values(state.grid), dt)
        kick = None if half is None else (lambda m: half[:, None] * m * half.conj()[None, :])
    kernel = None if env is None else damping_kernel(state.grid, env, dt)
    for step in range(1, steps + 1):
        if kin is not None:
            state.rho = strang_step(state.rho, kin, kick, workers)
        if kernel is not None:
            state.rho *= kernel
        state.time += dt
        if observe is not None:
            observe(state, step)
    del kin, kernel
    # rounding leaves an O(eps) asymmetry; m + m^H is Hermitian exactly
    state.rho += state.rho.conj().T
    state.rho *= 0.5
    return state


def _apply_unitary(rho, potential, dt, workers=1):
    """rho' = U rho U^H with U one Strang step."""
    return propagate_density(rho, None, potential, dt, 1, workers=workers)


def decohere_step(rho, env, potential, dt, workers=1):
    """One Trotter step of :func:`propagate_density`."""
    return propagate_density(rho, env, potential, dt, 1, workers=workers)


def coherence(rho, x1, x2):
    """|rho(x1, x2)| / sqrt(rho(x1, x1) rho(x2, x2)) at the nearest grid points."""
    x = rho.grid.axis(0)
    i1 = int(np.argmin(np.abs(x - x1)))
    i2 = int(np.argmin(np.abs(x - x2)))
    d1 = float(np.real(rho.rho[i1, i1]))
    d2 = float(np.real(rho.rho[i2, i2]))
    if d1 <= 0.0 or d2 <= 0.0:
        raise CoherenceUndefinedError(
            f"vanishing diagonal density at x = {x[i1]:.3e} or {x[i2]:.3e}")
    return float(abs(rho.rho[i1, i2]) / math.sqrt(d1 * d2))


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
                     transit_speed, mass, tau_diss=math.inf):
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
                          momentum=0.0, duration=None, steps=200, workers=1):
    """Two deflected bands c1|left> + c2|right> under localization.

    The packets fly apart with -/+ ``momentum`` while the environment damps
    their mutual coherence; band intensities stay at |c1|^2 : |c2|^2 exactly
    as in the pure run while the off-diagonal block dies.  Returns a
    :class:`BandIntensityReport` comparing against the undamped reference.
    """
    if not abs(abs(c1) ** 2 + abs(c2) ** 2 - 1.0) <= 1e-12:
        raise DomainError("|c1|^2 + |c2|^2 must equal 1")
    if separation < 4.0 * packet_width:
        raise DomainError("bands must be separated by >> their width")
    if not 1 <= steps <= MAX_STEPS:
        raise DomainError(f"steps must be >= 1 and within the cap {MAX_STEPS}")
    if duration is None:
        duration = 5.0 / env.rate_Lambda

    field = two_band_state(grid, c1, c2, (
        GaussianPacket(-0.5 * separation, packet_width, -momentum, mass),
        GaussianPacket(+0.5 * separation, packet_width, +momentum, mass)))

    dt = duration / steps
    x = grid.axis(0)
    x1, x2 = -0.5 * separation, +0.5 * separation
    free = FreePotential()
    dx = grid.spacings[0]

    def band_weights(diag):
        return (float(diag[x < 0.0].sum() * dx),
                float(diag[x >= 0.0].sum() * dx))

    times, cohs, purs = [], [], []

    def record(state, step):
        drift = momentum * state.time / mass
        times.append(state.time)
        # an empty band has nothing to decohere against
        empty = min(abs(c1), abs(c2)) < 1e-9
        cohs.append(0.0 if empty else coherence(state, x1 - drift, x2 + drift))
        purs.append(state.purity())

    # the initial matrix is built twice rather than held through the loop
    record(pure_to_density(field), 0)
    rho = propagate_density(pure_to_density(field), env, free, dt, steps,
                            observe=record, workers=workers)

    # the damping leaves the diagonal alone and diag(U rho U^H) = |U psi|^2,
    # so the undamped reference needs only the wave function
    pure = propagate(field, free, dt, steps, workers=workers)

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
