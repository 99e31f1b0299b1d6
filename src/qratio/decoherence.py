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
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import fft as _fft

from .constants import HBAR
from .core import GaussianPacket
from .errors import CoherenceUndefinedError, DomainError
from .grid import (FreePotential, Grid, WaveField, half_kick,
                   initialize_gaussian, kinetic_phase)


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
        if self.grid.ndim != 1:
            raise DomainError("density matrices are 1D only")
        n = self.grid.points[0]
        if n > self.MAX_POINTS:
            raise DomainError(f"density-matrix grids are capped at "
                              f"{self.MAX_POINTS} points, got {n}")
        if self.rho.shape != (n, n):
            raise DomainError("rho shape must match the grid")

    def trace(self):
        return float(np.real(np.trace(self.rho)) * self.grid.spacings[0])

    def purity(self):
        dx = self.grid.spacings[0]
        return float(np.sum(np.abs(self.rho) ** 2) * dx * dx)

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


def pure_to_density(field):
    """rho = psi psi* for a normalized 1D wave field (purity 1)."""
    if field.grid.ndim != 1:
        raise DomainError("pure_to_density needs a 1D field")
    psi = field.psi
    return DensityMatrix(field.grid, np.outer(psi, psi.conj()), field.mass,
                         field.time)


def damping_kernel(grid, env, duration):
    """Elementwise factor exp(-F(|x - x'|) * duration)."""
    x = grid.axis(0)
    return np.exp(-env.damping_rate(np.abs(x[:, None] - x[None, :])) * duration)


def apply_damping(rho, env, duration):
    """Pure localization over ``duration`` (no Hamiltonian): exact one-shot."""
    out = rho.copy()
    out.rho *= damping_kernel(rho.grid, env, duration)
    out.time += duration
    return out


def _apply_unitary(rho, potential, dt, workers=1):
    """rho' = U rho U^H with U one Strang step, computed as (U (U rho)^H)^H."""
    grid = rho.grid
    kin = kinetic_phase(grid, rho.mass, dt)
    half = half_kick(potential.values(grid), dt)

    def unitary_cols(mat):
        if half is not None:
            mat = half[:, None] * mat
        mat = _fft.ifft(kin[:, None] * _fft.fft(mat, axis=0, workers=workers),
                        axis=0, workers=workers)
        if half is not None:
            mat = half[:, None] * mat
        return mat

    m = unitary_cols(rho.rho)
    m = unitary_cols(m.conj().T)
    out = rho.copy()
    # rounding leaves an O(eps) asymmetry; re-symmetrize so Hermiticity is
    # exact by construction
    out.rho = 0.5 * (m.conj().T + m)
    out.time += dt
    return out


def decohere_step(rho, env, potential, dt, workers=1):
    """One Trotter step: unitary Strang evolution of both indices, then
    elementwise damping.  The diagonal is invariant under the damping part.
    ``potential=None`` freezes the Hamiltonian entirely (damping only).
    """
    if potential is None:
        out = rho.copy()
        out.time += dt
    else:
        out = _apply_unitary(rho, potential, dt, workers=workers)
    out.rho *= damping_kernel(out.grid, env, dt)
    return out


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
    pure_intensities: tuple   # same bands from the undamped reference run
    coherence: float          # between the band centers
    initial_coherence: float
    trace_drift: float
    purity: float
    times: np.ndarray
    coherence_history: np.ndarray
    purity_history: np.ndarray
    final_rho: DensityMatrix = None


def decohered_sg_scenario(c1, c2, env, grid, packet_width, separation, mass,
                          momentum=0.0, duration=None, steps=200, workers=1):
    """Two deflected bands c1|left> + c2|right> under localization.

    The packets fly apart with -/+ ``momentum`` while the environment damps
    their mutual coherence; band intensities stay at |c1|^2 : |c2|^2 exactly
    as in the pure run while the off-diagonal block dies.  Returns a
    :class:`BandIntensityReport` comparing against the undamped reference.
    """
    if abs(abs(c1) ** 2 + abs(c2) ** 2 - 1.0) > 1e-12:
        raise DomainError("|c1|^2 + |c2|^2 must equal 1")
    if separation < 4.0 * packet_width:
        raise DomainError("bands must be separated by >> their width")
    if steps < 1:
        raise DomainError("steps must be >= 1")
    if duration is None:
        duration = 5.0 / env.rate_Lambda

    f1 = initialize_gaussian(grid, GaussianPacket(-0.5 * separation, packet_width,
                                                  -momentum, mass))
    f2 = initialize_gaussian(grid, GaussianPacket(+0.5 * separation, packet_width,
                                                  +momentum, mass))
    psi = c1 * f1.psi + c2 * f2.psi
    psi /= math.sqrt(np.sum(np.abs(psi) ** 2) * grid.cell_volume)
    field = WaveField(grid, psi, mass)
    rho0 = pure_to_density(field)

    dt = duration / steps
    x = grid.axis(0)
    x1, x2 = -0.5 * separation, +0.5 * separation
    free = FreePotential()
    dx = grid.spacings[0]

    def band_weights(r):
        diag = r.position_density()
        return (float(diag[x < 0.0].sum() * dx),
                float(diag[x >= 0.0].sum() * dx))

    def safe_coherence(r, a, b):
        # an empty band has nothing to decohere against
        if min(abs(c1), abs(c2)) < 1e-9:
            return 0.0
        return coherence(r, a, b)

    coh0 = safe_coherence(rho0, x1, x2)
    rho = rho0.copy()
    times, cohs, purs = [0.0], [coh0], [rho0.purity()]
    for _ in range(steps):
        rho = decohere_step(rho, env, free, dt, workers=workers)
        drift = momentum * rho.time / mass
        times.append(rho.time)
        cohs.append(safe_coherence(rho, x1 - drift, x2 + drift))
        purs.append(rho.purity())

    rho_pure = rho0.copy()
    for _ in range(steps):
        rho_pure = _apply_unitary(rho_pure, free, dt, workers=workers)

    return BandIntensityReport(
        intensities=band_weights(rho),
        pure_intensities=band_weights(rho_pure),
        coherence=cohs[-1],
        initial_coherence=coh0,
        trace_drift=abs(rho.trace() - 1.0),
        purity=purs[-1],
        times=np.asarray(times),
        coherence_history=np.asarray(cohs),
        purity_history=np.asarray(purs),
        final_rho=rho,
    )
