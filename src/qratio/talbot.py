"""Near-field grating interference: Talbot carpets and Talbot-Lau scans.

A periodic grating illuminated by a plane wave self-images under paraxial
(Fresnel) propagation.  With the Talbot length defined as L_T = d^2/lambda,
the image at odd multiples of L_T is the input pattern displaced by half a
period, the unshifted image recurs at even multiples, and at L_T/2 the
pattern has doubled spatial frequency.  Revival fidelity is therefore
measured up to the canonical {0, d/2} registration shift.

The Talbot-Lau scan models uncorrelated beam particles: each point of the
source grating illuminates the diffraction grating independently and only
intensities are summed, yet the scanned third grating still shows fringes.
Propagation distance stands in for time at fixed longitudinal speed.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy import fft as _fft

from .core import square
from .errors import DomainError

PARAXIAL_BOUND = 0.1
TAPER_PERIODS = 2.0
MIN_POINTS_PER_SLIT = 16
MAX_CARPET_VALUES = 2 ** 24   # intensity values in one carpet: 128 MiB of float64
MAX_SCAN_POINTS = 2 ** 16     # scan points: [lau] offsets and sources, [sweep] count
PAD_FACTOR = 2.0              # transverse grid width over the grating width
POINTS_PER_SLIT = 8           # incoherent point emitters per source slit


@dataclass(frozen=True)
class GratingSpec:
    """Periodic absorptive grating (binary transmission): period d, open
    fraction, number of slits."""

    period: float
    open_fraction: float
    slit_count: int

    def __post_init__(self):
        if self.period <= 0.0:
            raise DomainError("grating period must be positive")
        if not 0.0 < self.open_fraction < 1.0:
            raise DomainError("open fraction must lie strictly inside (0, 1)")
        if self.slit_count < 2:
            raise DomainError("need at least 2 slits")

    def mask(self, x, offset=0.0, tapered=True):
        """Complex transmission sampled at ``x``; slits centered at n*d."""
        d = self.period
        frac = np.mod((x - offset) / d + 0.5, 1.0) - 0.5
        open_slit = np.abs(frac) < 0.5 * self.open_fraction
        half_w = 0.5 * self.slit_count * d
        inside = np.abs(x - offset) <= half_w
        t = np.where(inside, open_slit.astype(complex), 0.0)
        if tapered:
            edge = half_w - TAPER_PERIODS * d
            r = (np.abs(x - offset) - edge) / (TAPER_PERIODS * d)
            envelope = np.where(r <= 0.0, 1.0,
                                np.where(r >= 1.0, 0.0,
                                         0.5 * (1.0 + np.cos(math.pi * np.clip(r, 0.0, 1.0)))))
            t = t * envelope
        return t


def talbot_length(period, wavelength):
    """L_T = d^2 / lambda."""
    if period <= 0.0 or wavelength <= 0.0:
        raise DomainError("period and wavelength must be positive")
    return square(period, "grating period") / wavelength


def _check_paraxial(period, wavelength):
    if wavelength / period >= PARAXIAL_BOUND:
        raise DomainError(
            f"paraxial bound violated: lambda/d = {wavelength / period:.3f} "
            f">= {PARAXIAL_BOUND}")


def _carpet_grid(grating, rows=1):
    """Transverse grid: spacing an exact divisor of d/2, power-of-two points.

    Raises DomainError, before anything is allocated, when ``rows`` rows of
    it would hold more than MAX_CARPET_VALUES values.
    """
    d = grating.period
    dx_target = min(grating.open_fraction * d / MIN_POINTS_PER_SLIT, d / 2.0)
    per_period = 2 ** math.ceil(math.log2(d / dx_target))
    dx = d / per_period
    width = PAD_FACTOR * grating.slit_count * d
    n = 2 ** math.ceil(math.log2(width / dx))
    if rows * n > MAX_CARPET_VALUES:
        raise DomainError(f"a carpet of {rows} x {n} values exceeds the cap of "
                          f"{MAX_CARPET_VALUES}")
    x = (np.arange(n) - n // 2) * dx
    return x, dx


@dataclass
class Carpet:
    """Near-field intensity map behind a grating; rows computed on demand."""

    grating: GratingSpec
    wavelength: float
    x: np.ndarray
    spectrum: np.ndarray   # FFT of the masked input field
    nu: np.ndarray         # spatial frequencies (cycles / m)
    z_values: np.ndarray
    intensity: np.ndarray  # shape (len(z_values), len(x))

    def intensity_at(self, z):
        field = _fft.ifft(self.spectrum
                          * np.exp(-1j * math.pi * self.wavelength * z * self.nu ** 2))
        return np.abs(field) ** 2


def propagate_carpet(grating, wavelength, z_max, z_steps):
    """Fresnel carpet I(x, z) for z in [0, z_max] in ``z_steps`` steps.

    The masked unit plane wave is normalized so the mean intensity over the
    grid is 1 at z = 0+; the unitary spectral propagator conserves it.
    """
    _check_paraxial(grating.period, wavelength)
    if z_max <= 0.0 or z_steps < 1:
        raise DomainError("need z_max > 0 and z_steps >= 1")
    x, dx = _carpet_grid(grating, rows=z_steps + 1)
    u0 = grating.mask(x)
    power = float(np.mean(np.abs(u0) ** 2))
    if power == 0.0:
        raise DomainError("grating transmits nothing on this grid")
    u0 = u0 / math.sqrt(power)
    spectrum = _fft.fft(u0)
    nu = _fft.fftfreq(x.size, dx)
    z_values = np.linspace(0.0, z_max, z_steps + 1)
    carpet = Carpet(grating, wavelength, x, spectrum, nu, z_values,
                    np.empty((z_values.size, x.size)))
    for i, z in enumerate(z_values):
        carpet.intensity[i] = carpet.intensity_at(z)
    return carpet


def _central_window(x, grating):
    half = 0.25 * grating.slit_count * grating.period  # central 50% of slits
    return np.abs(x) <= half


def correlation_at_shift(carpet, z, shift):
    """Pearson correlation of I(x, z) against I(x - shift, 0+), central window."""
    sel = _central_window(carpet.x, carpet.grating)
    dx = carpet.x[1] - carpet.x[0]
    n_shift = int(round(shift / dx))
    if abs(n_shift * dx - shift) > 1e-9 * carpet.grating.period:
        raise DomainError("shift must align with the carpet grid")
    i_z = carpet.intensity_at(z)[sel]
    i_0 = np.roll(carpet.intensity_at(0.0), n_shift)[sel]
    a = i_z - i_z.mean()
    b = i_0 - i_0.mean()
    denom = math.sqrt(float(a @ a) * float(b @ b))
    if denom == 0.0:
        return 0.0
    return float(a @ b) / denom


def revival_fidelity(carpet, z):
    """Correlation with the z = 0+ pattern up to the canonical Talbot shift.

    Self-images recur with an alternating half-period offset, so fidelity is
    the larger of the correlations at registration shifts 0 and d/2.
    """
    return max(correlation_at_shift(carpet, z, 0.0),
               correlation_at_shift(carpet, z, 0.5 * carpet.grating.period))


# ---------------------------------------------------------------------------
# Talbot-Lau three-grating scan


@dataclass(frozen=True)
class LauConfig:
    """Source grating G1, diffraction grating G2, scanning mask G3, with
    distances L1 (G1 to G2) and L2 (G2 to G3) and de Broglie wavelength."""

    source_grating: GratingSpec
    diffraction_grating: GratingSpec
    scan_grating: GratingSpec
    distance_L1: float
    distance_L2: float
    wavelength: float

    def __post_init__(self):
        if self.distance_L1 <= 0.0 or self.distance_L2 <= 0.0:
            raise DomainError("grating distances must be positive")
        if self.wavelength <= 0.0:
            raise DomainError("wavelength must be positive")
        _check_paraxial(self.diffraction_grating.period, self.wavelength)


@dataclass
class LauScan:
    offsets: np.ndarray
    flux: np.ndarray        # normalized to max 1

    def visibility(self):
        hi, lo = float(self.flux.max()), float(self.flux.min())
        return (hi - lo) / (hi + lo)


def _source_points(grating):
    """Positions of incoherent point emitters across the open slits, once
    their number is within MAX_SCAN_POINTS."""
    count = grating.slit_count * POINTS_PER_SLIT
    if count > MAX_SCAN_POINTS:
        raise DomainError(f"{grating.slit_count} source slits x {POINTS_PER_SLIT} "
                          f"points = {count} sources exceed the cap of "
                          f"{MAX_SCAN_POINTS} scan points")
    d = grating.period
    n_half = (grating.slit_count - 1) // 2
    centers = np.arange(-(grating.slit_count // 2), n_half + 1) * d
    sub = (np.arange(POINTS_PER_SLIT) + 0.5) / POINTS_PER_SLIT - 0.5
    sub = sub * grating.open_fraction * d
    return (centers[:, None] + sub[None, :]).ravel()


def lau_scan(config, offsets):
    """Scanned total flux through G3 for each vertical offset.

    Each source point on G1 illuminates G2 with a paraxial spherical wave;
    the diffracted intensity at the G3 plane is masked by the shifted G3 and
    integrated.  Sources are mutually incoherent: intensities add, so the
    result is invariant under any per-source phase.
    """
    offsets = np.asarray(offsets, dtype=float)
    g2 = config.diffraction_grating
    x, dx = _carpet_grid(g2)
    nu = _fft.fftfreq(x.size, dx)
    kernel = np.exp(-1j * math.pi * config.wavelength * config.distance_L2 * nu ** 2)
    k = 2.0 * math.pi / config.wavelength
    mask2 = g2.mask(x)

    sources = _source_points(config.source_grating)
    total = np.zeros(x.size)
    for x_s in sources:
        u = np.exp(1j * k * (x - x_s) ** 2 / (2.0 * config.distance_L1)) * mask2
        total += np.abs(_fft.ifft(_fft.fft(u) * kernel)) ** 2
    flux = np.empty(offsets.size)
    g3 = config.scan_grating
    for i, off in enumerate(offsets):
        m3 = np.abs(g3.mask(x, offset=off, tapered=False)) ** 2
        flux[i] = float(np.sum(total * m3) * dx)
    peak = flux.max()
    if peak <= 0.0:
        raise DomainError("no flux reached the scanning grating")
    return LauScan(offsets, flux / peak)
