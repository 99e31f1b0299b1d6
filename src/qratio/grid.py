"""Spectral split-operator solver for the Schrödinger equation on 1D/2D grids.

Time stepping is second-order Strang splitting: a half kick by the
potential, a full kinetic step applied in Fourier space, and another half
kick.  Both sub-steps are exactly unitary for real potentials, so the norm
is conserved to rounding and forward/backward evolution inverts exactly.

Boundaries are periodic; there are no absorbing layers.  Runs must be sized
so that no appreciable probability reaches the grid edge, and a margin
monitor aborts with :class:`BoundaryError` before silent wraparound can
contaminate observables.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import fft as _fft

from .constants import HBAR
from .core import GaussianPacket
from .errors import BoundaryError, DomainError, ResolutionError, StepSizeError

MIN_POINTS = 64
SUPPORT_WIDTHS = 3.0      # packet support = center +/- 3 widths (|psi|^2 < 2e-8)
BOUNDARY_MARGIN = 0.05    # outer fraction of each axis watched by the monitor
BOUNDARY_TOLERANCE = 1e-6


def _is_pow2(n):
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid; 1 or 2 axes, power-of-two points per axis."""

    points: tuple      # ints per axis
    extents: tuple     # physical length per axis (m)
    origins: tuple     # lower edge per axis (m)

    def __post_init__(self):
        if len(self.points) not in (1, 2) or not (
                len(self.points) == len(self.extents) == len(self.origins)):
            raise DomainError("grid needs 1 or 2 consistent axes")
        for n, ext in zip(self.points, self.extents):
            if not _is_pow2(n) or n < MIN_POINTS:
                raise DomainError(f"points per axis must be a power of two >= {MIN_POINTS}")
            if ext <= 0.0:
                raise DomainError("grid extent must be positive")

    @classmethod
    def make(cls, points, extents, centers=None):
        points = tuple(int(n) for n in np.atleast_1d(points))
        extents = tuple(float(e) for e in np.atleast_1d(extents))
        if centers is None:
            centers = tuple(0.0 for _ in points)
        else:
            centers = tuple(float(c) for c in np.atleast_1d(centers))
        origins = tuple(c - e / 2.0 for c, e in zip(centers, extents))
        return cls(points, extents, origins)

    @property
    def ndim(self):
        return len(self.points)

    @property
    def spacings(self):
        return tuple(e / n for e, n in zip(self.extents, self.points))

    @property
    def cell_volume(self):
        return math.prod(self.spacings)

    def axis(self, i):
        return self.origins[i] + self.spacings[i] * np.arange(self.points[i])

    def kaxis(self, i):
        return 2.0 * math.pi * _fft.fftfreq(self.points[i], self.spacings[i])

    def meshes(self):
        return np.meshgrid(*[self.axis(i) for i in range(self.ndim)], indexing="ij")

    def kmeshes(self):
        return np.meshgrid(*[self.kaxis(i) for i in range(self.ndim)], indexing="ij")

    def k2(self):
        return sum(km ** 2 for km in self.kmeshes())


# ---------------------------------------------------------------------------
# potentials


class FreePotential:
    """V = 0 everywhere."""

    def values(self, grid):
        return 0.0

    def gradient(self, grid, axis):
        return 0.0


class LinearPotential:
    """V = slope * x_axis (constant force -slope along the given axis)."""

    def __init__(self, slope, axis=0):
        self.slope = float(slope)
        self.axis = int(axis)

    def values(self, grid):
        return self.slope * grid.meshes()[self.axis]

    def gradient(self, grid, axis):
        return self.slope if axis == self.axis else 0.0


class SampledPotential:
    """V given by a callable of the mesh coordinates (and optional gradient)."""

    def __init__(self, fn, grad_fns=None):
        self.fn = fn
        self.grad_fns = grad_fns

    def values(self, grid):
        return self.fn(*grid.meshes())

    def gradient(self, grid, axis):
        if self.grad_fns is not None:
            return self.grad_fns[axis](*grid.meshes())
        v = np.asarray(self.values(grid), dtype=float)
        return np.gradient(v, grid.spacings[axis], axis=axis)


# ---------------------------------------------------------------------------
# fields and observables


@dataclass
class WaveField:
    """Complex amplitudes on a grid; L2 norm is kept at 1 and never silently
    renormalized (``norm_drift`` records the largest |norm - 1| seen)."""

    grid: Grid
    psi: np.ndarray
    mass: float
    time: float = 0.0
    norm_drift: float = 0.0

    def norm(self):
        return float(np.sqrt(np.sum(np.abs(self.psi) ** 2) * self.grid.cell_volume))

    def density(self):
        return np.abs(self.psi) ** 2

    def copy(self):
        return WaveField(self.grid, self.psi.copy(), self.mass, self.time,
                         self.norm_drift)


@dataclass
class Snapshot:
    mean_position: tuple
    mean_momentum: tuple
    widths: tuple      # sqrt(2) * position std dev = 1/e half-width of |psi|^2
    mean_force: tuple  # -<dV/dx_i>
    norm: float


@dataclass
class ObservableTrace:
    """Time series of first moments recorded during propagation."""

    times: list = field(default_factory=list)
    mean_position: list = field(default_factory=list)
    mean_momentum: list = field(default_factory=list)
    widths: list = field(default_factory=list)
    mean_force: list = field(default_factory=list)
    norms: list = field(default_factory=list)

    def append(self, t, snap):
        self.times.append(t)
        self.mean_position.append(snap.mean_position)
        self.mean_momentum.append(snap.mean_momentum)
        self.widths.append(snap.widths)
        self.mean_force.append(snap.mean_force)
        self.norms.append(snap.norm)

    def as_arrays(self):
        return (np.asarray(self.times), np.asarray(self.mean_position),
                np.asarray(self.mean_momentum), np.asarray(self.widths))


def initialize_gaussian(grid, packets):
    """Normalized Gaussian wave field; one GaussianPacket per axis.

    Preconditions: the width must span at least 4 grid spacings, the packet
    support (center +/- 3 widths) must stay at least 8 spacings away from
    the boundary, and the momentum content must fit the spectral band.
    """
    if isinstance(packets, GaussianPacket):
        packets = (packets,)
    if len(packets) != grid.ndim:
        raise DomainError("need one packet per grid axis")
    mass = packets[0].mass
    if any(abs(p.mass - mass) > 1e-12 * mass for p in packets):
        raise DomainError("all axis packets must share one mass")

    psi = np.ones(tuple(grid.points), dtype=complex)
    for ax, p in enumerate(packets):
        dx = grid.spacings[ax]
        if p.width < 4.0 * dx:
            raise ResolutionError(
                f"axis {ax}: packet width {p.width:.3e} m under-resolved; "
                f"needs >= 4 spacings = {4 * dx:.3e} m")
        lo = grid.origins[ax]
        hi = lo + grid.extents[ax]
        margin = 8.0 * dx
        support = SUPPORT_WIDTHS * p.width
        if p.center - support < lo + margin or p.center + support > hi - margin:
            raise ResolutionError(
                f"axis {ax}: packet support [{p.center - support:.3e}, "
                f"{p.center + support:.3e}] m closer than 8 spacings "
                f"({margin:.3e} m) to the boundary [{lo:.3e}, {hi:.3e}]")
        k_need = abs(p.momentum) / HBAR + 5.0 / p.width
        k_nyquist = math.pi / dx
        if k_need > 0.9 * k_nyquist:
            raise ResolutionError(
                f"axis {ax}: momentum content {k_need:.3e} rad/m exceeds 90% of "
                f"the spectral band ({k_nyquist:.3e} rad/m); refine the grid")
        x = grid.axis(ax)
        comp = np.exp(-((x - p.center) / p.width) ** 2 + 1j * p.momentum * x / HBAR)
        psi *= comp.reshape([-1 if a == ax else 1 for a in range(grid.ndim)])

    psi /= math.sqrt(np.sum(np.abs(psi) ** 2) * grid.cell_volume)
    return WaveField(grid, psi, mass)


def observables(field):
    """First moments: position by grid quadrature, momentum spectrally."""
    grid = field.grid
    dens = field.density()
    dv = grid.cell_volume
    norm2 = float(np.sum(dens) * dv)
    meshes = grid.meshes()
    mean_x, widths = [], []
    for ax in range(grid.ndim):
        mx = float(np.sum(dens * meshes[ax]) * dv) / norm2
        var = float(np.sum(dens * (meshes[ax] - mx) ** 2) * dv) / norm2
        mean_x.append(mx)
        widths.append(math.sqrt(2.0 * var))
    phi = _fft.fftn(field.psi)
    pdens = np.abs(phi) ** 2
    ptot = float(np.sum(pdens))
    kmeshes = grid.kmeshes()
    mean_p = [HBAR * float(np.sum(pdens * kmeshes[ax])) / ptot
              for ax in range(grid.ndim)]
    return Snapshot(tuple(mean_x), tuple(mean_p), tuple(widths),
                    (0.0,) * grid.ndim, math.sqrt(norm2))


def _mean_force(field, potential, dens=None):
    grid = field.grid
    if dens is None:
        dens = field.density()
    dv = grid.cell_volume
    out = []
    for ax in range(grid.ndim):
        g = potential.gradient(grid, ax)
        if np.isscalar(g) or np.ndim(g) == 0:
            out.append(-float(g))
        else:
            out.append(-float(np.sum(dens * g) * dv))
    return tuple(out)


def snapshot_with_force(field, potential):
    snap = observables(field)
    return Snapshot(snap.mean_position, snap.mean_momentum, snap.widths,
                    _mean_force(field, potential), snap.norm)


def kinetic_ceiling(grid, mass):
    """Largest kinetic eigenvalue hbar^2 k_max^2 / 2m on the grid."""
    k2max = sum((math.pi / dx) ** 2 for dx in grid.spacings)
    return HBAR ** 2 * k2max / (2.0 * mass)


def suggest_dt(grid, potential, mass):
    """Conservative step: 0.1 * hbar / (max|V| + max kinetic eigenvalue)."""
    v = potential.values(grid)
    vmax = float(np.max(np.abs(v))) if not np.isscalar(v) else abs(v)
    return 0.1 * HBAR / (vmax + kinetic_ceiling(grid, mass))


def kinetic_phase(grid, mass, dt):
    """Full kinetic step exp(-i hbar k^2 dt / 2m) on the grid's k mesh.

    This is the one spectral step-size check of every split-operator
    stepper: it raises :class:`StepSizeError` unless |dt| times the
    kinetic ceiling stays below pi/4 hbar.
    """
    ceiling = kinetic_ceiling(grid, mass)
    if abs(dt) * ceiling / HBAR >= math.pi / 4.0:
        raise StepSizeError(
            f"|dt| = {abs(dt):.3e} s too coarse for the spectral band; "
            f"need |dt| < {math.pi / 4.0 * HBAR / ceiling:.3e} s "
            f"(suggest {0.7 * math.pi / 4.0 * HBAR / ceiling:.3e} s)")
    return np.exp(grid.k2() * (-0.5j * HBAR * dt / mass))


def half_kick(v, dt):
    """Potential half step exp(-i V dt / 2 hbar), or None for V = 0."""
    if np.ndim(v) == 0 and v == 0.0:
        return None
    return np.exp(v * (-0.5j * dt / HBAR))


def _boundary_mask(grid):
    mask = np.zeros(tuple(grid.points), dtype=bool)
    for ax, n in enumerate(grid.points):
        w = max(1, int(round(BOUNDARY_MARGIN * n)))
        sl_lo = [slice(None)] * grid.ndim
        sl_hi = [slice(None)] * grid.ndim
        sl_lo[ax] = slice(0, w)
        sl_hi[ax] = slice(n - w, n)
        mask[tuple(sl_lo)] = True
        mask[tuple(sl_hi)] = True
    return mask


def propagate(field, potential, dt, steps, record_every=0, workers=1):
    """Evolve ``steps`` Strang steps of size ``dt`` (negative dt runs backward).

    Returns a new WaveField.  If ``record_every`` > 0, observables are
    recorded every that many steps, including the initial state, into an
    :class:`ObservableTrace` held as the ``.trace`` attribute of the
    returned field (None otherwise).
    """
    if steps < 1:
        raise DomainError("steps must be >= 1")
    grid = field.grid
    kin = kinetic_phase(grid, field.mass, dt)
    kick = half_kick(potential.values(grid), dt)
    bmask = _boundary_mask(grid)
    dv = grid.cell_volume

    out = field.copy()
    trace = ObservableTrace() if record_every else None
    if record_every:
        trace.append(out.time, snapshot_with_force(out, potential))

    psi = out.psi
    for step in range(1, steps + 1):
        if kick is not None:
            psi *= kick
        psi = _fft.ifftn(_fft.fftn(psi, workers=workers) * kin, workers=workers)
        if kick is not None:
            psi *= kick
        out.time += dt

        edge = float(np.sum(np.abs(psi[bmask]) ** 2) * dv)
        if edge >= BOUNDARY_TOLERANCE:
            raise BoundaryError(
                f"probability {edge:.3e} in the outer {BOUNDARY_MARGIN:.0%} "
                f"margin at t = {out.time:.3e} s (step {step}); "
                "enlarge the grid or shorten the run")
        if record_every and step % record_every == 0:
            out.psi = psi
            trace.append(out.time, snapshot_with_force(out, potential))

    out.psi = psi
    out.norm_drift = max(field.norm_drift, abs(out.norm() - 1.0))
    out.trace = trace
    return out


def ehrenfest_residual(trace, mass):
    """Largest relative defect of d<r>/dt = <p>/m and d<p>/dt = -<grad V>.

    Time derivatives are central differences over the recorded trace; the
    trace must hold at least 3 samples.
    """
    t, x, p, _ = trace.as_arrays()
    f = np.asarray(trace.mean_force)
    if len(t) < 3:
        raise DomainError("trace must contain at least 3 samples")
    if np.any(np.diff(t) <= 0.0) and np.any(np.diff(t) >= 0.0):
        raise DomainError("trace times must be strictly monotonic")

    dxdt = np.gradient(x, t, axis=0)
    dpdt = np.gradient(p, t, axis=0)
    # central differences are exact only up to quadratic time dependence,
    # so compare on interior points
    inner = slice(1, -1)
    v_scale = max(np.max(np.abs(p)) / mass, 1e-300)
    f_scale = max(np.max(np.abs(f)), np.max(np.abs(p)) / abs(t[-1] - t[0]), 1e-300)
    res_r = np.max(np.abs(dxdt[inner] - p[inner] / mass)) / v_scale
    res_p = np.max(np.abs(dpdt[inner] - f[inner])) / f_scale
    return float(res_r), float(res_p)


# ---------------------------------------------------------------------------
# binary snapshot format (FORMATS.md)

_MAGIC = b"QRARRAY1"


def field_array_bytes(data, spacings, origins):
    """Serialized complex array in the documented little-endian layout."""
    data = np.ascontiguousarray(data, dtype=np.complex128)
    parts = [_MAGIC,
             np.uint32(data.ndim).tobytes(),
             np.asarray(data.shape, dtype="<u4").tobytes(),
             np.asarray(spacings, dtype="<f8").tobytes(),
             np.asarray(origins, dtype="<f8").tobytes()]
    inter = np.empty(data.size * 2, dtype="<f8")
    inter[0::2] = data.real.ravel()
    inter[1::2] = data.imag.ravel()
    parts.append(inter.tobytes())
    return b"".join(parts)


def write_field_array(path, data, spacings, origins):
    """Write a complex array in the documented little-endian layout."""
    with open(path, "wb") as fh:
        fh.write(field_array_bytes(data, spacings, origins))


def read_field_array(path):
    """Read back (data, spacings, origins) written by write_field_array."""
    with open(path, "rb") as fh:
        if fh.read(8) != _MAGIC:
            raise DomainError(f"{path}: not a qratio array file")
        ndim = int(np.frombuffer(fh.read(4), dtype="<u4")[0])
        shape = tuple(np.frombuffer(fh.read(4 * ndim), dtype="<u4"))
        spacings = tuple(np.frombuffer(fh.read(8 * ndim), dtype="<f8"))
        origins = tuple(np.frombuffer(fh.read(8 * ndim), dtype="<f8"))
        n = int(np.prod(shape))
        inter = np.frombuffer(fh.read(16 * n), dtype="<f8")
    data = (inter[0::2] + 1j * inter[1::2]).reshape(shape)
    return data, spacings, origins
