"""Spectral split-operator solver for the Schrödinger equation on 1D/2D grids.

Time stepping is second-order Strang splitting: a half kick by the
potential, a full kinetic step applied in Fourier space, and another half
kick.  Both sub-steps are exactly unitary for real potentials, so the norm
is conserved to rounding and forward/backward evolution inverts exactly.

:func:`propagate` steps a wave function.  A time-independent H (the
coupled spinor, the tunnel's chi(z)) runs on :func:`chebyshev_propagate`
instead, exact for any time.  Both apply the kinetic part with
:func:`fourier_multiply`, the one transform pair of every engine's step,
with spinor components stacked on a leading axis.  A density matrix
rho(x, x') flies freely: it is Hermitian, so it is held as one real matrix
R = Re rho + Im rho, and :func:`liouville_step` steps it with real
transforms of half its spectrum (the Liouville form, kinetic factor
K(k) K*(k')).  Its transforms run as two 1D passes each way, an ``rfft``
of the rows and an in-place ``fft`` of the columns, and back an in-place
``ifft`` of the columns and an ``irfft`` of the rows: numpy's ``rfftn``
takes about twice as long, and ``irfftn`` transforms the columns into a
fresh copy.

Every transform is ``numpy.fft``, on one thread.  Its ``fftn`` transforms
the axes last to first, so a transform over several axes passes them
reversed, to run first to last: another order rounds differently, and
moves output bytes.  The Chebyshev coefficients' Bessel functions are
:func:`bessel_j`.

On axis 0 of a 2D grid along which V is constant, the kinetic factor
commutes with every other factor of the step, so a product field
psi = u b, with u a unit vector on axis 0 and b on axis 1, stays a
product: :func:`propagate` steps only the row b, and reads u exactly as
u_t = F^-1 exp(-i hbar k_0^2 t / 2m) F u where it is needed.  Its records
are read from the two factors, and u_t b is built only at the return.  Any
other field steps every axis.

Boundaries are periodic; there are no absorbing layers.  Runs must be sized
so that no appreciable probability reaches the grid edge, and a margin
monitor checks every step of every wave-function run (every expansion
end of a Chebyshev run) and aborts with :class:`BoundaryError` before
wraparound contaminates results.  For a product field u b the margin mass
is the sum of two exact parts: axis 1's margin, read off the stepped b (u
is a unit vector), and axis 0's, the margin mass of u_t times |b|^2.  The
sum is never below the mass in the union of the margins.
"""

import functools
import math
import os
from dataclasses import dataclass, field

import numpy as np
from numpy import fft as _fft

from .constants import HBAR
from .core import GaussianPacket
from .errors import BoundaryError, DomainError, ResolutionError, StepSizeError

MIN_POINTS = 64
MAX_POINTS = 2 ** 22      # points per grid, all axes: 64 MiB per complex field
SUPPORT_WIDTHS = 3.0      # packet support = center +/- 3 widths (|psi|^2 < 2e-8)
BOUNDARY_MARGIN = 0.05    # outer fraction of each axis watched by the monitor
BOUNDARY_TOLERANCE = 1e-6
# H-applications per Chebyshev propagation (one transform pair each)
MAX_APPLICATIONS = 200_000
# the largest alpha = dE dt / 2 hbar of one Chebyshev expansion, since the
# recurrence's rounding grows with the number of terms
MAX_CHUNK_ALPHA = 100.0
# Chebyshev terms are kept down to |J_k(alpha)| at this floor
CHEBYSHEV_FLOOR = 1e-17


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
        if math.prod(self.points) > MAX_POINTS:
            raise DomainError(f"grid of {'x'.join(map(str, self.points))} points "
                              f"exceeds the cap of {MAX_POINTS} points")

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

    def open_axes(self):
        """The coordinate axes as open (``np.ix_``) arrays, which broadcast
        to the grid."""
        return np.ix_(*(self.axis(i) for i in range(self.ndim)))

    def open_kaxes(self, axes=None):
        """The wave-number axes of ``axes`` (default all) as open arrays."""
        axes = range(self.ndim) if axes is None else axes
        return np.ix_(*(self.kaxis(i) for i in axes))

    def k2(self, axes=None):
        """|k|^2 on the k mesh of ``axes`` (default all)."""
        return sum(k ** 2 for k in self.open_kaxes(axes))


# ---------------------------------------------------------------------------
# potentials


class FreePotential:
    """V = 0 everywhere."""

    def values(self, grid):
        return 0.0


class LinearPotential:
    """V = slope * x_axis (constant force -slope along the given axis),
    broadcast to the grid."""

    def __init__(self, slope, axis=0):
        self.slope = float(slope)
        self.axis = int(axis)

    def values(self, grid):
        return np.broadcast_to(self.slope * grid.open_axes()[self.axis],
                               grid.points)


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


@dataclass
class Snapshot:
    mean_position: tuple
    mean_momentum: tuple
    widths: tuple      # sqrt(2) * position std dev = 1/e half-width of |psi|^2
    norm: float


@dataclass
class ObservableTrace:
    """Time series of first moments recorded during propagation."""

    times: list = field(default_factory=list)
    mean_position: list = field(default_factory=list)
    mean_momentum: list = field(default_factory=list)
    widths: list = field(default_factory=list)
    norms: list = field(default_factory=list)

    def append(self, t, snap):
        self.times.append(t)
        self.mean_position.append(snap.mean_position)
        self.mean_momentum.append(snap.mean_momentum)
        self.widths.append(snap.widths)
        self.norms.append(snap.norm)


def check_band(momentum, width, dx, subject):
    """The band rule: a Gaussian packet of width ``width`` at ``momentum``
    holds wave numbers up to about |p|/hbar + 5/width, and past 90% of the
    spectral band pi/dx they alias.  Raises :class:`ResolutionError`, led by
    ``subject``, when they do not fit; a NaN momentum fails too."""
    k_need = abs(momentum) / HBAR + 5.0 / width
    k_nyquist = math.pi / dx
    if not k_need <= 0.9 * k_nyquist:
        raise ResolutionError(
            f"{subject}: momentum content {k_need:.3e} rad/m exceeds 90% of "
            f"the spectral band ({k_nyquist:.3e} rad/m); refine the grid")


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
        check_band(p.momentum, p.width, dx, f"axis {ax}")
        x = grid.axis(ax)
        comp = np.exp(-((x - p.center) / p.width) ** 2 + 1j * p.momentum * x / HBAR)
        psi *= comp.reshape([-1 if a == ax else 1 for a in range(grid.ndim)])

    psi /= math.sqrt(np.sum(np.abs(psi) ** 2) * grid.cell_volume)
    return WaveField(grid, psi, mass)


def observables(field):
    """First moments: position by grid quadrature and momentum spectrally."""
    grid = field.grid
    dens = field.density()
    dv = grid.cell_volume
    norm2 = float(np.sum(dens) * dv)
    mean_x, widths = [], []
    for x in grid.open_axes():
        mx = float(np.sum(dens * x) * dv) / norm2
        var = float(np.sum(dens * (x - mx) ** 2) * dv) / norm2
        mean_x.append(mx)
        widths.append(math.sqrt(2.0 * var))
    s, axes = _first_to_last(field.psi.shape)
    phi = _fft.fftn(field.psi, s=s, axes=axes)
    pdens = np.abs(phi) ** 2
    ptot = float(np.sum(pdens))
    mean_p = [HBAR * float(np.sum(pdens * k)) / ptot for k in grid.open_kaxes()]
    return Snapshot(tuple(mean_x), tuple(mean_p), tuple(widths),
                    math.sqrt(norm2))


def _product_observables(grid, u, b, fu2):
    """:func:`observables` of the 2D product field u b, u a column on axis
    0 and b a row on axis 1, read from the factors with one 1D transform,
    of b; ``fu2`` is |F u|^2.  The field's density is the outer product of
    |u|^2 and |b|^2, and its spectrum that of F u and F b, so each moment
    is one of an axis's marginal."""
    d0, d1 = np.abs(u[:, 0]) ** 2, np.abs(b[0]) ** 2
    fb2 = np.abs(_fft.fft(b[0])) ** 2
    dv = grid.cell_volume
    norm2 = float(np.sum(d0)) * float(np.sum(d1)) * dv
    mean_x, widths, mean_p = [], [], []
    for ax, (d, p) in enumerate(((d0, fu2), (d1, fb2))):
        x, k, total = grid.axis(ax), grid.kaxis(ax), float(np.sum(d))
        mx = float(np.sum(d * x)) / total
        var = float(np.sum(d * (x - mx) ** 2)) / total
        mean_x.append(mx)
        widths.append(math.sqrt(2.0 * var))
        mean_p.append(HBAR * float(np.sum(p * k)) / float(np.sum(p)))
    return Snapshot(tuple(mean_x), tuple(mean_p), tuple(widths),
                    math.sqrt(norm2))


def kinetic_ceiling(grid, mass):
    """Largest kinetic eigenvalue hbar^2 k_max^2 / 2m on the grid (inf for
    a spacing so fine that k_max^2 overflows)."""
    try:
        k2max = sum((math.pi / dx) ** 2 for dx in grid.spacings)
    except OverflowError:
        return math.inf
    return HBAR ** 2 * k2max / (2.0 * mass)


def ceiling_dt(grid, mass):
    """Suggested step at the spectral band: 0.7 of the pi/4 hbar / ceiling
    bound that :func:`kinetic_phase` enforces (inf for a mass so large that
    the ceiling underflows to 0).  Raises :class:`DomainError`, naming the
    grid, when the step underflows to 0: no step resolves its band."""
    ceiling = kinetic_ceiling(grid, mass)
    if not ceiling > 0.0:
        return math.inf
    dt = 0.7 * math.pi / 4.0 * HBAR / ceiling
    if dt == 0.0:
        raise DomainError(
            f"grid of {'x'.join(map(str, grid.points))} points with spacing "
            f"{min(grid.spacings):.3e} m: the kinetic ceiling {ceiling:.3e} J "
            "leaves no time step that resolves its spectral band; coarsen "
            "the grid")
    return dt


def kinetic_phase(grid, mass, dt, axes=None):
    """Full kinetic step exp(-i hbar k^2 dt / 2m) on the k mesh of the grid
    axes ``axes`` (default all; the others are taken at k = 0).

    This is the one spectral step-size check of every split-operator
    stepper: it raises :class:`StepSizeError` unless |dt| times the whole
    grid's kinetic ceiling stays below pi/4 hbar.
    """
    ceiling = kinetic_ceiling(grid, mass)
    if abs(dt) * ceiling / HBAR >= math.pi / 4.0:
        raise StepSizeError(
            f"|dt| = {abs(dt):.3e} s too coarse for the spectral band; "
            f"need |dt| < {math.pi / 4.0 * HBAR / ceiling:.3e} s "
            f"(suggest {ceiling_dt(grid, mass):.3e} s)")
    return np.exp(grid.k2(axes) * (-0.5j * HBAR * dt / mass))


def half_kick(v, dt):
    """Potential half step exp(-i V dt / 2 hbar), or None for V = 0."""
    if np.ndim(v) == 0 and v == 0.0:
        return None
    return np.exp(v * (-0.5j * dt / HBAR))


def _first_to_last(shape):
    """(s, axes) that make numpy's ``fftn``, which transforms its axes last
    to first, transform the trailing axes of an array ending in ``shape``
    first to last.  ``s`` is their unchanged lengths: given, it spares
    numpy deriving them on every call."""
    return shape[::-1], tuple(range(-1, -len(shape) - 1, -1))


def fourier_multiply(psi, factor, out=None):
    """ifftn(fftn(psi) * factor) over the trailing ``factor.ndim`` axes: the
    one transform pair of every engine's step, written into ``out`` if
    given.  Leading axes of ``psi`` may stack components.

    The transforms run on one thread, numpy.fft's only mode: on 2 shared
    vCPUs two threads slowed 2 x 64 x 64 spinors from 2.58 to 4.54 s.
    """
    # a 1D factor takes the plain fft, which costs less per call than fftn;
    # several axes run first to last (see the module docstring)
    if factor.ndim == 1:
        phi = _fft.fft(psi, out=out)
        phi *= factor
        return _fft.ifft(phi, out=phi)
    s, axes = _first_to_last(psi.shape[psi.ndim - factor.ndim:])
    phi = _fft.fftn(psi, s=s, axes=axes, out=out)
    phi *= factor
    return _fft.ifftn(phi, s=s, axes=axes, out=phi)


@dataclass(frozen=True)
class LiouvillePhase:
    """The kinetic factor kappa(p, q) = K(p) K*(q) of a density-matrix step
    on the half spectrum q <= n/2 of ``rfftn``, as its real and imaginary
    parts, and the buffer :func:`liouville_step` gathers R^T's spectrum
    into (one per stepping loop: a fresh one per step costs more than the
    gather)."""

    cos: np.ndarray
    sin: np.ndarray
    scratch: np.ndarray


def liouville_phase(grid, mass, dt):
    """The :class:`LiouvillePhase` of one step ``dt`` on the 1D ``grid``;
    :func:`kinetic_phase` checks the step size."""
    k = kinetic_phase(grid, mass, dt)
    kappa = k[:, None] * k[:grid.points[0] // 2 + 1].conj()
    return LiouvillePhase(kappa.real.copy(), kappa.imag.copy(),
                          np.empty_like(kappa))


def liouville_step(r, kin):
    """One free step of a density matrix held as R = Re rho + Im rho.

    rho is Hermitian, so Re rho is symmetric and Im rho antisymmetric, and
    rho = (R + R^T)/2 + i (R - R^T)/2.  With kappa = c + i s (``kin``, a
    :class:`LiouvillePhase`) the step rho -> F^-1 (kappa o F rho) takes R's
    spectrum f = rfftn(R) to c o f + s o t exactly, where t(p, q) = f(q, p)
    is the spectrum of R^T, so one real transform pair of half the spectrum
    does the work of a complex one.  The forward transform is an ``rfft``
    along the last axis and an in-place ``fft`` along axis 0, the inverse
    an in-place ``ifft`` along axis 0 and an ``irfft`` along the last axis
    (see the module docstring).
    """
    n = r.shape[0]
    h = n // 2
    f = _fft.rfft(r)
    _fft.fft(f, axis=0, out=f)
    # s o t is gathered straight into the buffer: t(p, q) = f(q, p) is
    # stored as it is for p <= n/2, and follows from f's symmetry
    # f(q, p) = conj f(-q, n - p) for the rows p > n/2, conjugated after
    # the product (s is real)
    t, s = kin.scratch, kin.sin
    np.multiply(f[:h + 1, :h + 1].T, s[:h + 1], out=t[:h + 1])
    np.multiply(f[0, h - 1:0:-1], s[h + 1:, 0], out=t[h + 1:, 0])
    np.multiply(f[:h - 1:-1, h - 1:0:-1].T, s[h + 1:, 1:], out=t[h + 1:, 1:])
    np.conjugate(t[h + 1:], out=t[h + 1:])
    f *= kin.cos
    f += t
    # each pass scales by 1/n, a power of two, so the result is a 2D
    # inverse's (one 1/n^2) bit for bit
    _fft.ifft(f, axis=0, out=f)
    return _fft.irfft(f, n=n)


def _margin_width(n):
    return max(1, int(round(BOUNDARY_MARGIN * n)))


def boundary_monitor(grid, free=()):
    """check(psi, t, step, free_mass=0.0) -> the margin mass, raising
    :class:`BoundaryError` once the probability in the outer margin of any
    axis reaches the tolerance.  Leading axes of ``psi`` stack components,
    whose edge masses add, or stand for a free axis.  The grid axes named
    in ``free`` are not read: ``free_mass`` is their margin mass."""
    coupled = [grid.points[a] for a in range(grid.ndim) if a not in free]
    # the two outer slabs of each trailing axis, cut to the interior of the
    # axes before it, so that a corner counts once
    slabs, interior = [], ()
    for i, n in enumerate(coupled):
        w = _margin_width(n)
        rest = (slice(None),) * (len(coupled) - i - 1)
        slabs += [(Ellipsis,) + interior + (edge,) + rest
                  for edge in (slice(None, w), slice(n - w, None))]
        interior += (slice(w, n - w),)
    dv = grid.cell_volume

    def check(psi, t, step, free_mass=0.0):
        mass = free_mass
        for s in slabs:
            e = psi[s]
            mass += float(np.vdot(e, e).real) * dv
        if mass >= BOUNDARY_TOLERANCE:
            raise BoundaryError(
                f"probability {mass:.3e} in the outer {BOUNDARY_MARGIN:.0%} "
                f"margin at t = {t:.3e} s (step {step}); "
                "enlarge the grid or shorten the run")
        return mass
    return check


def _product_split(psi):
    """(u, b) with ``psi`` = u b for the 2D field ``psi`` (n0 x n1): u,
    n0 x 1, is its unit column with the most mass and b = u^+ psi.  None
    unless the mass psi - u b leaves is at most (max(n0, n1) eps)^2 of the
    total, that is unless ``psi`` is a product to rounding."""
    n, m = psi.shape
    mass = np.sum(np.abs(psi) ** 2, axis=0)
    u = psi[:, [int(np.argmax(mass))]]
    u = u / np.linalg.norm(u)
    b = u.conj().T @ psi
    rest = psi - u @ b
    if np.vdot(rest, rest).real > (max(n, m) * np.finfo(float).eps) ** 2 * mass.sum():
        return None
    return u, b


def propagate(field, potential, dt, steps, record_every=0):
    """Evolve ``steps`` Strang steps of size ``dt`` (negative dt runs backward).

    Returns a new WaveField.  If ``record_every`` > 0, observables are
    recorded every that many steps and after the last, including the initial
    state, into an :class:`ObservableTrace` held as the ``.trace`` attribute
    of the returned field (None otherwise).

    Each step is a half kick, the kinetic step and a half kick.  On a 2D
    grid whose V is constant along axis 0, that axis's kinetic factor
    commutes with every other factor of the step: a field that is a product
    u b of a unit vector u on axis 0 and a row b (see
    :func:`_product_split`) is split once, only b is stepped, and u is read
    exactly at each step as u_t = F^-1 exp(-i hbar k_0^2 t / 2m) F u: axis
    0's margin mass is u_t's times |b|^2, each record is read from u_t and
    b (see :func:`_product_observables`), and the field u_t b is built only
    at the return.  Any other field steps every axis.
    """
    if steps < 1:
        raise DomainError("steps must be >= 1")
    grid = field.grid
    v = potential.values(grid)
    split = None
    if np.ndim(v) == 2 and np.array_equal(v, np.broadcast_to(v[:1], v.shape)):
        split = _product_split(field.psi)
    if split is None:
        free, psi = (), field.psi.copy()
    else:
        free, (u, psi), v = (0,), split, v[:1]
        fu = _fft.fft(u, axis=0)
        fu2 = np.abs(fu[:, 0]) ** 2
        phase = 1j * (grid.kaxis(0) ** 2 * (-0.5 * HBAR / field.mass))[:, None]
        w = _margin_width(len(u))
        edge = np.r_[:w, len(u) - w:len(u)]
        # |b|^2 dv, which the unitary steps keep
        b2 = float(np.vdot(psi, psi).real) * grid.cell_volume
    kin = kinetic_phase(grid, field.mass, dt, (1,) if free else None)
    half = half_kick(v, dt)
    check = boundary_monitor(grid, free)

    out = WaveField(grid, field.psi, field.mass, field.time, field.norm_drift)
    trace = ObservableTrace() if record_every else None

    def record(u_t, psi):
        if free:
            # |F u_t|^2 = |F u|^2: u_t's kinetic phase has modulus 1
            snap = _product_observables(grid, u_t, psi, fu2)
        else:
            out.psi = psi
            snap = observables(out)
        trace.append(out.time, snap)

    u_t, free_mass = (u if free else None), 0.0
    if record_every:
        record(u_t, psi)
    for step in range(1, steps + 1):
        if half is not None:
            psi *= half
        psi = fourier_multiply(psi, kin)
        if half is not None:
            psi *= half
        out.time += dt
        if free:
            u_t = fu * np.exp(step * dt * phase)
            _fft.ifft(u_t, axis=0, out=u_t)
            e = u_t[edge]
            free_mass = float(np.vdot(e, e).real) * b2
        check(psi, out.time, step, free_mass)
        if record_every and (step % record_every == 0 or step == steps):
            record(u_t, psi)

    out.psi = u_t @ psi if free else psi
    out.norm_drift = max(field.norm_drift, abs(out.norm() - 1.0))
    out.trace = trace
    return out


# a running value of Miller's recurrence past this is scaled down by it
_MILLER_RESCALE = 1e250
# below this |alpha|, J_k(alpha) = (alpha/2)^k / k! to rounding: the next
# term of the series is under alpha^2 / 4 < eps / 2 of it
_BESSEL_SERIES_BELOW = 1e-8


def bessel_j(alpha, count):
    """J_k(alpha) for k = 0 .. count - 1, by Miller's backward recurrence
    J_k-1 = (2k / alpha) J_k - J_k+1, normalized by J_0 + 2 sum_k J_2k = 1.

    The recurrence starts from J_top+1 = 0, J_top = 1 at
    top = max(count, 2 |alpha| + 64) + 16, where J_top / Y_top is far below
    rounding, and is scaled down whenever it would overflow; the values it
    leaves under the scale underflow to 0, far below any J_k kept.  Below
    _BESSEL_SERIES_BELOW, where a step of the recurrence could overflow,
    the series' leading term is J_k to rounding (J_k(0) is 1 at k = 0,
    else 0).  J_k(-alpha) = (-1)^k J_k(alpha).
    """
    x = abs(float(alpha))
    if x < _BESSEL_SERIES_BELOW:
        j = np.cumprod(np.r_[1.0, 0.5 * x / np.arange(1.0, count)])
    else:
        top = max(count, 2 * int(x) + 64) + 16
        j = [0.0] * (top + 1)
        nxt, cur = 0.0, 1.0
        j[top] = cur
        for k in range(top, 0, -1):
            nxt, cur = cur, 2.0 * k / x * cur - nxt
            if abs(cur) > _MILLER_RESCALE:
                nxt /= _MILLER_RESCALE
                cur /= _MILLER_RESCALE
                j[k:] = [v / _MILLER_RESCALE for v in j[k:]]
            j[k - 1] = cur
        j = np.array(j[:count]) / math.fsum([j[0]] + [2.0 * v for v in j[2::2]])
    if alpha < 0.0:
        j[1::2] *= -1.0
    return j


@functools.lru_cache(maxsize=16)
def chebyshev_coefficients(alpha):
    """a_k = (2 - delta_k0) (-i)^k J_k(alpha), which expand
    exp(-i alpha x) = sum_k a_k T_k(x) on [-1, 1], up to the last k >= 1
    with |J_k(alpha)| >= CHEBYSHEV_FLOOR.  J_k(alpha) falls off faster
    than exponentially once k > |alpha|, and is far below the floor by
    k = 2 |alpha| + 64.  Cached, so read-only: equal expansions share it."""
    j = bessel_j(alpha, int(2.0 * abs(alpha)) + 64)
    # at least T_0 and T_1, even for alpha = 0
    j = j[:max(2, np.flatnonzero(np.abs(j) >= CHEBYSHEV_FLOOR)[-1] + 1)]
    a = (-1j) ** np.arange(len(j)) * j
    a[1:] *= 2.0
    a.flags.writeable = False
    return a


def chebyshev_propagate(psi, twice_h_norm, centre, half_width, dt, steps,
                        check, time=0.0):
    """exp(-i H dt / hbar) applied ``steps`` times to ``psi``, for a
    time-independent H with its spectrum in centre +/- half_width;
    ``twice_h_norm(p, out)`` writes 2 H_n p, H_n = (H - centre) /
    half_width, into the buffer ``out`` (never ``p``).  Returns
    (psi, time + the run's length, H-applications); ``psi`` is kept.

    Each interval is cut into the fewest equal chunks of alpha =
    half_width dt_c / hbar <= MAX_CHUNK_ALPHA, each the expansion
    exp(-i centre dt_c / hbar) sum_k a_k T_k(H_n) (Tal-Ezer and Kosloff,
    J. Chem. Phys. 81, 3967 (1984)), exact up to rounding and the
    CHEBYSHEV_FLOOR cut.  The H-applications are capped at MAX_APPLICATIONS
    before the loop.  The margin monitor ``check(psi, t, chunk)`` runs at
    chunk ends.
    """
    alpha = half_width * dt / HBAR
    # every expansion applies H more than |alpha| times; that bound is
    # compared as a float first, so an infinite alpha sizes no array
    applications = math.inf
    if steps * abs(alpha) <= MAX_APPLICATIONS:
        chunks = max(1, math.ceil(abs(alpha) / MAX_CHUNK_ALPHA))
        dt /= chunks
        steps *= chunks
        coeffs = chebyshev_coefficients(half_width * dt / HBAR)
        applications = steps * (len(coeffs) - 1)
    if applications > MAX_APPLICATIONS:
        raise DomainError(f"{steps} chunks of {abs(dt):.3e} s take over "
                          f"{MAX_APPLICATIONS} H-applications, the cap; shorten the run")
    coeffs = coeffs * np.exp(-1j * centre * dt / HBAR)
    # the loop runs in five buffers, so no term allocates: the sum, the
    # term added to it and the recurrence's three, the first of them the
    # chunk's start psi (T_0), copied here since its buffer is reused
    psi = psi.copy()
    total, term, cur, nxt = (np.empty_like(psi) for _ in range(4))
    for chunk in range(1, steps + 1):
        # T_0 = 1, T_1 = H_n, T_k+1 = 2 H_n T_k - T_k-1
        prev = psi
        twice_h_norm(prev, cur)
        cur *= 0.5
        np.multiply(coeffs[0], prev, out=total)
        np.multiply(coeffs[1], cur, out=term)
        total += term
        for a in coeffs[2:]:
            twice_h_norm(cur, nxt)
            nxt -= prev
            prev, cur, nxt = cur, nxt, prev
            np.multiply(a, cur, out=term)
            total += term
        time += dt
        check(total, time, chunk)
        # the sum is the next chunk's T_0; the recurrence's buffers are all
        # free, and one of them takes the next sum
        psi, total = total, prev
    return psi, time, applications


# ---------------------------------------------------------------------------
# binary snapshot format (FORMATS.md)

_MAGIC = b"QRARRAY1"


# an output encoded from an array (*.bin, *.pgm) is built this many bytes
# of rows at a time
BLOCK_BYTES = 1 << 20


def field_array_bytes(data, spacings, origins):
    """Serialized 1D or 2D complex array in the documented little-endian
    layout, as chunks: the header, then the payload, widened a few rows at
    a time into one reused "<c16" block (the interleaved little-endian
    (re, im) float64 payload), so a chunk holds its bytes only until the
    next one is taken.
    """
    data = np.asarray(data)
    yield b"".join([_MAGIC,
                    np.asarray((data.ndim,) + data.shape, dtype="<u4").tobytes(),
                    np.asarray(spacings, dtype="<f8").tobytes(),
                    np.asarray(origins, dtype="<f8").tobytes()])
    rows = data.reshape(-1, 1) if data.ndim == 1 else data
    step = max(1, BLOCK_BYTES // (16 * max(1, rows.shape[1])))
    block = np.empty((min(step, len(rows)), rows.shape[1]), dtype="<c16")
    for i in range(0, len(rows), step):
        part = block[:len(rows) - i]
        part[...] = rows[i:i + step]
        yield part


def read_field_array(path):
    """Read back (data, spacings, origins) of :func:`field_array_bytes`.

    Raises :class:`DomainError` unless the file is a whole 1D or 2D array.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def take(n, dtype):
            # checked before reading, so a corrupt shape never sizes a buffer
            if n > size - fh.tell():
                raise DomainError(f"{path}: truncated qratio array file")
            return np.frombuffer(bytearray(fh.read(n)), dtype=dtype)

        if fh.read(8) != _MAGIC:
            raise DomainError(f"{path}: not a qratio array file")
        ndim = int(take(4, "<u4")[0])
        if ndim not in (1, 2):
            raise DomainError(f"{path}: {ndim} axes; qratio arrays have 1 or 2")
        shape = tuple(int(n) for n in take(4 * ndim, "<u4"))
        spacings = tuple(take(8 * ndim, "<f8"))
        origins = tuple(take(8 * ndim, "<f8"))
        data = take(16 * math.prod(shape), "<c16").reshape(shape)
    return data, spacings, origins
