"""Spectral split-operator solver for the Schrödinger equation on 1D/2D grids.

Time stepping is second-order Strang splitting: a half kick by the
potential, a full kinetic step applied in Fourier space, and another half
kick.  Both sub-steps are exactly unitary for real potentials, so the norm
is conserved to rounding and forward/backward evolution inverts exactly.

:func:`strang_step` is the one step of every engine: spinor components
are stacked on a leading axis, and a density matrix rho(x, x') steps as one
2D field with kinetic factor K(k) K*(k') (the Liouville form).

A stepping loop holds its field before the trailing half kick, which joins
the next step's leading one into one full kick; it is applied only where
the field is observed (records, population samples, the return).

On a grid axis along which V is constant, the kinetic factor commutes with
every other factor of the step, so :func:`propagate` steps only the coupled
axes and applies the exact free evolution exp(-i hbar k_f^2 t / 2m) where
the field is observed.  Every step then acts alike on each free-axis row of
the free-axis-major field psi, so it steps a basis of their span instead:
psi = u b, with u an orthonormal basis of psi's column space (pivoted
Gram-Schmidt, to rounding) and b = u^+ psi, whose r rows span psi's rows.
The Strang loop steps b; the free evolution acts on the small u at
observations, where the field is rebuilt as u_t b.  A product field
chi(z) phi(x) has r = 1.

Boundaries are periodic; there are no absorbing layers.  Runs must be sized
so that no appreciable probability reaches the grid edge, and a margin
monitor checks every step of every wave-function run, spinors included, and
aborts with :class:`BoundaryError` before wraparound contaminates results.
It reads the held field: a kick, a per-point phase or 2x2 spin unitary,
keeps the summed margin mass.  With a free axis the margin mass is the sum
of two exact parts: the coupled axes' margin, read off the stepped rows b
(u has orthonormal columns, so b's margin mass is the field's, and a
unitary on the free axis keeps it), and the free axis's margin, from the
field's reduced density matrix u (b b^+) u^+ on that axis.  The sum is never
below the mass in the union of the margins.
"""

import itertools
import math
import os
from dataclasses import dataclass, field

import numpy as np
from scipy import fft as _fft

from .constants import HBAR
from .core import GaussianPacket
from .errors import BoundaryError, DomainError, ResolutionError, StepSizeError

MIN_POINTS = 64
MAX_POINTS = 2 ** 22      # points per grid, all axes: 64 MiB per complex field
SUPPORT_WIDTHS = 3.0      # packet support = center +/- 3 widths (|psi|^2 < 2e-8)
BOUNDARY_MARGIN = 0.05    # outer fraction of each axis watched by the monitor
BOUNDARY_TOLERANCE = 1e-6
# a free-axis field's row basis is complete once the mass outside it is at
# most (max(n_free, n_coupled) * ROW_BASIS_EPS)^2 of the total
ROW_BASIS_EPS = np.finfo(float).eps


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

    def meshes(self):
        return np.meshgrid(*[self.axis(i) for i in range(self.ndim)], indexing="ij")

    def kmeshes(self, axes=None):
        axes = range(self.ndim) if axes is None else axes
        return np.meshgrid(*[self.kaxis(i) for i in axes], indexing="ij")

    def k2(self, axes=None):
        """|k|^2 on the k mesh of ``axes`` (default all)."""
        return sum(km ** 2 for km in self.kmeshes(axes))


# ---------------------------------------------------------------------------
# potentials


class FreePotential:
    """V = 0 everywhere."""

    def values(self, grid):
        return 0.0

    def gradient(self, grid, axis):
        return 0.0


def _on_grid(fn, grid):
    """fn of the open (``np.ix_``) coordinate axes, broadcast to the grid."""
    axes = np.ix_(*(grid.axis(i) for i in range(grid.ndim)))
    return np.broadcast_to(fn(*axes), grid.points)


class LinearPotential:
    """V = slope * x_axis (constant force -slope along the given axis)."""

    def __init__(self, slope, axis=0):
        self.slope = float(slope)
        self.axis = int(axis)

    def values(self, grid):
        return _on_grid(lambda *x: self.slope * x[self.axis], grid)

    def gradient(self, grid, axis):
        return self.slope if axis == self.axis else 0.0


class SampledPotential:
    """V given by a callable of the open (``np.ix_``) coordinate axes, whose
    result is broadcast to the grid (and optional gradient callables)."""

    def __init__(self, fn, grad_fns=None):
        self.fn = fn
        self.grad_fns = grad_fns

    def values(self, grid):
        return _on_grid(self.fn, grid)

    def gradient(self, grid, axis):
        if self.grad_fns is not None:
            return _on_grid(self.grad_fns[axis], grid)
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


def ceiling_dt(grid, mass):
    """Suggested step at the spectral band: 0.7 of the pi/4 hbar / ceiling
    bound that :func:`kinetic_phase` enforces."""
    return 0.7 * math.pi / 4.0 * HBAR / kinetic_ceiling(grid, mass)


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


def strang_step(psi, kin, kick=None, workers=1):
    """Half kick, kinetic phase ``kin`` in Fourier space, half kick.

    Transforms run over the trailing ``kin.ndim`` axes, so leading axes may
    stack components.  ``kick`` (None for V = 0) returns the kicked field
    and may work in place.
    """
    if kick is not None:
        psi = kick(psi)
    # axes= costs time on every call, so only stacked fields pass it
    axes = {} if psi.ndim == kin.ndim else {"axes": tuple(range(-kin.ndim, 0))}
    phi = _fft.fftn(psi, workers=workers, **axes)
    phi *= kin
    psi = _fft.ifftn(phi, overwrite_x=True, workers=workers, **axes)
    return psi if kick is None else kick(psi)


def _margin_width(n):
    return max(1, int(round(BOUNDARY_MARGIN * n)))


def boundary_monitor(grid, free=()):
    """check(psi, t, step, free_mass=0.0) -> the margin mass, raising
    :class:`BoundaryError` once the probability in the outer margin of any
    axis reaches the tolerance.  Leading axes of ``psi`` stack components
    or the rows of a free axis's orthonormal basis; their edge masses add.
    The grid axes named in ``free`` are not read: ``free_mass`` is their
    margin mass."""
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


# A grid has at most two axes, so a potential that varies along one axis
# leaves at most one free: the helpers below take free = () or (f,).

def _free_axes(grid, v):
    """Grid axes along which the potential values ``v`` are exactly
    constant; () when V varies along none or along no axis at all, since
    the full kinetic step then treats every axis alike."""
    if np.ndim(v) != grid.ndim:
        return ()
    free = tuple(a for a in range(grid.ndim) if np.array_equal(
        v, np.broadcast_to(v[(slice(None),) * a + (slice(1),)], v.shape)))
    return () if len(free) == grid.ndim else free


def _free_phase(grid, free, mass):
    """-hbar k_f^2 / 2m on the free axis, shaped to lead a held field."""
    return (grid.kaxis(free[0]) ** 2 * (-0.5 * HBAR / mass))[:, None]


def _row_basis(psi):
    """u, an orthonormal basis of the column space of the free-axis-major
    field ``psi`` (n_free x n_coupled), as n_free x r columns.

    Pivoted Gram-Schmidt: each pass takes the column with the most mass
    left, orthogonalises it against u once more (so that u stays
    orthonormal to rounding), and projects it out of every column in place.
    It stops once the mass left is at most (max(n_free, n_coupled) eps)^2 of
    the total, so a product field takes one pass.  ``psi`` is overwritten.
    """
    n, m = psi.shape
    left = np.sum(np.abs(psi) ** 2, axis=0)
    floor = (max(n, m) * ROW_BASIS_EPS) ** 2 * left.sum()
    basis = np.empty((min(n, m), n), dtype=complex)   # u^T, filled row by row
    r = 0
    while r < len(basis) and left.sum() > floor:
        q = psi[:, int(np.argmax(left))].copy()
        q -= basis[:r].T @ (basis[:r].conj() @ q)
        q /= np.linalg.norm(q)
        basis[r] = q
        psi -= np.outer(q, q.conj() @ psi)
        left = np.sum(np.abs(psi) ** 2, axis=0)
        r += 1
    return np.ascontiguousarray(basis[:r].T)


def _free_margin_masses(grid, free, u, b, mass, dt, steps):
    """Iterator over the free axis's outer-margin mass after steps 1, 2, ...

    Nothing but the free kinetic factor acts on the free axis, so the
    density matrix rho = u (b b^+) u^+ of the held field u b, reduced to
    that axis, stays what it is.  After time tau the margin holds
    sum_{i in edge} [U rho U^+]_ii with U = F^-1 diag(e) F and
    e_k = exp(-i hbar k^2 tau / 2m), which is e^T (R o Q) e* with
    R = F rho F^+ and Q_kk' = sum_{i in edge} (F^-1)_ik (F^-1)*_ik'.  That
    is exact and costs n^2 per step, evaluated 64 steps at a time.
    """
    if not free:
        return itertools.repeat(0.0)
    n = grid.points[free[0]]
    rho = (u @ (b @ b.conj().T) @ u.conj().T) * grid.cell_volume
    w = _margin_width(n)
    in_edge = np.zeros(n)
    in_edge[:w] = in_edge[n - w:] = 1.0
    # R = n ifft(fft(rho, axis 0), axis 1) and
    # Q_kk' = ifft(edge indicator)[(k - k') mod n] / n: the factors n cancel
    g = _fft.ifft(in_edge)
    k = np.arange(n)
    m = (_fft.ifft(_fft.fft(rho, axis=0), axis=1, overwrite_x=True)
         * g[np.subtract.outer(k, k) % n])
    phase = 1j * _free_phase(grid, free, mass)[:, 0]

    def masses():
        for first in range(1, steps + 1, 64):
            taus = dt * np.arange(first, min(first + 64, steps + 1))
            e = np.exp(np.multiply.outer(taus, phase))
            yield from ((e @ m) * e.conj()).sum(axis=1).real.tolist()
    return masses()


def _observer(grid, free, order, mass, half, u, workers):
    """observe(psi, tau): the held field in grid order, after what it has
    not had: the trailing half kick ``half`` (None for V = 0) and, with a
    free axis, the exact free evolution exp(-i hbar k_f^2 tau / 2m) of its
    basis ``u``.  The held field is ``psi`` itself, or u psi with a free
    axis; ``psi`` is not changed."""
    if not free:
        if half is None:
            return lambda psi, tau: psi
        return lambda psi, tau: psi * half
    phase = 1j * _free_phase(grid, free, mass)
    inverse = tuple(int(a) for a in np.argsort(order))

    def observe(psi, tau):
        # V varies along the coupled axes only, so ``half`` is an array
        phi = _fft.fftn(u, axes=(0,), workers=workers)
        phi *= np.exp(tau * phase)
        u_tau = _fft.ifftn(phi, axes=(0,), overwrite_x=True, workers=workers)
        return (u_tau @ (psi * half)).transpose(inverse)
    return observe


def propagate(field, potential, dt, steps, record_every=0, workers=1):
    """Evolve ``steps`` Strang steps of size ``dt`` (negative dt runs backward).

    Returns a new WaveField.  If ``record_every`` > 0, observables are
    recorded every that many steps and after the last, including the initial
    state, into an :class:`ObservableTrace` held as the ``.trace`` attribute
    of the returned field (None otherwise).

    Axes along which V is constant are free: their kinetic factor commutes with
    every other factor of the step, so only the coupled axes are stepped
    and the free evolution is applied exactly where the field is observed
    (records and the return).  Every step acts alike on each row of the
    free-axis-major field, so only the r rows b = u^+ psi of an orthonormal
    basis u of its column space are stepped (r = 1 for a product field),
    and the field is rebuilt as u_t b where it is observed.  The margin
    check is exact all the same: b's coupled-axis margin mass is the
    field's, and the free axis's comes from u (b b^+) u^+.  Each step
    applies one full kick; the last step's trailing half kick is applied
    where the field is observed too.
    """
    if steps < 1:
        raise DomainError("steps must be >= 1")
    grid = field.grid
    v = potential.values(grid)
    free = _free_axes(grid, v)
    # the held field is free-axis-major, the coupled axes contiguous
    coupled = tuple(a for a in range(grid.ndim) if a not in free)
    order = free + coupled
    kin = kinetic_phase(grid, field.mass, dt, coupled)
    if free:
        v = v.transpose(order)[tuple(slice(1) for _ in free)]
    # the held field lacks its trailing half kick, which joins the next
    # step's leading one into one full kick
    half, full = half_kick(v, dt), half_kick(v, 2.0 * dt)

    psi = np.array(field.psi.transpose(order), order="C")   # a copy, always
    u = None
    if free:
        # the copy is the basis's scratch; the loop steps b = u^+ psi
        u = _row_basis(psi)
        psi = u.conj().T @ field.psi.transpose(order)
    check = boundary_monitor(grid, free)
    free_masses = _free_margin_masses(grid, free, u, psi, field.mass, dt, steps)
    observe = _observer(grid, free, order, field.mass, half, u, workers)

    out = WaveField(grid, field.psi, field.mass, field.time, field.norm_drift)
    trace = ObservableTrace() if record_every else None
    if record_every:
        trace.append(out.time, snapshot_with_force(out, potential))

    for step, free_mass in zip(range(1, steps + 1), free_masses):
        if half is not None:
            psi *= half if step == 1 else full
        psi = strang_step(psi, kin, workers=workers)
        out.time += dt
        check(psi, out.time, step, free_mass)
        if record_every and step % record_every == 0 and step < steps:
            out.psi = observe(psi, step * dt)
            trace.append(out.time, snapshot_with_force(out, potential))

    out.psi = observe(psi, steps * dt)
    if record_every:
        trace.append(out.time, snapshot_with_force(out, potential))
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
    data = np.asarray(data)
    # "<c16" is the interleaved little-endian (re, im) float64 payload
    return b"".join([_MAGIC,
                     np.asarray((data.ndim,) + data.shape, dtype="<u4").tobytes(),
                     np.asarray(spacings, dtype="<f8").tobytes(),
                     np.asarray(origins, dtype="<f8").tobytes(),
                     data.astype("<c16").tobytes()])


def write_field_array(path, data, spacings, origins):
    """Write a complex array in the documented little-endian layout."""
    with open(path, "wb") as fh:
        fh.write(field_array_bytes(data, spacings, origins))


def read_field_array(path):
    """Read back (data, spacings, origins) written by write_field_array.

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
