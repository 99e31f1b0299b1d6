"""Barrier transmission: WKB, exact transfer matrix, and the split-beam
tunneling scenario.

The scenario follows a longitudinal Gaussian packet through a barrier
V(z) that is independent of the transverse coordinate, with the transverse
state split into two sub-packets c1 psi_1 + c2 psi_2.  In the pure case the
transmitted particle keeps the coherent transverse superposition intact;
with environment-induced decoherence acting before the barrier the
transmitted particle is a statistical mixture of the two transverse
packets with frequencies |c1|^2 : |c2|^2 - decohered, yet still tunneling,
i.e. still quantum mechanical.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .constants import EV, HBAR
from .core import GaussianPacket, check_amplitudes
from .decoherence import (MAX_STEPS, apply_damping, coherence,
                          diagonal_monitor, propagate_density,
                          pure_to_density, two_band_state)
from .errors import ConvergenceError, DomainError
from .grid import (MAX_APPLICATIONS, MAX_CHUNK_ALPHA, FreePotential, Grid,
                   boundary_monitor, ceiling_dt, chebyshev_propagate,
                   fourier_multiply, initialize_gaussian, kinetic_ceiling,
                   propagate)

# Gauss-Hermite nodes of the energy-averaged oracle (32 and 64 agree to 1e-13)
HERMITE_NODES = 32
# Gauss-Legendre nodes of the cosine-mapped WKB integral
WKB_NODES = 96
# transfer-matrix block: slices x energies built and reduced at a time
BLOCK_SLICES = 256
BLOCK_ENERGIES = 32
# the default grid's z range, in longitudinal widths a behind the packet's
# start and past the barrier
GRID_WIDTHS_BEHIND = 5.5
GRID_WIDTHS_PAST = 9.5
# a Gaussian barrier is truncated this many sigmas from its centre
CUTOFF_SIGMAS = 6.0

# ---------------------------------------------------------------------------
# barrier profiles


@dataclass(frozen=True)
class RectangularBarrier:
    """V = height on [-half_width, half_width], zero outside."""

    height: float      # J
    half_width: float  # m

    def __post_init__(self):
        if self.height <= 0.0 or self.half_width <= 0.0:
            raise DomainError("barrier height and half width must be positive")

    @property
    def support(self):
        return (-self.half_width, self.half_width)

    def value(self, z):
        z = np.asarray(z, dtype=float)
        return np.where(np.abs(z) <= self.half_width, self.height, 0.0)


@dataclass(frozen=True)
class GaussianBarrier:
    """V = height * exp(-z^2 / (2 sigma^2)), truncated at +/- CUTOFF_SIGMAS
    sigmas."""

    height: float
    sigma: float

    def __post_init__(self):
        if self.height <= 0.0 or self.sigma <= 0.0:
            raise DomainError("barrier parameters must be positive")

    @property
    def support(self):
        return (-CUTOFF_SIGMAS * self.sigma, CUTOFF_SIGMAS * self.sigma)

    def value(self, z):
        z = np.asarray(z, dtype=float)
        v = self.height * np.exp(-0.5 * (z / self.sigma) ** 2)
        return np.where(np.abs(z) <= CUTOFF_SIGMAS * self.sigma, v, 0.0)


def turning_points(barrier, energy):
    """Outermost classical turning points of V(z) = E, or None above barrier.

    Both barriers have them in closed form.  A rectangular barrier turns at
    its edges.  A Gaussian one turns where height exp(-z^2 / 2 sigma^2) = E,
    at z = +/- sigma sqrt(2 ln(height / E)), unless that lies past the
    cut-off: the truncated profile steps from V > E to 0 there, so the
    support edge +/- CUTOFF_SIGMAS sigma is the turning point.
    """
    if energy <= 0.0:
        raise DomainError("energy must be positive")
    if energy >= barrier.height:
        return None
    if isinstance(barrier, RectangularBarrier):
        return (-barrier.half_width, barrier.half_width)
    z = barrier.sigma * min(math.sqrt(2.0 * math.log(barrier.height / energy)),
                            CUTOFF_SIGMAS)
    return (-z, z)


@functools.cache
def _theta_rule():
    """Gauss-Legendre nodes and weights of WKB_NODES points on [0, pi]."""
    x, w = np.polynomial.legendre.leggauss(WKB_NODES)
    return 0.5 * math.pi * (x + 1.0), 0.5 * math.pi * w


def wkb_transmission(barrier, energy, mass):
    """Semiclassical transmission exp(-2 Int sqrt(2m(V-E))/hbar dz).

    Returns 1 when no classically forbidden region exists (E >= max V);
    over-barrier reflection is then the job of :func:`exact_transmission`.
    A rectangular barrier's integral is kappa (z2 - z1).  Otherwise
    z = mid - half cos(theta) maps [0, pi] onto [z1, z2] and turns the
    sqrt(z - z1) edges of kappa into smooth ones, so a fixed Gauss-Legendre
    rule in theta converges exponentially (Davis and Rabinowitz, Methods of
    Numerical Integration, 2nd ed., 1984, sec. 2.9).
    """
    if mass <= 0.0 or energy <= 0.0:
        raise DomainError("mass and energy must be positive")
    tp = turning_points(barrier, energy)
    if tp is None:
        return 1.0
    z1, z2 = tp

    def kappa(z):
        dv = np.maximum(barrier.value(z) - energy, 0.0)
        return np.sqrt(2.0 * mass * dv) / HBAR

    if isinstance(barrier, RectangularBarrier):
        integral = float(kappa(0.0)) * (z2 - z1)
    else:
        mid, half = 0.5 * (z1 + z2), 0.5 * (z2 - z1)
        theta, w = _theta_rule()
        integral = half * float(np.dot(w, kappa(mid - half * np.cos(theta))
                                       * np.sin(theta)))
    return math.exp(-2.0 * integral)


def _product(a, b):
    """The 2x2 products a @ b of matrices held as (m11, m12, m21, m22)
    arrays, written out entry by entry."""
    a11, a12, a21, a22 = a
    b11, b12, b21, b22 = b
    return (a11 * b11 + a12 * b21, a11 * b12 + a12 * b22,
            a21 * b11 + a22 * b21, a21 * b12 + a22 * b22)


def _tree_product(m):
    """The ordered product m[0] @ m[1] @ ... of the matrices along axis 0,
    multiplied pairwise in floor(log2(len)) rounds.  An unpaired last matrix
    of a round is folded into the round's last product."""
    while len(m[0]) > 1:
        odd = len(m[0]) % 2
        pairs = len(m[0]) - odd
        p = _product(tuple(x[0:pairs:2] for x in m),
                     tuple(x[1:pairs:2] for x in m))
        if odd:
            last = _product(tuple(x[-1:] for x in p), tuple(x[-1:] for x in m))
            for x, y in zip(p, last):
                x[-1:] = y
        m = p
    return tuple(x[0] for x in m)


# an opaque barrier overflows the product to inf and T to NaN, which
# exact_transmission refuses
@np.errstate(over="ignore", invalid="ignore")
def _transfer_transmission(v_slices, edges, energy, mass):
    """Transmission through piecewise-constant slices (vectorized over E).

    In a slice of potential V, psi'' = -q psi with q = 2m(E - V)/hbar^2, and
    F = [[c, s], [-q s, c]] carries (psi, psi') across it: with kd = k d and
    k = sqrt|q|, c = cos kd and s = sin(kd)/k for q > 0, c = cosh kd and
    s = sinh(kd)/k for q < 0, and s = d at kd = 0, so E may equal a slice's
    V.  With leads at V = 0 and wave number k0, T = 4 / ((M11 + M22)^2 +
    (k0 M12 - M21 / k0)^2) of the product M of the F, whichever way round
    (reversing the slices swaps M11 and M22); here the right-most slice
    acts first: M = F_0 F_1 ... F_n-1.

    M is the associative scan of the transfer-matrix method (Ando and Itoh,
    J. Appl. Phys. 61, 1497 (1987); Blelloch, CMU-CS-90-190 (1990)): the
    factors are built and tree-reduced (:func:`_tree_product`) in blocks of
    BLOCK_SLICES slices by BLOCK_ENERGIES energies, and the block products
    multiplied in order, so the working set stays bounded whatever the
    slice and energy counts.  d is the width over the slice count: the
    differences of ``linspace`` edges would lose about 12 bits.
    """
    energy = np.atleast_1d(np.asarray(energy, dtype=float))
    n = len(v_slices)
    d = (edges[-1] - edges[0]) / n
    t = np.empty(energy.size)
    for e0 in range(0, energy.size, BLOCK_ENERGIES):
        e = energy[e0:e0 + BLOCK_ENERGIES]
        total = None
        for s0 in range(0, n, BLOCK_SLICES):
            vs = v_slices[s0:s0 + BLOCK_SLICES, None]
            q = (2.0 * mass / HBAR ** 2) * (e - vs)
            k = np.sqrt(np.abs(q))
            kd = k * d
            osc = q > 0.0
            c = np.where(osc, np.cos(kd), np.cosh(kd))
            s = np.divide(np.where(osc, np.sin(kd), np.sinh(kd)), k,
                          out=np.full(k.shape, d), where=kd > 0.0)
            block = _tree_product((c, s, -q * s, c))
            total = block if total is None else _product(total, block)
        m11, m12, m21, m22 = total
        k0 = np.sqrt(2.0 * mass * e) / HBAR
        t[e0:e0 + BLOCK_ENERGIES] = 4.0 / ((m11 + m22) ** 2
                                           + (k0 * m12 - m21 / k0) ** 2)
    return t


def exact_transmission(barrier, energy, mass, slices=8192, check=True):
    """Transfer-matrix transmission through the sliced barrier profile.

    The profile is approximated by ``slices`` piecewise-constant segments
    (exact for rectangular barriers).  The real 2x2 slice matrices act on
    (psi, psi'), exact at E = V too, and are multiplied as a pairwise tree, the
    associative-scan form of the transfer-matrix method (Ando and Itoh
    1987; Blelloch 1990), in blocks of BLOCK_SLICES slices by
    BLOCK_ENERGIES energies (see :func:`_transfer_transmission`), so
    memory does not grow with ``slices`` or the number of energies.  With
    ``check`` the slice count is doubled and a change above 1e-8 raises
    :class:`ConvergenceError`; a barrier so opaque that the product
    overflows (kappa L beyond about 700) raises :class:`DomainError`.
    Accepts a scalar energy or an array; returns matching shape.
    """
    if mass <= 0.0:
        raise DomainError("mass must be positive")
    if slices < 1024:
        raise DomainError("use at least 1024 slices")
    scalar = np.isscalar(energy)
    energy = np.atleast_1d(np.asarray(energy, dtype=float))
    if np.any(energy <= 0.0):
        raise DomainError("energies must be positive")

    lo, hi = barrier.support

    def run(n):
        edges = np.linspace(lo, hi, n + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        t = _transfer_transmission(barrier.value(mids), edges, energy, mass)
        if not np.all(np.isfinite(t)):
            kappa = math.sqrt(2.0 * mass * max(barrier.height - energy.min(),
                                               0.0)) / HBAR
            raise DomainError(
                f"barrier too opaque for the transfer matrix: kappa L = "
                f"{kappa * (hi - lo):.3g} at the lowest energy, and the "
                f"product overflows beyond about 700 (T ~ exp(-2 kappa L))")
        return t

    t = run(slices)
    if check:
        t2 = run(2 * slices)
        delta = np.max(np.abs(t2 - t))
        if not delta <= 1e-8:       # NaN fails too
            raise ConvergenceError(
                f"transmission changed by {delta:.3e} when "
                f"doubling {slices} slices; profile under-resolved")
        t = t2
    return float(t[0]) if scalar else t


def rectangular_transmission(energy, height, full_width, mass):
    """Closed-form transmission of a rectangular barrier (tunneling regime)."""
    if not 0.0 < energy < height:
        raise DomainError("closed form needs 0 < E < V0")
    kappa = math.sqrt(2.0 * mass * (height - energy)) / HBAR
    s = math.sinh(kappa * full_width)
    return 1.0 / (1.0 + height ** 2 * s ** 2 / (4.0 * energy * (height - energy)))


# ---------------------------------------------------------------------------
# split-beam scenario


@dataclass(frozen=True)
class TunnelScenario:
    """Longitudinal packet, two transverse sub-packets, and a barrier.

    ``longitudinal`` supplies p0, the width a = 2 hbar / b, and the mass.
    ``transverse`` is a pair of packets displaced symmetrically; amplitudes
    (c1, c2) must satisfy |c1|^2 + |c2|^2 = 1.
    """

    longitudinal: GaussianPacket
    transverse: tuple      # (GaussianPacket, GaussianPacket)
    c1: complex
    c2: complex
    barrier: object

    def __post_init__(self):
        check_amplitudes(self.c1, self.c2)
        p1, p2 = self.transverse
        sep = abs(p1.center - p2.center)
        if sep < 4.0 * max(p1.width, p2.width):
            raise DomainError("transverse packets must be split by >> their width")

    @property
    def energy(self):
        return self.longitudinal.momentum ** 2 / (2.0 * self.longitudinal.mass)

    @property
    def tunneling_regime(self):
        return self.energy < self.barrier.height


@dataclass
class TunnelReport:
    transmitted_fraction: float    # mass right of the barrier, z > sup[1]
    reflected_fraction: float      # mass left of the barrier, z < sup[0]
    flux_sum: float                # transmitted + reflected
    oracle_transmission: float     # energy average of exact_transmission
    transverse_coherence: float    # at the two packet centers
    input_coherence: float         # same estimator on the input state
    band_weights: tuple            # transmitted weight near each packet
    factorization_error: float     # L2 mismatch of transverse profile (pure)
    norm_drift: float
    tunneling_regime: bool
    measure_time: float
    transverse_positions: np.ndarray
    transverse_profile: np.ndarray
    final_density: np.ndarray = None   # 2D |psi|^2 heatmap (pure mode)


def energy_averaged_transmission(scenario):
    """<T> over the longitudinal momentum distribution |chi(p)|^2.

    Independent 1D oracle for the scenario's transmitted fraction: the
    initial Gaussian spectrum exp(-2 (p-p0)^2/b^2) weighs the stationary
    transfer-matrix transmission at E = p^2/2m.  The average is a
    Gauss-Hermite rule in p = p0 + b x / sqrt(2); nodes at p <= 0 are
    dropped and the remaining weights renormalized.
    """
    pkt = scenario.longitudinal
    x, w = np.polynomial.hermite.hermgauss(HERMITE_NODES)
    p = pkt.momentum + pkt.momentum_scale * x / math.sqrt(2.0)
    w = w[p > 0.0]
    p = p[p > 0.0]
    t = exact_transmission(scenario.barrier, p ** 2 / (2.0 * pkt.mass),
                           pkt.mass, check=False)
    return float(np.dot(w, t) / w.sum())


def run_tunnel_scenario(scenario, grid, env=None):
    """Propagate the scenario through the barrier and report what crossed.

    V(z) does not depend on x: chi(z) crosses it on the z axis alone, while
    one transverse density matrix, |phi><phi| of the split state phi(x),
    spreads freely for as long, its diagonal's margin watched every step.
    Given an ``env``, an :class:`~qratio.decoherence.EnvironmentSpec`, the
    run is decohered: the environment damps that matrix first, acting
    before the barrier.  The transmitted state is w_trans times that
    matrix.  Pure mode (no ``env``) also steps phi, for the factorization
    error and the |chi|^2 |phi|^2 heatmap.

    chi runs on :func:`~qratio.grid.chebyshev_propagate`, one expansion of
    alpha = MAX_CHUNK_ALPHA per check, until the lobe past z_threshold =
    sup[1] + 4a has its mean past z_threshold + a and the barrier holds
    under 1e-7; then w_trans is the weight at z > sup[1], w_ref at z < sup[0].
    """
    long_pkt = scenario.longitudinal
    mass = long_pkt.mass
    a = long_pkt.width
    zgrid, xgrid = (Grid((n,), (e,), (o,)) for n, e, o
                    in zip(grid.points, grid.extents, grid.origins))
    ceiling = kinetic_ceiling(zgrid, mass)
    if ceiling <= 0.0:
        raise DomainError(f"mass {mass:.3e} kg too large: the grid's kinetic "
                          "ceiling underflows to 0, leaving no time step")
    # the 1D oracle's blocks come and go before the runs hold their arrays
    oracle = energy_averaged_transmission(scenario)
    zax = zgrid.axis(0)
    v = scenario.barrier.value(zax)
    half_width = 0.5 * (ceiling + float(v.max()))    # H in [0, 2 half_width]
    sup = scenario.barrier.support
    z_threshold = sup[1] + 4.0 * a
    # a flight of t = distance / v0 (v0 may be 0) takes over half_width t / hbar
    if not (half_width * (z_threshold + a - long_pkt.center)
            <= MAX_APPLICATIONS * HBAR * long_pkt.momentum / mass):
        raise ConvergenceError(
            f"beam energy {scenario.energy / EV:.3e} eV too low for the grid: "
            f"its flight takes over {MAX_APPLICATIONS} H-applications")

    p1, p2 = scenario.transverse
    psi = initialize_gaussian(zgrid, long_pkt).psi
    phi = two_band_state(xgrid, scenario.c1, scenario.c2, (p1, p2))
    rho = pure_to_density(phi)
    in_coh = coherence(rho, p1.center, p2.center)
    if env is not None:
        rho = apply_damping(rho, env, 5.0 / env.rate_Lambda)
        rho.time = 0.0      # the flight starts once the damping is done

    # 2 H_n = 2 (H - E_c) / (dE / 2), with E_c = dE / 2 = half_width
    kin = (HBAR ** 2 / mass * zgrid.k2() - 2.0 * half_width) / half_width
    v_n = 2.0 / half_width * v
    # complex once here: a product with a complex field would cast a real
    # factor at every H-application, to the same values
    kin, v_n = kin.astype(complex), v_n.astype(complex)

    scratch = np.empty_like(psi)

    def twice_h_norm(p, out):
        fourier_multiply(p, kin, out)
        out += np.multiply(v_n, p, out=scratch)
        return out

    # one expansion per check: alpha = half_width dt / hbar <= MAX_CHUNK_ALPHA
    dt = MAX_CHUNK_ALPHA * HBAR / half_width
    while half_width * dt / HBAR > MAX_CHUNK_ALPHA:
        dt = math.nextafter(dt, 0.0)
    check = boundary_monitor(zgrid)
    zsel = zax > z_threshold
    barrier_win = (zax >= sup[0]) & (zax <= sup[1])
    t, applications, n = 0.0, 0, 0
    while applications + n <= MAX_APPLICATIONS:
        psi, t, n = chebyshev_propagate(psi, twice_h_norm, half_width,
                                        half_width, dt, 1, check, t)
        applications += n
        dens_z = np.abs(psi) ** 2 * zgrid.cell_volume
        w_lobe = float(dens_z[zsel].sum())
        if w_lobe > 1e-12:
            z_mean = float((dens_z[zsel] * zax[zsel]).sum() / w_lobe)
            remnant = float(dens_z[barrier_win].sum())
            if z_mean > z_threshold + a and remnant < 1e-7:
                break
    else:
        raise ConvergenceError(
            "transmitted lobe never cleared the barrier window in "
            f"{applications} H-applications; enlarge the grid")

    w_trans = float(dens_z[zax > sup[1]].sum())
    w_ref = float(dens_z[zax < sup[0]].sum())
    # compared as a float first, so a flight too long to step sizes nothing
    steps_x = t / ceiling_dt(xgrid, mass)
    if not steps_x <= MAX_STEPS:
        raise DomainError(
            f"the transverse flight of {t:.3e} s takes {steps_x:.4g} "
            f"density-matrix steps on the x grid, over the cap of {MAX_STEPS}; "
            "use fewer [grid] points along x or a wider transverse_width")
    steps_x = math.ceil(steps_x)
    tau = t / steps_x
    rho_x = propagate_density(rho, None, tau, steps_x,
                              observe=diagonal_monitor(xgrid))
    n_x = rho_x.position_density()
    xax = xgrid.axis(0)
    dx = xgrid.spacings[0]
    fact_err, final_density = math.nan, None
    if env is None:
        n_free = propagate(phi, FreePotential(), tau, steps_x).density()
        # the heatmap takes |phi|^2, whose entries are never negative
        final_density = np.outer(np.abs(psi) ** 2, n_free)
        n_free /= n_free.sum() * dx
        fact_err = float(np.linalg.norm(n_x - n_free) / np.linalg.norm(n_free))
    half = 0.5 * (p1.center + p2.center)
    bands = (float(n_x[xax < half].sum() * dx),
             float(n_x[xax >= half].sum() * dx))

    return TunnelReport(
        transmitted_fraction=w_trans,
        reflected_fraction=w_ref,
        flux_sum=w_trans + w_ref,
        oracle_transmission=oracle,
        transverse_coherence=coherence(rho_x, p1.center, p2.center),
        input_coherence=in_coh,
        band_weights=bands,
        factorization_error=fact_err,
        norm_drift=max(abs(math.sqrt(dens_z.sum()) - 1.0),
                       abs(rho_x.trace() - 1.0)),
        tunneling_regime=scenario.tunneling_regime,
        measure_time=t,
        transverse_positions=np.asarray(xax),
        transverse_profile=w_trans * n_x,
        final_density=final_density,
    )


def default_scenario_grid(scenario, points_z, points_x):
    """Grid sized for the scenario: incoming, reflected and transmitted
    lobes fit in z with margins; transverse range fits both packets.  The
    point counts have no default here: the tunnel schema's [grid] points
    holds it."""
    a = scenario.longitudinal.width
    z_lo = scenario.longitudinal.center - GRID_WIDTHS_BEHIND * a
    z_hi = scenario.barrier.support[1] + GRID_WIDTHS_PAST * a
    p1, p2 = scenario.transverse
    extent_x = abs(p1.center - p2.center) + 10.0 * max(p1.width, p2.width)
    return Grid.make((points_z, points_x),
                     (z_hi - z_lo, extent_x),
                     centers=(0.5 * (z_lo + z_hi), 0.5 * (p1.center + p2.center)))
