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

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, optimize

from .constants import HBAR
from .core import GaussianPacket
from .decoherence import apply_damping, coherence, pure_to_density
from .errors import ConvergenceError, DomainError
from .grid import (FreePotential, Grid, SampledPotential, WaveField,
                   initialize_gaussian, kinetic_ceiling, propagate)

# safety limit on Strang steps before the transmitted lobe must have cleared
MAX_STEPS = 200_000

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

    @property
    def max_height(self):
        return self.height

    def value(self, z):
        z = np.asarray(z, dtype=float)
        return np.where(np.abs(z) <= self.half_width, self.height, 0.0)


@dataclass(frozen=True)
class GaussianBarrier:
    """V = height * exp(-z^2 / (2 sigma^2)), truncated at +/- cutoff sigmas."""

    height: float
    sigma: float
    cutoff: float = 6.0

    def __post_init__(self):
        if self.height <= 0.0 or self.sigma <= 0.0 or self.cutoff <= 0.0:
            raise DomainError("barrier parameters must be positive")

    @property
    def support(self):
        return (-self.cutoff * self.sigma, self.cutoff * self.sigma)

    @property
    def max_height(self):
        return self.height

    def value(self, z):
        z = np.asarray(z, dtype=float)
        v = self.height * np.exp(-0.5 * (z / self.sigma) ** 2)
        return np.where(np.abs(z) <= self.cutoff * self.sigma, v, 0.0)


def turning_points(barrier, energy):
    """Outermost classical turning points of V(z) = E, or None above barrier.

    Roots are located by bracketing bisection to 1e-12 relative accuracy;
    rectangular barriers return their edges directly.
    """
    if energy <= 0.0:
        raise DomainError("energy must be positive")
    if energy >= barrier.max_height:
        return None
    if isinstance(barrier, RectangularBarrier):
        return (-barrier.half_width, barrier.half_width)
    lo, hi = barrier.support
    zs = np.linspace(lo, hi, 4097)
    above = barrier.value(zs) > energy
    idx = np.nonzero(above)[0]
    if idx.size == 0:
        return None

    def f(z):
        return float(barrier.value(z)) - energy

    scale = hi - lo
    left = optimize.brentq(f, zs[max(idx[0] - 1, 0)], zs[idx[0]],
                           xtol=1e-12 * scale, rtol=8.881784197001252e-16)
    right = optimize.brentq(f, zs[idx[-1]], zs[min(idx[-1] + 1, zs.size - 1)],
                            xtol=1e-12 * scale, rtol=8.881784197001252e-16)
    return (left, right)


def wkb_transmission(barrier, energy, mass):
    """Semiclassical transmission exp(-2 Int sqrt(2m(V-E))/hbar dz).

    Returns 1 when no classically forbidden region exists (E >= max V);
    over-barrier reflection is then the job of :func:`exact_transmission`.
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

    integral, _ = integrate.quad(kappa, z1, z2, epsabs=0.0, epsrel=1e-10,
                                 limit=200)
    return math.exp(-2.0 * integral)


def _transfer_transmission(v_slices, edges, energy, mass):
    """Transmission through piecewise-constant slices (vectorized over E)."""
    energy = np.atleast_1d(np.asarray(energy, dtype=float))
    k_out = np.sqrt(2.0 * mass * energy.astype(complex)) / HBAR
    n_e = energy.size
    # coefficients (A, B) of psi = A e^{ikz} + B e^{-ikz}, rightmost region:
    # pure outgoing wave
    coeff = np.zeros((n_e, 2), dtype=complex)
    coeff[:, 0] = 1.0
    k_right = k_out
    k_floor = 1e-12 * float(np.max(np.abs(k_out)))
    for i in range(len(v_slices) - 1, -1, -1):
        k_left = np.sqrt(2.0 * mass * (energy - v_slices[i]).astype(complex)) / HBAR
        k_left = np.where(np.abs(k_left) < k_floor, k_floor, k_left)
        z = edges[i + 1]
        # continuity of psi and psi' at z between slice i (left) and right side
        el_p = np.exp(1j * k_left * z)
        er_p = np.exp(1j * k_right * z)
        psi = coeff[:, 0] * er_p + coeff[:, 1] / er_p
        dpsi = 1j * k_right * (coeff[:, 0] * er_p - coeff[:, 1] / er_p)
        a = 0.5 * (psi + dpsi / (1j * k_left)) / el_p
        b = 0.5 * (psi - dpsi / (1j * k_left)) * el_p
        coeff = np.stack([a, b], axis=1)
        k_right = k_left
        # leftmost interface comes next; k continues outward after loop
    z0 = edges[0]
    el_p = np.exp(1j * k_out * z0)
    psi = coeff[:, 0] * np.exp(1j * k_right * z0) + coeff[:, 1] * np.exp(-1j * k_right * z0)
    dpsi = 1j * k_right * (coeff[:, 0] * np.exp(1j * k_right * z0)
                           - coeff[:, 1] * np.exp(-1j * k_right * z0))
    a_in = 0.5 * (psi + dpsi / (1j * k_out)) / el_p
    t_amp = 1.0 / a_in
    return np.abs(t_amp) ** 2


def exact_transmission(barrier, energy, mass, slices=8192, check=True):
    """Transfer-matrix transmission through the sliced barrier profile.

    The profile is approximated by ``slices`` piecewise-constant segments
    (exact for rectangular barriers).  With ``check`` the slice count is
    doubled and a change above 1e-8 raises :class:`ConvergenceError`.
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

    def run(n):
        lo, hi = barrier.support
        edges = np.linspace(lo, hi, n + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        return _transfer_transmission(barrier.value(mids), edges, energy, mass)

    t = run(slices)
    if check:
        t2 = run(2 * slices)
        if np.max(np.abs(t2 - t)) > 1e-8:
            raise ConvergenceError(
                f"transmission changed by {np.max(np.abs(t2 - t)):.3e} when "
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
        if abs(abs(self.c1) ** 2 + abs(self.c2) ** 2 - 1.0) > 1e-12:
            raise DomainError("|c1|^2 + |c2|^2 must equal 1")
        p1, p2 = self.transverse
        sep = abs(p1.center - p2.center)
        if sep < 4.0 * max(p1.width, p2.width):
            raise DomainError("transverse packets must be split by >> their width")

    @property
    def energy(self):
        return self.longitudinal.momentum ** 2 / (2.0 * self.longitudinal.mass)

    @property
    def tunneling_regime(self):
        return self.energy < self.barrier.max_height


@dataclass
class TunnelReport:
    transmitted_fraction: float    # mass with z > barrier edge + 4 widths
    reflected_fraction: float      # mirror window on the left
    flux_sum: float                # everything right + left of the barrier
    oracle_transmission: float     # energy average of exact_transmission
    transverse_coherence: float    # at the two packet centers, z > threshold
    input_coherence: float         # same estimator on the input state
    band_weights: tuple            # transmitted weight near each packet
    factorization_error: float     # L2 mismatch of transverse profile (pure)
    norm_drift: float
    tunneling_regime: bool
    measure_time: float
    transverse_positions: np.ndarray
    transverse_profile: np.ndarray
    final_density: np.ndarray = None   # 2D |psi|^2 heatmap (pure mode)
    density_grid: object = None


def energy_averaged_transmission(scenario, n_points=513):
    """<T> over the longitudinal momentum distribution |chi(p)|^2.

    Independent 1D oracle for the scenario's transmitted fraction: the
    initial Gaussian spectrum exp(-2 (p-p0)^2/b^2) weighs the stationary
    transfer-matrix transmission at E = p^2/2m.
    """
    pkt = scenario.longitudinal
    b = pkt.momentum_scale
    sigma_p = b / 2.0
    p = np.linspace(pkt.momentum - 6.0 * sigma_p, pkt.momentum + 6.0 * sigma_p,
                    n_points)
    p = p[p > 0.0]
    w = np.exp(-2.0 * ((p - pkt.momentum) / b) ** 2)
    t = exact_transmission(scenario.barrier, p ** 2 / (2.0 * pkt.mass),
                           pkt.mass, check=False)
    return float(np.trapezoid(w * t, p) / np.trapezoid(w, p))


def _transverse_state(scenario, x):
    p1, p2 = scenario.transverse
    phi = (scenario.c1 * np.exp(-((x - p1.center) / p1.width) ** 2
                                + 1j * p1.momentum * x / HBAR)
           + scenario.c2 * np.exp(-((x - p2.center) / p2.width) ** 2
                                  + 1j * p2.momentum * x / HBAR))
    return phi


def _reduced_transverse(block, grid):
    """Transverse density matrix of a (z, x) block, traced over z."""
    return (block.conj().T @ block) * grid.spacings[0] * grid.spacings[1]


def _coherence_from_matrix(rho, i1, i2):
    d1, d2 = rho[i1, i1].real, rho[i2, i2].real
    if d1 <= 0.0 or d2 <= 0.0:
        return 0.0
    return float(abs(rho[i1, i2]) / math.sqrt(d1 * d2))


def run_tunnel_scenario(scenario, grid=None, with_decoherence=False, env=None,
                        workers=1):
    """Propagate the scenario through the barrier and report what crossed.

    Pure mode evolves the full 2D (z, x) wave function.  Decohered mode
    pre-damps the transverse density matrix (environment acting before the
    barrier) and factorizes it against the 1D longitudinal propagation,
    since the barrier is independent of x; ``env`` must then be an
    :class:`~qratio.decoherence.EnvironmentSpec`.

    The transmitted window is z > a + 4 * (longitudinal width); the run
    measures once the transmitted lobe's mean position passes it.
    """
    long_pkt = scenario.longitudinal
    mass = long_pkt.mass
    if grid is None:
        grid = default_scenario_grid(scenario)
    two_dim = not with_decoherence

    bar = scenario.barrier
    sup = bar.support
    z_threshold = sup[1] + 4.0 * long_pkt.width

    p1, p2 = scenario.transverse
    # the transverse axis on its own 1D grid, with the normalized input state
    xgrid = Grid((grid.points[1],), (grid.extents[1],), (grid.origins[1],))
    xax = xgrid.axis(0)
    dxs = xgrid.spacings[0]
    phi = _transverse_state(scenario, xax)
    phi = phi / math.sqrt(np.sum(np.abs(phi) ** 2) * dxs)
    i1 = int(np.argmin(np.abs(xax - p1.center)))
    i2 = int(np.argmin(np.abs(xax - p2.center)))
    if two_dim:
        # superpose product states; initialization validates both packets
        f1 = initialize_gaussian(grid, (long_pkt, p1))
        f2 = initialize_gaussian(grid, (long_pkt, p2))
        psi = scenario.c1 * f1.psi + scenario.c2 * f2.psi
        psi /= math.sqrt(np.sum(np.abs(psi) ** 2) * grid.cell_volume)
        field = WaveField(grid, psi, mass)
        potential = SampledPotential(lambda zm, xm: bar.value(zm))
        in_coh = _coherence_from_matrix(_reduced_transverse(psi, grid), i1, i2)
    else:
        if env is None:
            raise DomainError("decohered mode needs an EnvironmentSpec")
        zgrid_1d = Grid((grid.points[0],), (grid.extents[0],), (grid.origins[0],))
        field = initialize_gaussian(zgrid_1d, long_pkt)
        potential = SampledPotential(lambda zm: bar.value(zm))
        # transverse density matrix, damped before arrival
        rho = pure_to_density(WaveField(xgrid, phi, mass))
        in_coh = coherence(rho, xax[i1], xax[i2])
        rho = apply_damping(rho, env, 5.0 / env.rate_Lambda)

    dt = 0.95 * (math.pi / 4.0) * HBAR / kinetic_ceiling(field.grid, mass)

    v0 = long_pkt.momentum / mass
    chunk = max(8, int(round(0.5 * long_pkt.width / (v0 * dt))))
    steps_done = 0
    measure_time = None
    zax = field.grid.axis(0)
    zsel = zax > z_threshold
    barrier_win = (zax >= sup[0]) & (zax <= sup[1])
    dens_axes = tuple(range(1, field.grid.ndim))
    while steps_done < MAX_STEPS:
        field = propagate(field, potential, dt, chunk, workers=workers)
        steps_done += chunk
        dens_z = field.density().sum(axis=dens_axes) * field.grid.cell_volume
        w_t = float(dens_z[zsel].sum())
        if w_t > 1e-12:
            z_mean = float((dens_z[zsel] * zax[zsel]).sum() / w_t)
            remnant = float(dens_z[barrier_win].sum())
            if z_mean > z_threshold + long_pkt.width and remnant < 1e-7:
                measure_time = field.time
                break
    if measure_time is None:
        raise ConvergenceError("transmitted lobe never cleared the barrier "
                               f"window in {MAX_STEPS} steps; enlarge the grid")

    reflected_threshold = sup[0] - 4.0 * long_pkt.width
    oracle = energy_averaged_transmission(scenario)

    if two_dim:
        dens = field.density()
        dv = field.grid.cell_volume
        w_trans = float(dens[zsel, :].sum() * dv)
        w_ref = float(dens[zax < reflected_threshold, :].sum() * dv)
        flux_sum = float(dens[zax > sup[1], :].sum() * dv
                         + dens[zax < sup[0], :].sum() * dv)
        profile = dens[zsel, :].sum(axis=0) * field.grid.spacings[0]
        # reduced transverse density matrix over the transmitted window
        rho_t = _reduced_transverse(field.psi[zsel, :], field.grid)
        coh = _coherence_from_matrix(rho_t, i1, i2)
        # with an x-independent barrier the evolution stays a product of the
        # barrier-scattered chi(z, t) and the freely spreading phi(x, t);
        # compare the transmitted profile against that free reference
        phi_field = propagate(WaveField(xgrid, phi, mass), FreePotential(),
                              dt, steps_done, workers=workers)
        n_free = np.abs(phi_field.psi) ** 2
        n_free /= n_free.sum() * dxs
        n_out = profile / max(w_trans, 1e-300)
        fact_err = float(np.sqrt(np.sum((n_out - n_free) ** 2) * dxs)
                         / np.sqrt(np.sum(n_free ** 2) * dxs))
        half = 0.5 * (p1.center + p2.center)
        w1 = float(profile[xax < half].sum() * dxs)
        w2 = float(profile[xax >= half].sum() * dxs)
        bands = (w1 / max(w_trans, 1e-300), w2 / max(w_trans, 1e-300))
        drift = field.norm_drift
    else:
        dens_z = field.density() * field.grid.cell_volume
        w_trans = float(dens_z[zsel].sum())
        w_ref = float(dens_z[zax < reflected_threshold].sum())
        flux_sum = float(dens_z[zax > sup[1]].sum() + dens_z[zax < sup[0]].sum())
        coh = coherence(rho, xax[i1], xax[i2])
        diag = np.real(np.diagonal(rho.rho)).copy()
        profile = w_trans * diag
        half = 0.5 * (p1.center + p2.center)
        w1 = float(diag[xax < half].sum() * dxs)
        w2 = float(diag[xax >= half].sum() * dxs)
        bands = (w1, w2)
        fact_err = math.nan
        drift = field.norm_drift

    return TunnelReport(
        transmitted_fraction=w_trans,
        reflected_fraction=w_ref,
        flux_sum=flux_sum,
        oracle_transmission=oracle,
        transverse_coherence=coh,
        input_coherence=in_coh,
        band_weights=bands,
        factorization_error=fact_err,
        norm_drift=drift,
        tunneling_regime=scenario.tunneling_regime,
        measure_time=measure_time,
        transverse_positions=np.asarray(xax),
        transverse_profile=np.asarray(profile),
        final_density=dens if two_dim else None,
        density_grid=field.grid if two_dim else None,
    )


def default_scenario_grid(scenario, points_z=2048, points_x=128,
                          lo_widths=5.5, hi_widths=9.5):
    """Grid sized for the scenario: incoming, reflected and transmitted
    lobes fit in z with margins; transverse range fits both packets."""
    a = scenario.longitudinal.width
    z_lo = scenario.longitudinal.center - lo_widths * a
    z_hi = scenario.barrier.support[1] + hi_widths * a
    p1, p2 = scenario.transverse
    extent_x = abs(p1.center - p2.center) + 10.0 * max(p1.width, p2.width)
    return Grid.make((points_z, points_x),
                     (z_hi - z_lo, extent_x),
                     centers=(0.5 * (z_lo + z_hi), 0.5 * (p1.center + p2.center)))
