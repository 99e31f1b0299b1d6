import math
import tracemalloc

import numpy as np
import pytest

from qratio.constants import ELECTRON_MASS as ME, EV, HBAR
from qratio.core import GaussianPacket
from qratio.decoherence import EnvironmentSpec
from qratio.errors import ConvergenceError, DomainError
from qratio.tunneling import (HERMITE_NODES, GaussianBarrier,
                              RectangularBarrier, TunnelScenario,
                              default_scenario_grid,
                              energy_averaged_transmission,
                              exact_transmission, rectangular_transmission,
                              run_tunnel_scenario, turning_points,
                              wkb_transmission)

# rectangular benchmark: E = 1 eV against a 2 eV, 0.5 nm barrier,
# kappa = 5.1232e9 1/m (hand-computed closed forms frozen below)
BENCH = RectangularBarrier(2.0 * EV, 0.25e-9)
T_WKB_CLOSED = 0.005957125459676652
T_EXACT_CLOSED = 0.0235471199188269
GAUSS = GaussianBarrier(1.2 * EV, 1.2e-9)   # the tunnel-pure barrier
# WKB transmission through GAUSS, (E in eV, T): the integral
# 2 Int_0^z0 sqrt(2m(V0 exp(-z^2 / 2 sigma^2) - E)) / hbar dz with
# z0 = sigma sqrt(2 ln(V0/E)) (or the 6-sigma cut-off, at 1e-9 eV), by
# mpmath quad at 30 digits (45 digits agree to 1e-29); 1.19 eV is within 1%
# of the top
GAUSS_WKB = [
    (1e-9, 1.8375956083980092755e-21),
    (0.2, 1.0628163422743668321e-14),
    (0.6, 4.9424834258645534418e-8),
    (1.19, 0.77900932968927103894),
]


class TestTurningPoints:
    def test_rectangular_edges(self):
        assert turning_points(BENCH, 1.0 * EV) == (-0.25e-9, 0.25e-9)

    def test_gaussian_half_height(self):
        bar = GaussianBarrier(2.0 * EV, 1e-10)
        z1, z2 = turning_points(bar, 1.0 * EV)
        expected = 1e-10 * math.sqrt(2 * math.log(2))
        assert z2 == pytest.approx(expected, rel=1e-10)
        assert z1 == pytest.approx(-expected, rel=1e-10)

    def test_above_barrier_signals_no_forbidden_region(self):
        assert turning_points(BENCH, 3.0 * EV) is None

    @pytest.mark.parametrize("fraction", [0.05, 0.25, 0.5, 0.8])
    def test_gaussian_closed_form(self, fraction):
        z1, z2 = turning_points(GAUSS, fraction * GAUSS.height)
        expected = GAUSS.sigma * math.sqrt(2.0 * math.log(1.0 / fraction))
        assert abs(z2 / expected - 1.0) <= 1e-11
        assert abs(z1 / -expected - 1.0) <= 1e-11

    def test_truncated_profile_turns_at_its_edges(self):
        # below V0 exp(-18), V > E at both cut-offs of the 6-sigma support
        assert turning_points(GAUSS, 1e-9 * EV) == GAUSS.support


class TestWkb:
    def test_rectangular_closed_form(self):
        t = wkb_transmission(BENCH, 1.0 * EV, ME)
        assert t == pytest.approx(T_WKB_CLOSED, rel=1e-6)

    def test_transparent_limit_continuous(self):
        t = wkb_transmission(BENCH, 1.9999999 * EV, ME)
        assert 0.99 < t <= 1.0
        assert wkb_transmission(BENCH, 2.1 * EV, ME) == 1.0

    def test_doubling_width_squares_transmission(self):
        wide = RectangularBarrier(2.0 * EV, 0.5e-9)
        t1 = wkb_transmission(BENCH, 1.0 * EV, ME)
        t2 = wkb_transmission(wide, 1.0 * EV, ME)
        assert t2 == pytest.approx(t1 ** 2, rel=1e-8)

    def test_rectangular_is_kappa_times_width(self):
        for e in np.linspace(0.5, 1.9, 29) * EV:
            kappa = math.sqrt(2.0 * ME * (BENCH.height - e)) / HBAR
            closed = math.exp(-2.0 * kappa * 2.0 * BENCH.half_width)
            assert abs(wkb_transmission(BENCH, e, ME) / closed - 1.0) <= 1e-15

    @pytest.mark.parametrize("energy_ev,reference", GAUSS_WKB)
    def test_gaussian_against_high_precision(self, energy_ev, reference):
        t = wkb_transmission(GAUSS, energy_ev * EV, ME)
        assert abs(t / reference - 1.0) <= 1e-12

    def test_bounded_and_monotone(self):
        heights = [1.5, 2.0, 3.0, 5.0]
        values = [wkb_transmission(RectangularBarrier(h * EV, 0.25e-9), 1.0 * EV, ME)
                  for h in heights]
        assert all(0.0 < t <= 1.0 for t in values)
        assert all(b < a for a, b in zip(values, values[1:]))


class TestExact:
    def test_rectangular_closed_form(self):
        t = exact_transmission(BENCH, 1.0 * EV, ME)
        assert t == pytest.approx(T_EXACT_CLOSED, rel=1e-6)
        assert rectangular_transmission(1.0 * EV, 2.0 * EV, 0.5e-9, ME) == \
            pytest.approx(T_EXACT_CLOSED, rel=1e-12)

    def test_thick_barrier_wkb_ratio(self):
        # kappa L = 10: WKB misses the prefactor 16 E (V0-E) / V0^2
        e, v0 = 1.0 * EV, 2.0 * EV
        kappa = math.sqrt(2 * ME * (v0 - e)) / HBAR
        bar = RectangularBarrier(v0, 5.0 / kappa)
        ratio = wkb_transmission(bar, e, ME) / exact_transmission(bar, e, ME)
        prefactor = 16 * e * (v0 - e) / v0 ** 2
        assert ratio == pytest.approx(1.0 / prefactor, rel=1e-3)

    def test_transparent_high_energy(self):
        assert exact_transmission(BENCH, 60.0 * EV, ME) == pytest.approx(1.0, abs=1e-3)

    def test_energy_array(self):
        energies = np.linspace(0.5, 1.9, 8) * EV
        t = exact_transmission(BENCH, energies, ME, check=False)
        assert t.shape == (8,)
        assert np.all(np.diff(t) > 0)

    def test_slice_convergence_guard(self):
        sharp = GaussianBarrier(2.0 * EV, 1e-11, cutoff=60.0)
        with pytest.raises(ConvergenceError):
            exact_transmission(sharp, 1.0 * EV, ME, slices=1024)

    def test_richardson_improvement(self):
        bar = GaussianBarrier(1.2 * EV, 1.2e-9)
        t1 = exact_transmission(bar, 1.0 * EV, ME, slices=1024, check=False)
        t2 = exact_transmission(bar, 1.0 * EV, ME, slices=2048, check=False)
        t4 = exact_transmission(bar, 1.0 * EV, ME, slices=8192, check=False)
        assert abs(t2 - t4) < abs(t1 - t4)

    @pytest.mark.parametrize("check", [False, True])
    def test_energy_at_barrier_height_closed_form(self, check):
        # E = V0: psi is linear inside, so T = 1 / (1 + m V0 a^2 / 2 hbar^2)
        v0, a = 2.0 * EV, 0.5e-9
        closed = 1.0 / (1.0 + ME * v0 * a ** 2 / (2.0 * HBAR ** 2))
        t = exact_transmission(BENCH, v0, ME, check=check)
        assert abs(t / closed - 1.0) <= 1e-12

    @pytest.mark.parametrize("check", [False, True])
    def test_opaque_barrier_is_a_domain_error(self, check):
        # kappa L ~ 5e4: the factors' product overflows
        opaque = RectangularBarrier(100.0 * EV, 0.5e-6)
        with pytest.raises(DomainError, match="opaque"):
            exact_transmission(opaque, np.array([0.5, 1.0]) * EV, ME,
                               check=check)

    def test_minimum_slices(self):
        with pytest.raises(DomainError):
            exact_transmission(BENCH, 1.0 * EV, ME, slices=256)

    def test_memory_does_not_grow_with_energies(self):
        # matrices are built in fixed blocks of slices x energies; built all
        # at once, 4096 energies x 1025 interfaces would take 268 MB
        def peak(count):
            energies = np.linspace(0.5, 1.9, count) * EV
            tracemalloc.start()
            try:
                exact_transmission(BENCH, energies, ME, slices=1024,
                                   check=False)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        few, many = peak(32), peak(4096)
        assert many < 4 * 2 ** 20
        assert many - few < 2 ** 18


def make_scenario(width=36e-9, barrier=None, c1=None, c2=None):
    p0 = math.sqrt(2 * ME * 1.0 * EV)
    barrier = barrier or GaussianBarrier(1.2 * EV, 1.2e-9)
    c1 = 1 / math.sqrt(2) if c1 is None else c1
    c2 = 1 / math.sqrt(2) if c2 is None else c2
    return TunnelScenario(
        longitudinal=GaussianPacket(-3.5 * width, width, p0, ME),
        transverse=(GaussianPacket(-75e-9, 36e-9, 0.0, ME),
                    GaussianPacket(+75e-9, 36e-9, 0.0, ME)),
        c1=c1, c2=c2, barrier=barrier)


class TestScenario:
    def test_invariants(self):
        with pytest.raises(DomainError):
            make_scenario(c1=1.0, c2=1.0)
        scen = make_scenario()
        assert scen.tunneling_regime
        assert scen.energy == pytest.approx(1.0 * EV, rel=1e-12)

    def test_energy_average_close_to_central_value_for_narrow_spread(self):
        scen = make_scenario()
        avg = energy_averaged_transmission(scen)
        central = exact_transmission(scen.barrier, scen.energy, ME, check=False)
        assert avg == pytest.approx(central, rel=0.1)

    def test_energy_average_quadrature_converged(self):
        scen = make_scenario()
        pkt = scen.longitudinal
        b = pkt.momentum_scale

        def transmission(p):
            return exact_transmission(scen.barrier, p ** 2 / (2 * ME), ME,
                                      check=False)

        x, w = np.polynomial.hermite.hermgauss(64)
        p = pkt.momentum + b * x / math.sqrt(2.0)
        w, p = w[p > 0.0], p[p > 0.0]
        hermite_64 = float(np.dot(w, transmission(p)) / w.sum())
        # the 513-point trapezoid over p0 +/- 6 sigma_p (sigma_p = b / 2)
        p = np.linspace(pkt.momentum - 3.0 * b, pkt.momentum + 3.0 * b, 513)
        p = p[p > 0.0]
        w = np.exp(-2.0 * ((p - pkt.momentum) / b) ** 2)
        trapezoid = float(np.trapezoid(w * transmission(p), p) / np.trapezoid(w, p))

        avg = energy_averaged_transmission(scen)
        assert abs(avg / hermite_64 - 1.0) <= 1e-13
        assert abs(avg / trapezoid - 1.0) <= 1e-8

    def test_decohered_run_bands_and_coherence(self):
        scen = make_scenario(c1=0.6, c2=0.8)
        grid = default_scenario_grid(scen, points_z=2048, points_x=64)
        env = EnvironmentSpec(50e-9, 1e9)
        rep = run_tunnel_scenario(scen, grid=grid, with_decoherence=True, env=env)
        # the input is a pure split state; the environment destroys its coherence
        assert rep.input_coherence == pytest.approx(1.0, abs=1e-9)
        assert rep.transverse_coherence < 0.05
        assert rep.band_weights[0] == pytest.approx(0.36, abs=0.02 * 0.36)
        assert rep.band_weights[1] == pytest.approx(0.64, abs=0.02 * 0.64)
        assert rep.transmitted_fraction == pytest.approx(
            rep.oracle_transmission, rel=0.2)
        assert abs(rep.flux_sum - 1.0) < 1e-6

    def test_transmission_tightens_as_momentum_spread_shrinks(self):
        # longitudinal width a = 2 hbar / b: doubling a halves the momentum
        # spread and pulls the packet average toward the central value
        env = EnvironmentSpec(50e-9, 1e9)
        devs = []
        for width in (12e-9, 36e-9):
            scen = make_scenario(width=width)
            grid = default_scenario_grid(scen, points_z=2048, points_x=64,
                                         lo_widths=10.0, hi_widths=14.0)
            rep = run_tunnel_scenario(scen, grid=grid, with_decoherence=True,
                                      env=env)
            central = exact_transmission(scen.barrier, scen.energy, ME,
                                         check=False)
            devs.append(abs(rep.transmitted_fraction - central) / central)
        assert devs[1] < devs[0]

    def test_decohered_needs_environment(self):
        scen = make_scenario()
        with pytest.raises(DomainError):
            run_tunnel_scenario(scen, with_decoherence=True, env=None)


def sequential_transmission(v_slices, edges, energy, mass):
    """Reference: the slice-by-slice transfer-matrix loop over complex
    amplitudes with absolute-z phases, its wave numbers floored at 1e-12 of
    the largest lead k, that the blocked tree product replaced."""
    energy = np.atleast_1d(np.asarray(energy, dtype=float))
    k_out = np.sqrt(2.0 * mass * energy.astype(complex)) / HBAR
    coeff = np.zeros((energy.size, 2), dtype=complex)
    coeff[:, 0] = 1.0
    k_right = k_out
    k_floor = 1e-12 * float(np.max(np.abs(k_out)))
    for i in range(len(v_slices) - 1, -1, -1):
        k_left = np.sqrt(2.0 * mass * (energy - v_slices[i]).astype(complex)) / HBAR
        k_left = np.where(np.abs(k_left) < k_floor, k_floor, k_left)
        z = edges[i + 1]
        el_p = np.exp(1j * k_left * z)
        er_p = np.exp(1j * k_right * z)
        psi = coeff[:, 0] * er_p + coeff[:, 1] / er_p
        dpsi = 1j * k_right * (coeff[:, 0] * er_p - coeff[:, 1] / er_p)
        a = 0.5 * (psi + dpsi / (1j * k_left)) / el_p
        b = 0.5 * (psi - dpsi / (1j * k_left)) * el_p
        coeff = np.stack([a, b], axis=1)
        k_right = k_left
    z0 = edges[0]
    el_p = np.exp(1j * k_out * z0)
    psi = coeff[:, 0] * np.exp(1j * k_right * z0) + coeff[:, 1] * np.exp(-1j * k_right * z0)
    dpsi = 1j * k_right * (coeff[:, 0] * np.exp(1j * k_right * z0)
                           - coeff[:, 1] * np.exp(-1j * k_right * z0))
    a_in = 0.5 * (psi + dpsi / (1j * k_out)) / el_p
    return np.abs(1.0 / a_in) ** 2


def sequential_reference(barrier, energy, slices):
    lo, hi = barrier.support
    edges = np.linspace(lo, hi, slices + 1)
    v = barrier.value(0.5 * (edges[:-1] + edges[1:]))
    return sequential_transmission(v, edges, energy, ME)


def hermite_energies(scenario):
    """The energies at which energy_averaged_transmission evaluates T."""
    pkt = scenario.longitudinal
    x, _ = np.polynomial.hermite.hermgauss(HERMITE_NODES)
    p = pkt.momentum + pkt.momentum_scale * x / math.sqrt(2.0)
    return p[p > 0.0] ** 2 / (2.0 * ME)


# kappa L = 70 at E = 1 eV under 2 eV: T ~ 1e-60
THICK = RectangularBarrier(2.0 * EV, 35.0 * HBAR / math.sqrt(2 * ME * EV))


class TestAgainstSequential:
    """The real (psi, psi') tree product against the sequential loop in
    complex amplitudes with absolute-z phases: the two take other bases and
    run their products in another order, so T agrees to rounding, about
    n eps for n slices.  1101 slices leave a last block of 77 slices,
    whose tree has rounds of 77, 19 and 9 matrices, each with an unpaired
    last one."""

    @pytest.mark.parametrize("barrier,energy,slices", [
        (GAUSS, hermite_energies(make_scenario()), 8192),
        (BENCH, np.linspace(0.5, 1.9, 29) * EV, 8192),
        (THICK, np.array([1.0 * EV]), 8192),
        (BENCH, np.linspace(2.05, 10.0, 9) * EV, 8192),
        (GAUSS, np.linspace(1.25, 5.0, 7) * EV, 1101),
        (GAUSS, np.linspace(0.5, 1.1, 7) * EV, 1101),
    ], ids=["tunnel-pure", "tunnel-sweep-rect", "thick", "over-rect",
            "over-gauss-odd", "gauss-odd"])
    def test_agrees_to_rounding(self, barrier, energy, slices):
        ref = sequential_reference(barrier, energy, slices)
        t = exact_transmission(barrier, energy, ME, slices=slices, check=False)
        assert np.all(np.isfinite(t)) and np.all(t > 0.0)
        assert np.max(np.abs(t / ref - 1.0)) <= 1e-11

    def test_thick_barrier_closed_form(self):
        t = exact_transmission(THICK, 1.0 * EV, ME, check=False)
        closed = rectangular_transmission(1.0 * EV, 2.0 * EV,
                                          2.0 * THICK.half_width, ME)
        assert 1e-62 < closed < 1e-58
        assert abs(t / closed - 1.0) <= 1e-9

    def test_check_doubles_slices(self):
        energy = np.linspace(0.5, 1.9, 5) * EV
        ref = sequential_reference(BENCH, energy, 2 * 4096)
        t = exact_transmission(BENCH, energy, ME, slices=4096, check=True)
        assert np.max(np.abs(t / ref - 1.0)) <= 1e-11

    def test_energy_on_a_slice_potential(self):
        # E = V of a slice makes k = 0 there; the reference loop raises it
        # to its k_floor = 1e-12 k_max, so k_left / k_right ~ 1e12 at that
        # slice's two interfaces and the reference carries about
        # 1e12 eps ~ 1e-4 relative error in T.  The (psi, psi') form needs
        # no floor: its factor is [[1, d], [0, 1]] there.
        lo, hi = GAUSS.support
        edges = np.linspace(lo, hi, 1026)
        v = GAUSS.value(0.5 * (edges[:-1] + edges[1:]))
        energy = np.array([v[300], v[512], 1.0 * EV])
        ref = sequential_transmission(v, edges, energy, ME)
        t = exact_transmission(GAUSS, energy, ME, slices=1025, check=False)
        assert np.all(np.isfinite(t))
        assert np.max(np.abs(t[:2] / ref[:2] - 1.0)) <= 1e-3
        assert abs(t[2] / ref[2] - 1.0) <= 1e-11
