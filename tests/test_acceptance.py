"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured numbers (run with ``pytest -v -s``).
"""

import json
import math
import time
from math import comb

import numpy as np

from qratio.cli import main as cli_main, preset_names, _preset_text
from qratio.config import parse_config
from qratio.constants import BOHR_MAGNETON as MUB, ELECTRON_MASS as ME, EV, HBAR
from qratio.core import GaussianPacket
from qratio.decoherence import EnvironmentSpec, apply_damping, coherence
from qratio.grid import Grid, ceiling_dt, initialize_gaussian
from qratio.runner import run as run_config
from qratio.spin import SpinCoherentState, classical_limit_diagnostics, distribution
from qratio.stern_gerlach import (SGFieldConfig, SpinorField, propagate_coupled,
                                  propagate_decoupled)
from qratio.talbot import (GratingSpec, LauConfig, correlation_at_shift,
                           lau_scan, propagate_carpet, revival_fidelity,
                           talbot_length)
from qratio.tunneling import (GaussianBarrier, RectangularBarrier,
                              TunnelScenario, default_scenario_grid,
                              exact_transmission, run_tunnel_scenario,
                              wkb_transmission)


class Budget:
    def __init__(self, seconds):
        self.limit = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start
        return False


def report(number, ok, detail):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_diffusion_times(tmp_path):
    expected = {"electron": 1e-8, "hydrogen-atom": 1.6e-5,
                "C70": 8e-3, "stone-1g": 1e19}
    with Budget(1.0) as budget:
        code = cli_main(["diffuse", "--preset", "table1",
                         "--out", str(tmp_path / "t1")])
    assert code == 0
    rows = (tmp_path / "t1" / "diffusion_times.csv").read_text().splitlines()[1:]
    results = {}
    for row in rows:
        name, _, _, t2 = row.split(",")
        results[name] = float(t2)
    ok = all(expected[n] / 2 <= results[n] <= expected[n] * 2 for n in expected)
    ok = ok and budget.elapsed < 1.0
    report(1, ok, f"doubling times {results}, {budget.elapsed:.2f}s")


def test_criterion_2_quantum_ratios(tmp_path):
    targets = {"Ag": 1e6, "Na": 1e6, "C70-cold": 1e7, "C70-hot": 1e3}
    got = {}
    with Budget(1.0) as budget:
        for name in targets:
            code = cli_main(["ratio", "--preset", name,
                             "--out", str(tmp_path / name)])
            assert code == 0
            with open(tmp_path / name / "summary.json", encoding="utf-8") as fh:
                summary = json.load(fh)
            got[name] = (summary["Q"], summary["classification"])
    ok = all(t / 3 <= got[n][0] <= t * 3 and got[n][1] == "Quantum"
             for n, t in targets.items())
    ok = ok and budget.elapsed < 1.0
    report(2, ok, f"{got}, {budget.elapsed:.2f}s")


def test_criterion_3_spin_distributions():
    with Budget(10.0) as budget:
        # exact distributions against integer-binomial brute force
        exact_ok = True
        for theta in (math.pi / 2, math.pi / 4):
            d = distribution(SpinCoherentState(13, theta))
            p = math.cos(theta / 2) ** 2
            brute = np.array([comb(13, k) * p ** k * (1 - p) ** (13 - k)
                              for k in range(14)])
            exact_ok &= bool(np.max(np.abs(d.weights - brute)) < 1e-12)
        # large-spin argmax within one unit of j cos(theta)
        argmax_ok = True
        for theta in (math.pi / 2, math.pi / 4):
            rep = classical_limit_diagnostics(2 * 10 ** 5, theta)
            argmax_ok &= rep.argmax_offset <= 1.0
        # relative width ~ 1 / sqrt(2j)
        width_ok = True
        theta = math.pi / 4
        x0 = math.cos(theta / 2) ** 2
        for j in (50, 200, 800):
            rep = classical_limit_diagnostics(j, theta)
            expected = 2 * math.sqrt(x0 * (1 - x0)) / math.sqrt(2 * j)
            width_ok &= abs(rep.relative_width / expected - 1.0) < 0.05
    ok = exact_ok and argmax_ok and width_ok and budget.elapsed < 10.0
    report(3, ok, f"exact={exact_ok} argmax={argmax_ok} width={width_ok}, "
                  f"{budget.elapsed:.2f}s")


def test_criterion_4_decoupled_sg_1024(criterion_4_decoupled_run):
    # the 1024 x 1024 run and its reversal are made once by the session
    # fixture, which test_margins.py shares; the budget counts their time
    run4 = criterion_4_decoupled_run
    with Budget(30.0) as budget:
        grid, spinor, out, steps = run4.grid, run4.start, run4.out, run4.steps
        slope = MUB * run4.b0
        t_end = out.up.time
        pz_err = 0.0
        for i, t in enumerate(out.up.trace.times):
            pz_err = max(pz_err,
                         abs(out.up.trace.mean_momentum[i][1] - slope * t),
                         abs(out.down.trace.mean_momentum[i][1] + slope * t))
        pz_rel = pz_err / (slope * t_end)
        drift_per_step = max(out.up.norm_drift, out.down.norm_drift) / steps
        back = run4.back
        err_up = math.sqrt(float(np.sum(np.abs(back.up.psi - spinor.up.psi) ** 2))
                           * grid.cell_volume)
        err_down = math.sqrt(float(np.sum(np.abs(back.down.psi - spinor.down.psi) ** 2))
                             * grid.cell_volume)
        reversal = max(err_up, err_down)
    elapsed = run4.elapsed + budget.elapsed
    ok = (pz_rel < 1e-6 and reversal < 1e-8 and drift_per_step < 1e-10
          and elapsed < 30.0)
    report(4, ok, f"pz_rel={pz_rel:.2e} reversal={reversal:.2e} "
                  f"drift/step={drift_per_step:.2e}, {elapsed:.1f}s")


def test_criterion_5_decoupling_validation():
    with Budget(300.0) as budget:
        grid = Grid.make((64, 64), (1e-6, 1e-6))
        width = 8 * grid.spacings[0]
        pk = GaussianPacket(0.0, width, 0.0, ME)
        c = 1 / math.sqrt(2)
        spinor = SpinorField(initialize_gaussian(grid, (pk, pk)),
                             initialize_gaussian(grid, (pk, pk)), c, c)
        tau_diff = ME * width ** 2 / HBAR
        duration = 0.4 * tau_diff
        b0 = 2 * ME * (width / 8) / (MUB * duration ** 2)
        y_max = grid.extents[0] / 2
        # the decoupled reference is exact up to a global phase at any step,
        # and its potentials read b0 alone: one serves every bias
        steps = int(math.ceil(duration / ceiling_dt(grid, ME)))
        decoupled = propagate_decoupled(
            spinor, SGFieldConfig(0.0, b0), duration / steps, steps)
        nu_d, nd_d = decoupled.densities()
        deviations = []
        for ratio in (200.0, 400.0, 800.0, 1600.0):
            config = SGFieldConfig(ratio * b0 * y_max, b0)
            coupled, _ = propagate_coupled(spinor, config, duration, 1)
            nu_c, nd_c = coupled.densities()
            deviations.append(float(
                (np.abs(nu_c - nu_d).sum() + np.abs(nd_c - nd_d).sum())
                * grid.cell_volume))
    monotone = all(b < a for a, b in zip(deviations, deviations[1:]))
    ok = deviations[0] < 0.01 and monotone and budget.elapsed < 300.0
    report(5, ok, f"L1 deviations {['%.2e' % d for d in deviations]} "
                  f"monotone={monotone}, {budget.elapsed:.1f}s")


def test_criterion_6_tunneling():
    t_wkb_closed = 0.005957125459676652
    t_exact_closed = 0.0235471199188269
    with Budget(300.0) as budget:
        bench = RectangularBarrier(2.0 * EV, 0.25e-9)
        wkb_ok = abs(wkb_transmission(bench, 1.0 * EV, ME) / t_wkb_closed
                     - 1.0) < 1e-6
        exact_ok = abs(exact_transmission(bench, 1.0 * EV, ME) / t_exact_closed
                       - 1.0) < 1e-6

        p0 = math.sqrt(2 * ME * 1.0 * EV)
        barrier = GaussianBarrier(1.2 * EV, 1.2e-9)
        c = 1 / math.sqrt(2)
        scen = TunnelScenario(
            longitudinal=GaussianPacket(-3.5 * 36e-9, 36e-9, p0, ME),
            transverse=(GaussianPacket(-75e-9, 36e-9, 0.0, ME),
                        GaussianPacket(+75e-9, 36e-9, 0.0, ME)),
            c1=c, c2=c, barrier=barrier)
        grid = default_scenario_grid(scen, points_z=2048, points_x=64)
        pure = run_tunnel_scenario(scen, grid=grid)
        frac_ok = abs(pure.transmitted_fraction / pure.oracle_transmission
                      - 1.0) < 2e-5
        vis_ok = abs(pure.transverse_coherence - pure.input_coherence) < 0.02
        flux_ok = abs(pure.flux_sum - 1.0) < 1e-6
        fact_ok = pure.factorization_error < 1e-6

        scen_d = TunnelScenario(
            longitudinal=GaussianPacket(-3.5 * 36e-9, 36e-9, p0, ME),
            transverse=(GaussianPacket(-75e-9, 36e-9, 0.0, ME),
                        GaussianPacket(+75e-9, 36e-9, 0.0, ME)),
            c1=0.6, c2=0.8, barrier=barrier)
        env = EnvironmentSpec(50e-9, 1e9)
        deco = run_tunnel_scenario(scen_d, grid=grid, env=env)
        coh_ok = deco.transverse_coherence < 0.05
        band_ok = (abs(deco.band_weights[0] / 0.36 - 1.0) < 0.02
                   and abs(deco.band_weights[1] / 0.64 - 1.0) < 0.02)
        # decohered, yet tunneling at the pure beam's rate: one z run
        same_ok = all(getattr(deco, k) == getattr(pure, k)
                      for k in ("transmitted_fraction", "reflected_fraction",
                                "flux_sum", "measure_time"))
    ok = all([wkb_ok, exact_ok, frac_ok, vis_ok, flux_ok, fact_ok, coh_ok,
              band_ok, same_ok]) and budget.elapsed < 300.0
    report(6, ok, f"wkb={wkb_ok} exact={exact_ok} frac={frac_ok} vis={vis_ok} "
                  f"flux={flux_ok} fact={fact_ok} coh={coh_ok} bands={band_ok} "
                  f"same_rate={same_ok}, {budget.elapsed:.1f}s")


def test_criterion_7_talbot():
    with Budget(120.0) as budget:
        d, lam = 100e-9, 1e-9
        lt = talbot_length(d, lam)
        carpet = propagate_carpet(GratingSpec(d, 0.3, 64), lam, 2.2 * lt, 100)
        fidelity = revival_fidelity(carpet, lt)
        shift_corr = correlation_at_shift(carpet, lt, d / 2)
        base = carpet.intensity[0].sum()
        energy_ok = all(abs(row.sum() - base) < 1e-6 * base
                        for row in carpet.intensity)
        cfg = LauConfig(GratingSpec(d, 0.3, 16), GratingSpec(d, 0.3, 64),
                        GratingSpec(d, 0.3, 64), lt, lt, lam)
        offs = np.linspace(-d, d, 81)
        scan = lau_scan(cfg, offs)
        periodic_ok = bool(np.max(np.abs(scan.flux[:40] - scan.flux[40:80])) < 0.02)
        cfg_off = LauConfig(GratingSpec(d, 0.3, 16), GratingSpec(d, 0.3, 64),
                            GratingSpec(d, 0.3, 64), lt, lt / 3, lam)
        vis_res = scan.visibility()
        vis_off = lau_scan(cfg_off, offs).visibility()
    ok = (fidelity >= 0.9 and shift_corr > 0.9 and energy_ok and periodic_ok
          and vis_res > vis_off and budget.elapsed < 120.0)
    report(7, ok, f"fidelity={fidelity:.3f} shift_corr={shift_corr:.3f} "
                  f"energy={energy_ok} periodic={periodic_ok} "
                  f"vis={vis_res:.3f}>{vis_off:.3f}, {budget.elapsed:.1f}s")


def test_criterion_8_decoherence_engine(criterion_8_free_run):
    run8 = criterion_8_free_run
    with Budget(120.0) as budget:
        env, sep, rho, dt = run8.env, run8.sep, run8.rho, run8.dt

        # 10^3 Trotter steps with the free Hamiltonian (run once by the
        # session fixture, which test_margins.py shares, as it does the
        # band run below): trace must hold
        trace_ok = abs(run8.state.trace() - 1.0) < 1e-9

        # purity never increases without a Hamiltonian
        purities, damped = [rho.purity()], rho
        for _ in range(100):
            damped = apply_damping(damped, env, dt)
            purities.append(damped.purity())
        purity_ok = all(b <= a + 1e-12 for a, b in zip(purities, purities[1:]))

        # scalar exponential at separations far beyond lambda
        wide = EnvironmentSpec(2e-8, 2e13)   # sep / lambda = 12.5
        n_steps = 200
        dec = apply_damping(rho, wide, n_steps * dt)
        expected = math.exp(-wide.rate_Lambda * n_steps * dt)
        decay_ok = abs(coherence(dec, -sep / 2, sep / 2) / expected - 1.0) < 1e-3

        # band intensities stay at the pure-state ratio while coherence dies
        rep = run8.bands
        bands_ok = (abs(rep.intensities[0] - rep.pure_intensities[0]) < 1e-3
                    and abs(rep.intensities[1] - rep.pure_intensities[1]) < 1e-3
                    and rep.coherence < 0.05)
    # the fixture's runs count against the budget too
    elapsed = run8.elapsed + budget.elapsed
    ok = (trace_ok and purity_ok and decay_ok and bands_ok
          and elapsed < 120.0)
    report(8, ok, f"trace={trace_ok} purity={purity_ok} decay={decay_ok} "
                  f"bands={bands_ok}, {elapsed:.1f}s")


def test_criterion_9_determinism(tmp_path, preset_runs):
    diffs = []
    for preset in preset_names():
        cfg = parse_config(_preset_text(preset))
        out_a = preset_runs[preset][0]
        out_b = tmp_path / preset
        run_config(cfg, str(out_b))
        names_a = sorted(p.name for p in out_a.iterdir())
        names_b = sorted(p.name for p in out_b.iterdir())
        assert names_a == names_b
        for name in names_a:
            if name == "manifest.json":   # wall time is volatile by design
                continue
            if (out_a / name).read_bytes() != (out_b / name).read_bytes():
                diffs.append(f"{preset}/{name}")
    ok = not diffs
    report(9, ok, "all preset outputs byte-identical" if ok
           else f"differing files: {diffs}")
