"""Margin pins for the density-matrix engine, the Stern-Gerlach split and
run, and the tunnel.

Criterion 8 and the bench checks bound rounding-level quantities 10^4 to
10^11 times above what the engine measures, so a regression that made one
of them a thousand times worse would still pass.  Each pin here holds the
value measured at this tree (in the comment) with about 4-5x headroom:
room for a different rounding order, while a tenfold regression fails.
The criteria keep their own bounds.
"""

import json
import math

import numpy as np

from qratio.constants import BOHR_MAGNETON as MUB, ELECTRON_MASS as ME, EV
from qratio.tunneling import RectangularBarrier, exact_transmission


def test_criterion_8_trace_defect(criterion_8_free_run):
    # measured 6.7e-14 after 1000 damped free steps; criterion 8 allows 1e-9
    state = criterion_8_free_run.state
    assert abs(state.trace() - 1.0) < 3e-13


def test_criterion_8_band_gap(criterion_8_free_run):
    # measured 1.4e-14 between the damped and the pure band intensities;
    # criterion 8 allows 1e-3
    rep = criterion_8_free_run.bands
    gap = max(abs(a - b) for a, b in zip(rep.intensities, rep.pure_intensities))
    assert gap < 7e-14


def test_criterion_4_momentum_error(criterion_4_decoupled_run):
    # measured 3.95e-14 of mu_B b0 t over the recorded steps; criterion 4
    # allows 1e-6
    run4 = criterion_4_decoupled_run
    slope = MUB * run4.b0
    up, down = run4.out.up.trace, run4.out.down.trace
    gap = max(max(abs(pu[1] - slope * t), abs(pd[1] + slope * t))
              for t, pu, pd in zip(up.times, up.mean_momentum,
                                   down.mean_momentum))
    assert gap / (slope * run4.out.up.time) < 2e-13


def test_criterion_4_reversal(criterion_4_decoupled_run):
    # measured 1.16e-14, the L2 gap after 40 steps out and 40 back on
    # 1024 x 1024 points; criterion 4 allows 1e-8
    run4 = criterion_4_decoupled_run
    for back, start in ((run4.back.up, run4.start.up),
                        (run4.back.down, run4.start.down)):
        gap = math.sqrt(float(np.sum(np.abs(back.psi - start.psi) ** 2))
                        * run4.grid.cell_volume)
        assert gap < 6e-14


def test_criterion_4_drift_per_step(criterion_4_decoupled_run):
    # measured 3.9e-17 per step; criterion 4 allows 1e-10
    run4 = criterion_4_decoupled_run
    for field in (run4.out.up, run4.out.down):
        assert field.norm_drift / run4.steps < 2e-16


def test_criterion_6_exact_transmission():
    # measured 1.99e-12 between the transfer matrix and the closed form
    # through criterion 6's 2 eV, 0.5 nm barrier at 1 eV; criterion 6
    # allows 1e-6
    t = exact_transmission(RectangularBarrier(2.0 * EV, 0.25e-9), 1.0 * EV, ME)
    assert abs(t / 0.0235471199188269 - 1.0) < 1e-11


def preset_file(preset_runs, preset, name):
    """A JSON output of the session's run of ``preset``."""
    return json.loads((preset_runs[preset][0] / name).read_text())


def test_decohere_split_trace_drift(preset_runs):
    # measured 1.0e-14 in the preset's manifest; the bench checks trace(rho)
    # of rho.bin to 1e-9
    manifest = preset_file(preset_runs, "decohere-split", "manifest.json")
    assert manifest["drift"]["trace_drift"] < 5e-14


def test_sg_split_momentum_error(preset_runs):
    # measured 2.3e-15 in the preset's summary; criterion 4 and the bench
    # checks allow 1e-6
    summary = preset_file(preset_runs, "sg-split", "summary.json")
    assert summary["pz_relative_error"] < 1e-14


def test_tunnel_pure_transmission_gap(preset_runs):
    # measured 2.09e-6 between transmitted_fraction and the energy-averaged
    # transfer-matrix oracle; criterion 6 allows 2e-5, the bench checks 0.2
    s = preset_file(preset_runs, "tunnel-pure", "summary.json")
    assert abs(s["transmitted_fraction"] / s["oracle_transmission"] - 1.0) < 1e-5


def test_tunnel_pure_flux_sum(preset_runs):
    # measured 2.5e-13 off 1; criterion 6 and the bench checks allow 1e-6
    s = preset_file(preset_runs, "tunnel-pure", "summary.json")
    assert abs(s["flux_sum"] - 1.0) < 1.3e-12


def test_tunnel_pure_factorization_error(preset_runs):
    # measured 8.26e-16 between the free density-matrix flight's and the
    # wave-function flight's transverse profiles; criterion 6 allows 1e-6
    s = preset_file(preset_runs, "tunnel-pure", "summary.json")
    assert s["factorization_error"] < 4e-15


def test_tunnel_decohered_band_weights(preset_runs):
    # measured 1.87e-5 and 1.05e-5 off |c1|^2 = 0.36 and |c2|^2 = 0.64;
    # criterion 6 allows 2e-2
    s = preset_file(preset_runs, "tunnel-decohered", "summary.json")
    for weight, share in zip(s["band_weights"], (0.36, 0.64)):
        assert abs(weight / share - 1.0) < 1e-4
