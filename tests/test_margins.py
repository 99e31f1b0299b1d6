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
import pytest

from qratio.cli import _preset_text
from qratio.config import parse_config
from qratio.constants import (BOHR_MAGNETON as MUB, ELECTRON_MASS as ME, EV,
                              HBAR)
from qratio.core import GaussianPacket, packet_width_at
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


def closed_form_trace_gaps(traces, slope, width, mass):
    """The largest gap of each quantity of a decoupled Stern-Gerlach run's
    two traces from its closed form, which uses nothing of the engine.  A
    Gaussian in a linear potential stays Gaussian, and Strang splitting is
    exact there up to a global phase, so each band (sign +1 up, -1 down),
    started at rest at the origin with ``width`` on both axes, has <z> =
    +/- slope t^2 / 2m and <p_z> = +/- slope t, for slope = mu_B b0, both
    widths core.packet_width_at / sqrt(2) (the convention of the trace's
    width columns), <y> = <p_y> = 0 and norm 1.  ``traces`` holds (sign,
    columns) per band, the columns t, y, z, p_y, p_z, w_y, w_z and norm of
    the trace CSVs."""
    packet = GaussianPacket(0.0, width, 0.0, mass)
    gaps = {}
    for sign, (t, y, z, py, pz, wy, wz, norm) in traces:
        assert t[0] == 0.0
        w = np.array([packet_width_at(packet, ti) for ti in t]) / math.sqrt(2.0)
        found = {
            "z_in_widths": np.abs(z - sign * slope * t ** 2 / (2.0 * mass)) / width,
            "pz_relative": np.abs(pz[1:] / (sign * slope * t[1:]) - 1.0),
            "widths_relative": np.abs(np.r_[wy, wz] / np.r_[w, w] - 1.0),
            "y_in_widths": np.abs(y) / width,
            # <p_y>, and <p_z> of the initial state
            "p_at_rest_in_hbar_per_width":
                np.abs(np.r_[py, pz[0]]) * width / HBAR,
            "norm_defect": np.abs(norm - 1.0),
        }
        for key, gap in found.items():
            gaps[key] = max(gaps.get(key, 0.0), float(np.max(gap)))
    return gaps


def sg_split_trace_gaps(preset_runs):
    """:func:`closed_form_trace_gaps` of sg-split's two trace CSVs."""
    p = parse_config(_preset_text("sg-split")).section("sg")
    traces = []
    for name, sign in (("trace_up.csv", 1.0), ("trace_down.csv", -1.0)):
        columns = np.loadtxt(preset_runs["sg-split"][0] / name, delimiter=",",
                             skiprows=1).T
        assert len(columns[0]) == 33
        traces.append((sign, columns))
    return closed_form_trace_gaps(traces, MUB * p["b0"], p["width"], p["mass"])


# the largest gap of each measured at this tree, in the comment
SG_SPLIT_TRACE_PINS = {
    "z_in_widths": 2.5e-14,                    # 5.2e-15
    "pz_relative": 2.5e-14,                    # 4.8e-15
    "widths_relative": 2.5e-14,                # 5.4e-15
    "y_in_widths": 1.6e-16,                    # 3.3e-17
    "p_at_rest_in_hbar_per_width": 5e-16,      # 1.0e-16
    "norm_defect": 3.3e-14,                    # 6.7e-15
}


@pytest.mark.parametrize("key", list(SG_SPLIT_TRACE_PINS))
def test_sg_split_trace_matches_the_closed_form(preset_runs, key):
    assert sg_split_trace_gaps(preset_runs)[key] < SG_SPLIT_TRACE_PINS[key]


def criterion_4_trace_gaps(run4):
    """:func:`closed_form_trace_gaps` of criterion 4's two traces, their
    columns laid out as the trace CSVs lay them out."""
    traces = []
    for field, sign in ((run4.out.up, 1.0), (run4.out.down, -1.0)):
        trace = field.trace
        columns = np.c_[trace.times, trace.mean_position, trace.mean_momentum,
                        trace.widths, trace.norms].T
        assert len(columns[0]) == 6
        traces.append((sign, columns))
    return closed_form_trace_gaps(traces, MUB * run4.b0, run4.packet.width,
                                  run4.packet.mass)


# the largest gap of each measured at this tree, in the comment
CRITERION_4_TRACE_PINS = {
    "z_in_widths": 5e-15,                      # 9.8e-16
    "pz_relative": 2.2e-13,                    # 4.4e-14
    "widths_relative": 1.6e-15,                # 3.3e-16
    "y_in_widths": 3.3e-16,                    # 6.6e-17
    "p_at_rest_in_hbar_per_width": 7e-16,      # 1.4e-16
    "norm_defect": 6.5e-15,                    # 1.3e-15
}


@pytest.mark.parametrize("key", list(CRITERION_4_TRACE_PINS))
def test_criterion_4_trace_matches_the_closed_form(criterion_4_decoupled_run,
                                                   key):
    gaps = criterion_4_trace_gaps(criterion_4_decoupled_run)
    assert gaps[key] < CRITERION_4_TRACE_PINS[key]


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
