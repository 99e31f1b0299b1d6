"""Margin pins for the density-matrix engine, the Stern-Gerlach split and
the tunnel.

Criterion 8 and the bench checks bound rounding-level quantities 10^4 to
10^11 times above what the engine measures, so a regression that made one
of them a thousand times worse would still pass.  Each pin here holds the
value measured at this tree (in the comment) with about 4-5x headroom:
room for a different rounding order, while a tenfold regression fails.
The criteria keep their own bounds.
"""

import json

from qratio.constants import ELECTRON_MASS as ME
from qratio.decoherence import decohered_sg_scenario


def test_criterion_8_trace_defect(criterion_8_free_run):
    # measured 6.7e-14 after 1000 damped free steps; criterion 8 allows 1e-9
    state = criterion_8_free_run.state
    assert abs(state.trace() - 1.0) < 3e-13


def test_criterion_8_band_gap(criterion_8_free_run):
    # measured 1.4e-14 between the damped and the pure band intensities;
    # criterion 8 allows 1e-3
    c8 = criterion_8_free_run
    rep = decohered_sg_scenario(0.6, 0.8, c8.env, c8.grid, c8.width, c8.sep,
                                ME, steps=200)
    gap = max(abs(a - b) for a, b in zip(rep.intensities, rep.pure_intensities))
    assert gap < 7e-14


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

