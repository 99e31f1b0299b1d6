"""Margin pins for the density-matrix engine and the Stern-Gerlach split.

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

from qratio.cli import _preset_text
from qratio.config import parse_config
from qratio.constants import ELECTRON_MASS as ME
from qratio.core import GaussianPacket
from qratio.decoherence import (EnvironmentSpec, decohered_sg_scenario,
                                propagate_density, pure_to_density)
from qratio.grid import FreePotential, Grid, WaveField, initialize_gaussian
from qratio.runner import run

# criterion 8's grid, environment and split packet
GRID = Grid.make(512, 1e-6)
ENV = EnvironmentSpec(60e-9, 2e13)
WIDTH, SEP = 25e-9, 250e-9


def test_criterion_8_trace_defect():
    # measured 6.7e-14 after 1000 damped free steps; criterion 8 allows 1e-9
    f1 = initialize_gaussian(GRID, GaussianPacket(-SEP / 2, WIDTH, 0.0, ME))
    f2 = initialize_gaussian(GRID, GaussianPacket(+SEP / 2, WIDTH, 0.0, ME))
    psi = (f1.psi + f2.psi) / math.sqrt(2.0)
    psi /= math.sqrt(float(np.sum(np.abs(psi) ** 2)) * GRID.cell_volume)
    rho = pure_to_density(WaveField(GRID, psi, ME))
    dt = (5.0 / ENV.rate_Lambda) / 1000
    state = propagate_density(rho, ENV, FreePotential(), dt, 1000)
    assert abs(state.trace() - 1.0) < 3e-13


def test_criterion_8_band_gap():
    # measured 1.4e-14 between the damped and the pure band intensities;
    # criterion 8 allows 1e-3
    rep = decohered_sg_scenario(0.6, 0.8, ENV, GRID, WIDTH, SEP, ME, steps=200)
    gap = max(abs(a - b) for a, b in zip(rep.intensities, rep.pure_intensities))
    assert gap < 7e-14


def test_decohere_split_trace_drift(tmp_path):
    # measured 1.0e-14 in the preset's manifest; the bench checks trace(rho)
    # of rho.bin to 1e-9
    run(parse_config(_preset_text("decohere-split")), str(tmp_path / "out"))
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["drift"]["trace_drift"] < 5e-14


def test_sg_split_momentum_error(tmp_path):
    # measured 2.3e-15 in the preset's summary; criterion 4 and the bench
    # checks allow 1e-6
    run(parse_config(_preset_text("sg-split")), str(tmp_path / "out"))
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["pz_relative_error"] < 1e-14
