import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from qratio.cli import _preset_text, preset_names
from qratio.config import parse_config
from qratio.constants import ELECTRON_MASS, HBAR
from qratio.core import GaussianPacket
from qratio.decoherence import (EnvironmentSpec, decohered_sg_scenario,
                                propagate_density, pure_to_density)
from qratio.grid import Grid, WaveField, initialize_gaussian, kinetic_ceiling
from qratio.runner import run
from qratio.stern_gerlach import SGFieldConfig, SpinorField, propagate_decoupled


@pytest.fixture(scope="session")
def preset_runs(tmp_path_factory):
    """Every bundled preset run once: ``{preset: (outdir, manifest)}``."""
    root = tmp_path_factory.mktemp("presets")
    return {name: (root / name, run(parse_config(_preset_text(name)),
                                    str(root / name)))
            for name in preset_names()}


@pytest.fixture(scope="session")
def criterion_8_free_run():
    """Criterion 8's engine set-up and its two long runs, made once: two
    25 nm packets 250 nm apart on 512 points over 1 um as the density
    matrix ``rho``, the 60 nm, 2e13 /s environment ``env``, the step ``dt``
    and ``state``, rho after 1,000 damped free steps of dt; ``bands``, the
    200-step decohered Stern-Gerlach report of amplitudes 0.6 and 0.8 over
    5 / Lambda; and the wall time it took, ``elapsed``."""
    began = time.monotonic()
    grid = Grid.make(512, 1e-6)
    env = EnvironmentSpec(60e-9, 2e13)
    width, sep = 25e-9, 250e-9
    f1 = initialize_gaussian(grid, GaussianPacket(-sep / 2, width, 0.0,
                                                  ELECTRON_MASS))
    f2 = initialize_gaussian(grid, GaussianPacket(+sep / 2, width, 0.0,
                                                  ELECTRON_MASS))
    psi = (f1.psi + f2.psi) / math.sqrt(2.0)
    psi /= math.sqrt(float(np.sum(np.abs(psi) ** 2)) * grid.cell_volume)
    rho = pure_to_density(WaveField(grid, psi, ELECTRON_MASS))
    dt = (5.0 / env.rate_Lambda) / 1000
    state = propagate_density(rho, env, dt, 1000)
    bands = decohered_sg_scenario(0.6, 0.8, env, grid, width, sep,
                                  ELECTRON_MASS, 0.0, 5.0 / env.rate_Lambda, 200)
    return SimpleNamespace(grid=grid, env=env, width=width, sep=sep, rho=rho,
                           dt=dt, state=state, bands=bands,
                           elapsed=time.monotonic() - began)


@pytest.fixture(scope="session")
def criterion_4_decoupled_run():
    """Criterion 4's decoupled run on 1024 x 1024 points, made once: the
    spinor ``start`` of two 100 nm packets over 1 um, the gradient ``b0``
    = 5e8 T/m, ``steps`` = 40 steps at 0.9 of the step ceiling recorded
    every 8 (``out``), the same steps back again (``back``), and the wall
    time it took, ``elapsed``."""
    began = time.monotonic()
    grid = Grid.make((1024, 1024), (1e-6, 1e-6))
    pk = GaussianPacket(0.0, 1e-7, 0.0, ELECTRON_MASS)
    c = 1 / math.sqrt(2)
    start = SpinorField(initialize_gaussian(grid, (pk, pk)),
                        initialize_gaussian(grid, (pk, pk)), c, c)
    b0 = 5e8
    config = SGFieldConfig(1.0, b0)
    dt = 0.9 * (math.pi / 4) * HBAR / kinetic_ceiling(grid, ELECTRON_MASS)
    steps = 40
    out = propagate_decoupled(start, config, dt, steps, record_every=8)
    back = propagate_decoupled(out, config, -dt, steps)
    return SimpleNamespace(grid=grid, start=start, b0=b0, steps=steps,
                           out=out, back=back,
                           elapsed=time.monotonic() - began)
