"""The tracer records nested spans from outside the library and puts back
everything it replaced."""

import math

import pytest

import tracer
import qratio.grid
import qratio.runner
import qratio.stern_gerlach
from qratio.config import parse_config
from qratio.core import GaussianPacket
from qratio.grid import FreePotential, Grid

SPIN_PRESET = "[scenario]\nkind = spin-dist\n[spin]\nj = 13/2\ntheta = pi/2\n"


@pytest.fixture
def tracing():
    t = tracer.Tracer().install()
    yield t
    t.uninstall()


def test_uninstall_restores_every_namespace():
    before = (qratio.grid.propagate, qratio.stern_gerlach.propagate,
              qratio.grid._fft, qratio.runner.hashlib, qratio.runner.run)
    t = tracer.Tracer().install()
    assert qratio.stern_gerlach.propagate is qratio.grid.propagate
    assert qratio.grid.propagate is not before[0]
    t.uninstall()
    assert (qratio.grid.propagate, qratio.stern_gerlach.propagate,
            qratio.grid._fft, qratio.runner.hashlib,
            qratio.runner.run) == before


def test_propagate_counts_steps_and_transforms(tracing):
    grid = Grid.make((64, 64), (1e-6, 1e-6))
    pkt = GaussianPacket(0.0, 1e-7, 0.0, 9.1093837015e-31)
    field = qratio.grid.initialize_gaussian(grid, (pkt, pkt))
    dt = 1e-17
    qratio.stern_gerlach.propagate(field, FreePotential(), dt, 5)
    m = tracer.layer_metrics(tracing)
    assert m["grid.propagate_calls"] == 1 and m["grid.steps"] == 5
    assert m["grid.fft_calls"] == 10                 # one pair per step
    assert m["grid.fft_points"] == 10 * 64 * 64
    assert m["grid.initialize_gaussian_calls"] == 1


def test_self_times_sum_to_root(tracing, tmp_path):
    cfg = parse_config(SPIN_PRESET)
    tracing.wrap(lambda: qratio.runner.run(cfg, str(tmp_path)), "root")()
    names = {span[0] for span in tracing.spans}
    assert {"runner.run", "runner.encode", "runner.hash",
            "spin.distribution"} <= names
    own = tracing.self_times()
    root = tracing.spans[0]
    assert root[0] == "root" and root[3] == -1
    assert all(s >= 0.0 for s in own)
    assert math.isclose(sum(own), root[2] - root[1], rel_tol=1e-9)
    for _, start, end, parent in tracing.spans[1:]:
        assert tracing.spans[parent][1] <= start <= end <= tracing.spans[parent][2]
