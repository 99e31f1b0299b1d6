"""Spectral solver sanity: a free electron packet against closed forms.

Evolves a Gaussian packet with the split-operator solver and compares the
mean position, momentum and width with the analytic free-packet formulas:
a free Gaussian stays Gaussian and Strang splitting is exact for it, so
each gap sits at rounding level.  The norm drift and a forward/backward
round trip probe unitarity.
"""

import math

import numpy as np

from qratio import GaussianPacket, packet_width_at
from qratio.constants import ELECTRON_MASS as ME
from qratio.grid import (FreePotential, Grid, ceiling_dt, initialize_gaussian,
                         observables, propagate)

grid = Grid.make(1024, 4e-6)
packet = GaussianPacket(center=-5e-7, width=2e-7, momentum=5e-26, mass=ME)
field = initialize_gaussian(grid, packet)
dt = ceiling_dt(grid, ME)
steps = 600

evolved = propagate(field, FreePotential(), dt, steps)
snap = observables(evolved)
t = evolved.time

x_exact = packet.center + packet.momentum * t / ME
w_exact = packet_width_at(packet, t) / math.sqrt(2)
print(f"after {steps} steps (t = {t:.3e} s):")
print(f"  <x>    grid {snap.mean_position[0]:+.6e}   exact {x_exact:+.6e}")
print(f"  <p>    grid {snap.mean_momentum[0]:+.6e}   exact {packet.momentum:+.6e}")
print(f"  width  grid {snap.widths[0]:.6e}   exact {w_exact:.6e}")
print(f"  <p> gap from the closed form: "
      f"{abs(snap.mean_momentum[0] / packet.momentum - 1.0):.2e} relative")
print(f"  norm drift: {evolved.norm_drift:.2e}")

back = propagate(evolved, FreePotential(), -dt, steps)
err = math.sqrt(float(np.sum(np.abs(back.psi - field.psi) ** 2))
                * grid.cell_volume)
print(f"  forward/backward L2 error: {err:.2e}")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    x = grid.axis(0)
    fig, ax = plt.subplots(figsize=(7, 4))
    ax.plot(x * 1e6, field.density() * 1e-6, label="t = 0")
    ax.plot(x * 1e6, evolved.density() * 1e-6, label=f"t = {t:.1e} s")
    ax.set_xlabel("x (um)")
    ax.set_ylabel("|psi|^2 (1/um)")
    ax.legend()
    fig.tight_layout()
    fig.savefig("demo02_wavepacket.png", dpi=120)
    print("wrote demo02_wavepacket.png")
except ImportError:
    pass
