"""Environment-induced localization of a split packet.

A packet split across 250 nm sits in an environment whose particles have a
60 nm de Broglie wavelength: they resolve which side the packet is on but
not its interior.  The off-diagonal block of rho(x, x') dies as exp(-At)
while the diagonal - the band intensities - never moves.  The result is a
mixture ("either here or there"), not a classical state: each component
remains a fully quantum wave packet.
"""

import math

import numpy as np

from qratio.constants import ELECTRON_MASS as ME
from qratio.decoherence import (EnvironmentSpec, decohered_sg_scenario,
                                timescale_report)
from qratio.grid import Grid

grid = Grid.make(512, 1e-6)
env = EnvironmentSpec(lambda_env=60e-9, rate_Lambda=2e13)
rep = decohered_sg_scenario(c1=0.6, c2=0.8, env=env, grid=grid,
                            packet_width=25e-9, separation=250e-9, mass=ME,
                            momentum=0.0, duration=5.0 / env.rate_Lambda,
                            steps=200)

print(f"bands after t = 5/Lambda: {rep.intensities[0]:.6f} : "
      f"{rep.intensities[1]:.6f}  (pure run {rep.pure_intensities[0]:.6f} : "
      f"{rep.pure_intensities[1]:.6f})")
print(f"inter-band coherence: {rep.initial_coherence:.3f} -> {rep.coherence:.5f}")
print(f"purity: 1 -> {rep.purity:.4f}   trace drift {rep.trace_drift:.2e}")

print("\ncoherence history vs exp(-Lambda t):")
for i in range(0, len(rep.times), 40):
    t = rep.times[i]
    print(f"  t = {t:9.2e} s   coherence {rep.coherence_history[i]:.5f}   "
          f"exp(-At) {math.exp(-env.rate_Lambda * t):.5f}")

beam_env = EnvironmentSpec(lambda_env=1e-7, rate_Lambda=2e13)
ts = timescale_report(packet_width=1e-8, separation=1e-5, env=beam_env,
                      transit_length=1e-4, transit_speed=1e3, mass=1e-22,
                      tau_diss=1.0)
print(f"\ntimescale hierarchy for a slow heavy beam:")
print(f"  tau_dec   = {ts.tau_dec:.2e} s")
print(f"  tau_trans = {ts.tau_trans:.2e} s")
print(f"  tau_diff  = {ts.tau_diff:.2e} s")
print(f"  verdict: {ts.verdict}")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, (ax1, ax2) = plt.subplots(1, 2, figsize=(10, 4))
    ax1.semilogy(rep.times * 1e15, rep.coherence_history, label="coherence")
    ax1.semilogy(rep.times * 1e15, np.exp(-env.rate_Lambda * rep.times),
                 "--", label="exp(-At)")
    ax1.set_xlabel("t (fs)")
    ax1.legend()
    ax2.imshow(np.abs(rep.final_rho.rho), origin="lower", cmap="magma",
               extent=[-0.5, 0.5, -0.5, 0.5])
    ax2.set_xlabel("x (um)")
    ax2.set_ylabel("x' (um)")
    ax2.set_title("|rho(x, x')| after damping")
    fig.tight_layout()
    fig.savefig("demo07_decoherence.png", dpi=120)
    print("wrote demo07_decoherence.png")
except ImportError:
    pass
