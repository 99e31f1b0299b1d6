"""Stern-Gerlach three ways.

1. Decoupled spinor dynamics: the two spin components ride linear
   potentials -/+ mu_B b0 z and deflect symmetrically; their momentum gain
   is exactly mu_B b0 t (Ehrenfest is exact for linear potentials).
2. Full two-component dynamics with the transverse field B_y = -b0 y that
   mixes the components: at bias |B0| = 200 |b0 y|, fast precession averages
   the mixing away and the densities match the decoupled run to < 1%.
3. Historical silver-beam kinematics: 10 T/cm over 3.5 cm at 600 m/s
   splits the beam by ~0.2 mm, a million times the atom's size.
"""

import math

import numpy as np

from qratio import GaussianPacket, catalog_lookup, quantum_ratio
from qratio.constants import BOHR_MAGNETON as MUB, ELECTRON_MASS as ME, HBAR
from qratio.grid import (FreePotential, Grid, ceiling_dt, initialize_gaussian,
                         observables)
from qratio.stern_gerlach import (SGFieldConfig, SpinorField, band_separation,
                                  large_spin_bands, propagate_coupled,
                                  propagate_decoupled)

# --- 1. decoupled run on a (y, z) grid --------------------------------------
grid = Grid.make((256, 256), (1e-6, 1e-6))
pk = GaussianPacket(0.0, 1e-7, 0.0, ME)
c = 1 / math.sqrt(2)
spinor = SpinorField(initialize_gaussian(grid, (pk, pk)),
                     initialize_gaussian(grid, (pk, pk)), c, c)
config = SGFieldConfig(field_B0=1.0, gradient_b0=5e8)
steps = 256
out = propagate_decoupled(spinor, config, 2e-12 / steps, steps)
pz_up = observables(out.up, FreePotential()).mean_momentum[1]
print(f"decoupled: <p_z>_up = {pz_up:.4e}, "
      f"mu_B b0 t = {MUB * 5e8 * out.up.time:.4e}")
print(f"  band separation (closed form): "
      f"{band_separation(config, ME, 2e-12) * 1e9:.2f} nm")

# --- 2. coupled validation ---------------------------------------------------
small = Grid.make((64, 64), (1e-6, 1e-6))
w = 8 * small.spacings[0]
pk2 = GaussianPacket(0.0, w, 0.0, ME)
sp2 = SpinorField(initialize_gaussian(small, (pk2, pk2)),
                  initialize_gaussian(small, (pk2, pk2)), c, c)
duration = 0.4 * ME * w * w / HBAR
b0 = 2 * ME * (w / 8) / (MUB * duration ** 2)
cfg = SGFieldConfig(200 * b0 * small.extents[0] / 2, b0)
# the coupled run picks its own Chebyshev chunks of alpha <= 100; the
# decoupled one is exact up to a phase at the spectral ceiling step
coupled, applications = propagate_coupled(sp2, cfg, duration, 1)
n = math.ceil(duration / ceiling_dt(small, ME))
decoupled = propagate_decoupled(sp2, cfg, duration / n, n)
nu_c, nd_c = coupled.densities()
nu_d, nd_d = decoupled.densities()
l1 = float((np.abs(nu_c - nu_d).sum() + np.abs(nd_c - nd_d).sum())
           * small.cell_volume)
print(f"coupled vs decoupled at 200x bias: L1 density deviation = {l1:.2e} "
      f"({applications} H-applications, {n} decoupled steps)")
# Larmor angular frequency 2 mu_B B0 / hbar of one Bohr magneton (g ~ 2)
print(f"  precession at 0.1 T: {2 * MUB * 0.1 / HBAR:.3e} rad/s")

# --- 3. silver-beam kinematics and a large-spin histogram -------------------
ag = catalog_lookup("Ag")
sg1922 = SGFieldConfig(0.1, 1000.0)
transit = 0.035 / 600.0       # 3.5 cm at 600 m/s
split = band_separation(sg1922, ag.mass, transit)
res = quantum_ratio(split, ag.size_L0)
print(f"silver beam: split = {split * 1e3:.3f} mm, Q = {res.ratio:.2e} "
      f"({res.classification.value})")

hist = large_spin_bands(2 * 10 ** 5, math.pi / 4, sg1922, transit, 0.0, ag.mass)
k = np.argmax(hist.weights)
print(f"spin 2e5 beam: brightest band at m = {hist.m_values[k]:.0f} "
      f"(j cos theta = {2e5 * math.cos(math.pi / 4):.0f}), "
      f"mean deflection {hist.mean_deflection() * 1e3:.3f} mm")
