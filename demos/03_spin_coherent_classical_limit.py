"""How a large spin becomes classical.

A spin-j coherent state polarized along (theta, phi) has a binomial J_z
distribution.  For small j (here 13/2) the distribution is visibly spread
over all 2j+1 values: a Stern-Gerlach magnet fans the beam into 14 bands.
For j = 2*10^5 the same distribution is a needle at m = j cos(theta) of
relative width ~ 1/sqrt(2j): the beam follows a single classical
trajectory.  No environment is involved - the concentration is pure
combinatorics.
"""

import math

from qratio import SpinCoherentState, classical_limit_diagnostics, distribution
from qratio.spin import approximate_distribution, saddle_point_peak

print("spin 13/2, theta = pi/4:")
small = distribution(SpinCoherentState.from_j(6.5, math.pi / 4))
for k, (m, w) in enumerate(zip(small.m_values, small.weights)):
    bar = "#" * int(round(60 * w / small.weights.max()))
    print(f"  m = {m:+5.1f}  {w:8.5f} {bar}")

print("\nlarge spins, theta = pi/4:")
theta = math.pi / 4
for j in (50, 5000, 2 * 10 ** 5):
    rep = classical_limit_diagnostics(j, theta)
    x0, m_peak = saddle_point_peak(j, theta)
    print(f"  j = {j:>7}: argmax m = {rep.argmax_m:12.1f}  "
          f"(classical {m_peak:12.1f}, off by {rep.argmax_offset:.2f})  "
          f"relative width = {rep.relative_width:.2e}")

print("\nrelative width falls as 1/sqrt(2j): "
      "quadrupling j halves the width")
w50 = classical_limit_diagnostics(50, theta).relative_width
w200 = classical_limit_diagnostics(200, theta).relative_width
print(f"  width(200)/width(50) = {w200 / w50:.4f}")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, (ax1, ax2) = plt.subplots(1, 2, figsize=(10, 4))
    for theta_i, color in ((math.pi / 2, "tab:orange"), (math.pi / 4, "tab:blue")):
        d = distribution(SpinCoherentState.from_j(6.5, theta_i))
        ax1.plot(d.m_values, d.weights, "o", color=color,
                 label=f"theta = {theta_i:.2f}")
        big = approximate_distribution(2 * 10 ** 5, theta_i)
        sel = big.weights > 1e-8 * big.weights.max()
        ax2.plot(big.m_values[sel], big.weights[sel], color=color)
    ax1.set_title("j = 13/2")
    ax2.set_title("j = 200000 (closed-form asymptotics)")
    for ax in (ax1, ax2):
        ax.set_xlabel("m")
        ax.set_ylabel("weight")
    ax1.legend()
    fig.tight_layout()
    fig.savefig("demo03_spin_distributions.png", dpi=120)
    print("wrote demo03_spin_distributions.png")
except ImportError:
    pass
