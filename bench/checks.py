"""Output checks for the benchmark's presets.

Every check compares a run's written outputs against a computation made
here, apart from qratio, or against a property the method must have.  None
compares against a stored copy of earlier output.  Physical constants and
preset parameters are restated below so that no check leans on the code it
checks.

A check takes the outputs of one ``runner.run`` call as an :class:`Outputs`
and returns a list of failure messages; an empty list means it passed.
"""

import hashlib
import json
import math
import struct
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

# CODATA 2018 (h and e exact)
PLANCK_H = 6.62607015e-34
HBAR = PLANCK_H / (2.0 * math.pi)
EV = 1.602176634e-19
ELECTRON_MASS = 9.1093837015e-31


@dataclass
class Outputs:
    """What one run wrote: parsed summary and manifest, raw data files."""

    summary: dict
    manifest: dict
    files: dict          # name -> bytes, every file but manifest.json

    @classmethod
    def read(cls, outdir):
        files = {p.name: p.read_bytes() for p in sorted(Path(outdir).iterdir())
                 if p.is_file()}
        manifest = json.loads(files.pop("manifest.json"))
        return cls(json.loads(files["summary.json"]), manifest, files)

    def digests(self):
        """SHA-256 of every data file, computed here from the bytes on disk."""
        return {name: hashlib.sha256(data).hexdigest()
                for name, data in self.files.items()}


def _rows(data):
    """The cells of a CSV file's rows, header left out."""
    return [line.split(",") for line in data.decode().splitlines()[1:]]


def read_array(data):
    """Decode a QRARRAY1 binary file (FORMATS.md) into (array, spacings, origins)."""
    if data[:8] != b"QRARRAY1":
        raise ValueError("not a QRARRAY1 file")
    (ndim,) = struct.unpack_from("<I", data, 8)
    off = 12
    shape = struct.unpack_from(f"<{ndim}I", data, off)
    off += 4 * ndim
    spacings = struct.unpack_from(f"<{ndim}d", data, off)
    off += 8 * ndim
    origins = struct.unpack_from(f"<{ndim}d", data, off)
    off += 8 * ndim
    n = math.prod(shape)
    if len(data) != off + 16 * n:
        raise ValueError(f"array body holds {len(data) - off} bytes, "
                         f"expected {16 * n}")
    inter = np.frombuffer(data, dtype="<f8", offset=off)
    return (inter[0::2] + 1j * inter[1::2]).reshape(shape), spacings, origins


def _near(name, got, want, tol, fails, relative=False):
    err = abs(got / want - 1.0) if relative else abs(got - want)
    if not err <= tol:        # also rejects NaN
        kind = "relative " if relative else ""
        fails.append(f"{name} = {got!r}, expected {want!r} "
                     f"({kind}error {err:.3e} > {tol:g})")


# ---------------------------------------------------------------------------
# independent oracle for the split-beam tunnel presets


# gaussian barrier and longitudinal packet of the tunnel-pure and
# tunnel-decohered presets
TUNNEL_BARRIER_EV = 1.2
TUNNEL_SIGMA_NM = 1.2
TUNNEL_CUTOFF_SIGMAS = 6.0
TUNNEL_ENERGY_EV = 1.0
TUNNEL_WIDTH_NM = 36.0


def stationary_transmission(energies_ev, height_ev, sigma_nm, cutoff,
                            mass=ELECTRON_MASS, step_nm=0.005):
    """Transmission through a truncated gaussian barrier at each energy.

    Integrates psi'' = (2m/hbar^2)(V - E) psi with classical RK4 from a pure
    outgoing wave on the right edge of the barrier back to its left edge,
    then splits psi there into incident and reflected waves.  Lengths are
    in nm and energies in eV; all energies are integrated at once.
    """
    e = np.asarray(energies_ev, dtype=float)
    c = 2.0 * mass * EV * 1e-18 / HBAR ** 2          # 1/(nm^2 eV)
    k = np.sqrt(c * e)
    z_edge = cutoff * sigma_nm
    n = int(math.ceil(2.0 * z_edge / step_nm))
    h = -2.0 * z_edge / n

    def accel(z, psi):
        v = height_ev * math.exp(-0.5 * (z / sigma_nm) ** 2)
        return c * (v - e) * psi

    z = z_edge
    psi = np.exp(1j * k * z)
    dpsi = 1j * k * psi
    for _ in range(n):
        k1p, k1d = dpsi, accel(z, psi)
        k2p, k2d = dpsi + 0.5 * h * k1d, accel(z + 0.5 * h, psi + 0.5 * h * k1p)
        k3p, k3d = dpsi + 0.5 * h * k2d, accel(z + 0.5 * h, psi + 0.5 * h * k2p)
        k4p, k4d = dpsi + h * k3d, accel(z + h, psi + h * k3p)
        psi = psi + h / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        dpsi = dpsi + h / 6.0 * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
        z += h
    incident = 0.5 * (psi + dpsi / (1j * k)) * np.exp(-1j * k * z)
    return 1.0 / np.abs(incident) ** 2


@lru_cache(maxsize=None)
def tunnel_oracle():
    """Transmission averaged over the packet's momentum spectrum.

    A packet exp(-(z - z0)^2/a^2 + i p0 z/hbar) has the momentum density
    exp(-(p - p0)^2 / (2 s^2)) with s = hbar/a; it is sampled at 513 points
    over p0 +/- 6 s and weighs the stationary transmission at p^2/2m.
    """
    p0 = math.sqrt(2.0 * ELECTRON_MASS * TUNNEL_ENERGY_EV * EV)
    s = HBAR / (TUNNEL_WIDTH_NM * 1e-9)
    p = np.linspace(p0 - 6.0 * s, p0 + 6.0 * s, 513)
    w = np.exp(-0.5 * ((p - p0) / s) ** 2)
    t = stationary_transmission(p ** 2 / (2.0 * ELECTRON_MASS) / EV,
                                TUNNEL_BARRIER_EV, TUNNEL_SIGMA_NM,
                                TUNNEL_CUTOFF_SIGMAS)
    return float(np.sum(w * t) / np.sum(w))


# ---------------------------------------------------------------------------
# per-preset checks


def check_tunnel_pure(out):
    s, fails = out.summary, []
    # criterion 6: within 20% of the energy-averaged stationary transmission
    _near("transmitted_fraction", s["transmitted_fraction"], tunnel_oracle(),
          0.2, fails, relative=True)
    _near("flux_sum", s["flux_sum"], 1.0, 1e-6, fails)
    for i, w in enumerate(s["band_weights"]):
        _near(f"band_weights[{i}]", w, 0.5, 1e-3, fails)
    # a product state keeps its transverse superposition
    _near("transverse_coherence", s["transverse_coherence"], 1.0, 0.02, fails)
    return fails


# decohere-split preset
DECOHERE_RATE = 2e13            # 1/s
DECOHERE_WAVELENGTH = 60e-9     # m
DECOHERE_SEPARATION = 250e-9    # m
DECOHERE_DURATION_RATE = 5.0


def check_decohere_split(out):
    s, fails = out.summary, []
    t = DECOHERE_DURATION_RATE / DECOHERE_RATE
    _near("duration_s", s["duration_s"], t, 1e-12, fails, relative=True)
    # F(d) t with F(d) = Lambda (1 - exp(-d^2/lambda^2)); exact while
    # t << m a^2/hbar, so that the packets barely spread
    f = DECOHERE_RATE * -math.expm1(-(DECOHERE_SEPARATION
                                      / DECOHERE_WAVELENGTH) ** 2)
    _near("final_coherence", s["final_coherence"], math.exp(-f * t), 0.01,
          fails, relative=True)
    for i, (w, pure) in enumerate(zip(s["band_intensities"],
                                      s["pure_band_intensities"])):
        _near(f"band_intensities[{i}]", w, 0.5, 1e-3, fails)
        _near(f"band_intensities[{i}] - pure", w, pure, 1e-3, fails)
    rho, spacings, _ = read_array(out.files["rho.bin"])
    _near("trace(rho)", float(np.real(np.trace(rho))) * spacings[0], 1.0,
          1e-9, fails)
    return fails


def check_sg_coupled(out):
    fails = []
    (res,) = out.summary["results"]
    if not res["l1_density_deviation"] < 0.01:       # criterion 5
        fails.append(f"l1_density_deviation = {res['l1_density_deviation']!r} "
                     ">= 0.01")
    drift = out.manifest["drift"][f"norm_drift_ratio_{res['bias_ratio']:g}"]
    _near("norm drift per step", drift / res["steps"], 0.0, 1e-10, fails)
    return fails


# criterion 2 targets for the catalog presets
RATIO_TARGETS = {"Ag": 1e6, "Na": 1e6, "C70-cold": 1e7, "C70-hot": 1e3}


def check_ratio(out):
    s, fails = out.summary, []
    target = RATIO_TARGETS[s["name"]]
    if not target / 3.0 <= s["Q"] <= target * 3.0:
        fails.append(f"Q = {s['Q']!r} not within a factor 3 of {target:g}")
    if s["classification"] != "Quantum":
        fails.append(f"classification {s['classification']!r} != 'Quantum'")
    return fails


# table1 preset: name -> (mass kg, width m)
TABLE1 = {"electron": (9e-31, 1e-6), "hydrogen-atom": (1.6e-27, 1e-6),
          "C70": (8e-25, 1e-6), "stone-1g": (1e-3, 1e-6)}


def check_table1(out):
    fails = []
    rows = _rows(out.files["diffusion_times.csv"])
    got = {r[0]: float(r[3]) for r in rows}
    if set(got) != set(TABLE1):
        fails.append(f"cases {sorted(got)} != {sorted(TABLE1)}")
    for name, (m, a) in TABLE1.items():
        if name in got:
            _near(f"doubling time of {name}", got[name],
                  math.sqrt(3.0) * m * a * a / (2.0 * HBAR), 1e-12, fails,
                  relative=True)
    return fails


def _binomial(n, theta):
    p = math.cos(theta / 2.0) ** 2
    return [math.comb(n, k) * p ** k * (1.0 - p) ** (n - k)
            for k in range(n + 1)]


def _check_binomial(rows, weight_col, n, theta, fails):
    want = _binomial(n, theta)
    got = [float(r[weight_col]) for r in rows]
    if len(got) != len(want):
        fails.append(f"{len(got)} weights, expected {len(want)}")
        return
    err = max(abs(g - w) for g, w in zip(got, want))
    if not err < 1e-12:
        fails.append(f"weights differ from math.comb binomials by {err:.3e}")


def check_binomial(out, filename, theta):
    fails = []
    _check_binomial(_rows(out.files[filename]), 2, 13, theta, fails)
    return fails


def check_spin_large(out):
    s, fails = out.summary, []
    j, theta = 200_000, math.pi / 4.0
    _near("argmax_m", s["argmax_m"], j * math.cos(theta), 1.0, fails)
    x0 = math.cos(theta / 2.0) ** 2
    _near("relative_width", s["relative_width"],
          2.0 * math.sqrt(x0 * (1.0 - x0)) / math.sqrt(2.0 * j), 0.05, fails,
          relative=True)
    return fails


def check_sweep_rect(out):
    fails = []
    height, width = 2.0 * EV, 0.5e-9
    rows = _rows(out.files["transmission.csv"])
    if len(rows) != 29:
        fails.append(f"{len(rows)} sweep points, expected 29")
    for r in rows:
        e = float(r[0]) * EV
        kappa = math.sqrt(2.0 * ELECTRON_MASS * (height - e)) / HBAR
        closed = 1.0 / (1.0 + height ** 2 * math.sinh(kappa * width) ** 2
                        / (4.0 * e * (height - e)))
        _near(f"T_exact at {r[0]} eV", float(r[2]), closed, 1e-6, fails,
              relative=True)
    return fails


def check_sg_split(out):
    fails = []
    if not out.summary["pz_relative_error"] < 1e-6:
        fails.append(f"pz_relative_error = "
                     f"{out.summary['pz_relative_error']!r} >= 1e-6")
    return fails


def check_tunnel_decohered(out):
    s, fails = out.summary, []
    for i, want in enumerate((0.36, 0.64)):      # |c1|^2, |c2|^2
        _near(f"band_weights[{i}]", s["band_weights"][i], want, 0.02, fails,
              relative=True)
    if not s["transverse_coherence"] < 0.05:
        fails.append(f"transverse_coherence = {s['transverse_coherence']!r} "
                     ">= 0.05")
    return fails


def check_carpet(out):
    fails = []
    carpet, _, _ = read_array(out.files["carpet.bin"])
    means = np.real(carpet).mean(axis=1)
    err = float(np.max(np.abs(means / means[0] - 1.0)))
    if not err < 1e-6:                 # the Fresnel propagator is unitary
        fails.append(f"row mean intensity drifts by {err:.3e} >= 1e-6")
    if not out.summary["revival_fidelity_at_LT"] >= 0.9:
        fails.append(f"revival fidelity "
                     f"{out.summary['revival_fidelity_at_LT']!r} < 0.9")
    return fails


def check_lau(out):
    fails = []
    rows = _rows(out.files["scan.csv"])
    offsets = np.array([float(r[0]) for r in rows])
    flux = np.array([float(r[1]) for r in rows])
    period = 100e-9
    # offsets span [-d, d] evenly, so index i + (n-1)/2 lies one period on
    shift = (len(rows) - 1) // 2
    if len(rows) != 81 or abs(offsets[shift] - offsets[0] - period) > 1e-6 * period:
        fails.append("scan offsets do not span [-d, d] in 81 points")
        return fails
    err = float(np.max(np.abs(flux[:shift + 1] - flux[shift:])))
    if not err < 0.02:
        fails.append(f"flux not periodic in the offset: differs by {err:.3e}")
    return fails


CHECKS = {
    "tunnel-pure": check_tunnel_pure,
    "decohere-split": check_decohere_split,
    "sg-coupled-check": check_sg_coupled,
    "Ag": check_ratio, "Na": check_ratio,
    "C70-cold": check_ratio, "C70-hot": check_ratio,
    "table1": check_table1,
    "spin-13half-pi2": lambda out: check_binomial(
        out, "distribution.csv", math.pi / 2.0),
    "spin-13half-pi4": lambda out: check_binomial(
        out, "distribution.csv", math.pi / 4.0),
    "sg-bands-13half": lambda out: check_binomial(
        out, "bands.csv", math.pi / 2.0),
    "spin-large-2e5": check_spin_large,
    "tunnel-sweep-rect": check_sweep_rect,
    "sg-split": check_sg_split,
    "tunnel-decohered": check_tunnel_decohered,
    "carpet-100nm": check_carpet,
    "lau-resonant": check_lau,
}


def check(preset, out, reference_digests=None):
    """All failures of one run's outputs, including a digest mismatch
    against an earlier execution of the same preset within this run."""
    digests = out.digests()
    try:
        fails = CHECKS[preset](out)
        listed = {e["name"]: e["sha256"] for e in out.manifest["outputs"]}
    except (KeyError, IndexError, ValueError, TypeError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]
    if listed != digests:
        fails.append("manifest checksums differ from the files on disk")
    if reference_digests is not None and digests != reference_digests:
        changed = sorted(n for n in set(reference_digests) | set(digests)
                         if reference_digests.get(n) != digests.get(n))
        fails.append(f"data files differ from the first execution: {changed}")
    return fails
