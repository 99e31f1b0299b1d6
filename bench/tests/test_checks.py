"""Each output check accepts correct output and rejects a deliberately
wrong one.  The light presets are run for real; the three heavy ones are
stood in for by outputs with the figures a correct run gives.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

import copy
import hashlib
import json
import struct
from pathlib import Path

import numpy as np
import pytest

import checks
from run import PRESET_BATCH

from qratio.config import parse_config
from qratio.constants import EV, ELECTRON_MASS
from qratio.runner import run
from qratio.tunneling import GaussianBarrier, exact_transmission

PRESETS = Path(__file__).resolve().parents[2] / "src" / "qratio" / "presets"


def array_bytes(arr, spacings, origins):
    arr = np.ascontiguousarray(arr, dtype=complex)
    inter = np.empty(2 * arr.size)
    inter[0::2], inter[1::2] = arr.real.ravel(), arr.imag.ravel()
    return (b"QRARRAY1" + struct.pack(f"<I{arr.ndim}I", arr.ndim, *arr.shape)
            + struct.pack(f"<{2 * arr.ndim}d", *spacings, *origins)
            + inter.astype("<f8").tobytes())


def outputs(summary, files=None, drift=None):
    """Outputs with a manifest whose checksums match the files."""
    files = dict(files or {})
    files["summary.json"] = json.dumps(summary).encode()
    manifest = {"drift": drift or {},
                "outputs": [{"name": n, "sha256": hashlib.sha256(b).hexdigest()}
                            for n, b in files.items()]}
    return checks.Outputs(summary, manifest, files)


def edit_csv(data, row, col, fn):
    lines = data.decode().splitlines()
    cells = lines[row + 1].split(",")
    cells[col] = repr(fn(float(cells[col])))
    lines[row + 1] = ",".join(cells)
    return ("\n".join(lines) + "\n").encode()


def with_file(out, name, data):
    bad = copy.deepcopy(out)
    bad.files[name] = data
    return bad


def with_summary(out, edit):
    bad = copy.deepcopy(out)
    edit(bad.summary)
    return bad


def assert_rejected(preset, bad):
    assert checks.CHECKS[preset](bad), f"{preset}: wrong output accepted"


@pytest.fixture(scope="module")
def batch(tmp_path_factory):
    root = tmp_path_factory.mktemp("batch")
    out = {}
    for preset in PRESET_BATCH:
        path = PRESETS / f"{preset}.cfg"
        run(parse_config(path.read_text()), str(root / preset))
        out[preset] = checks.Outputs.read(root / preset)
    return out


TUNNEL_PURE = {"transmitted_fraction": 0.0063324889, "flux_sum": 1.00000000000089,
               "band_weights": [0.4999676, 0.5000324],
               "transverse_coherence": 0.9999999999999998}


def decohere_outputs(trace=1.0, coherence=0.006754362783572254,
                     bands=(0.5, 0.5), pure=(0.5, 0.5)):
    n, dx = 8, 0.25
    rho = np.diag(np.full(n, trace / (n * dx))).astype(complex)
    return outputs({"duration_s": 2.5e-13, "final_coherence": coherence,
                    "band_intensities": list(bands),
                    "pure_band_intensities": list(pure)},
                   {"rho.bin": array_bytes(rho, (dx, dx), (0.0, 0.0))})


def sg_coupled_outputs(l1=5.47e-4, drift=1e-12):
    return outputs({"results": [{"bias_ratio": 200.0, "steps": 9973,
                                 "l1_density_deviation": l1}]},
                   drift={"norm_drift_ratio_200": drift})


def test_stationary_oracle_matches_transfer_matrix():
    e = np.array([0.6, 0.9, 1.1])
    mine = checks.stationary_transmission(e, 1.2, 1.2, 6.0)
    ref = exact_transmission(GaussianBarrier(1.2 * EV, 1.2e-9), e * EV,
                             ELECTRON_MASS, check=False)
    assert np.max(np.abs(mine / ref - 1.0)) < 1e-5


def test_good_outputs_pass(batch):
    assert checks.check("tunnel-pure", outputs(TUNNEL_PURE)) == []
    assert checks.check("decohere-split", decohere_outputs()) == []
    assert checks.check("sg-coupled-check", sg_coupled_outputs()) == []
    for preset, out in batch.items():
        assert checks.check(preset, out, out.digests()) == [], preset


@pytest.mark.parametrize("edit", [
    lambda s: s.update(transmitted_fraction=s["transmitted_fraction"] * 1.25),
    lambda s: s.update(flux_sum=s["flux_sum"] + 2e-6),
    lambda s: s["band_weights"].__setitem__(0, 0.49),
    lambda s: s.update(transverse_coherence=0.97),
    lambda s: s.update(flux_sum=float("nan")),
])
def test_tunnel_pure_rejects(edit):
    assert_rejected("tunnel-pure", with_summary(outputs(TUNNEL_PURE), edit))


@pytest.mark.parametrize("kwargs", [
    {"coherence": 0.006754362783572254 * 1.1},
    {"bands": (0.51, 0.49)},
    {"pure": (0.502, 0.498)},
    {"trace": 1.0 + 1e-8},
])
def test_decohere_split_rejects(kwargs):
    assert_rejected("decohere-split", decohere_outputs(**kwargs))


@pytest.mark.parametrize("kwargs", [{"l1": 0.011}, {"drift": 2e-10 * 9973}])
def test_sg_coupled_rejects(kwargs):
    assert_rejected("sg-coupled-check", sg_coupled_outputs(**kwargs))


@pytest.mark.parametrize("preset, bad", [
    ("Ag", lambda o: with_summary(o, lambda s: s.update(Q=s["Q"] * 4))),
    ("C70-hot", lambda o: with_summary(
        o, lambda s: s.update(classification="Crossover"))),
    ("table1", lambda o: with_file(o, "diffusion_times.csv", edit_csv(
        o.files["diffusion_times.csv"], 1, 3, lambda v: v * (1 + 1e-9)))),
    ("spin-13half-pi4", lambda o: with_file(o, "distribution.csv", edit_csv(
        o.files["distribution.csv"], 5, 2, lambda v: v + 1e-11))),
    ("sg-bands-13half", lambda o: with_file(o, "bands.csv", edit_csv(
        o.files["bands.csv"], 7, 2, lambda v: v + 1e-11))),
    ("spin-large-2e5", lambda o: with_summary(
        o, lambda s: s.update(argmax_m=s["argmax_m"] + 2))),
    ("spin-large-2e5", lambda o: with_summary(
        o, lambda s: s.update(relative_width=s["relative_width"] * 1.06))),
    ("tunnel-sweep-rect", lambda o: with_file(o, "transmission.csv", edit_csv(
        o.files["transmission.csv"], 10, 2, lambda v: v * (1 + 2e-6)))),
    ("sg-split", lambda o: with_summary(
        o, lambda s: s.update(pz_relative_error=2e-6))),
    ("tunnel-decohered", lambda o: with_summary(
        o, lambda s: s["band_weights"].__setitem__(0, 0.36 * 1.03))),
    ("tunnel-decohered", lambda o: with_summary(
        o, lambda s: s.update(transverse_coherence=0.06))),
    ("carpet-100nm", lambda o: with_summary(
        o, lambda s: s.update(revival_fidelity_at_LT=0.89))),
    ("lau-resonant", lambda o: with_file(o, "scan.csv", edit_csv(
        o.files["scan.csv"], 0, 1, lambda v: v + 0.05))),
])
def test_batch_checks_reject(batch, preset, bad):
    assert_rejected(preset, bad(batch[preset]))


def test_carpet_rejects_lost_intensity(batch):
    out = batch["carpet-100nm"]
    carpet, spacings, origins = checks.read_array(out.files["carpet.bin"])
    carpet = carpet.copy()
    carpet[50] *= 1.0 + 1e-5
    assert_rejected("carpet-100nm", with_file(
        out, "carpet.bin", array_bytes(carpet, spacings, origins)))


def test_truncated_array_rejected(batch):
    out = batch["carpet-100nm"]
    bad = with_file(out, "carpet.bin", out.files["carpet.bin"][:-16])
    assert any("malformed" in f for f in checks.check("carpet-100nm", bad))


def test_digest_and_manifest_mismatch_rejected(batch):
    out = batch["table1"]
    reference = out.digests()
    bad = with_file(out, "summary.json", out.files["summary.json"] + b" ")
    fails = checks.check("table1", bad, reference)
    assert any("manifest checksums" in f for f in fails)
    assert any("first execution" in f for f in fails)


def test_missing_file_rejected(batch):
    bad = copy.deepcopy(batch["spin-13half-pi2"])
    del bad.files["distribution.csv"]
    assert checks.check("spin-13half-pi2", bad)

