import json
import math
import os
from importlib import resources

import numpy as np
import pytest

from qratio.cli import main, preset_names
from qratio.grid import read_field_array


def run_cli(tmp_path, *argv):
    out = tmp_path / "out"
    code = main(list(argv) + ["--out", str(out)])
    return code, out


def load_summary(out):
    with open(out / "summary.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_all_presets_listed():
    names = preset_names()
    for expected in ("table1", "Ag", "Na", "C70-cold", "C70-hot",
                     "spin-13half-pi4", "sg-split", "tunnel-sweep-rect",
                     "carpet-100nm", "lau-resonant", "decohere-split"):
        assert expected in names


def test_ratio_preset_ag(tmp_path, capsys):
    code, out = run_cli(tmp_path, "ratio", "--preset", "Ag")
    assert code == 0
    summary = load_summary(out)
    assert summary["classification"] == "Quantum"
    assert summary["Q"] == pytest.approx(1.39e6, rel=0.01)
    stdout = capsys.readouterr().out
    assert "Quantum" in stdout


def test_ratio_inline_values(tmp_path):
    code, out = run_cli(tmp_path, "ratio", "--Rq", "1 m", "--L0", "1 m")
    assert code == 0
    assert load_summary(out)["classification"] == "Classical"


def test_ratio_pointlike_infinite(tmp_path):
    code, out = run_cli(tmp_path, "ratio", "--Rq", "1 mm", "--L0", "0 m")
    assert code == 0
    summary = load_summary(out)
    assert summary["classification"] == "Infinite"
    assert summary["Q"] == "inf"


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_ratio_non_finite_quantity_rejected(tmp_path, capsys, value):
    code, out = run_cli(tmp_path, "ratio", "--Rq", f"{value} m", "--L0", "1 m")
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and "finite" in err["message"]
    assert not (out / "summary.json").exists()


def test_decohere_zero_steps_is_a_domain_error(tmp_path, capsys):
    preset = resources.files("qratio").joinpath("presets/decohere-split.cfg")
    text = preset.read_text().replace("steps = 200", "steps = 0")
    assert "steps = 0" in text
    cfg = tmp_path / "zero-steps.cfg"
    cfg.write_text(text)
    code, out = run_cli(tmp_path, "decohere", "--config", str(cfg))
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DomainError" and "steps" in err["message"]


def test_diffuse_table_preset(tmp_path):
    code, out = run_cli(tmp_path, "diffuse", "--preset", "table1")
    assert code == 0
    rows = (out / "diffusion_times.csv").read_text().splitlines()
    assert rows[0] == "name,mass_kg,width_m,doubling_time_s"
    assert len(rows) == 5


def test_spin_dist_inline(tmp_path):
    code, out = run_cli(tmp_path, "spin-dist", "--j", "13/2",
                        "--theta", "pi/4")
    assert code == 0
    summary = load_summary(out)
    assert summary["j"] == 6.5
    rows = (out / "distribution.csv").read_text().splitlines()
    assert len(rows) == 15   # header + 14 bands
    k, m, w = rows[1].split(",")
    assert float(m) == -6.5


def test_tunnel_inline_sweep(tmp_path):
    code, out = run_cli(tmp_path, "tunnel", "--barrier", "rect:2eV:0.5nm",
                        "--energy-sweep", "0.5eV:1.9eV:8")
    assert code == 0
    rows = (out / "transmission.csv").read_text().splitlines()
    assert rows[0] == "E_eV,T_wkb,T_exact"
    assert len(rows) == 9
    e, t_wkb, t_exact = map(float, rows[4].split(","))
    assert 0.0 < t_wkb <= 1.0 and 0.0 < t_exact <= 1.0


def test_unknown_preset_fails_with_error_json(tmp_path, capsys):
    code = main(["ratio", "--preset", "nonexistent",
                 "--out", str(tmp_path / "x")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert "nonexistent" in err["message"]


def test_kind_mismatch_rejected(tmp_path, capsys):
    code = main(["tunnel", "--preset", "Ag", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "does not match" in json.loads(capsys.readouterr().err)["message"]


def test_manifest_written_with_checksums(tmp_path):
    code, out = run_cli(tmp_path, "ratio", "--preset", "Na")
    with open(out / "manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert manifest["tool"] == "qratio"
    assert manifest["kind"] == "ratio"
    names = {e["name"] for e in manifest["outputs"]}
    assert "summary.json" in names
    import hashlib
    for entry in manifest["outputs"]:
        payload = (out / entry["name"]).read_bytes()
        assert hashlib.sha256(payload).hexdigest() == entry["sha256"]
        assert len(payload) == entry["bytes"]


def test_preset_search_path_override(tmp_path, monkeypatch):
    custom = tmp_path / "presets"
    custom.mkdir()
    (custom / "mine.cfg").write_text(
        "[scenario]\nkind = ratio\n[ratio]\nRq = 1 mm\nL0 = 1 angstrom\n")
    monkeypatch.setenv("QRATIO_PRESET_PATH", str(custom))
    code, out = run_cli(tmp_path, "ratio", "--preset", "mine")
    assert code == 0
    assert load_summary(out)["Q"] == pytest.approx(1e7, rel=1e-6)


def test_sg_bands_outputs(tmp_path):
    code, out = run_cli(tmp_path, "sg", "--preset", "sg-bands-13half")
    assert code == 0
    rows = (out / "bands.csv").read_text().splitlines()
    assert rows[0] == "m,z_m,weight"
    assert len(rows) == 15
    assert (out / "bands.svg").read_text().startswith("<svg")


def test_carpet_outputs_binary_and_image(tmp_path):
    code, out = run_cli(tmp_path, "talbot", "--preset", "carpet-100nm")
    assert code == 0
    data, spacings, origins = read_field_array(out / "carpet.bin")
    assert data.ndim == 2
    assert np.all(data.imag == 0.0)
    header = (out / "carpet.pgm").read_bytes()[:2]
    assert header == b"P5"
    summary = load_summary(out)
    assert summary["revival_fidelity_at_LT"] >= 0.9
