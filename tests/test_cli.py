import json
import math
import os
from importlib import resources

import numpy as np
import pytest

from qratio import runner
from qratio.cli import main, preset_names
from qratio.constants import ELECTRON_MASS, EV, HBAR
from qratio.errors import DomainError
from qratio.grid import read_field_array


def run_cli(tmp_path, *argv):
    out = tmp_path / "out"
    code = main(list(argv) + ["--out", str(out)])
    return code, out


def load_summary(out):
    with open(out / "summary.json", encoding="utf-8") as fh:
        return json.load(fh)


def preset_copy(tmp_path, name, *edits):
    """Write a copy of a bundled preset with (old, new) text replacements."""
    text = resources.files("qratio").joinpath(f"presets/{name}.cfg").read_text()
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    path = tmp_path / f"{name}-edited.cfg"
    path.write_text(text)
    return str(path)


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


def test_decohere_zero_steps_is_a_config_error(tmp_path, capsys):
    cfg = preset_copy(tmp_path, "decohere-split", ("steps = 200", "steps = 0"))
    code, out = run_cli(tmp_path, "decohere", "--config", cfg)
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and "'steps'" in err["message"]
    assert not out.exists()


def test_decohere_nan_amplitude_rejected(tmp_path, capsys):
    cfg = preset_copy(tmp_path, "decohere-split",
                      ("[decohere]", "[decohere]\nc1 = nan"),
                      ("points = 512", "points = 256"))
    code, out = run_cli(tmp_path, "decohere", "--config", cfg)
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert "'c1'" in err["message"] and "finite" in err["message"]
    assert not (out / "summary.json").exists()


def test_sg_decoupled_steps(tmp_path, capsys):
    small = ("points = 256 256", "points = 64 64")
    cfg = preset_copy(tmp_path, "sg-split", small, ("steps = 256", "steps = 0"))
    code, out = run_cli(tmp_path, "sg", "--config", cfg)
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and "steps" in err["message"]
    assert not (out / "summary.json").exists()
    # only an absent key falls back to the default step count
    cfg = preset_copy(tmp_path, "sg-split", small, ("steps = 256\n", ""))
    code, out = run_cli(tmp_path, "sg", "--config", cfg)
    assert code == 0
    assert load_summary(out)["steps"] == 200


@pytest.mark.parametrize("edit,samples", [
    (("steps = 256\n", ""), 35),                           # 200 steps, stride 6
    (("steps = 256", "steps = 40\nrecord_every = 1000"), 2),
])
def test_sg_decoupled_trace_ends_at_last_step(tmp_path, edit, samples):
    # the momentum check compares the last trace sample with the kick at
    # t_end, so the trace must end there whatever the stride
    cfg = preset_copy(tmp_path, "sg-split", ("points = 256 256", "points = 64 64"),
                      edit)
    code, out = run_cli(tmp_path, "sg", "--config", cfg)
    assert code == 0
    rows = (out / "trace_up.csv").read_text().splitlines()[1:]
    assert len(rows) == samples
    assert float(rows[-1].split(",")[0]) == pytest.approx(2e-12, rel=1e-12)
    assert load_summary(out)["pz_relative_error"] < 1e-9


@pytest.mark.parametrize("old,new,words", [
    ("bias_ratios = 200", "bias_ratios = 0", "B0"),
    ("bias_ratios = 200", "B0 = 0 T", "B0"),
    ("b0 = 1.05e6 T/m", "b0 = 0 T/m", "b0"),
], ids=["zero-ratio", "zero-B0", "zero-b0"])
def test_sg_coupled_check_zero_field_is_a_domain_error(tmp_path, capsys, old,
                                                       new, words):
    cfg = preset_copy(tmp_path, "sg-coupled-check", (old, new))
    code, out = run_cli(tmp_path, "sg", "--config", cfg)
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DomainError" and words in err["message"]
    assert not (out / "summary.json").exists()


def test_sg_coupled_check_records_both_step_counts(tmp_path):
    cfg = preset_copy(tmp_path, "sg-coupled-check",
                      ("duration = 5.4e-11 s", "duration = 5.4e-12 s"))
    code, out = run_cli(tmp_path, "sg", "--config", cfg)
    assert code == 0
    (res,) = load_summary(out)["results"]
    assert res["steps"] > 10 * res["decoupled_steps"] > 0
    drift = json.loads((out / "manifest.json").read_text())["drift"]
    assert set(drift) == {"norm_drift_ratio_200",
                          "norm_drift_decoupled_up_ratio_200",
                          "norm_drift_decoupled_down_ratio_200"}


def test_non_finite_output_is_a_domain_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(runner._RUNNERS, "diffuse",
                        lambda cfg, threads: ({"doubling_time_s": math.nan}, {}, {}))
    code, out = run_cli(tmp_path, "diffuse", "--preset", "table1")
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DomainError" and "non-finite" in err["message"]
    assert not (out / "summary.json").exists()
    with pytest.raises(DomainError):
        runner._json_bytes({"drift": {"norm_drift_up": math.inf}})


SPIN = "[scenario]\nkind = spin-dist\n[spin]\nj = {}\ntheta = pi/3\nmode = {}\n"


@pytest.mark.parametrize("j,mode,words", [
    ("0", "approx", "j >= 1"),
    ("1/2", "approx", "j >= 1"),
    ("1000000.5", "exact", "10^6"),
    ("1000000.5", "approx", "10^6"),
])
def test_spin_dist_out_of_range_is_a_domain_error(tmp_path, capsys, j, mode,
                                                  words):
    cfg = tmp_path / "spin.cfg"
    cfg.write_text(SPIN.format(j, mode))
    code, out = run_cli(tmp_path, "spin-dist", "--config", str(cfg))
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DomainError" and words in err["message"]
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("kind,preset,old,new,key", [
    ("tunnel", "tunnel-sweep-rect", "count = 29", "count = 0", "count"),
    ("talbot", "lau-resonant", "offsets = 81", "offsets = 0", "offsets"),
    ("tunnel", "tunnel-pure", "points = 2048 64", "points = 64", "points"),
])
def test_degenerate_sizes_rejected(tmp_path, capsys, kind, preset, old, new,
                                   key):
    cfg = preset_copy(tmp_path, preset, (old, new))
    code, out = run_cli(tmp_path, kind, "--config", cfg)
    assert code in (1, 2)
    err = json.loads(capsys.readouterr().err)
    assert key in err["message"] and err["scenario"] == kind
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("kind,preset,old,new,key", [
    ("tunnel", "tunnel-pure", "energy = 1 eV", "energy = 0 eV", "energy"),
    ("tunnel", "tunnel-pure", "energy = 1 eV", "energy = -1 eV", "energy"),
    ("sg", "sg-split", "steps = 256", "steps = 256\nrecord_every = -5",
     "record_every"),
    ("decohere", "decohere-split", "points = 512", "points = 512 7", "points"),
], ids=["zero-energy", "negative-energy", "negative-record-every",
        "decohere-two-points"])
def test_schema_bounds_rejected(tmp_path, capsys, kind, preset, old, new, key):
    cfg = preset_copy(tmp_path, preset, (old, new))
    code, out = run_cli(tmp_path, kind, "--config", cfg)
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and f"'{key}'" in err["message"]
    assert not out.exists()


def test_sg_decoupled_zero_gradient_is_a_domain_error(tmp_path, capsys):
    cfg = preset_copy(tmp_path, "sg-split", ("points = 256 256", "points = 64 64"),
                      ("b0 = 5e8 T/m", "b0 = 0 T/m"))
    code, out = run_cli(tmp_path, "sg", "--config", cfg)
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DomainError" and "'b0'" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("kind,preset,old,new,words", [
    ("ratio", "Ag", "experiment = Ag", "Rq = 1 mm", "'experiment'"),
    ("sg", "sg-coupled-check", "bias_ratios = 200\n", "", "'bias_ratios'"),
])
def test_one_of_two_keys_rules(tmp_path, capsys, kind, preset, old, new, words):
    cfg = preset_copy(tmp_path, preset, (old, new))
    code, out = run_cli(tmp_path, kind, "--config", cfg)
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and words in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("old", ["transit_length = 0.5 um\n",
                                 "transit_speed = 1e6 m/s\n"])
def test_timescales_need_both_keys(tmp_path, capsys, old):
    cfg = preset_copy(tmp_path, "decohere-split", (old, ""))
    code, out = run_cli(tmp_path, "decohere", "--config", cfg)
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and "[timescales]" in err["message"]
    assert not out.exists()


def test_tunnel_decohered_validates_transverse_packets(tmp_path, capsys):
    cfg = preset_copy(tmp_path, "tunnel-decohered",
                      ("transverse_width = 36 nm", "transverse_width = 5 nm"))
    code, out = run_cli(tmp_path, "tunnel", "--config", cfg)
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ResolutionError" and err["scenario"] == "tunnel"
    assert not out.exists()


@pytest.mark.parametrize("threads", ["0", "-100"])
def test_threads_below_one_rejected(tmp_path, capsys, threads):
    code, out = run_cli(tmp_path, "ratio", "--preset", "Ag", "--threads", threads)
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and "--threads" in err["message"]
    assert not out.exists()


def _unreadable_config(tmp_path, case):
    if case == "missing":
        return str(tmp_path / "missing.cfg"), "No such file"
    if case == "directory":
        return str(tmp_path), "Is a directory"
    path = tmp_path / "latin1.cfg"
    path.write_bytes("[scenario]\nkind = ratio\n# \u00e9t\u00e9\n"
                     .encode("latin-1"))
    return str(path), "not UTF-8"


@pytest.mark.parametrize("case", ["missing", "directory", "not-utf8"])
def test_unreadable_config_is_a_config_error(tmp_path, capsys, case):
    path, words = _unreadable_config(tmp_path, case)
    code, out = run_cli(tmp_path, "ratio", "--config", path)
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and words in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
def test_out_naming_a_file_is_a_config_error(tmp_path, capsys, under):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    out = taken / "run" if under else taken
    code = main(["ratio", "--preset", "Ag", "--out", str(out)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and "output directory" in err["message"]
    assert taken.read_text() == "not a directory\n"


@pytest.mark.parametrize("kind,preset,old,new", [
    ("sg", "sg-split", "points = 256 256", "points = 65536 65536"),
    ("talbot", "carpet-100nm", "open_fraction = 0.3", "open_fraction = 0.001"),
    ("tunnel", "tunnel-sweep-rect", "count = 29", "count = 1000000000"),
    ("talbot", "lau-resonant", "offsets = 81", "offsets = 1000000000"),
    ("decohere", "decohere-split", "steps = 200", "steps = 1000000000"),
    ("talbot", "lau-resonant", "source_slits = 16", "source_slits = 1000000000"),
    ("sg", "sg-split", "steps = 256", "steps = 1000000000"),
    ("sg", "sg-coupled-check", "duration = 5.4e-11 s", "duration = 1 s"),
], ids=["sg-grid", "talbot-carpet", "sweep-count", "lau-offsets",
        "decohere-steps", "lau-source-slits", "sg-steps", "sg-coupled-duration"])
def test_oversize_arrays_are_domain_errors(tmp_path, capsys, kind, preset, old,
                                           new):
    # each would allocate gigabytes (or loop a billion times) without the
    # size caps
    cfg = preset_copy(tmp_path, preset, (old, new))
    code, out = run_cli(tmp_path, kind, "--config", cfg)
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DomainError" and "cap" in err["message"]
    assert not out.exists()


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


def test_tunnel_inline_sweep_at_barrier_height(tmp_path):
    # the last row has E = V0, where T = 1 / (1 + m V0 a^2 / 2 hbar^2)
    code, out = run_cli(tmp_path, "tunnel", "--barrier", "rect:2eV:0.5nm",
                        "--energy-sweep", "1eV:2eV:2")
    assert code == 0
    rows = (out / "transmission.csv").read_text().splitlines()
    e, _, t_exact = map(float, rows[-1].split(","))
    assert e == 2.0
    v0, a = 2.0 * EV, 0.5e-9
    closed = 1.0 / (1.0 + ELECTRON_MASS * v0 * a ** 2 / (2.0 * HBAR ** 2))
    assert abs(t_exact / closed - 1.0) <= 1e-12


GAUSS_SWEEP = ("[scenario]\nkind = tunnel\n[tunnel]\nmode = sweep\n"
               "mass = 9.1093837015e-31 kg\n[barrier]\nshape = gaussian\n"
               "height = 1.2 eV\nsigma = 1.2 nm\n[sweep]\n"
               "energy_min = 1e-9 eV\nenergy_max = 1 eV\ncount = 3\n")


@pytest.mark.filterwarnings("error")
def test_tunnel_sweep_below_a_truncated_profile(tmp_path):
    # at 1e-9 eV the 6-sigma cut-offs of the Gaussian are still above E
    cfg = tmp_path / "gauss.cfg"
    cfg.write_text(GAUSS_SWEEP)
    code, out = run_cli(tmp_path, "tunnel", "--config", str(cfg))
    assert code == 0
    rows = (out / "transmission.csv").read_text().splitlines()
    e, t_wkb, t_exact = map(float, rows[1].split(","))
    assert e == 1e-9
    assert 0.0 < t_exact < t_wkb < 1e-20


@pytest.mark.filterwarnings("error")
def test_tunnel_sweep_opaque_barrier_is_a_domain_error(tmp_path, capsys):
    code, out = run_cli(tmp_path, "tunnel", "--barrier", "rect:100eV:1um",
                        "--energy-sweep", "0.5eV:1eV:2")
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DomainError" and "opaque" in err["message"]
    assert not out.exists()


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
