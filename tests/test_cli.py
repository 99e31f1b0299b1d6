import json
import math
from importlib import resources

import numpy as np
import pytest

from qratio import runner, tunneling
from qratio.cli import main, preset_names
from qratio.constants import ELECTRON_MASS, EV, HBAR
from qratio.errors import DomainError
from qratio.grid import chebyshev_propagate, read_field_array


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


@pytest.mark.parametrize("argv", [
    ("spin-dist", "--j", "1", "--theta", "pi/0"),
    ("ratio", "--Rq", "pi/0 m", "--L0", "1 m"),
], ids=["theta", "Rq"])
def test_pi_over_zero_is_a_config_error(tmp_path, capsys, argv):
    code, out = run_cli(tmp_path, *argv)
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and "pi/0" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("argv,key", [
    (("ratio", "--Rq", "pi m", "--L0", "1 m"), "--Rq"),
    (("ratio", "--Rq", "1 m", "--L0", "2pi/3 m"), "--L0"),
], ids=["Rq", "L0"])
def test_pi_is_refused_outside_angles(tmp_path, capsys, argv, key):
    code, out = run_cli(tmp_path, *argv)
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and f"'{key}'" in err["message"]
    assert "angle" in err["message"]
    assert not out.exists()


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


def test_sg_decoupled_steps(tmp_path):
    # both modes take the decoupled step count from the spectral band: the
    # same grid, mass and duration give the same count
    short = ("duration = 5.4e-11 s", "duration = 5.4e-12 s")
    cfg = preset_copy(tmp_path, "sg-coupled-check", short)
    code, out = run_cli(tmp_path / "coupled-check", "sg", "--config", cfg)
    assert code == 0
    (res,) = load_summary(out)["results"]
    cfg = preset_copy(tmp_path, "sg-coupled-check", short,
                      ("mode = coupled-check", "mode = decoupled"))
    code, out = run_cli(tmp_path / "decoupled", "sg", "--config", cfg)
    assert code == 0
    assert load_summary(out)["steps"] == res["decoupled_steps"] == 64


@pytest.mark.parametrize("edits,steps", [
    ((("points = 256 256", "points = 64 64"),), 32),       # stride 1
    ((), 288),                                             # stride 9
], ids=["64x64-32-steps", "256x256-288-steps"])
def test_sg_decoupled_trace_has_33_even_samples(tmp_path, edits, steps):
    # the momentum check compares the last trace sample with the kick at
    # t_end, so the trace must end there whatever the stride
    cfg = preset_copy(tmp_path, "sg-split", *edits)
    code, out = run_cli(tmp_path, "sg", "--config", cfg)
    assert code == 0
    summary = load_summary(out)
    assert summary["steps"] == steps
    times = [float(r.split(",")[0])
             for r in (out / "trace_up.csv").read_text().splitlines()[1:]]
    assert times == pytest.approx([k * 2e-12 / 32 for k in range(33)],
                                  rel=1e-12, abs=0.0)
    assert summary["pz_relative_error"] < 1e-9


@pytest.mark.parametrize("preset,old", [
    ("sg-split", "duration = 2 ps"),
    ("sg-coupled-check", "duration = 5.4e-11 s"),
], ids=["decoupled", "coupled-check"])
def test_sg_duration_cap_comes_before_any_stepping(tmp_path, capsys,
                                                   monkeypatch, preset, old):
    def refused(*args, **kwargs):
        raise AssertionError("a field was made or stepped past the cap")
    monkeypatch.setattr(runner, "initialize_gaussian", refused)
    monkeypatch.setattr(runner.sg, "propagate_decoupled", refused)
    cfg = preset_copy(tmp_path, preset, (old, "duration = 1 s"))
    code, out = run_cli(tmp_path, "sg", "--config", cfg)
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DomainError"
    assert "'duration'" in err["message"] and "decoupled steps" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("old,new,words", [
    ("bias_ratios = 200", "bias_ratios = 0", "B0"),
    ("b0 = 1.05e6 T/m", "b0 = 0 T/m", "b0"),
], ids=["zero-ratio", "zero-b0"])
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
    # one Chebyshev expansion of alpha = 62.7 (108 H-applications), and the
    # decoupled reference at the spectral ceiling: 45.9 steps, rounded up
    # to a multiple of 32
    assert (res["steps"], res["decoupled_steps"]) == (108, 64)
    drift = json.loads((out / "manifest.json").read_text())["drift"]
    assert set(drift) == {"norm_drift_ratio_200", "norm_drift_decoupled_up",
                          "norm_drift_decoupled_down"}


@pytest.mark.parametrize("old,new,words", [
    ("duration = 5.4e-11 s", "duration = 1e300 s", ["'duration'", "cap"]),
    ("duration = 5.4e-11 s", "duration = 2e-8 s",
     ["'duration'", "H-applications", "cap"]),
], ids=["infinite-decoupled-steps", "coupled-applications"])
def test_sg_coupled_check_duration_caps(tmp_path, capsys, old, new, words):
    # counts are compared as floats before they become ints: 1e300 s makes
    # an infinite step count, and 2e-8 s passes the decoupled cap but not
    # the cap on H-applications
    cfg = preset_copy(tmp_path, "sg-coupled-check", (old, new))
    code, out = run_cli(tmp_path, "sg", "--config", cfg)
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DomainError"
    assert all(w in err["message"] for w in words), err["message"]
    assert not out.exists()


@pytest.mark.parametrize("old,new", [
    ("b0 = 1.05e6 T/m", "b0 = 1e-300 T/m"),
    ("mass = 9.1093837015e-31 kg", "mass = 1e300 kg"),
], ids=["tiny-gradient", "huge-mass"])
def test_sg_coupled_check_extreme_values_run(tmp_path, old, new):
    # neither divides by the precession nor by the kinetic ceiling, which
    # underflows to 0 for the huge mass
    cfg = preset_copy(tmp_path, "sg-coupled-check", (old, new),
                      ("duration = 5.4e-11 s", "duration = 5.4e-12 s"))
    code, out = run_cli(tmp_path, "sg", "--config", cfg)
    assert code == 0
    (res,) = load_summary(out)["results"]
    assert res["steps"] > 0 and res["decoupled_steps"] >= 1
    assert 0.0 <= res["l1_density_deviation"] < 0.01


def test_non_finite_output_is_a_domain_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(runner._RUNNERS, "diffuse",
                        lambda cfg: ({"doubling_time_s": math.nan}, {}, {}))
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
    ("sg", "sg-split", "b0 = 5e8 T/m", "b0 = 5e8 T/m\nrecord_every = -5",
     "record_every"),
    ("decohere", "decohere-split", "points = 512", "points = 512 7", "points"),
    ("decohere", "decohere-split", "duration_rate = 5.0", "duration_rate = -1",
     "duration_rate"),
    ("decohere", "decohere-split", "transit_speed = 1e6 m/s",
     "transit_speed = 1e6 m/s\ntau_diss = -1 s", "tau_diss"),
    ("tunnel", "tunnel-pure", "mass = 9.1093837015e-31 kg", "mass = -1 kg",
     "mass"),
    # no [sg] run reads a bias field: coupled-check sets it from 'bias_ratios'
    ("sg", "sg-split", "b0 = 5e8 T/m", "b0 = 5e8 T/m\nB0 = 1 T", "B0"),
    ("talbot", "carpet-100nm", "z_steps = 200", "z_steps = 0", "z_steps"),
    ("talbot", "carpet-100nm", "z_max_talbot = 2.2", "z_max_talbot = 0",
     "z_max_talbot"),
    ("talbot", "carpet-100nm", "slits = 64", "slits = 1", "slits"),
    ("talbot", "carpet-100nm", "period = 100 nm", "period = 0 nm", "period"),
    ("talbot", "carpet-100nm", "wavelength = 1 nm", "wavelength = -1 nm",
     "wavelength"),
    ("talbot", "lau-resonant", "L1_talbot = 1.0", "L1_talbot = 0",
     "L1_talbot"),
    ("talbot", "lau-resonant", "L2_talbot = 1.0", "L2_talbot = -1",
     "L2_talbot"),
], ids=["zero-energy", "negative-energy", "negative-record-every",
        "decohere-two-points", "negative-duration-rate", "negative-tau-diss",
        "negative-tunnel-mass", "sg-bias-key", "zero-z-steps",
        "zero-z-max-talbot", "one-slit", "zero-period", "negative-wavelength",
        "zero-L1-talbot", "negative-L2-talbot"])
def test_schema_bounds_rejected(tmp_path, capsys, kind, preset, old, new, key):
    cfg = preset_copy(tmp_path, preset, (old, new))
    code, out = run_cli(tmp_path, kind, "--config", cfg)
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and f"'{key}'" in err["message"]
    assert not out.exists()


def test_tunnel_huge_mass_is_a_domain_error(tmp_path, capsys):
    # the kinetic ceiling hbar^2 k_max^2 / 2m underflows to 0, which set
    # the time step by division
    cfg = preset_copy(tmp_path, "tunnel-pure",
                      ("mass = 9.1093837015e-31 kg", "mass = 1e300 kg"))
    code, out = run_cli(tmp_path, "tunnel", "--config", cfg)
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DomainError"
    assert "mass 1.000e+300 kg" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("energy", ["1e-300 eV", "1e-6 eV"],
                         ids=["underflow", "first-chunk-over-cap"])
def test_slow_beam_is_a_convergence_error(tmp_path, capsys, energy):
    cfg = preset_copy(tmp_path, "tunnel-pure",
                      ("energy = 1 eV", f"energy = {energy}"))
    code, out = run_cli(tmp_path, "tunnel", "--config", cfg)
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConvergenceError"
    assert "beam energy" in err["message"]
    assert not out.exists()


def test_tunnel_transverse_flight_over_the_cap(tmp_path, capsys, monkeypatch):
    # 1 nm packets 4 nm apart on 1024 x points: tunnel-pure's flight would
    # take 2,974,156 steps of a 1024^2 density matrix, about 16 h.  It is
    # refused once the z run has timed the flight, before any x step
    z_runs = []

    def z_run(*args, **kwargs):
        z_runs.append(1)
        return chebyshev_propagate(*args, **kwargs)

    def x_run(*args, **kwargs):
        raise AssertionError("a transverse step ran")

    monkeypatch.setattr(tunneling, "chebyshev_propagate", z_run)
    monkeypatch.setattr(tunneling, "propagate_density", x_run)
    cfg = preset_copy(tmp_path, "tunnel-pure",
                      ("transverse_width = 36 nm", "transverse_width = 1 nm"),
                      ("separation = 150 nm", "separation = 4 nm"),
                      ("points = 2048 64", "points = 2048 1024"))
    code, out = run_cli(tmp_path, "tunnel", "--config", cfg)
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DomainError"
    assert "2.974e+06 density-matrix steps" in err["message"]
    assert "cap" in err["message"] and "[grid] points" in err["message"]
    assert "transverse_width" in err["message"]
    assert z_runs and not out.exists()


def test_sg_phi_is_not_a_key(tmp_path, capsys):
    # the bands' J_z weights do not depend on the azimuth phi
    cfg = preset_copy(tmp_path, "sg-bands-13half",
                      ("theta = pi/2", "theta = pi/2\nphi = 0.3"))
    code, out = run_cli(tmp_path, "sg", "--config", cfg)
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and "'phi'" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("kind,preset,old,new,key", [
    # every scenario is deterministic: a seed would only be echoed
    ("ratio", "Ag", "kind = ratio", "kind = ratio\nseed = 3", "seed"),
    # the J_z weights do not depend on the azimuth phi
    ("spin-dist", "spin-13half-pi4", "theta = pi/4", "theta = pi/4\nphi = 0.3",
     "phi"),
    # the decoupled run takes its step count, and so its records, from the
    # spectral band
    ("sg", "sg-split", "duration = 2 ps", "duration = 2 ps\nsteps = 256",
     "steps"),
    ("sg", "sg-split", "duration = 2 ps", "duration = 2 ps\nrecord_every = 8",
     "record_every"),
], ids=["scenario-seed", "spin-phi", "sg-steps", "sg-record-every"])
def test_inert_keys_are_unknown(tmp_path, capsys, kind, preset, old, new, key):
    cfg = preset_copy(tmp_path, preset, (old, new))
    code, out = run_cli(tmp_path, kind, "--config", cfg)
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert "unknown keys" in err["message"] and f"'{key}'" in err["message"]
    assert not out.exists()


def test_spin_dist_phi_flag_is_a_usage_error(tmp_path, capsys):
    code, out = run_cli(tmp_path, "spin-dist", "--j", "13/2", "--theta", "pi/4",
                        "--phi", "1")
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and "--phi" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("old,new,key", [
    ("region_length = 3.5 cm", "region_length = 0 cm", "region_length"),
    ("speed = 600 m/s", "speed = 0 m/s", "speed"),
    ("speed = 600 m/s", "speed = -600 m/s", "speed"),
], ids=["region-length-zero", "speed-zero", "speed-negative"])
def test_sg_transit_needs_positive_length_and_speed(tmp_path, capsys, old, new,
                                                   key):
    cfg = preset_copy(tmp_path, "sg-bands-13half", (old, new))
    code, out = run_cli(tmp_path, "sg", "--config", cfg)
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert f"'{key}' must be > 0" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("kind,preset,section,old,key", [
    ("decohere", "decohere-split", "[decohere]", None, "c1"),
    ("sg", "sg-split", "[sg]", None, "c_up"),
    ("tunnel", "tunnel-decohered", "[beam]", "c1 = 0.6\n", "c1"),
], ids=["decohere", "sg", "tunnel"])
def test_amplitude_beyond_one_is_a_config_error(tmp_path, capsys, kind,
                                                preset, section, old, key):
    edits = [(section, f"{section}\n{key} = 1e300")]
    if old is not None:
        edits.append((old, ""))
    cfg = preset_copy(tmp_path, preset, *edits)
    code, out = run_cli(tmp_path, kind, "--config", cfg)
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert f"{section} '{key}'" in err["message"]
    assert not out.exists()


def test_sg_decoupled_zero_gradient_is_a_domain_error(tmp_path, capsys):
    # at 1e-300 T/m the momentum kick mu_B b0 t, which the momentum check
    # divides by, underflows to 0
    for b0 in ("0 T/m", "1e-300 T/m"):
        cfg = preset_copy(tmp_path, "sg-split",
                          ("points = 256 256", "points = 64 64"),
                          ("b0 = 5e8 T/m", f"b0 = {b0}"))
        code, out = run_cli(tmp_path, "sg", "--config", cfg)
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DomainError" and "'b0'" in err["message"]
        assert not out.exists()


@pytest.mark.parametrize("duration", ["1e-300 s", "1e-290 s"])
def test_sg_decoupled_kick_below_rounding_is_a_domain_error(tmp_path, capsys,
                                                            duration):
    # the momentum check divides by the kick mu_B b0 t and reads about
    # 1.4e-14 hbar/width of rounding: these kicks would report errors of
    # 3.9e272 and 3.9e262
    cfg = preset_copy(tmp_path, "sg-split", ("points = 256 256", "points = 64 64"),
                      ("duration = 2 ps", f"duration = {duration}"))
    code, out = run_cli(tmp_path, "sg", "--config", cfg)
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DomainError"
    assert "'b0'" in err["message"] and "'duration'" in err["message"]
    assert not out.exists()


def test_sg_decoupled_small_kick_runs(tmp_path):
    # 1e-18 s gives a kick of 4.4e-6 hbar/width, over the 1e-6 floor
    cfg = preset_copy(tmp_path, "sg-split", ("points = 256 256", "points = 64 64"),
                      ("duration = 2 ps", "duration = 1e-18 s"))
    code, out = run_cli(tmp_path, "sg", "--config", cfg)
    assert code == 0
    assert load_summary(out)["pz_relative_error"] < 1e-8


@pytest.mark.parametrize("preset,old,new", [
    # the beam's momentum spread hbar / width overflows
    ("tunnel-pure", "\nwidth = 36 nm\n", "\nwidth = 1e-300 nm\n"),
    # the leads' wave number underflows to 0, and T divides by it
    ("tunnel-sweep-rect", "energy_min = 0.5 eV", "energy_min = 1e-300 eV"),
], ids=["beam-width", "sweep-energy"])
def test_float_range_is_a_domain_error(tmp_path, capsys, preset, old, new):
    cfg = preset_copy(tmp_path, preset, (old, new))
    code, out = run_cli(tmp_path, "tunnel", "--config", cfg)
    assert code == 1
    # stderr holds the one JSON diagnostic and no RuntimeWarning
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DomainError" and "tunnel scenario" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("kind,preset,old,new,words", [
    ("talbot", "carpet-100nm", "period = 100 nm", "period = 1e300 nm",
     "grating period"),
    ("sg", "sg-bands-13half", "region_length = 3.5 cm", "region_length = 1e300 m",
     "transit time"),
    ("sg", "sg-bands-13half", "speed = 600 m/s", "speed = 1e-300 m/s",
     "transit time"),
    ("diffuse", "table1", "width = 1 um", "width = 1e300 m", "packet width"),
], ids=["talbot-period", "sg-region-length", "sg-speed", "diffuse-width"])
def test_overflow_is_a_domain_error(tmp_path, capsys, kind, preset, old, new,
                                    words):
    # each squares a time or a length past the float range
    cfg = preset_copy(tmp_path, preset, (old, new))
    code, out = run_cli(tmp_path, kind, "--config", cfg)
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DomainError" and words in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("preset,edits", [
    # the final momentum mu_B b0 t of sg-split's 2 ps run on 256 points per
    # micron leaves the band from about 3.8e9 T/m on
    ("sg-split", [("b0 = 5e8 T/m", "b0 = 4.5e9 T/m")]),
    ("sg-split", [("b0 = 5e8 T/m", "b0 = 1e300 T/m")]),
    # and sg-coupled-check's 54 ps run on 64 points from about 3e7 T/m
    ("sg-coupled-check", [("b0 = 1.05e6 T/m", "b0 = 5e7 T/m"),
                          ("bias_ratios = 200", "bias_ratios = 50")]),
], ids=["split-4.5e9", "split-1e300", "coupled-check-5e7"])
def test_sg_kick_past_the_spectral_band_is_a_resolution_error(tmp_path, capsys,
                                                              preset, edits):
    cfg = preset_copy(tmp_path, preset, *edits)
    code, out = run_cli(tmp_path, "sg", "--config", cfg)
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ResolutionError"
    assert "'b0'" in err["message"] and "'duration'" in err["message"]
    assert not out.exists()


def test_sg_kick_inside_the_spectral_band_runs(tmp_path):
    cfg = preset_copy(tmp_path, "sg-split", ("b0 = 5e8 T/m", "b0 = 3e9 T/m"))
    code, out = run_cli(tmp_path, "sg", "--config", cfg)
    assert code == 0
    assert load_summary(out)["pz_relative_error"] < 1e-12


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


@pytest.mark.parametrize("threads", ["0", "-100", "2"])
def test_threads_below_one_rejected(tmp_path, capsys, threads):
    code, out = run_cli(tmp_path, "ratio", "--preset", "Ag", "--threads", threads)
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and "--threads" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("argv,scenario,words", [
    (["ratio", "--preset", "Ag", "--bogus", "2"], "ratio", "--bogus"),
    (["ratio", "--preset"], "ratio", "--preset"),
    ([], None, "required: command"),
], ids=["unknown-flag", "flag-without-value", "no-subcommand"])
def test_usage_errors_end_in_the_json_diagnostic(tmp_path, capsys, monkeypatch,
                                                 argv, scenario, words):
    monkeypatch.chdir(tmp_path)         # where the default runs/ would go
    assert main(argv) == 2
    captured = capsys.readouterr()
    err = json.loads(captured.err)
    assert err["error"] == "ConfigError" and err["scenario"] == scenario
    assert words in err["message"] and not captured.out
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_still_print_text(capsys, flag):
    with pytest.raises(SystemExit) as done:
        main([flag])
    assert done.value.code == 0
    assert "qratio" in capsys.readouterr().out


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


@pytest.mark.parametrize("taken", ["summary.json", "manifest.json"])
def test_an_unwritable_output_is_a_config_error(tmp_path, capsys, taken):
    out = tmp_path / "out"
    (out / taken).mkdir(parents=True)
    code = main(["ratio", "--preset", "Ag", "--out", str(out)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and "cannot write" in err["message"]
    assert str(out / taken) in err["message"]
    assert not (out / ".manifest.json.tmp").exists()
    assert (out / taken).is_dir()


@pytest.mark.parametrize("kind,preset,old,new", [
    ("sg", "sg-split", "points = 256 256", "points = 65536 65536"),
    ("talbot", "carpet-100nm", "open_fraction = 0.3", "open_fraction = 0.001"),
    ("tunnel", "tunnel-sweep-rect", "count = 29", "count = 1000000000"),
    ("talbot", "lau-resonant", "offsets = 81", "offsets = 1000000000"),
    ("decohere", "decohere-split", "steps = 200", "steps = 1000000000"),
    ("talbot", "lau-resonant", "source_slits = 16", "source_slits = 1000000000"),
    ("sg", "sg-split", "duration = 2 ps", "duration = 1 s"),
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


def test_sg_bands_list_only_weighted_bands(tmp_path):
    # at j = 2000 the far tails of the 4,001 bands underflow to weight 0;
    # the files list the others, as distribution.csv does, and the summary
    # still sums the whole histogram
    cfg = preset_copy(tmp_path, "sg-bands-13half", ("j = 13/2", "j = 2000"),
                      ("theta = pi/2", "theta = pi/3"))
    code, out = run_cli(tmp_path, "sg", "--config", cfg)
    assert code == 0
    rows = (out / "bands.csv").read_text().splitlines()[1:]
    weights = [float(r.split(",")[2]) for r in rows]
    assert 0 < len(rows) < 4001 and min(weights) > 0.0
    # one bar per row, over the white background
    assert (out / "bands.svg").read_text().count("<rect ") == len(rows) + 1
    assert math.fsum(weights) == pytest.approx(
        load_summary(out)["total_weight"], rel=1e-12)


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
