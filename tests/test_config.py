import ast
import math
from pathlib import Path

import pytest

from qratio import catalog, runner
from qratio.cli import _preset_text
from qratio.config import (_SIMPLE, SCENARIO, SCHEMAS, _type_parts,
                           parse_config, serialize_config)
from qratio.errors import ConfigError
from qratio.units import _UNITS, DIMENSIONLESS, SI_UNITS, parse_quantity


class TestUnits:
    @pytest.mark.parametrize("text,dim,expected", [
        ("0.2 mm", "length", 2e-4),
        ("1.44 angstrom", "length", 1.44e-10),
        ("108 amu", "mass", 108 * 1.66053906660e-27),
        ("2 eV", "energy", 2 * 1.602176634e-19),
        ("10 T/cm", "gradient", 1000.0),
        ("1e3 G", "field", 0.1),
        ("pi/4", "angle", math.pi / 4),
        ("3pi/2 rad", "angle", 3 * math.pi / 2),
        ("13/2", "spin", 6.5),
        ("90 deg", "angle", math.pi / 2),
    ])
    def test_parses(self, text, dim, expected):
        assert parse_quantity(text, dim) == pytest.approx(expected, rel=1e-12)

    def test_missing_unit_names_key(self):
        with pytest.raises(ConfigError) as err:
            parse_quantity("0.2", "length", key="Rq", line=7)
        msg = str(err.value)
        assert "Rq" in msg and "line 7" in msg

    def test_wrong_dimension(self):
        with pytest.raises(ConfigError) as err:
            parse_quantity("3 eV", "length", key="L0")
        assert "expects length" in str(err.value)

    def test_unknown_unit(self):
        with pytest.raises(ConfigError):
            parse_quantity("3 parsec", "length")

    @pytest.mark.parametrize("text,dim", [
        ("nan m", "length"), ("inf m", "length"), ("-inf eV", "energy"),
        ("1e308 km/s", "speed"), ("nan", "spin"), ("infpi", "angle"),
    ])
    def test_non_finite_rejected(self, text, dim):
        with pytest.raises(ConfigError) as err:
            parse_quantity(text, dim, key="x", line=3)
        assert "finite" in str(err.value) and "line 3" in str(err.value)

    @pytest.mark.parametrize("text", ["pi/0", "-pi/0", "2pi/0.0"])
    def test_pi_over_zero_names_the_key(self, text):
        with pytest.raises(ConfigError) as err:
            parse_quantity(text, "angle", key="theta", line=4)
        assert "'theta'" in str(err.value) and "line 4" in str(err.value)

    @pytest.mark.parametrize("text,dim", [
        ("pi m", "length"), ("2pi/3 eV", "energy"), ("pi/2", "spin"),
        ("0.5pi", "dimensionless"),
    ])
    def test_pi_only_for_angles(self, text, dim):
        with pytest.raises(ConfigError) as err:
            parse_quantity(text, dim, key="x", line=2)
        msg = str(err.value)
        assert "'x'" in msg and "angle" in msg and "line 2" in msg

    def test_pi_angle_in_a_preset(self):
        cfg = parse_config(_preset_text("sg-bands-13half"))
        assert cfg.section("sg")["theta"] == math.pi / 2

    def test_pi_over_zero_in_a_config(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[scenario]\nkind = spin-dist\n[spin]\nj = 1\n"
                         "theta = pi/0\n")
        assert "'theta'" in str(err.value) and "line 5" in str(err.value)

    def test_si_unit_of_every_dimension(self):
        # the table serialize_config once kept beside _UNITS; "" marks a
        # dimension written as a bare number
        table = {
            "length": "m", "mass": "kg", "time": "s", "speed": "m/s",
            "energy": "J", "momentum": "kg*m/s", "field": "T",
            "gradient": "T/m", "rate": "1/s", "angle": "rad", "spin": "",
            "dimensionless": "",
        }
        assert {dim: SI_UNITS.get(dim, "") for dim in table} == table
        assert set(SI_UNITS) == {dim for dim, _ in _UNITS.values()}
        assert all(_UNITS[unit] == (dim, 1.0) for dim, unit in SI_UNITS.items())


class TestParseConfig:
    def test_ratio_preset_values(self):
        cfg = parse_config("[scenario]\nkind = ratio\n[ratio]\n"
                           "Rq = 0.2 mm\nL0 = 1.44 angstrom\n")
        assert cfg.kind == "ratio"
        assert cfg.section("ratio")["Rq"] == pytest.approx(2e-4)
        assert cfg.section("ratio")["L0"] == pytest.approx(1.44e-10)

    def test_empty_file(self):
        with pytest.raises(ConfigError) as err:
            parse_config("")
        assert "scenario kind required" in str(err.value)

    def test_missing_unit_reports_line(self):
        text = "[scenario]\nkind = ratio\n[ratio]\nRq = 0.2\nL0 = 1 m\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert "line 4" in str(err.value) and "Rq" in str(err.value)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0.5 nan"])
    def test_non_finite_plain_number_rejected(self, value):
        text = ("[scenario]\nkind = sg\n[sg]\nmode = decoupled\n"
                f"bias_ratios = {value}\n")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        msg = str(err.value)
        assert "finite" in msg and "bias_ratios" in msg and "line 5" in msg

    def test_unknown_key_rejected_with_line(self):
        text = ("[scenario]\nkind = spin-dist\n[spin]\nj = 1\ntheta = 1\n"
                "bogus = 3\n")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert "bogus" in str(err.value) and "line 6" in str(err.value)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            parse_config("[scenario]\nkind = teleport\n")

    def test_unknown_section(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[scenario]\nkind = ratio\n[warp]\nx = 1\n")
        assert "[warp]" in str(err.value)

    def test_required_key_enforced(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[scenario]\nkind = spin-dist\n[spin]\ntheta = 1\n")
        assert "'j'" in str(err.value)

    def test_repeated_case_sections(self):
        text = ("[scenario]\nkind = diffuse\n"
                "[case]\nname = a\nmass = 1 g\nwidth = 1 um\n"
                "[case]\nname = b\nmass = 2 g\nwidth = 2 um\n")
        cfg = parse_config(text)
        assert [c["name"] for c in cfg.params["case"]] == ["a", "b"]

    def test_diffuse_needs_a_case(self):
        with pytest.raises(ConfigError):
            parse_config("[scenario]\nkind = diffuse\n")

    def test_keys_before_first_section_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config("# top\nkind = ratio\n[scenario]\nkind = ratio\n")
        assert "inside a section" in str(err.value) and "line 2" in str(err.value)

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[scenario]\nkind = ratio\nkind = ratio\n")

    def test_round_trip(self):
        text = ("[scenario]\nkind = decohere\nout = runs/round-trip\n"
                "[decohere]\nmass = 9.1e-31 kg\nwidth = 25 nm\n"
                "separation = 0.25 um\nsteps = 17\n"
                "[environment]\nwavelength = 60 nm\nrate = 2e13 1/s\n"
                "[grid]\npoints = 512\nextent = 1 um\n")
        cfg = parse_config(text)
        cfg2 = parse_config(serialize_config(cfg))
        assert cfg2.params == cfg.params
        assert cfg2.kind == cfg.kind and cfg2.out == cfg.out
        assert serialize_config(cfg2) == serialize_config(cfg)

    def test_comments_and_blank_lines_ignored(self):
        text = ("# header\n[scenario]\n\nkind = ratio  # trailing\n"
                "[ratio]\nRq = 1 m\nL0 = 1 m\n")
        cfg = parse_config(text)
        assert cfg.section("ratio")["Rq"] == 1.0


SPECS = ([(kind, section.rstrip("*"), key, entry)
          for kind, schema in SCHEMAS.items()
          for section, spec in schema.items() for key, entry in spec.items()]
         + [("scenario", "scenario", key, entry) for key, entry in SCENARIO.items()]
         + [("catalog", section, key, entry)
            for section, spec in catalog.SCHEMA.items()
            for key, entry in spec.items()])
DIMENSIONS = {dim for dim, _ in _UNITS.values()} | set(DIMENSIONLESS)


@pytest.mark.parametrize("kind,section,key,entry", SPECS,
                         ids=[f"{k}.{s}.{key}" for k, s, key, _ in SPECS])
def test_schema_entry_is_consistent(kind, section, key, entry):
    vtype, required, default = entry
    if isinstance(required, str):
        # a typo such as 'tunel.mode=pure' would quietly drop a requirement
        target, _, listed = required.partition("=")
        cond_section, _, cond_key = target.partition(".")
        assert cond_key in SCHEMAS[kind].get(cond_section, {}), required
        cond_type = SCHEMAS[kind][cond_section][cond_key][0]
        assert cond_type.startswith("choice:"), required
        assert set(listed.split("|")) <= set(cond_type[7:].split("|")), required
    else:
        assert required in (True, False)
    if required is not False:
        assert default is None, "a required key's default is never used"
    if vtype.startswith("choice:"):
        assert default is None or default in vtype[7:].split("|")
        return
    base, count, op, bound = _type_parts(vtype)
    assert base in _SIMPLE or base in DIMENSIONS, vtype
    assert (count is None or base in ("ints", "floats")) and (
        op is None or math.isfinite(bound))
    if default is not None:
        values = default if isinstance(default, tuple) else (default,)
        assert count is None or len(values) == count
        assert op is None or all(v > bound if op == ">" else v >= bound
                                 for v in values)


def test_every_schema_key_is_read_by_the_runner():
    # a key that appears nowhere in runner.py as a literal does nothing
    tree = ast.parse(Path(runner.__file__).read_text(encoding="utf-8"))
    literals = {node.value for node in ast.walk(tree)
                if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    unread = [f"{kind}.{section}.{key}" for kind, schema in SCHEMAS.items()
              for section, spec in schema.items() for key in spec
              if key not in literals]
    assert unread == []


TUNNEL_BEAM = ("[scenario]\nkind = tunnel\n[tunnel]\nmode = pure\nmass = 1 kg\n"
               "[barrier]\nshape = gaussian\nheight = 1 eV\nsigma = 1 nm\n"
               "[beam]\nenergy = 1 eV\nwidth = 1 nm\ntransverse_width = 1 nm\n"
               "separation = 1 nm\n")
SG = "[scenario]\nkind = sg\n[sg]\nmass = 1 kg\nb0 = 1 T/m\n"


@pytest.mark.parametrize("text,key", [
    # per-mode required keys
    (SG + "mode = bands\nj = 1\ntheta = 1\nspeed = 1 m/s\n", "region_length"),
    (SG + "mode = decoupled\nwidth = 1 nm\n", "duration"),
    (SG + "mode = coupled-check\nduration = 1 s\n", "width"),
    (SG + "mode = coupled-check\nwidth = 1 nm\nduration = 1 s\n", "bias_ratios"),
    (SG.replace("mass = 1 kg\n", "") + "mode = bands\n", "mass"),
    (TUNNEL_BEAM.replace("sigma = 1 nm", "width = 1 nm"), "sigma"),
    (TUNNEL_BEAM.replace("shape = gaussian", "shape = rectangular"), "width"),
    (TUNNEL_BEAM.replace("energy = 1 eV\n", ""), "energy"),
    (TUNNEL_BEAM.replace("separation = 1 nm\n", ""), "separation"),
    (TUNNEL_BEAM.replace("mode = pure", "mode = decohered"), "wavelength"),
    (TUNNEL_BEAM.replace("mode = pure", "mode = sweep"), "energy_min"),
    # bounds and value counts
    (TUNNEL_BEAM.replace("mode = pure", "mode = sweep")
     + "[sweep]\nenergy_min = 1 eV\nenergy_max = 2 eV\ncount = 0\n", "count"),
    (TUNNEL_BEAM + "[grid]\npoints = 64\n", "points"),
    (SG + "mode = decoupled\nwidth = 1 nm\nduration = 1 s\nsteps = 0\n", "steps"),
    ("[scenario]\nkind = decohere\n[decohere]\nsteps = 0\n", "steps"),
    ("[scenario]\nkind = talbot\n[talbot]\nmode = lau\nwavelength = 1 nm\n"
     "[grating]\nperiod = 1 um\n[lau]\noffsets = -1\n", "offsets"),
    ("[scenario]\nkind = talbot\n[talbot]\nmode = lau\nwavelength = 1 nm\n"
     "[grating]\nperiod = 1 um\n[lau]\nsource_slits = 1\n", "source_slits"),
    # the [scenario] header
    ("[scenario]\nout = x\n", "kind"),
    ("[scenario]\nkind = ratio\nseed = x\n", "seed"),
    ("[scenario]\nkind = ratio\nwhere = here\n", "where"),
])
def test_schema_rules(text, key):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert f"'{key}'" in str(err.value)


@pytest.mark.parametrize("text,message", [
    ("version = 1\n[experiment]\nname = x\nmass = 1 kg\nL0 = 0 m\n",
     "line 2: [experiment] missing keys ['Rq']"),
    ("version = 1\n[particle]\nmass = 1 kg\nL0 = 0 m\n",
     "line 2: [particle] missing keys ['name']"),
    ("version = 1\n[particle]\nname = x\nmass = 1 kg\nL0 = 0 m\nRq = 1 m\n",
     "line 6: [particle] unknown keys ['Rq']"),
])
def test_catalog_uses_the_schema(text, message):
    with pytest.raises(ConfigError) as err:
        catalog.parse_catalog(text)
    assert str(err.value) == message


def test_value_errors_come_before_missing_keys():
    # [beam] lacks every required key, but the bad [sweep] count comes first
    text = TUNNEL_BEAM.split("[beam]")[0] + "[beam]\n[sweep]\ncount = 0\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert "'count'" in str(err.value)


def test_defaults_fill_absent_sections():
    cfg = parse_config(SG + "mode = bands\nj = 1\ntheta = 1\nspeed = 1 m/s\n"
                       "region_length = 1 cm\n")
    assert cfg.section("grid") == {"points": (256, 256), "extent": 1e-6}
    assert cfg.section("sg")["c_up"] == 1.0 / math.sqrt(2.0)
