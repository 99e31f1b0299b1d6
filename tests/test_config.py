import math

import pytest

from qratio.config import parse_config, serialize_config
from qratio.errors import ConfigError
from qratio.units import parse_quantity


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
        text = ("[scenario]\nkind = decohere\nseed = 3\n"
                "[decohere]\nmass = 9.1e-31 kg\nwidth = 25 nm\n"
                "separation = 0.25 um\nsteps = 17\n"
                "[environment]\nwavelength = 60 nm\nrate = 2e13 1/s\n"
                "[grid]\npoints = 512\nextent = 1 um\n")
        cfg = parse_config(text)
        cfg2 = parse_config(serialize_config(cfg))
        assert cfg2.params == cfg.params
        assert cfg2.kind == cfg.kind and cfg2.seed == cfg.seed
        assert serialize_config(cfg2) == serialize_config(cfg)

    def test_comments_and_blank_lines_ignored(self):
        text = ("# header\n[scenario]\n\nkind = ratio  # trailing\n"
                "[ratio]\nRq = 1 m\nL0 = 1 m\n")
        cfg = parse_config(text)
        assert cfg.section("ratio")["Rq"] == 1.0
