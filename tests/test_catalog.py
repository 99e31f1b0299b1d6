from importlib import resources

import pytest

from qratio import catalog
from qratio.catalog import (CATALOG, ExperimentRecord, ParticleSpec,
                            catalog_lookup, experiment_names, parse_catalog)
from qratio.constants import KG_PER_MEV_C2
from qratio.core import Classification, quantum_ratio
from qratio.errors import CatalogKeyError, ConfigError, DomainError


def test_electron_mass_matches_quoted_value():
    e = catalog_lookup("electron")
    assert isinstance(e, ParticleSpec)
    assert e.mass == pytest.approx(0.51099895 * KG_PER_MEV_C2, rel=1e-12)
    assert e.size_L0 == 0.0


def test_c70_experiment_row():
    rec = catalog_lookup("C70-cold")
    assert isinstance(rec, ExperimentRecord)
    assert rec.mass_amu == pytest.approx(840.0, rel=1e-9)
    assert rec.size_L0 == pytest.approx(9.4e-10)
    assert rec.quantum_range_Rq == pytest.approx(16e-3)


def test_unknown_name_lists_available():
    with pytest.raises(CatalogKeyError) as err:
        catalog_lookup("unobtainium")
    msg = str(err.value)
    assert "unobtainium" in msg and "electron" in msg and "Ag" in msg


def test_massless_gauge_bosons_present():
    assert catalog_lookup("photon").mass == 0.0
    assert catalog_lookup("gluon").mass == 0.0


@pytest.mark.parametrize("name,q_scale,cls", [
    ("Ag", 1e6, Classification.QUANTUM),
    ("Na", 1e6, Classification.QUANTUM),
    ("C70-cold", 1e7, Classification.QUANTUM),
    ("C70-hot", 1e3, Classification.QUANTUM),
])
def test_experiment_rows_reproduce_quantum_ratios(name, q_scale, cls):
    rec = catalog_lookup(name)
    res = quantum_ratio(rec.quantum_range_Rq, rec.size_L0)
    assert q_scale / 3 <= res.ratio <= q_scale * 3
    assert res.classification is cls


def test_experiment_names():
    names = experiment_names()
    assert set(names) == {"Ag", "Na", "C70-cold", "C70-hot"}


def test_user_catalog_extension():
    text = """
version = 1

[particle]
name = test-dust
mass = 1e-15 kg
L0 = 1 um
source = synthetic
"""
    records = parse_catalog(text)
    spec = records["test-dust"]
    assert spec.mass == 1e-15
    assert spec.size_L0 == 1e-6


@pytest.mark.parametrize("text,fragment", [
    ("[particle]\nname = x\nmass = 1 kg\nL0 = 0 m", "version"),
    ("version = 1\n[particle]\nname = x\nmass = 1 kg", "missing keys"),
    ("version = 1\n[particle]\nname = x\nmass = 1\nL0 = 0 m", "unit"),
    ("version = 1\n[widget]\nname = x", "unknown catalog section"),
    ("version = 1\n[particle]\nname = x\nmass = 1 kg\nL0 = 0 m\nbogus = 2",
     "unknown keys"),
    ("version = 1\nowner = me\n[particle]\nname = x\nmass = 1 kg\nL0 = 0 m",
     "only 'version'"),
    ("version = 1\n[particle]\nname = x\nmass = 1 kg\nL0 = 0 m\nsource =",
     "empty value"),
    ("version = 1\n[particle]\nname = x\nname = y\nmass = 1 kg\nL0 = 0 m",
     "duplicate key"),
    ("version = 1\n[particle]\nname = x\nmass = 1 kg\nL0 = 0 m\n"
     "[particle]\nname = x\nmass = 2 kg\nL0 = 0 m", "duplicate catalog entry"),
    ("version = 1\n[particle]\nname = x\nmass = -1 kg\nL0 = 0 m",
     "line 4: key 'mass' must be >= 0"),
    ("version = 1\n[particle]\nname = x\nmass = 1 kg\nL0 = -1 nm",
     "line 5: key 'L0' must be >= 0"),
    ("version = 1\n[experiment]\nname = x\nmass = 0 kg\nL0 = 0 m\nRq = 1 mm",
     "line 4: key 'mass' must be > 0"),
    ("version = 1\n[experiment]\nname = x\nmass = 1 kg\nL0 = -1 nm\nRq = 1 mm",
     "line 5: key 'L0' must be >= 0"),
    ("version = 1\n[experiment]\nname = x\nmass = 1 kg\nL0 = 0 m\nRq = 0 m",
     "line 6: key 'Rq' must be > 0"),
])
def test_malformed_catalogs_rejected(text, fragment):
    with pytest.raises(ConfigError) as err:
        parse_catalog(text)
    assert fragment in str(err.value)


def test_bounds_leave_the_bundled_catalog_unchanged(monkeypatch):
    unbounded = {kind: {key: (vtype.partition(">")[0], required, default)
                        for key, (vtype, required, default) in spec.items()}
                 for kind, spec in catalog.SCHEMA.items()}
    monkeypatch.setattr(catalog, "SCHEMA", unbounded)
    text = resources.files("qratio").joinpath("data/catalog.txt").read_text()
    assert parse_catalog(text) == CATALOG


@pytest.mark.parametrize("make", [
    lambda: ParticleSpec("x", -1.0, 0.0),
    lambda: ExperimentRecord("x", 0.0, 0.0, 0.0, 1.0),
    lambda: ExperimentRecord("x", 1.0, 1.0, 0.0, 0.0),
])
def test_records_raise_domain_errors(make):
    with pytest.raises(DomainError):
        make()
