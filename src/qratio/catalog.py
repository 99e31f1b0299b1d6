"""Particle and experiment catalog.

The catalog ships as a versioned structured-text file (``data/catalog.txt``)
and is loaded once at import of this module.  Users can layer additional
files with the same schema on top via :func:`load_catalog`.
"""

from dataclasses import dataclass
from importlib import resources

from .config import _raw_parse
from .constants import ATOMIC_MASS_UNIT
from .errors import CatalogKeyError, ConfigError
from .units import parse_quantity


@dataclass(frozen=True)
class ParticleSpec:
    """A particle with mass (kg) and linear size L0 (m).

    ``size_L0 = 0`` marks a pointlike elementary particle.  Massless gauge
    bosons are stored with ``mass = 0``; operations that need inertia
    (wavelengths, packets) reject them at call time.
    """

    name: str
    mass: float
    size_L0: float
    source: str = ""

    def __post_init__(self):
        if self.mass < 0.0 or self.size_L0 < 0.0:
            raise ValueError(f"negative mass or size for particle {self.name!r}")


@dataclass(frozen=True)
class ExperimentRecord:
    """One interferometry/deflection experiment row.

    ``quantum_range_Rq`` is the measured spatial extension of the
    center-of-mass wave function (m); ``size_L0`` the particle size (m).
    """

    name: str
    mass: float           # kg
    mass_amu: float       # as quoted, atomic units
    size_L0: float        # m
    quantum_range_Rq: float  # m
    source: str = ""

    def __post_init__(self):
        if self.size_L0 < 0.0 or self.mass <= 0.0:
            raise ValueError(f"bad mass or size for experiment {self.name!r}")
        if self.quantum_range_Rq <= 0.0:
            raise ValueError(f"quantum range must be positive for {self.name!r}")


_REQUIRED = {
    "particle": {"name", "mass", "L0"},
    "experiment": {"name", "mass", "L0", "Rq"},
}
_OPTIONAL = {"source"}


def _finish_record(kind, fields, line):
    missing = _REQUIRED[kind] - fields.keys()
    if missing:
        raise ConfigError(f"[{kind}] entry missing keys {sorted(missing)}", line)
    unknown = fields.keys() - _REQUIRED[kind] - _OPTIONAL
    if unknown:
        raise ConfigError(f"[{kind}] entry has unknown keys {sorted(unknown)}", line)
    name = fields["name"][0]
    source = fields.get("source", ("",))[0]
    mass = parse_quantity(fields["mass"][0], "mass", "mass", fields["mass"][1])
    size = parse_quantity(fields["L0"][0], "length", "L0", fields["L0"][1])
    if kind == "particle":
        return ParticleSpec(name, mass, size, source)
    rq = parse_quantity(fields["Rq"][0], "length", "Rq", fields["Rq"][1])
    return ExperimentRecord(name, mass, mass / ATOMIC_MASS_UNIT, size, rq, source)


def parse_catalog(text):
    """Parse catalog text into an ordered name -> record dict."""
    head, sections = _raw_parse(text)
    for key, (_, line) in head.items():
        if key != "version":
            raise ConfigError("only 'version' may precede the first section", line)
    if "version" not in head:
        raise ConfigError("catalog file must declare a version")
    records = {}
    for kind, fields, line in sections:
        if kind not in _REQUIRED:
            raise ConfigError(f"unknown catalog section [{kind}]", line)
        rec = _finish_record(kind, fields, line)
        if rec.name in records:
            raise ConfigError(f"duplicate catalog entry {rec.name!r}", line)
        records[rec.name] = rec
    return records


def load_catalog(extra_paths=()):
    """Load the bundled catalog, then merge user files (later wins by name)."""
    text = resources.files("qratio").joinpath("data/catalog.txt").read_text()
    records = parse_catalog(text)
    for path in extra_paths:
        with open(path, encoding="utf-8") as fh:
            records.update(parse_catalog(fh.read()))
    return records


CATALOG = load_catalog()


def catalog_lookup(name, catalog=None):
    """Return the ParticleSpec or ExperimentRecord registered under ``name``."""
    cat = CATALOG if catalog is None else catalog
    try:
        return cat[name]
    except KeyError:
        known = ", ".join(sorted(cat))
        raise CatalogKeyError(
            f"unknown catalog entry {name!r}; available: {known}") from None


def experiment_names(catalog=None):
    cat = CATALOG if catalog is None else catalog
    return [n for n, r in cat.items() if isinstance(r, ExperimentRecord)]
