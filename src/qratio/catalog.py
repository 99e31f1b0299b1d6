"""Particle and experiment catalog.

The catalog ships as a versioned structured-text file (``data/catalog.txt``)
and is loaded once at import of this module; :func:`parse_catalog` reads
any text of the same schema.
"""

from dataclasses import dataclass
from importlib import resources

from .config import _check_required, _raw_parse, _validate_section
from .constants import ATOMIC_MASS_UNIT
from .errors import CatalogKeyError, ConfigError, DomainError


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
            raise DomainError(f"negative mass or size for particle {self.name!r}")


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
            raise DomainError(f"bad mass or size for experiment {self.name!r}")
        if self.quantum_range_Rq <= 0.0:
            raise DomainError(f"quantum range must be positive for {self.name!r}")


_RECORD = {"name": ("str", True, None), "mass": ("mass>=0", True, None),
           "L0": ("length>=0", True, None), "source": ("str", False, "")}
# section -> key -> (type, required, default), as in config.SCHEMAS
SCHEMA = {"particle": _RECORD,
          "experiment": {**_RECORD, "mass": ("mass>0", True, None),
                         "Rq": ("length>0", True, None)}}


def _finish_record(kind, fields, line):
    v = _validate_section(kind, SCHEMA[kind], fields, line)
    _check_required(kind, SCHEMA[kind], v, line, {})
    if kind == "particle":
        return ParticleSpec(v["name"], v["mass"], v["L0"], v["source"])
    return ExperimentRecord(v["name"], v["mass"], v["mass"] / ATOMIC_MASS_UNIT,
                            v["L0"], v["Rq"], v["source"])


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
        if kind not in SCHEMA:
            raise ConfigError(f"unknown catalog section [{kind}]", line)
        rec = _finish_record(kind, fields, line)
        if rec.name in records:
            raise ConfigError(f"duplicate catalog entry {rec.name!r}", line)
        records[rec.name] = rec
    return records


CATALOG = parse_catalog(
    resources.files("qratio").joinpath("data/catalog.txt").read_text())


def catalog_lookup(name):
    """Return the ParticleSpec or ExperimentRecord registered under ``name``."""
    try:
        return CATALOG[name]
    except KeyError:
        known = ", ".join(sorted(CATALOG))
        raise CatalogKeyError(
            f"unknown catalog entry {name!r}; available: {known}") from None


def experiment_lookup(name):
    """Return the ExperimentRecord registered under ``name``."""
    rec = catalog_lookup(name)
    if not isinstance(rec, ExperimentRecord):
        raise ConfigError(f"catalog entry {name!r} is not an experiment record")
    return rec


def experiment_names():
    return [n for n, r in CATALOG.items() if isinstance(r, ExperimentRecord)]
